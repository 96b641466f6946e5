"""The three benchmark workloads and the independent checks of their outputs.

Every workload is a closed loop with one client in one process.  A *unit* is
the smallest repeated piece of work whose mix of operations is fixed (one
``search`` plus one ``verify`` CLI call, one scan round, one pass over the
extremal queries); the loop runs whole units, so a run's throughput never
depends on where the clock stopped.  ``unit`` does the timed work and returns
raw outputs; ``check`` runs afterwards, untimed, and compares the outputs with
references that share no code with the package: OEIS class counts, a stored
reference (``reference.json``, made by ``make_reference.py`` with the
brute-force containment oracle and LAPACK), ``numpy.linalg.eigvalsh`` on
matrices built here, and the closed-form bound formulas written out here.

The package is called through module attributes (``spectra.spectral_radius``,
never a name bound at import) so that the tracer's rebinding takes effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from starfree import cli, enumeration, families, graphs, search, spectra, star_forests
from starfree.enumeration import GraphClass

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_PATH = HERE / "reference.json"

TOL = 1e-9  # eigenvalue and equality-case tolerance
STRICT = 1e-6  # margin that a deleted edge must open below the ceiling

# Classes per order, indexed by n (OEIS A000088, A001349, A033995, A005142).
OEIS = {
    GraphClass.ALL: (1, 1, 2, 4, 11, 34, 156, 1044, 12346, 274668),
    GraphClass.CONNECTED: (1, 1, 1, 2, 6, 21, 112, 853, 11117, 261080),
    GraphClass.BIPARTITE: (1, 1, 2, 3, 7, 13, 35, 88, 303, 1119, 5479, 32303),
    GraphClass.CONNECTED_BIPARTITE: (1, 1, 1, 1, 3, 5, 17, 44, 182, 730, 4032),
}


@dataclass(frozen=True)
class Size:
    """Input sizes; FULL is the benchmark, TINY is for the self-test."""

    cli_search_n: int
    cli_verify_max_n: int
    cli_forests: tuple[str, ...]
    scan_n_all: int
    scan_n_bipartite: int
    scan_pools: tuple[tuple[str, ...], ...]
    extremal_orders: dict  # k -> orders, each raised until the family exists


FULL = Size(
    cli_search_n=8,
    cli_verify_max_n=9,
    cli_forests=("2,2", "3,2", "2,1,1"),
    scan_n_all=7,
    scan_n_bipartite=9,
    # one forest is drawn from each pool; the pools group forests of similar
    # scan cost, so every seed does about the same work
    scan_pools=(("2,1", "2,2", "3,1"), ("1,1,1", "2,1,1", "3,2")),
    # containment cost grows like n^k, so k = 4 stops at lower orders; k = 2
    # stays small, where containment is cheap and a large order would only add
    # spectra.  The orders are fixed so that every seed does the same work.
    extremal_orders={2: (16, 19, 22, 25, 28), 3: (16, 22, 28, 34, 40),
                     4: (16, 20, 24, 28, 32)},
)

TINY = Size(
    cli_search_n=5,
    cli_verify_max_n=6,
    cli_forests=("2,1", "1,1"),
    scan_n_all=6,
    scan_n_bipartite=7,
    scan_pools=(("2,1", "3,1"), ("2,2", "1,1,1")),
    extremal_orders={2: (8, 10), 3: (8, 11)},
)


@dataclass
class Outcome:
    """Operations attempted and failed, work done, per-operation latencies.

    A latency is the CPU time of the benchmark's thread (``time.thread_time``).
    Every operation is single-threaded computation without I/O, so that is its
    whole cost; wall-clock times in a shared VM also carry host preemptions
    of up to about 25 ms that land on random operations and alone would set
    the tail.  Throughput (``graphs_per_s``) stays on wall-clock time.
    """

    attempted: int = 0
    failed: int = 0
    visits: int = 0
    latencies: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[:3])


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh)


def reference_key(graph_class: GraphClass, n: int, forest: str) -> str:
    return f"{graph_class.value}/{n}/{forest}"


# ---------------------------------------------------------------------------
# independent references
# ---------------------------------------------------------------------------


def adjacency(g) -> np.ndarray:
    """Adjacency matrix from the bitmask rows, without the package's builder."""
    bits = np.array(g.adj, dtype=np.uint64)[:, None] >> np.arange(g.n, dtype=np.uint64)
    return (bits & np.uint64(1)).astype(float)


def eigenvalues(g) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of A and of Q = D + A by LAPACK."""
    a = adjacency(g)
    return np.linalg.eigvalsh(a), np.linalg.eigvalsh(a + np.diag(a.sum(axis=1)))


def reference_entry(graph_class: GraphClass, n: int, forest: str, cache) -> dict:
    """count_free, max_rho and the argmax size of one search, computed with
    the brute-force containment oracle and LAPACK instead of the fast paths."""
    f = star_forests.parse_star_forest(forest)
    rhos = [
        float(eigenvalues(g)[0][-1])
        for g in enumeration.enumerate_graphs(n, graph_class, cache)
        if not star_forests.contains_star_forest_oracle(g, f)
    ]
    top = max(rhos)
    return {
        "count_free": len(rhos),
        "max_rho": top,
        "argmax_count": sum(1 for r in rhos if r >= top - search.RHO_TIE_TOL),
    }


def check_search_record(rec: dict, graph_class: GraphClass, n: int, forest: str,
                        reference: dict) -> list[str]:
    """Compare one search record (as JSON) with OEIS and the stored reference."""
    where = reference_key(graph_class, n, forest)
    ref = reference.get(where)
    if ref is None:
        return [f"{where}: no reference"]
    out = []
    if rec["count_enumerated"] != OEIS[graph_class][n]:
        out.append(f"{where}: {rec['count_enumerated']} classes, OEIS has {OEIS[graph_class][n]}")
    if rec["count_free"] != ref["count_free"]:
        out.append(f"{where}: count_free {rec['count_free']} != {ref['count_free']}")
    if abs(rec["max_rho"] - ref["max_rho"]) > TOL:
        out.append(f"{where}: max_rho {rec['max_rho']!r} != {ref['max_rho']!r}")
    if len(rec["argmax"]) != ref["argmax_count"]:
        out.append(f"{where}: {len(rec['argmax'])} maximisers != {ref['argmax_count']}")
    for g6 in rec["argmax"]:
        rho = eigenvalues(graphs.graph6_decode(g6))[0][-1]
        if abs(rho - rec["max_rho"]) > TOL:
            out.append(f"{where}: maximiser {g6} has rho {rho!r}, record says {rec['max_rho']!r}")
    return out


# closed forms, written out independently of starfree.families
def t17(n, k, d):
    return (k + d - 3 + math.sqrt((k - d - 1) ** 2 + 4 * (k - 1) * (n - k + 1))) / 2


def t18(n, k):
    return math.sqrt((k - 1) * (n - k + 1))


def conj32(n, k, d):
    return (n + 2 * k + 2 * d - 6 + math.sqrt((n + 2 * k - 2 * d - 2) ** 2
                                               - 8 * (k - 1) * (k - d - 1))) / 2


# ---------------------------------------------------------------------------
# cli: what a user pays per command
# ---------------------------------------------------------------------------


class Cli:
    """In-process ``starfree`` calls; each builds its own EnumerationCache."""

    counted = "classes enumerated plus graphs checked"

    def __init__(self, seed: int, size: Size = FULL, reference: dict | None = None):
        self.size = size
        self.reference = load_reference() if reference is None else reference
        self.forest = random.Random(seed).choice(size.cli_forests)

    def setup(self) -> float:
        """What a command pays before its work starts: importing the package
        and numpy in a fresh interpreter.  The child times its own import;
        timing the whole child from here would add the parent's wake-up,
        which this VM rounds to steps of about 50 ms."""
        path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
        code = ("import time; t = time.perf_counter(); import starfree.cli; "
                "print(time.perf_counter() - t)")
        done = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                              text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
        return float(done.stdout)

    def warm_up(self) -> None:
        self._call(["--json", "search", "5", "2,1", "all"])
        self._call(["--json", "verify", "bipartite", "--max-n", "5"])

    @staticmethod
    def _call(argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def unit(self, out: Outcome, tracer=None) -> list:
        forest = self.forest
        n, max_n = self.size.cli_search_n, self.size.cli_verify_max_n
        calls = [
            ("search", forest, ["--json", "search", str(n), forest, "all"]),
            ("verify", None, ["--json", "verify", "bipartite", "--max-n", str(max_n)]),
        ]
        results = []
        for kind, arg, argv in calls:
            if tracer is not None:
                tracer.run_id += 1
            t0 = time.thread_time()
            code, text = self._call(argv)
            out.latencies.append(time.thread_time() - t0)
            results.append((kind, arg, code, text))
        out.visits += 2 * OEIS[GraphClass.ALL][n]
        out.visits += 2 * sum(OEIS[GraphClass.BIPARTITE][1:max_n + 1])
        return results

    def check(self, results: list, out: Outcome) -> None:
        for kind, forest, code, text in results:
            problems = [] if code == 0 else [f"{kind}: exit code {code}"]
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                out.record(problems + [f"{kind}: output is not JSON"])
                continue
            if kind == "search":
                problems += check_search_record(payload, GraphClass.ALL, self.size.cli_search_n,
                                                forest, self.reference)
            else:
                want = sum(OEIS[GraphClass.BIPARTITE][1:self.size.cli_verify_max_n + 1])
                if payload.get("checked") != want:
                    problems.append(f"verify: checked {payload.get('checked')}, OEIS has {want}")
                if payload.get("failures"):
                    problems.append(f"verify: failures {payload['failures'][:3]}")
            out.record(problems)


# ---------------------------------------------------------------------------
# scan: many small graphs from a warm cache
# ---------------------------------------------------------------------------


class Scan:
    """Library scans over every class of a shared, pre-built cache, then a
    per-graph spectral hygiene pass."""

    counted = "graph visits across all scans and the hygiene pass"

    def __init__(self, seed: int, size: Size = FULL, reference: dict | None = None):
        self.size = size
        self.reference = load_reference() if reference is None else reference
        rng = random.Random(seed)
        self.forests = tuple(rng.choice(pool) for pool in size.scan_pools)
        self.classes = (
            (GraphClass.ALL, size.scan_n_all),
            (GraphClass.CONNECTED, size.scan_n_all),
            (GraphClass.BIPARTITE, size.scan_n_bipartite),
            (GraphClass.CONNECTED_BIPARTITE, size.scan_n_bipartite),
        )
        self.hygiene_classes = self.classes[0::2]
        self.records_path = HERE / "out" / f"records-{os.getpid()}.jsonl"
        self.cache = None

    def setup(self) -> None:
        """Build the two base levels into one fresh shared cache."""
        cache = enumeration.EnumerationCache()
        for graph_class, n in self.hygiene_classes:
            for _ in enumeration.enumerate_graphs(n, graph_class, cache):
                pass
        self.cache = cache

    def warm_up(self) -> None:
        g = graphs.complete_graph(3)
        spectra.adjacency_spectrum(g)
        spectra.least_eigenvalue(g)
        spectra.signless_laplacian_radius(g)
        search.extremal_search(4, star_forests.parse_star_forest("1,1"), GraphClass.ALL,
                               self.cache)

    def unit(self, out: Outcome, tracer=None) -> dict:
        cache = self.cache
        scans = []
        for forest_text in self.forests:
            forest = star_forests.parse_star_forest(forest_text)
            for graph_class, n in self.classes:
                if tracer is not None:
                    tracer.run_id += 1
                rec = search.extremal_search(n, forest, graph_class, cache)
                table = search.conjecture_margin_table(n, forest, graph_class, cache)
                violations = search.verify_edge_bound(n, forest, graph_class, cache)
                scans.append((graph_class, n, forest_text, rec, table, violations))
                out.visits += 3 * OEIS[graph_class][n]
        if tracer is not None:
            tracer.run_id += 1
        self.records_path.parent.mkdir(parents=True, exist_ok=True)
        search.write_records([s[3] for s in scans], self.records_path)
        back = search.read_records(self.records_path)
        self.records_path.unlink()
        hygiene = []
        for graph_class, n in self.hygiene_classes:
            for g in enumeration.enumerate_graphs(n, graph_class, cache):
                if tracer is not None:
                    tracer.run_id += 1
                t0 = time.thread_time()
                spec = spectra.adjacency_spectrum(g)
                least = spectra.least_eigenvalue(g)
                q = spectra.signless_laplacian_radius(g)
                out.latencies.append(time.thread_time() - t0)
                hygiene.append((g, spec.eigenvalues, least, q))
                out.visits += 1
        return {"scans": scans, "back": back, "hygiene": hygiene}

    def check(self, results: dict, out: Outcome) -> None:
        for graph_class, n, forest, rec, table, violations in results["scans"]:
            where = reference_key(graph_class, n, forest)
            problems = check_search_record(rec.to_json_dict(), graph_class, n, forest,
                                           self.reference)
            ref = self.reference.get(where, {})
            if len(table.rows) != ref.get("count_free"):
                problems.append(f"{where}: {len(table.rows)} margin rows")
            f = star_forests.parse_star_forest(forest)
            bound = conj32(n, f.k, f.degrees[-1])
            for row in table.rows:
                q = eigenvalues(graphs.graph6_decode(row.graph6))[1][-1]
                if abs(row.q - q) > TOL or abs(row.margin - (q - bound)) > TOL:
                    problems.append(f"{where}: q row {row.graph6} {row.q!r} vs {q!r}")
                    break
            if violations:
                problems.append(f"{where}: edge bound violated by {violations[:3]}")
            out.record(problems)
        want = [s[3] for s in results["scans"]]
        out.record([] if results["back"] == want else ["records changed in a write/read round trip"])
        for g, spec, least, q in results["hygiene"]:
            a_vals, q_vals = eigenvalues(g)
            problems = []
            if np.max(np.abs(np.array(spec[::-1]) - a_vals)) > TOL:
                problems.append(f"spectrum of {graphs.graph6_encode(g)}")
            if abs(least - a_vals[0]) > TOL:
                problems.append(f"least eigenvalue of {graphs.graph6_encode(g)}")
            if abs(q - q_vals[-1]) > TOL:
                problems.append(f"q of {graphs.graph6_encode(g)}")
            out.record(problems)


# ---------------------------------------------------------------------------
# extremal: few large graphs from the closed-form families
# ---------------------------------------------------------------------------

# (family, d): jr = K_{k-1} joined to a (d-1)-regular circulant, jr-e = the
# same with one inner edge deleted, kb = K_{k-1,n-k+1}, jm = K_{k-1} joined to
# a maximum matching, sp = K_{k-1} joined to an independent set.  Each is free
# of the forest of k stars with d leaves each.
VARIANTS = (("jr", 2), ("jr", 3), ("jr-e", 2), ("jr-e", 3), ("kb", 1), ("jm", 2), ("sp", 1))


@dataclass(frozen=True)
class Query:
    family: str
    n: int
    k: int
    d: int
    perm: tuple[int, ...]  # relabelling applied to the construction
    drop: int  # which inner edge jr-e deletes

    @property
    def forest(self) -> str:
        return ",".join([str(self.d)] * self.k)


def _feasible(family: str, n: int, k: int, d: int) -> bool:
    m = n - k + 1  # vertices outside the clique
    if family in ("jr", "jr-e"):
        return m > d - 1 and not ((d - 1) % 2 and m % 2)
    return True


def extremal_plan(seed: int, size: Size = FULL) -> list[Query]:
    """Every (variant, k, order) once, in random order, each with a random
    relabelling and deleted edge."""
    rng = random.Random(seed)
    plan = []
    for k, orders in sorted(size.extremal_orders.items()):
        for family, d in VARIANTS:
            for n in orders:
                while not _feasible(family, n, k, d):
                    n += 1
                perm = list(range(n))
                rng.shuffle(perm)
                plan.append(Query(family, n, k, d, tuple(perm), rng.randrange(1 << 30)))
    rng.shuffle(plan)
    return plan


def build(q: Query):
    if q.family == "kb":
        g = families.make_complete_bipartite(q.k - 1, q.n - q.k + 1)
    elif q.family == "jm":
        g = families.make_clique_join_matching(q.n, q.k)
    elif q.family == "sp":
        g = families.make_complete_split(q.n, q.k - 1)
    else:
        g = families.make_clique_join_regular(q.n, q.k, q.d)
        if q.family == "jr-e":
            edge_list = graphs.edges(g)
            inner = [e for e in edge_list if min(e) >= q.k - 1]
            dropped = inner[q.drop % len(inner)]
            g = graphs.from_edges(g.n, [e for e in edge_list if e != dropped])
    return graphs.relabel(g, q.perm)


class Extremal:
    """Seeded queries over the closed-form extremal families at orders 16-40."""

    counted = "queries"

    def __init__(self, seed: int, size: Size = FULL):
        self.seed = seed
        self.size = size
        self.inputs: list = []

    def setup(self) -> None:
        """Input generation: draw the orders, relabellings and deleted edges,
        and build each relabelled family member."""
        self.inputs = [(q, build(q)) for q in extremal_plan(self.seed, self.size)]

    def warm_up(self) -> None:
        q = Query("jr-e", 8, 2, 3, tuple(range(8)), 0)
        self._query(q, build(q))

    @staticmethod
    def _query(q: Query, g):
        forest = star_forests.parse_star_forest(q.forest)
        free = star_forests.avoids_star_forest(g, forest)
        rho = spectra.spectral_radius(g)
        sq = spectra.signless_laplacian_radius(g)
        least = spectra.least_eigenvalue(g)
        floor_ok, margin = spectra.check_perron_floor(g)
        spec = spectra.adjacency_spectrum(g)
        if q.family == "kb":
            bounds = {name: families.evaluate_bound(name, q.n, q.k).value for name in ("t18", "c19")}
        else:
            bounds = {name: families.evaluate_bound(name, q.n, q.k, q.d).value
                      for name in ("t17", "conj32")}
        return g, free, rho, sq, least, floor_ok, margin, spec.eigenvalues, bounds

    def unit(self, out: Outcome, tracer=None) -> list:
        results = []
        for q, g in self.inputs:
            if tracer is not None:
                tracer.run_id += 1
            t0 = time.thread_time()
            results.append((q, self._query(q, g)))
            out.latencies.append(time.thread_time() - t0)
            out.visits += 1
        return results

    def check(self, results: list, out: Outcome) -> None:
        for q, result in results:
            out.record(check_query(q, *result))


def check_query(q: Query, g, free, rho, sq, least, floor_ok, margin, spec, bounds) -> list[str]:
    where = f"{q.family} n={q.n} k={q.k} d={q.d}"
    a = adjacency(g)
    a_vals, q_vals = eigenvalues(g)
    problems = []
    if g.n != q.n or int(a.sum()) // 2 != _expected_edges(q):
        problems.append(f"{where}: built the wrong graph")
    if not free:
        problems.append(f"{where}: family member contains the forest {q.forest}")
    for label, got, want in (("rho", rho, a_vals[-1]), ("least", least, a_vals[0]),
                             ("q", sq, q_vals[-1])):
        if abs(got - want) > TOL:
            problems.append(f"{where}: {label} {got!r} vs eigvalsh {want!r}")
    if np.max(np.abs(np.array(spec[::-1]) - a_vals)) > TOL:
        problems.append(f"{where}: spectrum differs from eigvalsh")
    # Perron floor against a LAPACK eigenvector
    vals, vecs = np.linalg.eigh(a)
    v = np.abs(vecs[:, -1])
    ref_margin = v.min() / v.max() - 1.0 / vals[-1]
    if abs(margin - ref_margin) > 1e-6 or floor_ok != (ref_margin >= -TOL):
        problems.append(f"{where}: Perron margin {margin!r} vs {ref_margin!r}")
    n, k, d = q.n, q.k, q.d
    if q.family == "kb":
        expect = {"t18": t18(n, k), "c19": -t18(n, k)}
    else:
        expect = {"t17": t17(n, k, d), "conj32": conj32(n, k, d)}
    for name, value in expect.items():
        if abs(bounds[name] - value) > 1e-12 * max(1.0, abs(value)):
            problems.append(f"{where}: {name} evaluates to {bounds[name]!r}, closed form {value!r}")
    ref_rho, ref_q, ref_least = a_vals[-1], q_vals[-1], a_vals[0]
    if q.family == "jr":  # t17 and conj32 equality cases
        if abs(ref_rho - expect["t17"]) > TOL or abs(ref_q - expect["conj32"]) > TOL:
            problems.append(f"{where}: join-regular misses the t17/conj32 equality")
    elif q.family == "jr-e":
        if expect["t17"] - ref_rho <= STRICT:
            problems.append(f"{where}: t17 not strict after deleting an edge")
    elif q.family == "kb":  # t18 and c19 equality cases
        if abs(ref_rho - expect["t18"]) > TOL or abs(ref_least - expect["c19"]) > TOL:
            problems.append(f"{where}: K_(k-1,n-k+1) misses the t18/c19 equality")
    elif q.family == "sp" or (n - k + 1) % 2 == 0:  # d-1 regular outside the clique
        if abs(ref_rho - expect["t17"]) > TOL:
            problems.append(f"{where}: misses the t17 equality")
    elif ref_rho > expect["t17"] + TOL:
        problems.append(f"{where}: rho above t17")
    return problems


def _expected_edges(q: Query) -> int:
    c, m = q.k - 1, q.n - q.k + 1
    if q.family == "kb":
        return c * m
    clique_and_join = c * (c - 1) // 2 + c * m
    if q.family == "sp":
        return clique_and_join
    if q.family == "jm":
        return clique_and_join + m // 2
    return clique_and_join + m * (q.d - 1) // 2 - (q.family == "jr-e")


WORKLOADS = {"cli": Cli, "scan": Scan, "extremal": Extremal}
