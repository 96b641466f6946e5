"""Exhaustive extremal searches over enumerated graph classes, with records.

A search scans one isomorphism-free class, filters by star-forest freeness,
maximises the spectral radius, and records the outcome next to the matching
closed-form bound.  Records serialise to JSON lines (graph6 payloads,
deterministic key order) so runs diff cleanly.

The three class scans, ``extremal_search``, ``conjecture_margin_table`` and
``verify_edge_bound``, share one pass over the class (``_free_rows``).  It
takes the class's rows from ``enumeration.class_rows``, decides the forest
for the whole stack of rows in one containment call, and keeps the free
rows as one (N, n) array, in graph6 order; it makes no ``Graph`` and keeps
no Python object per member.  Each scan then reduces that array as a
whole: the radii and q come from one batched ``spectra.extreme_eigenvalues``
call, and edge counts from the rows.  The maximisers are the free graphs
whose radius is within RHO_TIE_TOL of the maximum, the one tie rule.  A
graph6 string is written only for the rows that are output, and already
comes in graph6 order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .enumeration import EnumerationCache, GraphClass, class_rows
from .errors import DivisionByZeroK2, EmptyClass, NoRegularGraph, ParamOutOfRange, ParseError
from .families import (
    make_clique_join_regular,
    order_threshold,
    radius_bound_bipartite,
    radius_bound_general,
    signless_radius_bound,
)
from .graphs import Graph, edges, from_edges, graph6_encode
from .spectra import adjacency_spectra, extreme_eigenvalues, spectral_radius
from .star_forests import StarForest, _contains_stack, coarse_edge_bound, parse_star_forest

RHO_TIE_TOL = 1e-9


@dataclass(frozen=True)
class SearchRecord:
    """Outcome of one exhaustive radius search.

    ``argmax`` lists every maximiser up to isomorphism in canonical graph6.
    ``bound_value`` is the applicable closed-form ceiling at these parameters
    and ``bound_applicable`` whether n clears the proved order threshold (for
    an all-2s forest on a bipartite class, the explicit small threshold
    11k - 4 counts as cleared).  ``gap`` is bound_value - max_rho.
    """

    n: int
    graph_class: GraphClass
    forest: StarForest
    count_enumerated: int
    count_free: int
    max_rho: float
    argmax: tuple[str, ...]
    bound_value: float | None
    bound_applicable: bool
    gap: float | None

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "class": self.graph_class.value,
            "forest": self.forest.text(),
            "count_enumerated": self.count_enumerated,
            "count_free": self.count_free,
            "max_rho": self.max_rho,
            "argmax": list(self.argmax),
            "bound_value": self.bound_value,
            "bound_applicable": self.bound_applicable,
            "gap": self.gap,
        }

    @staticmethod
    def from_json_dict(d: dict) -> "SearchRecord":
        """Inverse of ``to_json_dict``; a field of the wrong type raises ParseError."""
        argmax = _field(d, "argmax", list)
        if not all(isinstance(g6, str) for g6 in argmax):
            raise ParseError(f"field 'argmax' has bad value {argmax!r}")
        bound_value = _field(d, "bound_value", float, int, type(None))
        gap = _field(d, "gap", float, int, type(None))
        return SearchRecord(
            n=_field(d, "n", int),
            graph_class=GraphClass(_field(d, "class", str)),
            forest=parse_star_forest(_field(d, "forest", str)),
            count_enumerated=_field(d, "count_enumerated", int),
            count_free=_field(d, "count_free", int),
            max_rho=float(_field(d, "max_rho", float, int)),
            argmax=tuple(argmax),
            bound_value=None if bound_value is None else float(bound_value),
            bound_applicable=_field(d, "bound_applicable", bool),
            gap=None if gap is None else float(gap),
        )


def _field(d: dict, key: str, *kinds: type):
    """``d[key]`` if it is an instance of one of ``kinds``; a bool is never a number."""
    value = d[key]
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ParseError(f"field {key!r} has bad value {value!r}")
    return value


def applicable_bound(n: int, forest: StarForest, graph_class: GraphClass):
    """(bound_value, bound_applicable) for this class at these parameters.

    The bound is the bipartite ceiling sqrt((k-1)(n-k+1)) on bipartite
    classes and the general ceiling otherwise; it needs k >= 2.  The order
    thresholds are compared exactly (they are rationals far beyond float
    range); a k = 2 threshold with zero denominator simply never applies.
    """
    k = forest.k
    d_k = forest.degrees[-1]
    if k < 2 or n < k:
        return None, False
    bipartite = graph_class.bipartite_only
    connected = graph_class.connected_only
    value = radius_bound_bipartite(n, k) if bipartite else radius_bound_general(n, k, d_k)
    applicable = False
    # connected classes get their tighter proved thresholds
    if bipartite:
        kind = "f_value" if connected else "thm_1_8_and_cor_1_9"
    else:
        kind = "thm_3_1" if connected else "thm_1_7"
    try:
        applicable = n >= order_threshold(kind, forest)
    except DivisionByZeroK2:
        applicable = False
    if bipartite and all(d == 2 for d in forest.degrees) and n >= 11 * k - 4:
        applicable = True
    return value, applicable


def _free_rows(
    n: int, forest: StarForest, graph_class: GraphClass, cache: EnumerationCache
) -> tuple[int, np.ndarray]:
    """The class size, and the neighbour masks of its forest-free members as
    one (N, n) uint16 array in graph6 order.  Containment decides the whole
    stack of rows in one call."""
    rows = class_rows(n, graph_class, cache)
    return len(rows), rows[~_contains_stack(rows, forest)]


def _graph6(row: list[int]) -> str:
    return graph6_encode(Graph(len(row), tuple(row)))


def extremal_search(
    n: int,
    forest: StarForest,
    graph_class: GraphClass,
    cache: EnumerationCache,
) -> SearchRecord:
    """Scan the class, keep the forest-free graphs, maximise the radius.

    The argmax is every free graph within RHO_TIE_TOL of the maximum radius.
    """
    count_enumerated, rows = _free_rows(n, forest, graph_class, cache)
    if not len(rows):
        raise EmptyClass(
            f"no {forest}-free graph of order {n} in class {graph_class.value!r}"
        )
    rho = extreme_eigenvalues(rows, False, -1)
    max_rho = float(rho.max())
    argmax = tuple(map(_graph6, rows[rho >= max_rho - RHO_TIE_TOL].tolist()))
    bound_value, bound_applicable = applicable_bound(n, forest, graph_class)
    gap = None if bound_value is None else bound_value - max_rho
    return SearchRecord(
        n=n,
        graph_class=graph_class,
        forest=forest,
        count_enumerated=count_enumerated,
        count_free=len(rows),
        max_rho=max_rho,
        argmax=argmax,
        bound_value=bound_value,
        bound_applicable=bound_applicable,
        gap=gap,
    )


# ---------------------------------------------------------------------------
# property scans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one property suite: cases checked and a message per failure."""

    suite: str
    checked: int
    failures: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "checked": self.checked, "failures": list(self.failures)}


def verify_join_regular_bound(max_n: int, max_k: int, max_d: int) -> SuiteResult:
    """Equality and strictness of the general radius ceiling (t17).

    For 2 <= k <= max_k, 1 <= d <= max_d and n <= max_n, the (k-1)-clique
    joined to a (d-1)-regular graph must attain the ceiling to 1e-9; for
    d >= 2, deleting the first edge inside the regular part must leave the
    radius more than 1e-6 below it.  Parameters with no regular graph are
    skipped; every other domain error propagates.  max_n < 2, max_k < 2 or
    max_d < 1 leaves nothing to check and raises ParamOutOfRange.
    """
    if max_n < 2 or max_k < 2 or max_d < 1:
        raise ParamOutOfRange(
            "lemma23 suite needs max_n >= 2, max_k >= 2 and max_d >= 1,"
            f" got max_n={max_n}, max_k={max_k}, max_d={max_d}"
        )
    failures = []
    checked = 0
    for k in range(2, max_k + 1):
        for d in range(1, max_d + 1):
            for n in range(k + d - 1, max_n + 1):
                try:
                    g = make_clique_join_regular(n, k, d)
                except NoRegularGraph:
                    continue
                checked += 1
                bound = radius_bound_general(n, k, d)
                rho = spectral_radius(g)
                if abs(rho - bound) > RHO_TIE_TOL:
                    failures.append(f"equality failed at n={n} k={k} d={d}: rho={rho!r} bound={bound!r}")
                if d >= 2:
                    es = edges(g)
                    inner = next(e for e in es if e[0] >= k - 1)
                    rho2 = spectral_radius(from_edges(g.n, [e for e in es if e != inner]))
                    if bound - rho2 <= 1e-6:
                        failures.append(
                            f"strictness failed at n={n} k={k} d={d}: rho'={rho2!r} bound={bound!r}"
                        )
    return SuiteResult("lemma23", checked, tuple(failures))


def verify_bipartite_spectra(max_n: int, cache: EnumerationCache) -> SuiteResult:
    """Over every bipartite graph of order 1..max_n: the spectrum is symmetric
    about 0, and the radius is at most n/2 (both to 1e-9).  The radius check
    is the triangle-free bound; a bipartite graph has no odd cycle, so every
    graph here is triangle-free and none needs testing for it.

    Each level's spectra come from one batched ``adjacency_spectra`` call on
    its rows.  The levels come from ``class_rows``, first at order max_n, so
    max_n < 1 (a suite that checks nothing proves nothing) and an order past
    the ceiling raise before any level is built; building max_n builds
    every lower level into ``cache``.
    """
    class_rows(max_n, GraphClass.BIPARTITE, cache)
    failures = []
    checked = 0
    for n in range(1, max_n + 1):
        level = class_rows(n, GraphClass.BIPARTITE, cache)
        spectra = adjacency_spectra(level)
        asymmetric = np.max(np.abs(spectra + spectra[:, ::-1]), axis=1) > RHO_TIE_TOL
        above = spectra[:, 0] > n / 2 + RHO_TIE_TOL
        checked += len(level)
        for i in np.flatnonzero(asymmetric | above):
            code = _graph6(level[i].tolist())
            if asymmetric[i]:
                failures.append(f"asymmetric spectrum at n={n} {code}")
            if above[i]:
                failures.append(f"triangle-free radius above n/2 at n={n} {code}")
    return SuiteResult("bipartite", checked, tuple(failures))


@dataclass(frozen=True)
class EdgeBoundViolation:
    """A forest-free graph with more edges than the coarse edge bound."""

    graph6: str
    edges: int
    bound: int

    def to_json_dict(self) -> dict:
        return {"graph6": self.graph6, "edges": self.edges, "bound": self.bound}


def verify_edge_bound(
    n: int,
    forest: StarForest,
    graph_class: GraphClass,
    cache: EnumerationCache,
) -> list[EdgeBoundViolation]:
    """Check every forest-free graph against the coarse edge bound.

    The bound is proved for every n >= order(forest), so the expected result
    is an empty list; anything returned is an implementation counterexample.
    Edge counts are the popcounts of the free rows, halved.
    """
    bound = coarse_edge_bound(forest, n)  # validates k >= 2 and the n floor
    _, rows = _free_rows(n, forest, graph_class, cache)
    count = sum((rows >> v & 1).sum(axis=1) for v in range(n)) // 2
    over = count > bound
    return [EdgeBoundViolation(_graph6(row), int(e), bound)
            for row, e in zip(rows[over].tolist(), count[over])]


@dataclass(frozen=True)
class QMarginRow:
    """One forest-free graph: its signless-Laplacian radius q and q - bound."""

    graph6: str
    q: float
    margin: float

    def to_json_dict(self) -> dict:
        return {"graph6": self.graph6, "q": self.q, "margin": self.margin}


@dataclass(frozen=True)
class QMarginTable:
    """Signless-Laplacian margins q(G) - bound for every forest-free graph.

    Entries above the bound are candidate small-order counterexamples to the
    conjectured ceiling; they are recorded, not treated as failures (the
    conjecture is asymptotic).
    """

    n: int
    graph_class: GraphClass
    forest: StarForest
    bound_value: float
    rows: tuple[QMarginRow, ...]
    max_margin: float
    exceeders: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "class": self.graph_class.value,
            "forest": self.forest.text(),
            "bound_value": self.bound_value,
            "max_margin": self.max_margin,
            "exceeders": list(self.exceeders),
            "rows": [r.to_json_dict() for r in self.rows],
        }


def conjecture_margin_table(
    n: int,
    forest: StarForest,
    graph_class: GraphClass,
    cache: EnumerationCache,
) -> QMarginTable:
    """The q margin of every forest-free graph of the class, in graph6 order.

    The bound is the conjectured signless-Laplacian ceiling, which needs
    k >= 2 (ParamOutOfRange otherwise).  ``max_margin`` is -inf when no
    graph is free; ``exceeders`` are the rows more than RHO_TIE_TOL above
    the bound.
    """
    k = forest.k
    if k < 2:
        raise ParamOutOfRange(f"the conjectured ceiling needs k >= 2, got k={k}")
    bound = signless_radius_bound(n, k, forest.degrees[-1])
    _, rows = _free_rows(n, forest, graph_class, cache)
    q = extreme_eigenvalues(rows, True, -1)
    table = tuple(QMarginRow(_graph6(row), qi, qi - bound)
                  for row, qi in zip(rows.tolist(), q.tolist()))
    max_margin = max((r.margin for r in table), default=float("-inf"))
    exceeders = tuple(r.graph6 for r in table if r.margin > RHO_TIE_TOL)
    return QMarginTable(n, graph_class, forest, bound, table, max_margin, exceeders)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def write_records(records, path) -> None:
    """Write records (anything with ``to_json_dict``) as JSON lines (sorted keys, no metadata)."""
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_json_dict(), sort_keys=True))
            fh.write("\n")


def read_records(path) -> list[SearchRecord]:
    """Read JSON-line SearchRecords; ParseError carries the 1-based line number."""
    out = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(SearchRecord.from_json_dict(json.loads(line.decode("ascii"))))
            except (json.JSONDecodeError, KeyError, ValueError, TypeError,
                    ParseError, ParamOutOfRange) as exc:
                raise ParseError(f"bad search record: {exc}", line=lineno) from None
    return out
