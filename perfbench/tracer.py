"""Span tracing around the public entry points of the starfree package.

The package is wrapped from outside and never edited.  ``install`` rebinds
each traced function in every starfree module that holds it, so a name the
package imported with ``from .x import y`` (``starfree.enumeration.
canonical_form``, ``starfree.search.spectral_radius``, ``starfree.cli.main``)
is traced as well as its definition.  Spans (name, start, end, parent, run id)
are kept in flat in-memory arrays while the run lasts; ``write`` saves them
when it ends.

Self time of a span is its duration minus the durations of its direct
children.  Spans nest properly because the package is single-threaded, so
the self times of all spans add up to the duration of the root span.
"""

from __future__ import annotations

import array
import functools
import gzip
import inspect
import sys
import time

import numpy as np

# (module, attribute, span name).  The first part of a span name is its layer,
# the package module it belongs to.  Cheap structural helpers (degrees,
# add_vertex, graph6 codec, adjacency_matrix, ...) are deliberately left out:
# at a few microseconds per call the wrapper would cost as much as the call,
# so their time counts towards the caller's self time.
ENTRY_POINTS = (
    ("graphs", "canonical_form", "graphs.canonical_form"),
    ("graphs", "canonical_code", "graphs.canonical_code"),
    ("graphs", "canonicalize", "graphs.canonicalize"),
    ("enumeration", "EnumerationCache.level", "enumeration.level"),
    ("enumeration", "enumerate_graphs", "enumeration.enumerate_graphs"),
    ("enumeration", "count_graphs", "enumeration.count_graphs"),
    ("star_forests", "contains_star_forest", "star_forests.contains"),
    ("star_forests", "avoids_star_forest", "star_forests.avoids"),
    ("star_forests", "contains_star_forest_oracle", "star_forests.oracle"),
    ("star_forests", "coarse_edge_bound", "star_forests.edge_bound"),
    ("star_forests", "tight_edge_bound", "star_forests.edge_bound"),
    ("star_forests", "parse_star_forest", "star_forests.parse"),
    ("spectra", "spectral_radius", "spectra.spectral_radius"),
    ("spectra", "signless_laplacian_radius", "spectra.signless_laplacian_radius"),
    ("spectra", "least_eigenvalue", "spectra.least_eigenvalue"),
    ("spectra", "adjacency_spectrum", "spectra.adjacency_spectrum"),
    ("spectra", "signless_laplacian_spectrum", "spectra.signless_laplacian_spectrum"),
    ("spectra", "perron_vector", "spectra.perron_vector"),
    ("spectra", "check_perron_floor", "spectra.check_perron_floor"),
    ("spectra", "jacobi_eigensystem", "spectra.jacobi_eigensystem"),
    ("families", "make_complete_bipartite", "families.construct"),
    ("families", "make_complete_split", "families.construct"),
    ("families", "make_complete_split_plus_edge", "families.construct"),
    ("families", "make_clique_join_matching", "families.construct"),
    ("families", "make_clique_join_regular", "families.construct"),
    ("families", "circulant_regular", "families.construct"),
    ("families", "radius_bound_general", "families.bound"),
    ("families", "radius_bound_bipartite", "families.bound"),
    ("families", "least_eigenvalue_bound", "families.bound"),
    ("families", "signless_radius_bound", "families.bound"),
    ("families", "order_threshold", "families.bound"),
    ("families", "evaluate_bound", "families.bound"),
    ("families", "threshold_report", "families.bound"),
    ("search", "extremal_search", "search.scan"),
    ("search", "conjecture_margin_table", "search.scan"),
    ("search", "verify_edge_bound", "search.scan"),
    ("search", "applicable_bound", "search.scan"),
    ("search", "merge_search_records", "search.scan"),
    ("search", "write_records", "search.records"),
    ("search", "read_records", "search.records"),
    ("cli", "main", "cli.main"),
)

ROOT = "bench"
LAYERS = ("graphs", "enumeration", "star_forests", "spectra", "families", "search", "cli")
FULL_SPECTRUM = ("spectra.adjacency_spectrum", "spectra.signless_laplacian_spectrum",
                 "spectra.jacobi_eigensystem")
EXTREME_QUERIES = ("spectra.spectral_radius", "spectra.signless_laplacian_radius",
                   "spectra.least_eigenvalue", "spectra.perron_vector")
SPECTRA_REPORTED = ("spectral_radius", "signless_laplacian_radius", "least_eigenvalue",
                    "adjacency_spectrum", "perron_vector", "jacobi_eigensystem")

#: Every per-layer metric, in the order it is reported.
METRICS = (
    ("graphs.canonical_form.calls", "count"),
    ("graphs.canonical_form.self_s", "s"),
    ("graphs.canonical_form.p50_us", "us"),
    ("graphs.canonical_code.calls", "count"),
    ("graphs.canonical_code.self_s", "s"),
    ("graphs.self_s", "s"),
    ("enumeration.level.calls", "count"),
    ("enumeration.level.self_s", "s"),
    ("enumeration.enumerate_graphs.self_s", "s"),
    ("enumeration.accept_ratio", "ratio"),
    ("enumeration.self_s", "s"),
    ("star_forests.contains.calls", "count"),
    ("star_forests.contains.self_s", "s"),
    ("star_forests.contains.p50_us", "us"),
    ("star_forests.contains.p99_us", "us"),
    ("star_forests.free_ratio", "ratio"),
    ("star_forests.self_s", "s"),
    *(
        (f"spectra.{fn}.{stat}", unit)
        for fn in SPECTRA_REPORTED
        for stat, unit in (("calls", "count"), ("self_s", "s"), ("p50_us", "us"))
    ),
    ("spectra.fallback_ratio", "ratio"),
    ("spectra.max_residual", "1"),
    ("spectra.self_s", "s"),
    ("families.calls", "count"),
    ("families.self_s", "s"),
    ("search.scan.self_s", "s"),
    ("search.records.self_s", "s"),
    ("search.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_frac", "ratio"),
)


class _TracedIterator:
    """Iterator wrapper: each ``next`` of a traced generator is one span."""

    __slots__ = ("_tracer", "_nid", "_it")

    def __init__(self, tracer, nid, it):
        self._tracer = tracer
        self._nid = nid
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        i = self._tracer.open(self._nid)
        try:
            return next(self._it)
        finally:
            self._tracer.close(i)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.run = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self._stack: list[int] = []
        #: Identifier shared by the spans of one benchmark operation.
        self.run_id = 0
        # work counts taken from return values at the span boundaries
        self.canonical_classes: set = set()
        self.free = 0
        self.max_residual = 0.0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def id_of(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- wrapping ------------------------------------------------------------

    def _hook(self, span: str):
        if span == "graphs.canonical_form":
            def hook(result):
                g = result.graph
                self.canonical_classes.add((self.run_id, g.n, g.adj))
            return hook
        if span == "star_forests.contains":
            def hook(result):
                if not result:
                    self.free += 1
            return hook
        if span in FULL_SPECTRUM:
            def hook(result):
                res = result[2] if isinstance(result, tuple) else result.max_residual
                self.max_residual = max(self.max_residual, float(res))
            return hook
        return None

    def _wrap(self, span: str, fn):
        nid = self.id_of(span)
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                return _TracedIterator(self, nid, fn(*args, **kwargs))
            return traced_generator
        hook = self._hook(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(result)
                return result
            finally:
                self.close(i)
        return traced

    def install(self) -> None:
        """Rebind every entry point wherever a starfree module holds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "starfree" or name.startswith("starfree."))]
        for module_name, attr, span in ENTRY_POINTS:
            module = sys.modules.get(f"starfree.{module_name}")
            if module is None:
                continue
            if "." in attr:  # a method: patch the class, which every importer shares
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name, None)
                fn = getattr(owner, meth, None) if owner is not None else None
                if fn is None:
                    continue
                self._restore.append((owner, meth, fn))
                setattr(owner, meth, self._wrap(span, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:  # removed from the package: nothing to trace
                continue
            wrapper = self._wrap(span, fn)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, key, fn))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def summary(self, untraced_wall: float) -> tuple[dict[str, float], float]:
        """Per-layer metrics, and the sum of all self times.

        The root span covers the traced part of the run, so the sum of self
        times must equal ``trace.wall_s``.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        n_names = len(self.names)
        child = parent >= 0
        self_t = dur - np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        calls = np.bincount(name_id, minlength=n_names)
        self_s = np.bincount(name_id, weights=self_t, minlength=n_names)

        def by_name(name, table):
            nid = self._ids.get(name)
            return 0.0 if nid is None else float(table[nid])

        def pct_us(name, q):
            nid = self._ids.get(name)
            if nid is None or calls[nid] == 0:
                return 0.0
            return float(np.percentile(dur[name_id == nid], q)) * 1e6

        def prefix(p, table):
            return float(sum(table[i] for i, nm in enumerate(self.names)
                             if nm == p or nm.startswith(p + ".")))

        def ratio(a, b):
            return a / b if b else 0.0

        wall = float(dur[name_id == self._ids[ROOT]].sum())
        full_ids = [self._ids[n] for n in FULL_SPECTRUM if n in self._ids]
        query_ids = [self._ids[n] for n in EXTREME_QUERIES if n in self._ids]
        parent_name = np.where(child, name_id[np.maximum(parent, 0)], -1)
        fallbacks = int(np.sum(np.isin(name_id, full_ids) & np.isin(parent_name, query_ids)))
        queries = int(sum(calls[i] for i in query_ids))
        out = {
            "graphs.canonical_form.calls": by_name("graphs.canonical_form", calls),
            "graphs.canonical_form.self_s": by_name("graphs.canonical_form", self_s),
            "graphs.canonical_form.p50_us": pct_us("graphs.canonical_form", 50),
            "graphs.canonical_code.calls": by_name("graphs.canonical_code", calls),
            "graphs.canonical_code.self_s": by_name("graphs.canonical_code", self_s),
            "enumeration.level.calls": by_name("enumeration.level", calls),
            "enumeration.level.self_s": by_name("enumeration.level", self_s),
            "enumeration.enumerate_graphs.self_s": by_name("enumeration.enumerate_graphs", self_s),
            "enumeration.accept_ratio": ratio(len(self.canonical_classes),
                                              by_name("graphs.canonical_form", calls)),
            "star_forests.contains.calls": by_name("star_forests.contains", calls),
            "star_forests.contains.self_s": by_name("star_forests.contains", self_s),
            "star_forests.contains.p50_us": pct_us("star_forests.contains", 50),
            "star_forests.contains.p99_us": pct_us("star_forests.contains", 99),
            "star_forests.free_ratio": ratio(self.free, by_name("star_forests.contains", calls)),
            "spectra.fallback_ratio": ratio(fallbacks, queries),
            "spectra.max_residual": self.max_residual,
            "families.calls": prefix("families", calls),
            "search.scan.self_s": by_name("search.scan", self_s),
            "search.records.self_s": by_name("search.records", self_s),
            "cli.main.self_s": by_name("cli.main", self_s),
            "bench.self_s": by_name(ROOT, self_s),
            "trace.wall_s": wall,
            "trace.spans": float(len(dur)),
            "trace.overhead_frac": wall / untraced_wall - 1.0,
        }
        for fn in SPECTRA_REPORTED:
            out[f"spectra.{fn}.calls"] = by_name(f"spectra.{fn}", calls)
            out[f"spectra.{fn}.self_s"] = by_name(f"spectra.{fn}", self_s)
            out[f"spectra.{fn}.p50_us"] = pct_us(f"spectra.{fn}", 50)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = prefix(layer, self_s)
        return out, float(self_t.sum())

    def write(self, path) -> None:
        """Save every span as gzip'd CSV: name,start_s,end_s,parent,run."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as fh:
            fh.write("name,start_s,end_s,parent,run\n")
            names = self.names
            for nid, s, e, p, r in zip(self.name_id, self.start, self.end, self.parent, self.run):
                fh.write(f"{names[nid]},{s - t0:.9f},{e - t0:.9f},{p},{r}\n")
