"""Shared fixtures and small graph builders for the test suite."""

import itertools

import pytest

from starfree import search
from starfree.enumeration import EnumerationCache
from starfree.graphs import Graph, canonical_form, from_edges


@pytest.fixture(scope="session")
def cache() -> EnumerationCache:
    """One augmentation cache for the whole session; scans share levels."""
    return EnumerationCache()


class Unbuildable(EnumerationCache):
    """A cache that fails the test if any level is asked for."""

    def level(self, base, n):
        raise AssertionError(f"level {base} {n} built")


def count_calls(monkeypatch, name: str, *modules) -> list:
    """Replace ``name`` in each module by one wrapper that logs its calls.

    The real function is taken from the first module; pass every module
    that imported the name, so that no caller escapes the count.
    """
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def doctor_spectra(monkeypatch, n: int, index: int, row) -> None:
    """Make the bipartite suite see ``row`` as the spectrum of graph ``index``
    of its order-n level; every other row stays real."""
    real = search.adjacency_spectra

    def doctored(graphs):
        out = real(graphs)
        if graphs[0].n == n:
            out[index] = row
        return out

    monkeypatch.setattr(search, "adjacency_spectra", doctored)


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def double_star(a: int, b: int) -> Graph:
    """Two adjacent centers with a and b pendant leaves."""
    edge_list = [(0, 1)]
    edge_list += [(0, 2 + i) for i in range(a)]
    edge_list += [(1, 2 + a + i) for i in range(b)]
    return from_edges(2 + a + b, edge_list)


def all_labeled_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def labeled_census(n: int) -> dict:
    """Labeled-enumeration-plus-dedup oracle: canonical code -> representative."""
    reps = {}
    for g in all_labeled_graphs(n):
        reps.setdefault(canonical_form(g).code, g)
    return reps


def brute_min_cols(g: Graph) -> tuple:
    """Reference minimum of the ordering-dependent column code over all n!
    orderings; used to check canonical_form classifies like the brute force."""
    best = None
    for perm in itertools.permutations(range(g.n)):
        cols = []
        for j in range(g.n):
            col = 0
            for i in range(j):
                col = col << 1 | (g.adj[perm[j]] >> perm[i] & 1)
            cols.append(col)
        if best is None or cols < best:
            best = cols
    return tuple(best or ())


def star_forests_up_to(order_cap: int, k_cap: int):
    """All sorted star forests with at most k_cap stars and order <= order_cap."""
    out = []

    def grow(prefix, remaining):
        if prefix:
            out.append(tuple(prefix))
        if len(prefix) == k_cap:
            return
        top = prefix[-1] if prefix else remaining
        for d in range(min(top, remaining - 1), 0, -1):
            prefix.append(d)
            grow(prefix, remaining - d - 1)
            prefix.pop()

    grow([], order_cap)
    return sorted(set(out), key=lambda t: (len(t), t))
