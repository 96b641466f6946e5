"""Shared fixtures and small graph builders for the test suite."""

import itertools
import math

import numpy as np
import pytest

from starfree import search
from starfree.enumeration import EnumerationCache
from starfree.graphs import (
    MAX_ORDER,
    Graph,
    _bits,
    _canonical_forms,
    _refine,
    adjacency_bits,
    edges,
    from_edges,
    graph6_encode,
)


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

    def doctored(rows):
        out = real(rows)
        if rows.shape[1] == n:
            out[index] = row
        return out

    monkeypatch.setattr(search, "adjacency_spectra", doctored)


def degrees(g: Graph) -> tuple[int, ...]:
    return tuple(bin(row).count("1") for row in g.adj)


def max_degree(g: Graph) -> int:
    return max(degrees(g), default=0)


def edge_count(g: Graph) -> int:
    return sum(degrees(g)) // 2


def adjacency_matrix(g: Graph) -> np.ndarray:
    """A as a float matrix, entry by entry from the neighbour masks; the
    oracle for the stacks that ``spectra`` builds."""
    return np.array([[float(row >> u & 1) for u in range(g.n)] for row in g.adj]).reshape(g.n, g.n)


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    """Q = D + A, built like ``adjacency_matrix``."""
    return adjacency_matrix(g) + np.diag(np.array(degrees(g), dtype=float))


def is_triangle_free(g: Graph) -> bool:
    return not any(g.adj[v] & g.adj[u] for v, u in edges(g))


def is_connected(g: Graph) -> bool:
    """Connectivity by a depth-first search over ``g.adj``, the oracle for
    the walks of ``graphs._connected``; orders 0 and 1 count as connected."""
    seen = {0} if g.n else set()
    stack = list(seen)
    while stack:
        v = stack.pop()
        for u in range(g.n):
            if g.adj[v] >> u & 1 and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def is_bipartite(g: Graph) -> bool:
    """Whether g has a 2-colouring, found by a depth-first search over
    ``g.adj`` from each uncoloured vertex; the oracle for the odd walks of
    ``graphs._walks``."""
    colour: dict[int, int] = {}
    for start in range(g.n):
        if start in colour:
            continue
        colour[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for u in range(g.n):
                if not g.adj[v] >> u & 1:
                    continue
                if u not in colour:
                    colour[u] = 1 - colour[v]
                    stack.append(u)
                elif colour[u] == colour[v]:
                    return False
    return True


def check_invariants(g: Graph) -> None:
    """Raise AssertionError unless adjacency is symmetric, loop-free, in range."""
    assert 0 <= g.n <= MAX_ORDER and len(g.adj) == g.n
    full = (1 << g.n) - 1
    for v in range(g.n):
        assert g.adj[v] & ~full == 0, f"vertex {v} has neighbours >= n"
        assert g.adj[v] >> v & 1 == 0, f"loop at {v}"
        for u in _bits(g.adj[v]):
            assert g.adj[u] >> v & 1, f"asymmetric pair ({v},{u})"


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


def labeled_rows(n: int) -> np.ndarray:
    """Every labeled graph on n vertices as one (2^C(n,2), n) array of
    neighbour masks, in the order of ``all_labeled_graphs``."""
    pairs = list(itertools.combinations(range(n), 2))
    edge_sets = np.arange(1 << len(pairs))
    rows = np.zeros((len(edge_sets), n), dtype=np.int64)
    for k, (u, v) in enumerate(pairs):
        on = edge_sets >> k & 1
        rows[:, u] |= on << v
        rows[:, v] |= on << u
    return rows


def canonical_rows(rows: np.ndarray) -> np.ndarray:
    """The canonical neighbour masks of each graph of an (N, n) array,
    labelled in stacks of 4096 by the batched pass ``graphs._canonical_forms``."""
    out = [np.empty((0, rows.shape[1]), dtype=np.int64)]
    for start in range(0, len(rows), 4096):
        part = rows[start:start + 4096]
        a = adjacency_bits(part)
        out.append(_canonical_forms(part, a, _refine(a))[0])
    return np.concatenate(out)


def level_codes(level: np.ndarray) -> list[str]:
    """The graph6 code of each graph of an enumeration level, in level order."""
    return [graph6_encode(Graph(level.shape[1], tuple(row))) for row in level.tolist()]


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


def group_closure(n: int, generators) -> set[tuple[int, ...]]:
    """Every element of the permutation group the generators generate."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        pi = frontier.pop()
        for sigma in generators:
            composed = tuple(sigma[pi[v]] for v in range(n))
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return group


def reference_colors(n: int, adj) -> list[int]:
    """Stable colour refinement by explicit signatures, one graph at a time:
    the oracle for the packed-key batch refinement ``graphs._refine``.

    Colours start as degrees; each round recolours by (own colour, sorted
    neighbour-colour multiset), with ids assigned by the sorted order of the
    distinct signatures, until the colour count stops growing.
    """
    colors = [adj[v].bit_count() for v in range(n)]
    ncolors = len(set(colors))
    while True:
        sigs = [(colors[v], tuple(sorted(colors[u] for u in range(n) if adj[v] >> u & 1)))
                for v in range(n)]
        table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [table[sig] for sig in sigs]
        if len(table) == ncolors:
            return colors
        ncolors = len(table)


def reference_orbit_ids(n: int, generators) -> list[int]:
    """Each vertex's orbit under the group the generators generate, named by
    the orbit's smallest vertex."""
    orbit = [-1] * n
    for v in range(n):
        if orbit[v] >= 0:
            continue
        orbit[v] = v
        stack = [v]
        while stack:
            u = stack.pop()
            for sigma in generators:
                w = sigma[u]
                if orbit[w] < 0:
                    orbit[w] = v
                    stack.append(w)
    return orbit


def twin_classes(g: Graph) -> list[list[int]]:
    """The twin classes of g, u and v being twins iff N(u) - v = N(v) - u,
    read off ``g.adj`` with no package code; each class lowest vertex
    first, classes in order of their lowest vertex.  Twinship is an
    equivalence, so each vertex is compared with the first of each class."""
    classes: list[list[int]] = []
    for v in range(g.n):
        for cls in classes:
            u = cls[0]
            if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def twin_swaps(g: Graph) -> list[tuple[int, ...]]:
    """The transposition of each vertex with the next vertex of its twin
    class; they generate the twin group, every permutation within each
    class."""
    swaps = []
    for cls in twin_classes(g):
        for u, v in zip(cls, cls[1:]):
            sigma = list(range(g.n))
            sigma[u], sigma[v] = v, u
            swaps.append(tuple(sigma))
    return swaps


def twin_group_order(g: Graph) -> int:
    return math.prod(math.factorial(len(cls)) for cls in twin_classes(g))


def class_action(sigma, classes) -> tuple[int, ...]:
    """How an automorphism permutes the twin classes, by their indices in
    ``classes``: it maps classes onto classes, and two automorphisms act
    alike iff they lie in one coset of the twin group."""
    index = {v: k for k, cls in enumerate(classes) for v in cls}
    return tuple(index[sigma[cls[0]]] for cls in classes)


def reference_min_code_search(n: int, adj: tuple[int, ...], colors: list[int], swaps):
    """The depth-first canonical search, the oracle for the breadth-first
    pass ``graphs._canonical_forms``.

    An ordering with the minimal column-major upper-triangle bit string
    over the orderings the canonical labelling allows: vertices are placed
    cell by cell of the equitable (colour-refinement) partition, cells in
    invariant colour order.

    cols[j] holds the j bits of column j (adjacency of the vertex at position
    j to positions 0..j-1, most significant bit = position 0), so comparing
    int lists compares bit strings.  Pruning: (a) branch-and-bound against
    the best code found so far, (b) one candidate per orbit of the known
    automorphisms — the twin swaps it is given (``swaps``, as from
    ``twin_swaps``) plus
    whatever it discovers when two orderings produce the same code.  Neither
    prune can skip a minimal-code ordering that no known automorphism
    reaches from an explored one, so the generators returned generate the
    whole group.  No discovered generator is the identity or a repeat: a
    leaf that ties the best is a different ordering, and an automorphism
    known when the search left the best ordering's path fixes the common
    prefix, so the orbit prune would have skipped the diverging candidate.
    ``colors`` is the stable refinement (``_refine``).  Returns (perm,
    generators): perm[i] is the vertex placed at position i.
    """
    # positions are filled cell by cell in increasing colour id
    position_color = sorted(colors)

    prefix: list[int] = []
    cols: list[int] = [0] * n
    best_cols: list[int] | None = None
    best_perm: list[int] | None = None
    gens: list[tuple[int, ...]] = list(swaps)

    def dfs(depth: int, keys: dict[int, int]) -> None:
        nonlocal best_cols, best_perm
        if depth == n:
            if best_cols is None or cols < best_cols:
                best_cols = cols.copy()
                best_perm = prefix.copy()
            elif cols == best_cols:
                sigma = [0] * n
                for i in range(n):
                    sigma[best_perm[i]] = prefix[i]
                gens.append(tuple(sigma))
            return

        want = position_color[depth]
        cands = sorted((col, v) for v, col in keys.items() if colors[v] == want)

        tried: list[int] = []
        orbit = None
        gens_seen = 0
        tight = best_cols is not None and cols[:depth] == best_cols[:depth]
        for col, v in cands:
            # the first candidate is never pruned, so the stabiliser orbits
            # are needed only from the second one on
            if tried and gens_seen != len(gens):
                gens_seen = len(gens)
                orbit = reference_orbit_ids(n, [g for g in gens if all(g[p] == p for p in prefix)])
            if orbit is not None and any(orbit[u] == orbit[v] for u in tried):
                tried.append(v)
                continue
            if tight:
                bc = best_cols[depth]
                if col > bc:
                    break  # candidates are sorted; the rest only get worse
            prefix.append(v)
            cols[depth] = col
            child_keys = {
                u: key << 1 | (adj[u] >> v & 1) for u, key in keys.items() if u != v
            }
            dfs(depth + 1, child_keys)
            prefix.pop()
            tried.append(v)
            # best can only have moved to a descendant, so we are tight now
            tight = best_cols is not None and cols[:depth] == best_cols[:depth]

    dfs(0, {v: 0 for v in range(n)})
    return best_perm, gens


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
