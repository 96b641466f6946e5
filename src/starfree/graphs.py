"""Compact undirected simple graphs on at most 64 vertices.

A graph is stored as one 64-bit neighbour mask per vertex, which makes
neighbourhood intersection, degree counting and subset tests single integer
operations.  All values are immutable; every operation returns a new Graph.

Also provides the graph6 text codec used for all graph I/O, and canonical
labelling: the canonical graph minimises the column-major upper-triangle
bit string over the vertex orderings compatible with the equitable degree
refinement (found by backtracking with automorphism-orbit pruning).  graph6
packs exactly that bit string, so the canonical graph's graph6 string is the
isomorphism code: two graphs have equal codes iff they are isomorphic, and
at a fixed order sorting codes sorts the bit strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import BadEdge, OrderTooLarge, ParseError

MAX_ORDER = 64

#: Ceiling for canonical labelling; beyond this the backtracking search is
#: not guaranteed to be cheap.
CANONICAL_CEILING = 12


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph: ``adj[v]`` is the neighbour bitmask of v."""

    n: int
    adj: tuple[int, ...]

    def __repr__(self) -> str:  # keep pytest diffs readable
        return f"Graph(n={self.n}, edges={edges(self)})"


@dataclass(frozen=True)
class CanonicalForm:
    """Canonical relabelling of a graph plus its automorphism generators.

    ``code`` is the graph6 string of ``graph``, equal iff isomorphic.
    ``labelling`` maps each input vertex to its canonical position, so
    ``relabel(g, labelling) == graph``.  ``generators`` are permutations
    (tuples mapping vertex -> image) of the canonical graph that generate its
    whole automorphism group; the enumerator uses them to prune equivalent
    vertex augmentations and to decide which augmentation to accept.
    """

    graph: Graph
    code: str
    generators: tuple[tuple[int, ...], ...]
    labelling: tuple[int, ...]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def from_edges(n: int, edge_list: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph on vertices 0..n-1 with the given edges.

    Duplicate edges collapse; loops and out-of-range endpoints are rejected.
    """
    if n < 0 or n > MAX_ORDER:
        raise OrderTooLarge(f"graph order {n} outside 0..{MAX_ORDER}")
    adj = [0] * n
    for u, v in edge_list:
        if u == v:
            raise BadEdge(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise BadEdge(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def empty_graph(n: int) -> Graph:
    return from_edges(n, [])


def complete_graph(n: int) -> Graph:
    if n < 0 or n > MAX_ORDER:
        raise OrderTooLarge(f"graph order {n} outside 0..{MAX_ORDER}")
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus every edge between the two vertex sets."""
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderTooLarge(f"join order {n} exceeds {MAX_ORDER}")
    g_all = (1 << g.n) - 1
    h_all = ((1 << h.n) - 1) << g.n
    adj = [g.adj[v] | h_all for v in range(g.n)]
    adj += [(h.adj[v] << g.n) | g_all for v in range(h.n)]
    return Graph(n, tuple(adj))


def union(g: Graph, h: Graph) -> Graph:
    """Vertex-disjoint union; h's vertices are shifted above g's."""
    n = g.n + h.n
    if n > MAX_ORDER:
        raise OrderTooLarge(f"union order {n} exceeds {MAX_ORDER}")
    adj = list(g.adj) + [h.adj[v] << g.n for v in range(h.n)]
    return Graph(n, tuple(adj))


def add_vertex(g: Graph, neighbour_mask: int) -> Graph:
    """Append vertex g.n adjacent to the vertices set in neighbour_mask."""
    if g.n + 1 > MAX_ORDER:
        raise OrderTooLarge(f"order {g.n + 1} exceeds {MAX_ORDER}")
    if neighbour_mask >> g.n:
        raise BadEdge("neighbour mask has bits outside the existing vertices")
    bit = 1 << g.n
    adj = [g.adj[v] | bit if neighbour_mask >> v & 1 else g.adj[v] for v in range(g.n)]
    adj.append(neighbour_mask)
    return Graph(g.n + 1, tuple(adj))


def relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Relabel so that old vertex v becomes perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        old = g.adj[v]
        while old:
            u = (old & -old).bit_length() - 1
            row |= 1 << perm[u]
            old &= old - 1
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj))


# ---------------------------------------------------------------------------
# structural facts
# ---------------------------------------------------------------------------


def degrees(g: Graph) -> tuple[int, ...]:
    return tuple(row.bit_count() for row in g.adj)


def max_degree(g: Graph) -> int:
    return max((row.bit_count() for row in g.adj), default=0)


def edge_count(g: Graph) -> int:
    return sum(row.bit_count() for row in g.adj) // 2


def edges(g: Graph) -> list[tuple[int, int]]:
    out = []
    for v in range(g.n):
        row = g.adj[v] >> (v + 1) << (v + 1)
        while row:
            u = (row & -row).bit_length() - 1
            out.append((v, u))
            row &= row - 1
    return out


def _component(g: Graph, start: int) -> int:
    """Vertex mask of the component that holds the single-vertex mask ``start``."""
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen


def is_connected(g: Graph) -> bool:
    """Connectivity; the order-0 and order-1 graphs count as connected."""
    return g.n <= 1 or _component(g, 1) == (1 << g.n) - 1


def connected_components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, lowest vertex first."""
    remaining = (1 << g.n) - 1
    comps = []
    while remaining:
        comp = _component(g, remaining & -remaining)
        comps.append(comp)
        remaining &= ~comp
    return comps


def is_bipartite(g: Graph) -> Optional[tuple[int, int]]:
    """Return a 2-colouring as a pair of vertex masks, or None.

    Each component is coloured from its lowest vertex, which lands in the
    first mask, so the output is deterministic.
    """
    colour = [-1] * g.n
    side = [0, 0]
    for start in range(g.n):
        if colour[start] != -1:
            continue
        colour[start] = 0
        side[0] |= 1 << start
        queue = [start]
        while queue:
            v = queue.pop()
            row = g.adj[v]
            want = 1 - colour[v]
            while row:
                u = (row & -row).bit_length() - 1
                row &= row - 1
                if colour[u] == -1:
                    colour[u] = want
                    side[want] |= 1 << u
                    queue.append(u)
                elif colour[u] != want:
                    return None
    return side[0], side[1]


def is_triangle_free(g: Graph) -> bool:
    for v in range(g.n):
        row = g.adj[v] >> (v + 1) << (v + 1)
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            if g.adj[v] & g.adj[u]:
                return False
    return True


def check_invariants(g: Graph) -> None:
    """Raise AssertionError unless adjacency is symmetric, loop-free, in range."""
    assert 0 <= g.n <= MAX_ORDER and len(g.adj) == g.n
    full = (1 << g.n) - 1
    for v in range(g.n):
        assert g.adj[v] & ~full == 0, f"vertex {v} has neighbours >= n"
        assert g.adj[v] >> v & 1 == 0, f"loop at {v}"
        row = g.adj[v]
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            assert g.adj[u] >> v & 1, f"asymmetric pair ({v},{u})"


# ---------------------------------------------------------------------------
# canonical labelling
# ---------------------------------------------------------------------------


def _twin_generators(n: int, adj: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Transpositions of twin vertices — automorphisms known before any search.

    False twins share the open neighbourhood ``adj[v]``, true twins the
    closed one ``adj[v] | 1 << v``; both are grouped in one table.  An open
    key never equals a closed key (N(u) = N[v] would put u in N(u)), and no
    vertex has a false twin u and a true twin w at once (w in N(v) = N(u)
    would make u adjacent to v), so the groups are the twin classes.
    """
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(adj[v], []).append(v)
        classes.setdefault(adj[v] | 1 << v, []).append(v)
    gens = []
    ident = list(range(n))
    for members in classes.values():
        for a, b in zip(members, members[1:]):
            sigma = ident.copy()
            sigma[a], sigma[b] = b, a
            gens.append(tuple(sigma))
    return gens


def _equitable_colors(n: int, adj: tuple[int, ...]) -> list[int]:
    """Stable colour refinement with isomorphism-invariant colour ids.

    Colours start as degrees; each round recolours by (own colour, sorted
    neighbour-colour multiset), with ids assigned by the sorted order of the
    distinct signatures.  Refinement only ever splits cells, so the partition
    is stable exactly when the colour count stops growing.
    """
    colors = [adj[v].bit_count() for v in range(n)]
    ncolors = len(set(colors))
    while True:
        sigs = []
        for v in range(n):
            row = adj[v]
            neigh = []
            while row:
                u = (row & -row).bit_length() - 1
                row &= row - 1
                neigh.append(colors[u])
            neigh.sort()
            sigs.append((colors[v], tuple(neigh)))
        table = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        colors = [table[sig] for sig in sigs]
        if len(table) == ncolors:
            return colors
        ncolors = len(table)


def _orbit_ids(n: int, generators) -> list[int]:
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


def _min_code_search(n: int, adj: tuple[int, ...], colors: list[int] | None = None):
    """An ordering with the minimal column-major upper-triangle bit string
    over the orderings the canonical labelling allows: vertices are placed
    cell by cell of the equitable (colour-refinement) partition, cells in
    invariant colour order.

    cols[j] holds the j bits of column j (adjacency of the vertex at position
    j to positions 0..j-1, most significant bit = position 0), so comparing
    int lists compares bit strings.  Pruning: (a) branch-and-bound against
    the best code found so far, (b) one candidate per orbit of the known
    automorphisms — twin swaps seeded up front plus whatever the search
    discovers when two orderings produce the same code.  Neither prune can
    skip a minimal-code ordering that no known automorphism reaches from an
    explored one, so the generators returned generate the whole group.
    ``colors`` may pass in ``_equitable_colors(n, adj)`` when the caller
    already has it.  Returns (perm, generators): perm[i] is the vertex placed
    at position i.
    """
    deg = [adj[v].bit_count() for v in range(n)]
    if n <= 1:
        return list(range(n)), []
    if colors is None:
        colors = _equitable_colors(n, adj)
    # positions are filled cell by cell in increasing colour id
    position_color = sorted(colors)

    prefix: list[int] = []
    cols: list[int] = [0] * n
    best_cols: list[int] | None = None
    best_perm: list[int] | None = None
    gens: list[tuple[int, ...]] = _twin_generators(n, adj)
    gen_set = set(gens)

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
                tsigma = tuple(sigma)
                if any(sigma[i] != i for i in range(n)) and tsigma not in gen_set:
                    gens.append(tsigma)
                    gen_set.add(tsigma)
            return

        want = position_color[depth]
        cands = sorted((col, deg[v], v) for v, col in keys.items() if colors[v] == want)

        tried: list[int] = []
        orbit = None
        gens_seen = 0
        tight = best_cols is not None and cols[:depth] == best_cols[:depth]
        for col, _, v in cands:
            if gens_seen != len(gens):
                gens_seen = len(gens)
                orbit = _orbit_ids(n, [g for g in gens if all(g[p] == p for p in prefix)])
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


def canonical_form(g: Graph, colors: list[int] | None = None) -> CanonicalForm:
    """Canonical relabelling, code, and discovered automorphism generators.

    ``colors``, if given, must be ``_equitable_colors(g.n, g.adj)``; it saves
    the search from refining again.
    """
    if g.n > CANONICAL_CEILING:
        raise OrderTooLarge(
            f"canonical labelling capped at order {CANONICAL_CEILING}, got {g.n}"
        )
    perm, gens = _min_code_search(g.n, g.adj, colors)
    inv = [0] * g.n
    for pos, v in enumerate(perm):
        inv[v] = pos
    labelling = tuple(inv)
    canon = relabel(g, labelling)
    # conjugate the generators into the canonical labelling
    canon_gens = tuple(
        tuple(inv[sigma[perm[i]]] for i in range(g.n)) for sigma in gens
    )
    return CanonicalForm(canon, graph6_encode(canon), canon_gens, labelling)


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------


def _triangle_bits(g: Graph) -> Iterator[int]:
    """The column-major upper triangle, in graph6 bit order."""
    for j in range(1, g.n):
        for i in range(j):
            yield g.adj[i] >> j & 1


def _graph6_head(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))


def graph6_encode(g: Graph) -> str:
    """Encode in graph6 text form (one line, no trailing newline)."""
    out = [_graph6_head(g.n)]
    acc = 0
    filled = 0
    for bit in _triangle_bits(g):
        acc = acc << 1 | bit
        filled += 1
        if filled == 6:
            out.append(chr(63 + acc))
            acc = 0
            filled = 0
    if filled:
        acc <<= 6 - filled
        out.append(chr(63 + acc))
    return "".join(out)


def graph6_decode(line: str) -> Graph:
    """Decode one graph6 line; raises ParseError with the offending byte offset.

    Only the spelling that graph6_encode produces is accepted: the order
    field in its shortest form and zero padding bits.
    """
    s = line.rstrip("\r\n")
    if not s:
        raise ParseError("empty graph6 input", offset=0)
    pos = 0
    if s[0] == "~":
        if len(s) >= 2 and s[1] == "~":
            if len(s) < 8:
                raise ParseError("truncated graph6 order field", offset=len(s))
            chunk, pos = s[2:8], 8
        else:
            if len(s) < 4:
                raise ParseError("truncated graph6 order field", offset=len(s))
            chunk, pos = s[1:4], 4
        n = 0
        for i, c in enumerate(chunk):
            v = ord(c) - 63
            if not 0 <= v <= 63:
                raise ParseError(f"invalid graph6 byte {c!r}", offset=pos - len(chunk) + i)
            n = n << 6 | v
    else:
        n = ord(s[0]) - 63
        if not 0 <= n <= 62:
            raise ParseError(f"invalid graph6 order byte {s[0]!r}", offset=0)
        pos = 1
    if n > MAX_ORDER:
        raise OrderTooLarge(f"graph6 order {n} exceeds {MAX_ORDER}")
    if s[:pos] != _graph6_head(n):
        raise ParseError(f"graph6 order {n} needs the short order field", offset=0)

    total = n * (n - 1) // 2
    need = (total + 5) // 6
    data = s[pos:]
    if len(data) < need:
        raise ParseError(f"graph6 data truncated: need {need} bytes, got {len(data)}", offset=len(s))
    if len(data) > need:
        raise ParseError("trailing bytes after graph6 data", offset=pos + need)

    word = 0
    for off, c in enumerate(data):
        v = ord(c) - 63
        if not 0 <= v <= 63:
            raise ParseError(f"invalid graph6 byte {c!r}", offset=pos + off)
        word = word << 6 | v
    pad = 6 * need - total
    if word & ((1 << pad) - 1):
        raise ParseError("nonzero padding bits in graph6 data", offset=len(s) - 1)
    adj = [0] * n
    bit = 1 << (6 * need)
    for j in range(1, n):  # the order of _triangle_bits
        for i in range(j):
            bit >>= 1
            if word & bit:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return Graph(n, tuple(adj))
