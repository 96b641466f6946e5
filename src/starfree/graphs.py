"""Compact undirected simple graphs on at most 64 vertices.

A graph is stored as one 64-bit neighbour mask per vertex, which makes
neighbourhood intersection, degree counting and subset tests single integer
operations.  All values are immutable; every operation returns a new Graph.

Also provides the graph6 text codec used for all graph I/O, and canonical
labelling.  The graph6 bit string is the rows read column by column: column
j (j = 1..n-1) is row j's low j bits, vertex 0 first, so bit i of column j
is the edge {i, j}.  The canonical graph minimises exactly these columns
over the vertex orderings compatible with the equitable degree refinement,
so its graph6 string is the isomorphism code: two graphs have equal codes
iff they are isomorphic, and at a fixed order sorting codes sorts the bit
strings.

Labelling has one path.  One breadth-first pass (``_min_code_leaves``)
walks the labelling tree for a whole stack of same-order graphs, keeping at
each depth every prefix of minimal code that places each twin class
(N(u) - v = N(v) - u) lowest vertex first.  Its leaves give each graph's
canonical neighbour masks, its labelling and whether the vertex placed
last is in the orbit of the highest vertex (``_canonical_forms``), as
arrays.  Automorphism generators are made apart, only for the graphs that
need them: the same pass on a stack of canonical graphs
(``_automorphism_generators``), whose leaves are then automorphisms.  The
enumerator asks for them for each parent it extends, never for a child.
``canonical_form`` is both on a stack of one, and the only place that
builds a ``CanonicalForm`` and its graph6 string; a stack is sorted by code
without writing one (``_graph6_order``).  Walking the tree breadth first is
the approach of Traces (B. D. McKay and A. Piperno, "Practical graph
isomorphism, II", J. Symb. Comput. 60 (2014)).

Rows leave the bitmask form in one place: ``adjacency_bits`` unpacks a stack
of rows into 0/1 matrices, for the spectra and for the refinement.  The
refinement (``_refine``) has one path, batched over a stack of same-order
graphs; one graph is a stack of one.  A round ranks each vertex by (own
colour, sorted multiset of neighbour colours).  All vertices of one colour
have the same degree (colours start as degrees and only split), so two
multisets compared within a colour have equal size, and then the sorted
tuple that is smaller is the one with more neighbours of the first colour
where their counts differ: the order is that of (own colour, -count_0,
-count_1, ...).  With B = n + 1, every n - count_k lies in 1..n, so
colour * B^n + sum_k (n - count_k) * B^(n-1-k) orders exactly like that
tuple, and it stays below n * B^n, about 2.8e14 at the canonical ceiling
n = 12, well inside int64.  Ids are the dense rank of these keys
within each graph, so they equal the ids of ranking the signatures
themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import BadEdge, OrderTooLarge, ParseError

MAX_ORDER = 64

#: Ceiling for canonical labelling.  The breadth-first pass holds every
#: minimal prefix at once; the widest measured at this order is 10 080 nodes
#: for one child of the bipartite order-12 level (15 ms on a 2-vCPU VM), and
#: 4 320 for C12 and 2C6.
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
    whole automorphism group: the twin swaps, then one minimal-code ordering
    per coset the swaps leave ungenerated.  The enumerator takes the same
    generators, as int8 arrays, from ``_automorphism_generators`` for each
    parent it extends, to prune equivalent vertex augmentations.
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


def relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    """Relabel so that old vertex v becomes perm[v]."""
    adj = [0] * g.n
    for v in range(g.n):
        row = 0
        old = g.adj[v]
        # hand-rolled: through _bits, relabelling the 105 family members of
        # orders 16-40 that the extremal benchmark builds took 1.16x as long
        # (3.0 vs 2.6 ms, 2-vCPU VM)
        while old:
            u = (old & -old).bit_length() - 1
            row |= 1 << perm[u]
            old &= old - 1
        adj[perm[v]] = row
    return Graph(g.n, tuple(adj))


# ---------------------------------------------------------------------------
# structural facts
# ---------------------------------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    """The set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def edges(g: Graph) -> list[tuple[int, int]]:
    return [(v, u) for v in range(g.n) for u in _bits(g.adj[v] >> (v + 1) << (v + 1))]


def _component(g: Graph, start: int) -> int:
    """Vertex mask of the component that holds the single-vertex mask ``start``."""
    seen = frontier = start
    while frontier:
        nxt = 0
        for v in _bits(frontier):
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
            want = 1 - colour[v]
            for u in _bits(g.adj[v]):
                if colour[u] == -1:
                    colour[u] = want
                    side[want] |= 1 << u
                    queue.append(u)
                elif colour[u] != want:
                    return None
    return side[0], side[1]


# ---------------------------------------------------------------------------
# canonical labelling
# ---------------------------------------------------------------------------


def _twin_swaps(twin: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each (n, n) twin matrix of a stack (``_min_code_leaves``), the
    transposition of every vertex with the next twin above it.

    Twins are an equivalence: false twins share N(v), true twins N[v], and
    no vertex has both kinds (with a true twin w and a false twin u of v,
    w in N(v) = N(u) puts u in N[w] = N[v]).  So these swaps generate every
    permutation within each twin class, and they are automorphisms.
    Returns (swaps, owner): swaps[s] is an int8 permutation of graph
    owner[s], and owner is non-decreasing.
    """
    n = twin.shape[1]
    later = np.triu(twin, 1)
    owner, i, j = np.nonzero(later & (later.cumsum(axis=2) == 1))
    swaps = np.tile(np.arange(n, dtype=np.int8), (len(owner), 1))
    swaps[np.arange(len(owner)), i] = j
    swaps[np.arange(len(owner)), j] = i
    return swaps, owner


def adjacency_bits(rows) -> np.ndarray:
    """0/1 adjacency matrices, as uint8, of an (N, n) array of neighbour masks.

    Entry [i, v, u] is bit u of rows[i, v]: the rows are viewed as
    little-endian 64-bit words and their bytes unpacked in one step.
    """
    rows = np.asarray(rows, dtype="<u8")
    count, n = rows.shape
    return np.unpackbits(rows.reshape(count, n, 1).view(np.uint8), axis=2, count=n, bitorder="little")


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Each entry's rank among the distinct values of its row."""
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    step = np.zeros_like(keys)
    step[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    out = np.empty_like(keys)
    np.put_along_axis(out, order, step.cumsum(axis=1), axis=1)
    return out


def _refine(a: np.ndarray) -> np.ndarray:
    """Stable colour refinement of N graphs at once, from their (N, n, n) 0/1
    adjacency matrices; returns (N, n) isomorphism-invariant colour ids.

    Colours start as degrees; each round recolours every vertex by (own
    colour, sorted multiset of neighbour colours), with ids the dense rank of
    these signatures within the graph.  Refinement only ever splits cells, so
    a graph's partition is stable exactly when a round gives back its ids,
    and stable graphs stay fixed while the others refine.  The signature is
    packed into one int64 key (see the module docstring): with B = n + 1 and
    count_k the number of neighbours of colour k,
    key = colour * B^n + sum_k (n - count_k) * B^(n-1-k).
    """
    n = a.shape[1]
    base = n + 1
    powers = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    offset = base**n * np.arange(n, dtype=np.int64) + n * powers.sum()
    a = a.astype(np.int64)
    colors = _dense_rank(a.sum(axis=2))
    while True:
        keys = offset[colors] - (a @ powers[colors][..., None])[..., 0]
        refined = _dense_rank(keys)
        if np.array_equal(refined, colors):
            return colors
        colors = refined


def _min_code_leaves(rows: np.ndarray, a: np.ndarray, colors: np.ndarray):
    """Every twin-canonical ordering of minimal code, for N same-order graphs
    at once, by one breadth-first walk of the labelling tree.

    ``rows`` are the (N, n) neighbour masks, ``a`` their ``adjacency_bits``
    and ``colors`` their ``_refine`` colours.  Positions are filled cell by
    cell of the equitable partition, cells in increasing colour.  A node is
    an ordering of a prefix, and its column keys hold each vertex's
    adjacency to the placed vertices, first placed highest: the key of the
    vertex placed at position p is column p of the code.  At each depth a
    node takes every vertex of the position's cell whose key is the least
    of its graph's nodes at that depth, and which is the lowest unplaced
    vertex of its twin class (N(u) - v = N(v) - u).  A minimal prefix
    extends a minimal shorter one, so the leaves are the orderings of
    minimal code that place each twin class lowest vertex first: swapping
    twins is an automorphism, so each coset of the twin group in the
    automorphism group has exactly one leaf.

    A graph's nodes stay contiguous and in increasing order of their vertex
    sequences, so its first leaf is the least of its minimal orderings,
    which a depth-first search by (key, vertex) reaches first.

    Returns (leaves, owner, twin): leaves[k, p] is the vertex at position p
    of leaf k, a leaf of graph owner[k], and twin[i, u, v] says that u and
    v are twins in graph i (true for u = v).
    """
    count, n = colors.shape
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    twin = (rows[:, :, None] & ~bit) == (rows[:, None, :] & ~bit[:, None])
    lower = np.tril(twin, -1) @ bit  # each vertex's lower twins
    cell = (colors[:, None, :] == np.sort(colors, axis=1)[:, :, None]) @ bit  # by position
    owner = np.arange(count)
    leaves = np.empty((count, 0), dtype=np.int64)
    keys = np.zeros((count, n), dtype=np.int64)
    placed = np.zeros(count, dtype=np.int64)
    for p in range(n):
        free = ~placed[:, None]
        ok = (cell[owner, p, None] & free & bit != 0) & (lower[owner] & free == 0)
        # keys have p < n bits, so 1 << n stands above every candidate
        cand = np.where(ok, keys, 1 << n)
        least = np.minimum.reduceat(cand.min(axis=1), np.flatnonzero(np.diff(owner, prepend=-1)))
        node, v = np.nonzero(cand == least[owner, None])
        owner = owner[node]
        leaves = np.column_stack([leaves[node], v])
        keys = 2 * keys[node] + a[owner, :, v]
        placed = placed[node] | bit[v]
    return leaves, owner, twin


def _coset_generators(maps: list[list[int]], cosets: list[list[int]]) -> list[tuple[int, ...]]:
    """Automorphisms among ``maps`` (the first is the identity) that, with
    the twin swaps, generate the group that all of them generate.

    ``cosets[k][v]`` names the twin class of v's image under ``maps[k]`` by
    its lowest member.  An automorphism maps twin classes onto twin classes,
    so this signature names the map's coset of the twin group, and the coset
    of a product has the signature c[s[v]] (c of the first factor, s of the
    second).  A map is kept when its coset is not yet in the group of the
    kept ones, which is closed over signatures; the walk stops once that
    group has as many cosets as there are maps.
    """
    group = {tuple(cosets[0])}
    kept: list[tuple[int, ...]] = []
    kept_cosets: list[tuple[int, ...]] = []
    for sigma, coset in zip(maps[1:], map(tuple, cosets[1:])):
        if len(group) == len(maps):
            break
        if coset in group:
            continue
        kept.append(tuple(sigma))
        kept_cosets.append(coset)
        frontier = list(group)
        while frontier:
            s = frontier.pop()
            for c in kept_cosets:
                t = tuple(map(c.__getitem__, s))
                if t not in group:
                    group.add(t)
                    frontier.append(t)
    return kept


def _canonical_forms(rows: np.ndarray, a: np.ndarray, colors: np.ndarray):
    """The canonical forms of N same-order graphs (arguments as in
    ``_min_code_leaves``), as arrays, and whether each graph's vertex n - 1
    lies in the automorphism orbit of the vertex placed last.

    Returns (canon, placed_last, labellings).  canon[i] holds graph i's
    canonical neighbour masks and labellings[i] maps its vertices to their
    canonical positions; both come from its first leaf.  A leaf places each
    twin class lowest vertex first, so it places last the highest vertex of
    the last class; vertex n - 1, the highest of all, is in the orbit of
    the vertex placed last iff some leaf places it last.
    """
    count, n = colors.shape
    leaves, owner, _ = _min_code_leaves(rows, a, colors)
    first = leaves[np.flatnonzero(np.diff(owner, prepend=-1))]
    square = (np.arange(count)[:, None, None], first[:, :, None], first[:, None, :])
    canon = a[square].astype(np.int64) @ (np.int64(1) << np.arange(n, dtype=np.int64))
    placed_last = np.zeros(count, dtype=bool)
    if n:
        placed_last[owner[leaves[:, -1] == n - 1]] = True
    return canon, placed_last, np.argsort(first, axis=1)


def _automorphism_generators(canon: np.ndarray) -> list[np.ndarray]:
    """Generators of the automorphism group of each canonical graph of an
    (N, n) stack of neighbour masks, as one (k, n) int8 array per graph.

    The identity ordering of a canonical graph has minimal code and places
    each twin class lowest vertex first, so it is the graph's first leaf,
    and every other leaf (``_min_code_leaves``) is itself an automorphism.
    A graph's generators are its twin swaps (``_twin_swaps``), then the
    leaves that ``_coset_generators`` keeps.  Every coset of the twin group
    has a leaf, so they generate the whole group, and a graph with one leaf
    has no coset to add.
    """
    count, n = canon.shape
    a = adjacency_bits(canon)
    leaves, owner, twin = _min_code_leaves(canon, a, _refine(a))
    swaps, swap_owner = _twin_swaps(twin)
    gens = np.split(swaps, np.searchsorted(swap_owner, np.arange(1, count)))
    starts = np.flatnonzero(np.diff(owner, prepend=-1))
    sizes = np.diff(starts, append=len(owner))
    tied = np.flatnonzero(sizes > 1)
    if len(tied):
        on_tied = np.repeat(sizes > 1, sizes)
        # the lowest twin of each vertex: the count of non-twins below its
        # first twin
        classes = (twin[tied].cumsum(axis=2) == 0).sum(axis=2)
        maps = leaves[on_tied]
        cosets = np.take_along_axis(np.repeat(classes, sizes[tied], axis=0), maps, axis=1).tolist()
        maps = maps.tolist()
        end = 0
        for graph, size in zip(tied.tolist(), sizes[tied].tolist()):
            start, end = end, end + size
            found = _coset_generators(maps[start:end], cosets[start:end])
            gens[graph] = np.concatenate([gens[graph], np.array(found, dtype=np.int8).reshape(-1, n)])
    return gens


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical relabelling, code, and automorphism generators.

    This is ``_canonical_forms`` and ``_automorphism_generators`` on a stack
    of one, and the only place that builds a ``CanonicalForm``.
    """
    if g.n > CANONICAL_CEILING:
        raise OrderTooLarge(
            f"canonical labelling capped at order {CANONICAL_CEILING}, got {g.n}"
        )
    rows = np.array([g.adj], dtype=np.int64)
    a = adjacency_bits(rows)
    canon, _, labellings = _canonical_forms(rows, a, _refine(a))
    h = Graph(g.n, tuple(canon[0].tolist()))
    gens = _automorphism_generators(canon)[0]
    return CanonicalForm(h, graph6_encode(h), tuple(map(tuple, gens.tolist())), tuple(labellings[0].tolist()))


# ---------------------------------------------------------------------------
# graph6 codec
# ---------------------------------------------------------------------------


# The codec holds the graph6 bit string in one int, first bit lowest: column j
# is then row j's low j bits, shifted to bit j(j-1)/2.  graph6 writes each
# 6-bit byte first bit highest, so each byte is bit-reversed by this table.
_REVERSED6 = [int(f"{b:06b}"[::-1], 2) for b in range(64)]


def _graph6_head(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    return "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))


def graph6_encode(g: Graph) -> str:
    """Encode in graph6 text form (one line, no trailing newline)."""
    word = off = 0
    for j in range(1, g.n):
        word |= (g.adj[j] & ((1 << j) - 1)) << off
        off += j
    return _graph6_head(g.n) + "".join(chr(63 + _REVERSED6[word >> s & 63]) for s in range(0, off, 6))


def _graph6_order(rows: np.ndarray) -> np.ndarray:
    """The permutation that sorts a stack of order-n graphs, given as an
    (N, n) array of neighbour masks with 2 <= n <= 17, by graph6 code.

    At a fixed order the codes compare like their bit strings, and column j
    of the bit string is row j's low j bits, vertex 0 first.  Each column
    is read into a uint16 as its own bit string, and the columns are
    lexsorted, column 1 first.
    """
    columns = []
    for j in range(rows.shape[1] - 1, 0, -1):
        row = rows[:, j].astype(np.uint16)
        key = np.zeros(len(rows), dtype=np.uint16)
        for i in range(j):
            key = key << 1 | (row >> i & 1)
        columns.append(key)
    return np.lexsort(columns)


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
        word |= _REVERSED6[v] << 6 * off
    if word >> total:
        raise ParseError("nonzero padding bits in graph6 data", offset=len(s) - 1)
    adj = [0] * n
    for j in range(1, n):
        low = word >> j * (j - 1) // 2 & ((1 << j) - 1)
        adj[j] |= low
        for i in _bits(low):
            adj[i] |= 1 << j
    return Graph(n, tuple(adj))
