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
(N(u) - v = N(v) - u, ``_lower_twins``) lowest vertex first.  A depth
takes its candidates as (node, vertex) pairs from the position's cell,
keeps the pairs of least key per graph, and stores only a back-pointer
from each new node to its parent and the vertex it placed; the orderings
are read back once, at the leaves.  The first leaf of each graph gives its
vertex order, and its final keys give its canonical neighbour masks, each row
read backwards (``_canonical_forms``), as arrays, so no automorphism group
is ever made and no adjacency matrix is permuted.
The enumerator reads only the twins of the parents it extends, with the
same ``_lower_twins``, and labels only their children.
``canonical_form`` is ``_canonical_forms`` on a stack of one, and the only
place that inverts an order into a labelling and builds a ``CanonicalForm``
and its graph6 string; a stack is sorted by code without writing one
(``_graph6_order``).  Walking the tree breadth first is the approach of
Traces (B. D. McKay and A. Piperno, "Practical graph isomorphism, II",
J. Symb. Comput. 60 (2014)).

Connectivity and bipartiteness have one path, ``_walks``: one batched
pass on a stack of rows that finds, from each start mask, the vertices
that walks of even and of odd length reach, by steps on the masks.  A
graph is connected iff walks from vertex 0 reach every vertex
(``_connected``), and bipartite iff no odd walk returns to its start
(D. Konig, 1936), so the enumerator's bipartite pre-test reads the odd
reach of each vertex.

Rows leave the bitmask form in one place: ``adjacency_bits`` unpacks a stack
of rows into 0/1 matrices, for the spectra and for the refinement.  The
refinement (``_refine``) has one path, batched over a stack of same-order
graphs; one graph is a stack of one.  A round refines only the graphs that
still move: a graph leaves the stack when a round gives back its colours,
or as soon as its partition is discrete, which no round can split.  A
round ranks each vertex by (own colour, sorted multiset of neighbour
colours).  All vertices of one colour
have the same degree (colours start as degrees and only split), so two
multisets compared within a colour have equal size, and then the sorted
tuple that is smaller is the one with more neighbours of the first colour
where their counts differ: the order is that of (own colour, -count_0,
-count_1, ...).  With B = n + 1, every n - count_k lies in 1..n, so
colour * B^n + sum_k (n - count_k) * B^(n-1-k) orders exactly like that
tuple, and it stays below n * B^n, which is below 2^63 exactly while
n <= 14 (4.1e17 at n = 14, 1.7e19 at n = 15); ``_refine`` raises
``OrderTooLarge`` past 14 before any round.  Ids are the dense rank of
these keys within each graph, so they equal the ids of ranking the
signatures themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import BadEdge, OrderTooLarge, ParseError

MAX_ORDER = 64

#: Ceiling for canonical labelling.  The breadth-first pass holds every
#: minimal prefix at once; the widest measured at this order is 10 080 nodes
#: for one child of the bipartite order-12 level (15 ms on a 2-vCPU VM), and
#: 4 320 for C12 and 2C6.  The pass keeps its vertex masks and keys as int32,
#: which hold orders up to 30; the refinement's keys hold orders up to 14.
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
    """Canonical relabelling of a graph.

    ``code`` is the graph6 string of ``graph``, equal iff isomorphic.
    ``labelling`` maps each input vertex to its canonical position, so
    ``relabel(g, labelling) == graph``.
    """

    graph: Graph
    code: str
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


def _walks(rows: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vertices that walks of even and of odd length reach from each of
    an (N, S) array of start masks, on an (N, n) stack of neighbour masks.

    Returns (even, odd), (N, S) masks of the rows' dtype.  u has a neighbour
    in a set X iff rows[u] & X != 0, so a step stays on the masks.  An odd
    walk is an even walk and one step more, so odd = N(even), and even =
    starts | N(odd).  Each step grows every even set that is not yet final
    by a vertex, so at most n steps reach the fixed point.  By Konig's
    theorem a graph is bipartite iff no odd walk joins a vertex to itself.
    """
    weight = rows.dtype.type(1) << np.arange(rows.shape[1], dtype=rows.dtype)

    def step(masks):
        return (rows[:, None, :] & masks[:, :, None] != 0) @ weight

    even = starts
    while True:
        odd = step(even)
        grown = starts | step(odd)
        if np.array_equal(grown, even):
            return even, odd
        even = grown


def _connected(rows: np.ndarray) -> np.ndarray:
    """Which graphs of an (N, n) stack of neighbour masks are connected:
    walks from vertex 0 reach every vertex.  Orders 0 and 1 count as
    connected."""
    n = rows.shape[1]
    full = rows.dtype.type((1 << n) - 1)
    even, odd = _walks(rows, np.full((len(rows), 1), n > 0, dtype=rows.dtype))
    return (even | odd)[:, 0] == full


# ---------------------------------------------------------------------------
# canonical labelling
# ---------------------------------------------------------------------------


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

    Colours start as degrees, ranked per graph through a table of the
    degrees present; each round recolours every vertex by (own colour,
    sorted multiset of neighbour colours), with ids the dense rank of these
    signatures within the graph.  Refinement only ever splits cells, so a
    graph's partition is stable exactly when a round gives back its ids, or
    when it is discrete; a round refines only the graphs that are neither.
    The signature is packed into one int64 key (see the module docstring):
    with B = n + 1 and count_k the number of neighbours of colour k,
    key = colour * B^n + sum_k (n - count_k) * B^(n-1-k), exact for n <= 14.
    """
    count, n = a.shape[:2]
    if n > 14:
        raise OrderTooLarge(f"colour refinement keys are exact up to order 14, got {n}")
    base = n + 1
    powers = base ** np.arange(n - 1, -1, -1, dtype=np.int64)
    offset = base**n * np.arange(n, dtype=np.int64) + n * powers.sum()
    deg = a @ np.ones(n, dtype=np.uint8)
    present = np.zeros((count, n), dtype=bool)
    present[np.arange(count)[:, None], deg] = True
    colors = np.take_along_axis(present.cumsum(axis=1) - 1, deg, axis=1)
    active = np.flatnonzero(colors.max(axis=1, initial=-1) < n - 1)
    while len(active):
        old = colors[active]
        keys = offset[old] - (a[active].astype(np.int64) @ powers[old][..., None])[..., 0]
        refined = _dense_rank(keys)
        colors[active] = refined
        active = active[np.any(refined != old, axis=1) & (refined.max(axis=1) < n - 1)]
    return colors


def _lower_twins(rows: np.ndarray) -> np.ndarray:
    """Each vertex's lower twins, for an (N, n) stack of neighbour masks:
    an (N, n) array of masks of the rows' dtype, bit u of [i, v] set iff
    u < v and N(u) - v = N(v) - u in graph i."""
    n = rows.shape[1]
    bit = rows.dtype.type(1) << np.arange(n, dtype=rows.dtype)
    twin = (rows[:, :, None] & ~bit) == (rows[:, None, :] & ~bit[:, None])
    return (twin & (np.arange(n) < np.arange(n)[:, None])) @ bit


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
    vertex of its twin class (N(u) - v = N(v) - u, ``_lower_twins``).  A
    minimal prefix extends a minimal shorter one, so the leaves are the
    orderings of minimal code that place each twin class lowest vertex
    first: swapping twins is an automorphism, so each coset of the twin
    group in the automorphism group has exactly one leaf.  Twins are an
    equivalence: false twins share N(v), true twins N[v], and no vertex has
    both kinds (with a true twin w and a false twin u of v, w in N(v) = N(u)
    puts u in N[w] = N[v]).  So the twin group permutes each twin class
    freely.

    On a canonical graph every minimal ordering gives the graph back, so
    each leaf, read as the map v -> leaves[k, v], is an automorphism, and
    the leaves are one automorphism per coset of the twin group.

    A depth takes its candidates as (node, vertex) pairs, ``np.nonzero`` of
    the vertices each node may place, and keeps the pairs whose key is
    least in their graph.  It stores one back-pointer array (each new
    node's parent) and the placed vertices, so no prefix is copied; the
    orderings are read back along the pointers once, at the leaves.  The
    masks and keys are int32, which holds orders up to 30.
    ``np.nonzero`` keeps the nodes in order, so a graph's nodes stay
    contiguous and in increasing order of their vertex sequences, and its
    first leaf is the least of its minimal orderings, which a depth-first
    search by (key, vertex) reaches first.

    Returns (leaves, owner, keys): leaves[k, p] is the vertex at position p
    of leaf k, a leaf of graph owner[k], and keys[k, v] is v's column key
    at that leaf, which holds all n positions.
    """
    count, n = colors.shape
    bit = np.int32(1) << np.arange(n, dtype=np.int32)
    lower = _lower_twins(rows).astype(np.int32)
    cell = (colors[:, None, :] == np.sort(colors, axis=1)[:, :, None]) @ bit  # by position
    owner = np.arange(count)
    keys = np.zeros((count, n), dtype=np.int32)
    placed = np.zeros(count, dtype=np.int32)
    back, placed_at = [], []
    for p in range(n):
        free = ~placed[:, None]
        node, v = np.nonzero((cell[owner, p, None] & free & bit != 0) & (lower[owner] & free == 0))
        key, graph = keys[node, v], owner[node]
        # every graph keeps a node at every depth, so graph i's pairs are
        # the i-th run of graph
        least = np.minimum.reduceat(key, np.flatnonzero(np.diff(graph, prepend=-1)))
        keep = key == least[graph]
        node, v = node[keep], v[keep]
        back.append(node)
        placed_at.append(v)
        owner = owner[node]
        keys = 2 * keys[node] + a[owner, :, v]
        placed = placed[node] | bit[v]
    leaves = np.empty((len(owner), n), dtype=np.intp)
    node = np.arange(len(owner))
    for p in range(n - 1, -1, -1):
        leaves[:, p] = placed_at[p][node]
        node = back[p][node]
    return leaves, owner, keys


def _canonical_forms(rows: np.ndarray, a: np.ndarray, colors: np.ndarray):
    """The canonical forms of N same-order graphs (arguments as in
    ``_min_code_leaves``), as arrays.

    Returns (canon, orders).  canon[i] holds graph i's canonical neighbour
    masks and orders[i] lists its vertices in canonical order; both come
    from its first leaf, and np.argsort(orders[i]) is the labelling that
    maps each vertex to its canonical position.  At a leaf, bit n-1-q of the
    key of the vertex at position p is its edge to position q, so canonical
    row p is that key read backwards, and no adjacency matrix is permuted.
    Every leaf has the minimal code, which depends on the class alone, so
    isomorphic graphs get equal rows.
    """
    n = colors.shape[1]
    leaves, owner, keys = _min_code_leaves(rows, a, colors)
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    order = leaves[first]
    key = np.take_along_axis(keys[first], order, axis=1)
    canon = np.zeros_like(key)
    for q in range(n):
        canon |= (key >> n - 1 - q & 1) << q
    return canon, order


def canonical_form(g: Graph) -> CanonicalForm:
    """Canonical relabelling and code.

    This is ``_canonical_forms`` on a stack of one, and the only place that
    builds a ``CanonicalForm``.
    """
    if g.n > CANONICAL_CEILING:
        raise OrderTooLarge(
            f"canonical labelling capped at order {CANONICAL_CEILING}, got {g.n}"
        )
    rows = np.array([g.adj], dtype=np.int64)
    a = adjacency_bits(rows)
    canon, orders = _canonical_forms(rows, a, _refine(a))
    h = Graph(g.n, tuple(canon[0].tolist()))
    return CanonicalForm(h, graph6_encode(h), tuple(np.argsort(orders[0]).tolist()))


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
