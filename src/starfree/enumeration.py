"""Isomorphism-free enumeration of small graphs by vertex augmentation.

A level is extended by joining a new vertex to a mask of each parent on the
level below.  The children are filtered by tests that depend only on the
class of the child with its new vertex, and the rows they are labelled to
are sorted, which is the one uniqueness rule: isomorphic graphs have equal
canonical rows, so ``_extend`` drops each row equal to the one before it,
and keeps exactly one row per class.

The filters keep a child of every class.  Take any class G and the vertex v
that its canonical labelling places last.  Positions are filled cell by
cell of the equitable partition, cells in increasing colour, and a higher
colour id never means a lower degree, so v is in G's top colour cell and
has maximum degree.  G - v is bipartite when G is, and no odd walk of G - v
joins two neighbours of v, or it would close an odd cycle through v.  G - v
has a canonical row P on the level below, and an isomorphism maps N(v) to
a mask of P; swapping twins of P (N(u) - v = N(v) - u,
``graphs._lower_twins``) is an automorphism, and turns that mask into a
twin-minimal one, which holds each lower twin of each of its vertices.  So
the child of P with that mask is isomorphic to G by a map that takes its
new vertex to v, and it passes the degree, odd-walk, twin and top-cell
filters.  McKay's canonical augmentation builds the same tree and accepts a
child only from one parent class (B. D. McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26 (1998), section 4); here the sort does that.

A level is its canonical graphs and nothing else: one (N, n) uint16 array
of canonical neighbour masks, sorted by graph6 code by lexsorting the
columns of the graph6 bit string (``graphs._graph6_order``), so no code is
stored.  A class is its rows: ``class_rows`` is the one map from a class
to them, and the scans read them as they are.  ``enumerate_graphs`` builds
each ``Graph`` as it yields it, and graph6 is written only for the codes
that are output.

A level is extended a block of ``_BLOCK`` parents at a time, and a block
is the only batching unit: each takes one straight pass, and yields one
block of children, which bounds the working memory.  The block's
attachment masks are pre-tested as one (parents, masks) table (the degree
test: the new vertex must have maximum degree in the child, integer work
on the parent's degrees; and for the bipartite tree the odd-walk test,
from one ``graphs._walks`` pass on the block's rows), then cut to the
twin-minimal masks, so no parent is refined or labelled.  The cut keeps
some orbits of a parent's masks more than once, and a class can come from
several parents; the sort drops both kinds of duplicate.

All the children of a block are then unpacked into adjacency matrices in
one numpy step, refined in one batched call (``graphs._refine``, the only
refinement), top-cell tested by one vectorised comparison (the new vertex
must lie in the highest colour cell of the child's equitable partition),
and labelled by one breadth-first pass (``graphs._canonical_forms``, the
only labelling), which starts from that partition instead of refining
again.  Blocks change no result: the level is sorted by code.

Bipartite graphs are closed under vertex deletion, so the bipartite classes
are generated by the same augmentation restricted to bipartite parents and
to the masks with no two vertices joined by an odd walk of the parent: a
new odd closed walk must pass through the new vertex, so it joins two of
its neighbours by an odd walk.  Connectivity is not deletion-closed, so
``class_rows`` cuts a connected class from its level by one row mask, from
one walk pass over the level (``graphs._connected``).
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

import numpy as np

from .errors import OrderTooLarge, ParamOutOfRange
from .graphs import (
    Graph,
    _canonical_forms,
    _connected,
    _graph6_order,
    _lower_twins,
    _refine,
    _walks,
    adjacency_bits,
    canonical_form,
)

#: Practical ceilings: every level is held in memory, and order 10 of the
#: all-graphs tree has 12 005 168 classes; the bipartite tree stays workable
#: a little longer.
ALL_CEILING = 9
BIPARTITE_CEILING = 12

# _extend takes a block of at most this many parents at a time: their
# pre-tests and twin cut, and the refinement and labelling of all their
# children, so the block bounds its working memory.  Process time and peak
# RSS of a fresh build, 3 runs each on a 2-vCPU VM:
#   block  all 9               bipartite 11         bipartite 12
#   32     3.7-4.7 s, 54.9 MB  1.0-1.3 s, 33.9 MB   7.5-10.5 s, 58.1 MB
#   64     3.7-4.8 s, 52.8 MB  0.9-1.2 s, 34.7 MB   8.3-9.5 s, 57.6 MB
#   128    4.1-4.8 s, 55.9 MB  1.0-1.1 s, 37.5 MB   8.2-9.3 s, 63.7 MB
# and all 8 peaks at 31.7 / 33.4 / 34.9 MB.
_BLOCK = 64


class GraphClass(str, Enum):
    ALL = "all"
    CONNECTED = "connected"
    BIPARTITE = "bipartite"
    CONNECTED_BIPARTITE = "connected_bipartite"

    @property
    def bipartite_only(self) -> bool:
        return self in (GraphClass.BIPARTITE, GraphClass.CONNECTED_BIPARTITE)

    @property
    def connected_only(self) -> bool:
        return self in (GraphClass.CONNECTED, GraphClass.CONNECTED_BIPARTITE)

    @property
    def ceiling(self) -> int:
        return BIPARTITE_CEILING if self.bipartite_only else ALL_CEILING


def parse_graph_class(text: str) -> GraphClass:
    try:
        return GraphClass(text)
    except ValueError:
        raise ParamOutOfRange(
            f"unknown graph class {text!r}; choose from {[c.value for c in GraphClass]}"
        ) from None


def _children(parents: np.ndarray, bipartite_only: bool) -> Iterator[np.ndarray]:
    """The pre-tested children whose masks are twin-minimal, as one block of
    neighbour-mask rows per block of _BLOCK parents (parent order, then mask
    order)."""
    m = parents.shape[1]
    masks = np.arange(1 << m, dtype=np.uint16)
    bits = masks[:, None] >> np.arange(m, dtype=masks.dtype) & 1
    single = np.uint16(1) << np.arange(m, dtype=np.uint16)
    for start in range(0, len(parents), _BLOCK):
        block = parents[start:start + _BLOCK]
        # degree pre-test: the child's largest old degree is top, plus one if
        # the new vertex is adjacent to a vertex of degree top.  The parents
        # are bipartite on the bipartite tree, so there a mask keeps the
        # child bipartite iff no odd walk joins two of its vertices.  Both
        # tests read only what an isomorphism keeps: degrees and walks
        deg = adjacency_bits(block).sum(axis=2)
        top = deg.max(axis=1, keepdims=True)
        keep = bits.sum(axis=1) >= top + ((deg == top) @ bits.T > 0)
        if bipartite_only:
            # joined[:, mask] holds the vertices that an odd walk joins to a
            # vertex of the mask; the masks below 2^(v+1) with bit v set are
            # those below 2^v plus v, so each pass appends them
            _, odd = _walks(block, np.broadcast_to(single, block.shape))
            joined = np.zeros((len(block), 1), dtype=np.uint16)
            for v in range(m):
                joined = np.concatenate([joined, joined | odd[:, v, None]], axis=1)
            keep &= joined & masks == 0
        # the twin cut: a mask that holds v holds each lower twin of v
        lower = _lower_twins(block)
        for v in range(m):
            keep &= (bits[:, v] == 0) | (lower[:, v, None] & ~masks == 0)
        parent, mask = np.nonzero(keep)
        yield np.concatenate([block[parent] | bits[mask] << m, masks[mask, None]], axis=1)


def _extend(parents: np.ndarray, bipartite_only: bool) -> np.ndarray:
    rows = []
    for block in _children(parents, bipartite_only):
        a = adjacency_bits(block)
        colors = _refine(a)
        top = colors[:, -1] == colors.max(axis=1)  # top-cell pre-test
        rows.append(_canonical_forms(block[top], a[top], colors[top])[0].astype(np.uint16))
    rows = np.concatenate(rows)
    rows = rows[_graph6_order(rows)]
    # isomorphic children, of one parent or of several, are equal rows, and
    # the sort puts them side by side
    return rows[np.insert(np.any(rows[1:] != rows[:-1], axis=1), 0, True)]


class EnumerationCache:
    """Reusable level store so repeated scans share the augmentation work."""

    def __init__(self):
        base = np.array([canonical_form(Graph(1, (0,))).graph.adj], dtype=np.uint16)
        self._levels: dict[str, list[np.ndarray]] = {"all": [base], "bipartite": [base]}

    def level(self, base: str, n: int) -> np.ndarray:
        """The canonical neighbour masks of the order-n graphs, (N, n) uint16
        in graph6 order."""
        levels = self._levels[base]
        while len(levels) < n:
            levels.append(_extend(levels[-1], bipartite_only=(base == "bipartite")))
        return levels[n - 1]


def class_rows(
    n: int, graph_class: GraphClass = GraphClass.ALL, cache: EnumerationCache | None = None
) -> np.ndarray:
    """The canonical neighbour masks of the class's order-n members, (N, n)
    uint16 in graph6 order.

    The one map from a class to its rows: n and the class's ceiling are
    checked before any level is built, a connected class is cut from its
    level by one walk pass, and without a cache the level is built afresh.
    """
    if n < 1:
        raise ParamOutOfRange(f"enumeration needs n >= 1, got {n}")
    if n > graph_class.ceiling:
        raise OrderTooLarge(
            f"enumeration of class {graph_class.value!r} capped at order {graph_class.ceiling}, got {n}"
        )
    if cache is None:
        cache = EnumerationCache()
    rows = cache.level("bipartite" if graph_class.bipartite_only else "all", n)
    return rows[_connected(rows)] if graph_class.connected_only else rows


def _row_lists(rows: np.ndarray) -> Iterator[list[int]]:
    """The rows as lists of Python ints, converted 4096 at a time: converting
    all of `all` 9 at once lifted the peak RSS of iterating it from 53 to
    130 MB."""
    for start in range(0, len(rows), 4096):
        yield from rows[start:start + 4096].tolist()


def enumerate_graphs(
    n: int, graph_class: GraphClass = GraphClass.ALL, cache: EnumerationCache | None = None
) -> Iterator[Graph]:
    """Yield one canonical representative per isomorphism class of order n:
    the class's rows (``class_rows``) as ``Graph`` objects, in graph6 order."""
    for row in _row_lists(class_rows(n, graph_class, cache)):
        yield Graph(n, tuple(row))
