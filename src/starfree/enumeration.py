"""Isomorphism-free enumeration of small graphs by vertex augmentation.

Children (parent plus one new vertex) are generated by McKay's canonical
augmentation: a child is accepted iff its new vertex lies in the
automorphism orbit of the vertex that the canonical labelling puts last.
That orbit is a function of the isomorphism class alone, so every class is
accepted from exactly one parent class, the class of the child minus that
vertex.  Two cheap necessary conditions run first, because the last
canonical position belongs to the highest colour cell of the equitable
partition, and a higher colour id never means a lower degree: the new
vertex must have maximum degree in the child (integer work on the parent's
degrees, which one numpy step takes for a block of parents), and it
must lie in the highest colour cell of the child's equitable partition.
Only the children that pass both are labelled, starting from that
partition instead of refining again.

A level is its canonical graphs and nothing else: one (N, n) uint16 array
of canonical neighbour masks, sorted by graph6 code by lexsorting the
columns of the graph6 bit string (``graphs._graph6_order``), so no code is
stored.  ``enumerate_graphs`` builds each ``Graph`` as it yields it, and
graph6 is written only for the codes that are output.

A level is extended a block of ``_BLOCK`` parents at a time, and a block
is the only batching unit: each takes one straight pass, and yields one
block of children, which bounds the working memory.  The parents'
automorphism generators are made for that block only
(``graphs._automorphism_generators``): canonical augmentation needs a
parent's group only while that parent is extended, so no child's is ever
made or kept.  The block's attachment masks are pre-tested as one
(parents, masks) table (the degree test, and for the bipartite tree the
bipartition test; both keep whole orbits), then reduced to one
representative per orbit of each parent's group by one min-label
propagation over the kept (parent, mask) pairs (``_mask_orbit_reps``).  By
McKay's theorem (B. D. McKay, "Isomorph-free exhaustive generation", J.
Algorithms 26 (1998), section 4) the accepted children of one parent are
then pairwise non-isomorphic, and each class is accepted from one parent
class only, so every accepted child is kept.

All the children of a block are then unpacked into adjacency matrices in
one numpy step, refined in one batched call (``graphs._refine``, the only
refinement), top-cell tested by one vectorised comparison, and labelled by
one breadth-first pass (``graphs._canonical_forms``, the only labelling).
The pass keeps every minimal-code ordering that places each twin class
lowest vertex first, so a child is accepted iff one of them places its new
vertex, the highest, last.  Blocks change no result: the level is sorted
by code.

Bipartite graphs are closed under vertex deletion, so the bipartite classes
are generated by the same augmentation restricted to bipartite parents and
bipartition-compatible masks.  Connectivity is not deletion-closed and is
filtered at emission instead.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterator

import numpy as np

from .errors import OrderTooLarge, ParamOutOfRange
from .graphs import (
    Graph,
    _automorphism_generators,
    _canonical_forms,
    _graph6_order,
    _refine,
    adjacency_bits,
    canonical_form,
    connected_components,
    is_bipartite,
    is_connected,
)

#: Practical ceilings: every level is held in memory, and order 10 of the
#: all-graphs tree has 12 005 168 classes; the bipartite tree stays workable
#: a little longer.
ALL_CEILING = 9
BIPARTITE_CEILING = 12

# _extend takes a block of at most this many parents at a time: their
# generators, their orbit step, and the refinement and labelling of all their
# children, so the block bounds its working memory.  Process time and peak
# RSS of a fresh build, 3 runs each on a 2-vCPU VM:
#   block  all 9               bipartite 11        bipartite 12
#   32     4.0-6.3 s, 56.0 MB  1.6-2.4 s, 37.9 MB  11.7-17.1 s, 59.9 MB
#   64     4.4-5.8 s, 55.9 MB  1.4-2.1 s, 38.9 MB  11.2-14.6 s, 64.9 MB
#   128    4.6-5.2 s, 60.7 MB  1.5-1.7 s, 41.2 MB  11.1-11.7 s, 59.2 MB
# and all 8 peaks at 35.4 / 36.4 / 37.9 MB.
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


def _mask_orbit_reps(keep: np.ndarray, bits: np.ndarray,
                     generators: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """One mask per orbit of each parent's automorphism group.

    ``keep`` is a (P, 2^m) table of the masks kept for each of P parents, a
    union of orbits of that parent's group.  Returns the (parent, mask)
    pairs whose mask is its orbit's smallest, in parent then mask order.

    The parents' generators are padded by the identity into one (P, k, m)
    table, so column j of it maps every kept pair at once: ``bits[mask] <<
    sigma`` sums to the mask's image, and a dense (P, 2^m) table of pair
    indices, the running count of ``keep``, finds the image's pair; the
    image is kept, since its orbit is.  Each pair holds a label in its orbit,
    at most itself, and takes the least label among its images (then its
    label's label) until nothing moves.  No label then exceeds the labels of
    its images, so labels are constant along every generator's cycles, hence
    on each orbit: the orbit's smallest mask.
    """
    parent, mask = np.nonzero(keep)
    counts = np.fromiter(map(len, generators), int, len(generators))
    sigma = np.tile(np.arange(bits.shape[1], dtype=np.int8), (len(counts), counts.max(initial=1), 1))
    sigma[np.arange(sigma.shape[1]) < counts[:, None]] = np.concatenate(generators)
    index = keep.cumsum().reshape(keep.shape) - 1
    rows = bits[mask]
    images = np.stack([index[parent, (rows << sigma[parent, j]).sum(axis=1)]
                       for j in range(sigma.shape[1])], axis=1)
    label = np.arange(len(mask))
    while True:
        low = np.minimum(label, label[images].min(axis=1))
        low = low[low]
        if np.array_equal(low, label):
            reps = label == np.arange(len(mask))
            return parent[reps], mask[reps]
        label = low


def _bipartite_masks(g: Graph, masks: np.ndarray) -> np.ndarray:
    """Which masks keep the bipartite graph g bipartite when added.

    The new vertex's neighbours must lie in one side of some bipartition;
    sides can be flipped per component independently, so a mask works iff its
    restriction to every component fits inside one of that component's two
    colour classes.
    """
    side0, side1 = is_bipartite(g)
    ok = np.ones(len(masks), dtype=bool)
    for comp in connected_components(g):
        ok &= ((masks & (comp & side0)) == 0) | ((masks & (comp & side1)) == 0)
    return ok


def _children(parents: np.ndarray, bipartite_only: bool) -> Iterator[np.ndarray]:
    """The pre-tested children, one per orbit of its parent's group on the
    masks, as one block of neighbour-mask rows per block of _BLOCK parents
    (parent order, then mask order)."""
    m = parents.shape[1]
    masks = np.arange(1 << m)
    bits = masks[:, None] >> np.arange(m) & 1
    for start in range(0, len(parents), _BLOCK):
        block = parents[start:start + _BLOCK]
        # degree pre-test: the child's largest old degree is top, plus one if
        # the new vertex is adjacent to a vertex of degree top.  Both tests
        # keep whole orbits: an automorphism keeps degrees, and maps each
        # component's colour classes onto a component's
        deg = adjacency_bits(block).sum(axis=2)
        top = deg.max(axis=1, keepdims=True)
        keep = bits.sum(axis=1) >= top + ((deg == top) @ bits.T > 0)
        if bipartite_only:
            keep &= [_bipartite_masks(Graph(m, tuple(row)), masks) for row in block.tolist()]
        parent, mask = _mask_orbit_reps(keep, bits, _automorphism_generators(block))
        yield np.concatenate([block[parent] | bits[mask] << m, mask[:, None]], axis=1)


def _extend(parents: np.ndarray, bipartite_only: bool) -> np.ndarray:
    rows = []
    for block in _children(parents, bipartite_only):
        a = adjacency_bits(block)
        colors = _refine(a)
        top = colors[:, -1] == colors.max(axis=1)  # top-cell pre-test
        canon, accept, _ = _canonical_forms(block[top], a[top], colors[top])
        rows.append(canon[accept].astype(np.uint16))
    rows = np.concatenate(rows)
    return rows[_graph6_order(rows)]


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


def check_ceiling(n: int, graph_class: GraphClass) -> None:
    """Raise OrderTooLarge if order n is past the class's enumeration ceiling."""
    if n > graph_class.ceiling:
        raise OrderTooLarge(
            f"enumeration of class {graph_class.value!r} capped at order {graph_class.ceiling}, got {n}"
        )


def enumerate_graphs(
    n: int, graph_class: GraphClass = GraphClass.ALL, cache: EnumerationCache | None = None
) -> Iterator[Graph]:
    """Yield one canonical representative per isomorphism class of order n.

    Output is sorted by canonical graph6 code, so runs are reproducible.
    The level's rows become Python ints 4096 at a time: converting all of
    `all` 9 at once lifted the peak RSS of iterating it from 53 to 130 MB.
    """
    if n < 1:
        raise ParamOutOfRange(f"enumeration needs n >= 1, got {n}")
    check_ceiling(n, graph_class)
    if cache is None:
        cache = EnumerationCache()
    level = cache.level("bipartite" if graph_class.bipartite_only else "all", n)
    for start in range(0, len(level), 4096):
        for row in level[start:start + 4096].tolist():
            g = Graph(n, tuple(row))
            if graph_class.connected_only and not is_connected(g):
                continue
            yield g
