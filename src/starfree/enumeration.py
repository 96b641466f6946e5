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
degrees, no new graph), and it must lie in the highest colour cell of the
child's equitable partition.  Only the children that pass both get a full
canonical search, which starts from that partition instead of refining again.

Attachment masks are first reduced to one representative per orbit of the
parent's full automorphism group.  By McKay's theorem (B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26 (1998), section 4)
the accepted children of one parent are then pairwise non-isomorphic, and
each class is accepted from one parent class only, so every accepted child
is kept and the level is sorted by canonical graph6 code once complete.

Bipartite graphs are closed under vertex deletion, so the bipartite classes
are generated by the same augmentation restricted to bipartite parents and
bipartition-compatible masks.  Connectivity is not deletion-closed and is
filtered at emission instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import OrderTooLarge, ParamOutOfRange
from .graphs import (
    Graph,
    _equitable_colors,
    _orbit_ids,
    add_vertex,
    canonical_form,
    connected_components,
    degrees,
    is_bipartite,
    is_connected,
)

#: Practical ceilings: every level is held in memory, and order 10 of the
#: all-graphs tree has 12 005 168 classes; the bipartite tree stays workable
#: a little longer.
ALL_CEILING = 9
BIPARTITE_CEILING = 12


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


@dataclass(frozen=True)
class _LevelEntry:
    graph: Graph  # canonical representative
    code: str  # its graph6
    generators: tuple[tuple[int, ...], ...]


def _mask_orbit_reps(n_parent: int, generators, bipartite_masks) -> list[int]:
    """One attachment mask per orbit of the parent's automorphism group.

    An automorphism maps each component and its two colour classes onto a
    component and its classes, so the bipartite masks are a union of orbits.
    """
    masks = bipartite_masks if bipartite_masks is not None else range(1 << n_parent)
    if not generators:
        return list(masks)
    reps = []
    seen: set[int] = set()
    for mask in masks:
        if mask in seen:
            continue
        reps.append(mask)
        # closure of the orbit under the generators
        stack = [mask]
        seen.add(mask)
        while stack:
            cur = stack.pop()
            for sigma in generators:
                img = 0
                rest = cur
                # hand-rolled: through graphs._bits, level 7's orbits took 1.1-1.7x as long (2-vCPU VM)
                while rest:
                    v = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    img |= 1 << sigma[v]
                if img not in seen:
                    seen.add(img)
                    stack.append(img)
    return reps


def _bipartite_masks(g: Graph) -> list[int]:
    """Masks whose addition keeps the bipartite graph g bipartite.

    The new vertex's neighbours must lie in one side of some bipartition;
    sides can be flipped per component independently, so a mask works iff its
    restriction to every component fits inside one of that component's two
    colour classes.
    """
    side0, side1 = is_bipartite(g)
    comps = connected_components(g)
    pieces = [(c & side0, c & side1) for c in comps]
    out = []
    for mask in range(1 << g.n):
        ok = True
        for c0, c1 in pieces:
            part = mask & (c0 | c1)
            if part & c0 and part & c1:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


def _extend(parents: list[_LevelEntry], bipartite_only: bool) -> list[_LevelEntry]:
    level: list[_LevelEntry] = []
    for entry in parents:
        g = entry.graph
        n = g.n + 1
        deg = degrees(g)
        top = max(deg)
        at_top = sum(1 << v for v, d in enumerate(deg) if d == top)
        bip = _bipartite_masks(g) if bipartite_only else None
        for mask in _mask_orbit_reps(g.n, entry.generators, bip):
            # degree pre-test: the child's largest old degree is top, plus one
            # if the new vertex is adjacent to a vertex of degree top
            if mask.bit_count() < top + bool(mask & at_top):
                continue
            child = add_vertex(g, mask)
            colors = _equitable_colors(n, child.adj)
            if colors[-1] != max(colors):
                continue
            cf = canonical_form(child, colors=colors)
            orbit = _orbit_ids(n, cf.generators)
            if orbit[cf.labelling[-1]] != orbit[n - 1]:
                continue
            level.append(_LevelEntry(cf.graph, cf.code, cf.generators))
    level.sort(key=lambda e: e.code)
    return level


class EnumerationCache:
    """Reusable level store so repeated scans share the augmentation work."""

    def __init__(self):
        cf = canonical_form(Graph(1, (0,)))
        base = _LevelEntry(cf.graph, cf.code, cf.generators)
        self._levels: dict[str, list[list[_LevelEntry]]] = {
            "all": [[base]],
            "bipartite": [[base]],
        }

    def level(self, base: str, n: int) -> list[_LevelEntry]:
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
    """
    if n < 1:
        raise ParamOutOfRange(f"enumeration needs n >= 1, got {n}")
    check_ceiling(n, graph_class)
    if cache is None:
        cache = EnumerationCache()
    base = "bipartite" if graph_class.bipartite_only else "all"
    for entry in cache.level(base, n):
        if graph_class.connected_only and not is_connected(entry.graph):
            continue
        yield entry.graph
