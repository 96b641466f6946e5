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
canonical search.

Attachment masks are first reduced to one representative per orbit of the
parent's automorphism generators, which prunes most of the redundant work
on symmetric parents.  A code table that lives for one parent drops any
repeat among that parent's children, so no table spans a whole level; the
level is sorted by canonical code once it is complete.

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
    add_vertex,
    canonical_code,
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
    code: bytes
    generators: tuple[tuple[int, ...], ...]


def _mask_orbit_reps(n_parent: int, generators, bipartite_masks) -> list[int]:
    """One attachment mask per orbit of the parent automorphism subgroup."""
    masks = bipartite_masks if bipartite_masks is not None else range(1 << n_parent)
    if not generators:
        return list(masks)
    allowed = set(masks)
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
                while rest:
                    v = (rest & -rest).bit_length() - 1
                    rest &= rest - 1
                    img |= 1 << sigma[v]
                if img not in seen and img in allowed:
                    seen.add(img)
                    stack.append(img)
    return reps


def _bipartite_masks(g: Graph) -> list[int]:
    """Masks whose addition keeps the graph bipartite.

    The new vertex's neighbours must lie in one side of some bipartition;
    sides can be flipped per component independently, so a mask works iff its
    restriction to every component fits inside one of that component's two
    colour classes.
    """
    two_col = is_bipartite(g)
    if two_col is None:
        return []
    side0, side1 = two_col
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


def _orbit(point: int, generators) -> set[int]:
    """Orbit of one vertex under the group the generators generate."""
    orbit = {point}
    stack = [point]
    while stack:
        v = stack.pop()
        for sigma in generators:
            w = sigma[v]
            if w not in orbit:
                orbit.add(w)
                stack.append(w)
    return orbit


def _extend(parents: list[_LevelEntry], bipartite_only: bool) -> list[_LevelEntry]:
    level: list[_LevelEntry] = []
    for entry in parents:
        g = entry.graph
        n = g.n + 1
        deg = degrees(g)
        top = max(deg)
        at_top = sum(1 << v for v, d in enumerate(deg) if d == top)
        bip = _bipartite_masks(g) if bipartite_only else None
        children: dict[bytes, _LevelEntry] = {}
        for mask in _mask_orbit_reps(g.n, entry.generators, bip):
            # degree pre-test: the child's largest old degree is top, plus one
            # if the new vertex is adjacent to a vertex of degree top
            if mask.bit_count() < top + bool(mask & at_top):
                continue
            child = add_vertex(g, mask)
            colors = _equitable_colors(n, child.adj)
            if colors[-1] != max(colors):
                continue
            cf = canonical_form(child, ceiling=n)
            if cf.labelling[-1] not in _orbit(n - 1, cf.generators):
                continue
            key = cf.code.code
            if key not in children:
                children[key] = _LevelEntry(cf.graph, key, cf.generators)
        level.extend(children.values())
    level.sort(key=lambda e: e.code)
    return level


class EnumerationCache:
    """Reusable level store so repeated scans share the augmentation work."""

    def __init__(self):
        base = _LevelEntry(Graph(1, (0,)), canonical_code(Graph(1, (0,))).code, ())
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

    Output is sorted by canonical code, so runs are reproducible.
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
