"""Isomorphism-free enumeration of small graphs by vertex augmentation.

Each order-n class is produced exactly once: a candidate child (parent plus
one new vertex) is kept only when deleting the last vertex of its canonical
form gives back exactly the parent class.  Since "canonical form minus its
last vertex" is a function of the isomorphism class alone, every class is
accepted at precisely one parent; a per-level code table removes repeats of
the same class arising from different attachment masks of that parent.

Attachment masks are first reduced to one representative per orbit of the
parent's discovered automorphisms, which prunes most of the redundant work
on symmetric parents.

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
    add_vertex,
    canonical_code,
    canonical_form,
    connected_components,
    delete_last_vertex,
    is_bipartite,
    is_connected,
)

#: Practical ceilings: the all-graphs tree explodes past order 10; the
#: bipartite tree stays workable a little longer.
ALL_CEILING = 10
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


def _extend(parents: list[_LevelEntry], bipartite_only: bool) -> list[_LevelEntry]:
    accepted: dict[bytes, _LevelEntry] = {}
    deletion_code: dict[bytes, bytes] = {}
    for entry in parents:
        g = entry.graph
        bip = _bipartite_masks(g) if bipartite_only else None
        for mask in _mask_orbit_reps(g.n, entry.generators, bip):
            child = add_vertex(g, mask)
            cf = canonical_form(child, ceiling=child.n)
            key = cf.code.code
            if key in accepted:
                continue
            dc = deletion_code.get(key)
            if dc is None:
                dc = canonical_code(delete_last_vertex(cf.graph), ceiling=g.n).code
                deletion_code[key] = dc
            if dc == entry.code:
                accepted[key] = _LevelEntry(cf.graph, key, cf.generators)
    return [accepted[key] for key in sorted(accepted)]


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


def enumerate_graphs(
    n: int, graph_class: GraphClass = GraphClass.ALL, cache: EnumerationCache | None = None
) -> Iterator[Graph]:
    """Yield one canonical representative per isomorphism class of order n.

    Output is sorted by canonical code, so runs are reproducible.
    """
    if n < 1:
        raise ParamOutOfRange(f"enumeration needs n >= 1, got {n}")
    if n > graph_class.ceiling:
        raise OrderTooLarge(
            f"enumeration of class {graph_class.value!r} capped at order {graph_class.ceiling}, got {n}"
        )
    if cache is None:
        cache = EnumerationCache()
    base = "bipartite" if graph_class.bipartite_only else "all"
    for entry in cache.level(base, n):
        if graph_class.connected_only and not is_connected(entry.graph):
            continue
        yield entry.graph
