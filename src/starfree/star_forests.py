"""Star forests: degree-list representation, exact containment, the coarse edge bound.

A star forest is a vertex-disjoint union of stars, recorded by the sorted
list of leaf counts d1 >= ... >= dk >= 1.  Containment of a star forest as a
subgraph is decided exactly, by one procedure on an (N, n) stack of
neighbour masks (``contains_star_forest``), so the class scans test a
class's level rows in one call and ``avoids_star_forest`` passes a stack of
one, ``[g.adj]``.  The stack is decided _CHUNK rows at a time, in four
stages; the first three are batched over the rows, and each row leaves at
the first stage that decides it.

1. The peel.  Lemma: let F have order |F| and largest star S_{d1}.  If a
   vertex v has at least |F| - 1 neighbours, then G contains F iff G - v
   contains F - S_{d1}.
     (<=) an embedding of F - S_{d1} uses |F| - d1 - 1 vertices, so v keeps
          d1 free neighbours and becomes the center of S_{d1}.
     (=>) if v is unused, or is a center or a leaf of some star S_{dj},
          drop that star; what remains contains F - S_{d1}, because
          d1 >= dj.
   The lowest such vertex is peeled, and the peel repeats on the live
   vertices until no vertex qualifies.  A row with every star peeled
   contains F.  On the extremal families, K_{k-1} joined to a sparse graph,
   it peels the k-1 dominating vertices.
2. The degree cut.  The centers of the stars d_1 >= ... >= d_m left by the
   peel are m live vertices, the one of star j with at least d_j live
   neighbours, so the j-th largest live degree is at least d_j; and the
   stars cover sum d + m live vertices, each with a live neighbour.  A row
   that fails either count does not contain them.  It settles the extremal
   families: after the peel the last star's degree exceeds every live
   degree.
3. The first placement.  The placement below would first try the m live
   vertices of largest degree, in its order, as the centers; when Hall's
   condition holds for them the row contains the stars.  Only this sure
   answer is read off; a row that fails goes on.
4. The placement, an exact search on the peeled masks of each row left.
   Star i, in order, is given a center from the vertices of degree >= dm,
   tried in order of falling degree; a center with fewer than di
   neighbours outside the centers already placed is skipped.  Stars of
   equal size are interchangeable, so within each run of equal sizes the
   centers are taken at increasing positions of that order: every set of
   centers with its assignment of sizes is then tried exactly once.

Once all m centers C are placed, Hall's condition settles whether every
center c_i can have di private leaves outside C.  Copy each c_i di times;
the stars exist iff the copies have a matching into the leaves that
saturates them.  By Hall's theorem that holds iff every set T of copies
sees at least |T| leaves.  Copies of one center share its neighbourhood, so
a set T meeting the copies of the centers in S sees the same leaves as all
copies of S, which is the largest such T.  The condition thus reduces to
the subsets S of centers:
    |(union of N(c_i) over i in S) - C| >= sum of di over i in S,
at most 2^m - 1 counts for m <= MAX_STARS stars.  The subsets of one
center catch a later center that took an earlier one's neighbours.
A brute-force oracle with the same semantics backs the fast path in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ParamOutOfRange, ParseError
from .graphs import Graph, _bits, adjacency_bits

MAX_STARS = 8  # the depth of the center placement; Hall's table has 2^k entries

#: contains_star_forest decides a stack this many rows at a time, which
#: bounds its working memory (the chunk's 0/1 adjacency matrices)
_CHUNK = 4096


@dataclass(frozen=True)
class StarForest:
    """Leaf counts of the stars, normalised to non-increasing order."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        if len(self.degrees) == 0:
            raise ParamOutOfRange("a star forest needs at least one star")
        if any(d < 1 for d in self.degrees):
            raise ParamOutOfRange(f"every star needs at least one leaf: {self.degrees}")
        object.__setattr__(self, "degrees", tuple(sorted(self.degrees, reverse=True)))

    @property
    def k(self) -> int:
        return len(self.degrees)

    @property
    def leaf_total(self) -> int:
        return sum(self.degrees)

    @cached_property  # read once per chunk by contains_star_forest
    def order(self) -> int:
        return self.leaf_total + self.k

    def text(self) -> str:
        return ",".join(str(d) for d in self.degrees)

    def __str__(self) -> str:
        return self.text()


def parse_star_forest(text: str) -> StarForest:
    """Parse ``d1,d2,...`` or ``k:d1,d2,...`` (degrees are sorted on parse).

    Whitespace around a field is allowed; an empty field is a ParseError."""
    body = text.strip()
    if ":" in body:
        head, _, body = body.partition(":")
        try:
            k = int(head)
        except ValueError:
            raise ParseError(f"bad star count {head!r} in star forest {text!r}") from None
    else:
        k = None
    try:
        ds = tuple(int(p) for p in body.split(","))
    except ValueError:
        raise ParseError(f"bad star forest text {text!r}") from None
    if k is not None and k != len(ds):
        raise ParseError(f"star count {k} does not match {len(ds)} degrees in {text!r}")
    return StarForest(ds)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------


def _leaves_fit(rows: list[int], caps: tuple[int, ...]) -> bool:
    """Hall's condition: can center i get caps[i] private leaves from rows[i]?

    Every subset of centers must see at least as many leaves as it needs.
    Each subset's union and demand extend those of the subset without its
    lowest member.
    """
    union = [0] * (1 << len(rows))
    demand = [0] * (1 << len(rows))
    for s in range(1, 1 << len(rows)):
        low = s & -s
        i = low.bit_length() - 1
        union[s] = union[s ^ low] | rows[i]
        demand[s] = demand[s ^ low] + caps[i]
        if union[s].bit_count() < demand[s]:
            return False
    return True


def _stacked_leaves_fit(leaves: np.ndarray, caps: tuple[int, ...]) -> np.ndarray:
    """``_leaves_fit`` for a stack: leaves[r, i] is the 0/1 leaf set of
    center i of row r, and the result says which rows pass Hall's condition."""
    union = [np.zeros_like(leaves[:, 0])]
    demand = [0]
    fit = np.ones(len(leaves), dtype=bool)
    for s in range(1, 1 << len(caps)):
        low = s & -s
        i = low.bit_length() - 1
        union.append(union[s ^ low] | leaves[:, i])
        demand.append(demand[s ^ low] + caps[i])
        fit &= union[s].sum(axis=1) >= demand[s]
    return fit


def _place(adj: Sequence[int], d: tuple[int, ...]) -> bool:
    """The center placement: does the graph with neighbour masks ``adj``
    contain stars with the non-increasing leaf counts ``d``?

    Exact on its own; ``contains_star_forest`` runs it only on the peeled
    rows that its batched stages leave undecided."""
    k = len(d)
    pool = sorted((v for v in range(len(adj)) if adj[v].bit_count() >= d[-1]),
                  key=lambda v: -adj[v].bit_count())

    def place(i: int, first: int, centers: list[int], cmask: int) -> bool:
        """Give star i a center from pool[first:], then place the rest."""
        if i == k:
            # a later center may have taken an earlier one's leaves, which
            # the subsets of one center find
            return _leaves_fit([adj[c] & ~cmask for c in centers], d)
        for pos in range(first, len(pool)):
            c = pool[pos]
            if cmask >> c & 1 or (adj[c] & ~cmask).bit_count() < d[i]:
                continue
            centers.append(c)
            # equal stars are interchangeable: their positions increase
            if place(i + 1, pos + 1 if i + 1 < k and d[i + 1] == d[i] else 0,
                     centers, cmask | 1 << c):
                return True
            centers.pop()
        return False

    return place(0, 0, [], 0)


def contains_star_forest(rows, forest: StarForest) -> np.ndarray:
    """Which graphs of an (N, n) stack of neighbour masks (vertex v's in
    ``rows[:, v]``) contain vertex-disjoint stars with the forest's leaf
    counts, as an (N,) bool array; one graph is a stack of one.

    Centers cannot serve as leaves of other stars (the stars are vertex
    disjoint); an edge between two chosen centers is simply unused.  It
    raises ParamOutOfRange when the peel leaves more than MAX_STARS stars
    in any row.
    """
    return _contains_stack(rows, forest)


def _contains_stack(rows, forest: StarForest) -> np.ndarray:
    """``contains_star_forest``, decided _CHUNK rows at a time by the stages
    of the module docstring.  The class scans call it by this name, because
    ``perfbench/tracer.py`` wraps ``contains_star_forest`` with a hook that
    reads one truth value per call."""
    found = np.zeros(len(rows), dtype=bool)
    for start in range(0, len(rows), _CHUNK):
        # only a chunk is widened to 64-bit words, not the whole stack
        chunk = np.asarray(rows[start:start + _CHUNK], dtype="<u8")
        if chunk.shape[1] >= forest.order:
            found[start:start + _CHUNK] = _contains_chunk(chunk, forest.degrees)
    return found


def _contains_chunk(rows: np.ndarray, d: tuple[int, ...]) -> np.ndarray:
    """The four stages of the module docstring on an (N, n) stack."""
    count, n = rows.shape
    k = len(d)
    a = adjacency_bits(rows).view(bool)
    # 1. the peel: with p stars placed, the lowest live vertex with at
    # least |F'| - 1 live neighbours takes star p, F' being the stars d[p:];
    # no vertex has the n neighbours asked once every star is placed
    hub_need = np.array([sum(d[p:]) + k - p - 1 for p in range(k)] + [n])
    live = np.ones((count, n), dtype=bool)
    deg = a.sum(axis=2, dtype=np.int8)  # at most 63
    peeled = np.zeros(count, dtype=np.intp)
    for _ in range(k):
        hubs = live & (deg >= hub_need[peeled, None])
        r = np.flatnonzero(hubs.any(axis=1))
        if not len(r):
            break
        hub = hubs[r].argmax(axis=1)
        live[r, hub] = False
        deg[r] -= a[r, :, hub]
        peeled[r] += 1
    found = peeled == k
    if k - peeled.min() > MAX_STARS:
        raise ParamOutOfRange(f"containment supports at most {MAX_STARS} stars left "
                              f"after the peel, got {k - peeled.min()}")
    weight = np.uint64(1) << np.arange(n, dtype=np.uint64)
    for p in np.unique(peeled[~found]).tolist():
        rest = d[p:]
        r = np.flatnonzero(peeled == p)
        live_deg = np.where(live[r], deg[r], -1)
        top = np.argsort(-live_deg, axis=1, kind="stable")[:, :len(rest)]
        # 2. the degree cut
        cut = ((np.take_along_axis(live_deg, top, axis=1) >= rest).all(axis=1)
               & ((live_deg > 0).sum(axis=1) >= sum(rest) + len(rest)))
        r, top = r[cut], top[cut]
        if not len(r):
            continue
        # 3. the first placement: the centers are the top vertices, in the
        # order that _place tries them, each with its live neighbours
        # outside the centers
        outside = live[r]
        np.put_along_axis(outside, top, False, axis=1)
        fit = _stacked_leaves_fit(a[r[:, None], top] & outside[:, None, :], rest)
        found[r[fit]] = True
        # 4. the placement, on the peeled masks: a peeled vertex keeps its
        # index and loses every edge
        r = r[~fit]
        peeled_rows = rows[r] & (live[r] * weight).sum(axis=1, dtype=np.uint64)[:, None]
        peeled_rows[~live[r]] = 0
        found[r] = [_place(adj, rest) for adj in peeled_rows.tolist()]
    return found


def contains_star_forest_oracle(g: Graph, forest: StarForest) -> bool:
    """Exhaustive reference: try every center and every leaf subset.

    Exponential; meant for orders up to about 10.  Shares no machinery with
    the Hall-condition decision procedure.
    """
    d = forest.degrees

    def place(i: int, used: int) -> bool:
        if i == len(d):
            return True
        for c in range(g.n):
            if used >> c & 1:
                continue
            for leaves in itertools.combinations(_bits(g.adj[c] & ~used & ~(1 << c)), d[i]):
                taken = used | 1 << c | sum(1 << v for v in leaves)
                if place(i + 1, taken):
                    return True
        return False

    if g.n < forest.order:
        return False
    return place(0, 0)


def avoids_star_forest(g: Graph, forest: StarForest) -> bool:
    """The freeness predicate: no subgraph of g is the given star forest."""
    return not contains_star_forest(np.array([g.adj], dtype="<u8"), forest)[0]


# ---------------------------------------------------------------------------
# edge bound
# ---------------------------------------------------------------------------


def coarse_edge_bound(forest: StarForest, n: int) -> int:
    """Crude degree-counting edge bound for forest-free graphs of order n.

    Valid whenever n >= order(forest):  (sum d + 2k - 3) n - (k-1)(sum d + k - 1).
    """
    k = forest.k
    if k < 2:
        raise ParamOutOfRange(f"the coarse edge bound needs at least two stars, got k={k}")
    if n < forest.order:
        raise ParamOutOfRange(f"order {n} is below the forest order {forest.order}")
    s = forest.leaf_total
    return (s + 2 * k - 3) * n - (k - 1) * (s + k - 1)

