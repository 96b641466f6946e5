"""Star forests: degree-list representation, exact containment, the coarse edge bound.

A star forest is a vertex-disjoint union of stars, recorded by the sorted
list of leaf counts d1 >= ... >= dk >= 1.  Containment of a star forest as a
subgraph is decided exactly: candidate center sets C are enumerated, each
center c_i of C is given a star size caps[i], and Hall's condition settles
whether every center can have caps[i] private leaves outside C.  Copy each
c_i caps[i] times; the stars exist iff the copies have a matching into the
leaves that saturates them.  By Hall's theorem that holds iff every set T of
copies sees at least |T| leaves.  Copies of one center share its
neighbourhood, so a set T meeting the copies of the centers in S sees the
same leaves as all copies of S, which is the largest such T.  The condition
thus reduces to the subsets S of centers:
    |(union of N(c_i) over i in S) - C| >= sum of caps[i] over i in S,
at most 2^k - 1 counts for k <= MAX_STARS stars.
A brute-force oracle with the same semantics backs the fast path in tests.

Before the search, high-degree vertices are peeled.  Lemma: let F have
order |F| and largest star S_{d1}.  If a vertex v has at least |F| - 1
neighbours, then G contains F iff G - v contains F - S_{d1}.
  (<=) an embedding of F - S_{d1} uses |F| - d1 - 1 vertices, so v keeps d1
       free neighbours and becomes the center of S_{d1}.
  (=>) if v is unused, or is a center or a leaf of some star S_{dj}, drop
       that star; what remains contains F - S_{d1}, because d1 >= dj.
The peel repeats on the live vertices until no vertex qualifies (or every
star is placed).  On the extremal families, K_{k-1} joined to a sparse
graph, it peels the k-1 dominating vertices, after which the last star's
degree exceeds every live degree and the search has no candidate center.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import ParamOutOfRange, ParseError
from .graphs import Graph, _bits

MAX_STARS = 8  # center-subset enumeration is exponential in the star count


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

    @property
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


def contains_star_forest(g: Graph, forest: StarForest) -> bool:
    """True iff g contains vertex-disjoint stars with the forest's leaf counts.

    Centers cannot serve as leaves of other stars (the stars are vertex
    disjoint); an edge between two chosen centers is simply unused.  Vertices
    with at least |F| - 1 live neighbours are peeled first, each taking the
    largest remaining star (see the module docstring); the center-subset
    search then runs on the live vertices with the stars that are left; it
    raises ParamOutOfRange when more than MAX_STARS stars are left for it.
    """
    if g.n < forest.order:
        return False
    live = (1 << g.n) - 1
    d = forest.degrees
    while d:
        need = sum(d) + len(d) - 1
        hub = next((v for v in range(g.n)
                    if live >> v & 1 and (g.adj[v] & live).bit_count() >= need), None)
        if hub is None:
            break
        live &= ~(1 << hub)
        d = d[1:]
    if not d:
        return True
    k = len(d)
    if k > MAX_STARS:
        raise ParamOutOfRange(f"containment supports at most {MAX_STARS} stars left "
                              f"after the peel, got {k}")
    # peeled vertices keep their index but lose every edge
    adj = [row & live if live >> v & 1 else 0 for v, row in enumerate(g.adj)]
    deg = [row.bit_count() for row in adj]
    cands = [v for v in range(g.n) if deg[v] >= d[-1]]
    if len(cands) < k:
        return False
    cands.sort(key=lambda v: -deg[v])
    # role multiset collapsed: permutations of equal leaf counts are identical
    assignments = sorted(set(itertools.permutations(d)), reverse=True)
    sorted_d = list(d)
    for centers in itertools.combinations(cands, k):
        cmask = 0
        for c in centers:
            cmask |= 1 << c
        rows = [adj[c] & ~cmask for c in centers]
        out = [row.bit_count() for row in rows]
        ranked = sorted(out, reverse=True)
        if any(ranked[i] < sorted_d[i] for i in range(k)):
            continue
        for caps in assignments:
            if all(out[i] >= caps[i] for i in range(k)):
                if _leaves_fit(rows, caps):
                    return True
    return False


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
    return not contains_star_forest(g, forest)


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

