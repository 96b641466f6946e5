"""Extremal constructions and the closed-form bounds they attain.

Constructions: complete bipartite graphs, a clique joined to an independent
set (optionally with one extra edge), a clique joined to a near-perfect
matching, and a clique joined to a regular graph realised as a circulant.
The circulant choice makes the regular part explicit; when the requested
regularity is infeasible (odd degree on an odd order, or order too small)
the constructor raises instead of rounding to a nearly regular graph,
because the equality cases of the radius bounds genuinely need regularity.

Order thresholds are evaluated in exact rational arithmetic: the bipartite
threshold grows like the fourth power of a degree sum raised to the 4k-2,
far beyond anything floating point should be trusted with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

from .errors import (
    DivisionByZeroK2,
    NegativeDiscriminant,
    NoRegularGraph,
    ParamOutOfRange,
)
from .graphs import (
    MAX_ORDER,
    Graph,
    complete_graph,
    degrees,
    empty_graph,
    from_edges,
    graph6_encode,
    join,
    union,
)
from .star_forests import StarForest

THRESHOLD_KINDS = ("thm_1_7", "thm_3_1", "f_value", "thm_1_8_and_cor_1_9")

BOUND_NAMES = ("t17", "t18", "c19", "conj32")


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: which family, at which parameters, and its value.

    ``value`` is a float for the radius bounds and an exact Fraction for the
    order thresholds.  ``attained_by`` carries the graph6 of the extremal
    construction when it exists at these parameters with at most MAX_ORDER
    vertices, and is None otherwise.
    """

    name: str
    params: dict
    value: float | Fraction
    attained_by: str | None = None

    def to_json_dict(self) -> dict:
        out: dict = {"name": self.name, "params": dict(self.params)}
        if isinstance(self.value, Fraction):
            out["value"] = {
                "numerator": str(self.value.numerator),
                "denominator": str(self.value.denominator),
                "decimal": _fraction_decimal(self.value),
            }
        else:
            out["value"] = self.value
        out["attained_by"] = self.attained_by
        return out


def _fraction_decimal(q: Fraction) -> str:
    """q to 40 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        return str(Decimal(q.numerator) / Decimal(q.denominator))


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def make_complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise ParamOutOfRange(f"complete bipartite sides must be positive, got ({a},{b})")
    return join(empty_graph(a), empty_graph(b))


def make_complete_split(n: int, h: int) -> Graph:
    """Clique of size h joined to an independent set of size n-h."""
    if not 0 <= h <= n:
        raise ParamOutOfRange(f"need 0 <= h <= n, got h={h}, n={n}")
    return join(complete_graph(h), empty_graph(n - h))


def make_complete_split_plus_edge(n: int, h: int) -> Graph:
    """Clique of size h joined to (one edge plus n-h-2 isolated vertices)."""
    if not 0 <= h <= n - 2:
        raise ParamOutOfRange(f"need 0 <= h <= n-2, got h={h}, n={n}")
    return join(complete_graph(h), union(complete_graph(2), empty_graph(n - h - 2)))


def make_clique_join_matching(n: int, k: int) -> Graph:
    """Clique of size k-1 joined to a maximum matching on the rest.

    The remainder n-k+1 splits as 2p + s with s in {0,1}: p disjoint edges
    plus s isolated vertices.
    """
    if k < 1 or n < k - 1:
        raise ParamOutOfRange(f"need 1 <= k and n >= k-1, got n={n}, k={k}")
    p, s = divmod(n - k + 1, 2)
    matching = from_edges(2 * p, [(2 * i, 2 * i + 1) for i in range(p)])
    return join(complete_graph(k - 1), union(matching, empty_graph(s)))


def circulant_regular(m: int, r: int) -> Graph:
    """An r-regular circulant on m vertices.

    Connection set {+-1, ..., +-(r//2)}, plus the antipodal offset m/2 when
    r is odd (which forces m even).  Raises when no r-regular graph exists.
    """
    if r < 0 or m < 0:
        raise ParamOutOfRange(f"bad circulant parameters m={m}, r={r}")
    if r > 0 and r >= m:
        raise NoRegularGraph(f"no {r}-regular graph on {m} vertices (need order > degree)")
    if r % 2 == 1 and m % 2 == 1:
        raise NoRegularGraph(f"no {r}-regular graph on {m} vertices (odd degree, odd order)")
    edge_list = []
    for off in range(1, r // 2 + 1):
        for v in range(m):
            edge_list.append((v, (v + off) % m))
    if r % 2 == 1:
        half = m // 2
        for v in range(half):
            edge_list.append((v, v + half))
    g = from_edges(m, edge_list)
    if any(d != r for d in degrees(g)):
        raise NoRegularGraph(f"circulant connection set failed to be {r}-regular on {m} vertices")
    return g


def make_clique_join_regular(n: int, k: int, d: int) -> Graph:
    """Clique of size k-1 joined to a (d-1)-regular graph on n-k+1 vertices.

    This is the equality case of the general radius bound; NoRegularGraph
    signals that the equality case is unattainable at these parameters.
    """
    if k < 2 or d < 1 or n < k:
        raise ParamOutOfRange(f"need k >= 2, d >= 1, n >= k; got n={n}, k={k}, d={d}")
    m = n - k + 1
    if m < d:
        raise NoRegularGraph(f"no ({d - 1})-regular graph on {m} vertices (order below degree+1)")
    return join(complete_graph(k - 1), circulant_regular(m, d - 1))


# ---------------------------------------------------------------------------
# closed-form bound values
# ---------------------------------------------------------------------------


def radius_bound_general(n: int, k: int, d_k: int) -> float:
    """(k + d_k - 3 + sqrt((k - d_k - 1)^2 + 4(k-1)(n-k+1))) / 2."""
    if k < 2 or d_k < 1 or n < k:
        raise ParamOutOfRange(f"need k >= 2, d_k >= 1, n >= k; got n={n}, k={k}, d_k={d_k}")
    disc = (k - d_k - 1) ** 2 + 4 * (k - 1) * (n - k + 1)
    return (k + d_k - 3 + math.sqrt(disc)) / 2.0


def radius_bound_bipartite(n: int, k: int) -> float:
    """sqrt((k-1)(n-k+1))."""
    if k < 2 or n < k:
        raise ParamOutOfRange(f"need k >= 2 and n >= k; got n={n}, k={k}")
    return math.sqrt((k - 1) * (n - k + 1))


def least_eigenvalue_bound(n: int, k: int) -> float:
    """-sqrt((k-1)(n-k+1))."""
    return -radius_bound_bipartite(n, k)


def signless_radius_bound(n: int, k: int, d_k: int) -> float:
    """(n + 2k + 2d_k - 6 + sqrt((n + 2k - 2d_k - 2)^2 - 8(k-1)(k-d_k-1))) / 2."""
    if k < 2 or d_k < 1 or n < 1:
        raise ParamOutOfRange(f"need k >= 2, d_k >= 1, n >= 1; got n={n}, k={k}, d_k={d_k}")
    disc = (n + 2 * k - 2 * d_k - 2) ** 2 - 8 * (k - 1) * (k - d_k - 1)
    if disc < 0:
        raise NegativeDiscriminant(
            f"negative discriminant {disc} at n={n}, k={k}, d_k={d_k}"
        )
    return (n + 2 * k + 2 * d_k - 6 + math.sqrt(disc)) / 2.0


# ---------------------------------------------------------------------------
# exact order thresholds
# ---------------------------------------------------------------------------


def order_threshold(kind: str, forest: StarForest) -> Fraction:
    """Exact rational order threshold of the named kind for this forest.

    Kinds: ``thm_1_7`` (general radius bound), ``thm_3_1`` (its connected
    refinement), ``f_value`` (the bipartite connected threshold), and
    ``thm_1_8_and_cor_1_9`` (the bipartite / least-eigenvalue threshold,
    the square of f_value over 4k-8).
    """
    if kind not in THRESHOLD_KINDS:
        raise ParamOutOfRange(f"unknown threshold kind {kind!r}; choose from {THRESHOLD_KINDS}")
    k = forest.k
    if k < 2:
        raise ParamOutOfRange(f"order thresholds need at least two stars, got k={k}")
    s = forest.leaf_total
    s2 = 2 * s
    if kind == "thm_3_1":
        return Fraction((s2 + 5 * k - 7) ** 2 * (s + k - 2) ** 2)
    if k == 2:
        raise DivisionByZeroK2(
            f"threshold kind {kind!r} has denominator {'4k-8' if kind == 'thm_1_8_and_cor_1_9' else 'k-2'}, undefined at k=2"
        )
    if kind == "thm_1_7":
        return Fraction((s2 + 5 * k - 8) ** 4 * (s + k - 2) ** 4, k - 2)
    f_val = Fraction(
        k * k * (s + k - 2) ** 2 * (s2 + 5 * k - 4) ** (4 * k - 2) + 2 * (k - 2) * s,
        k - 2,
    )
    if kind == "f_value":
        return f_val
    return f_val * f_val / (4 * k - 8)


# ---------------------------------------------------------------------------
# packaged reports
# ---------------------------------------------------------------------------


def evaluate_bound(name: str, n: int, k: int, d_k: int | None = None) -> BoundReport:
    """Evaluate one of the named bound families into a BoundReport.

    t17: general radius ceiling (needs d_k); t18: bipartite radius ceiling;
    c19: least-eigenvalue floor; conj32: signless-Laplacian ceiling (needs d_k).
    """
    if name in ("t17", "conj32"):
        if d_k is None:
            raise ParamOutOfRange(f"bound {name!r} needs d_k")
        value = radius_bound_general(n, k, d_k) if name == "t17" else signless_radius_bound(n, k, d_k)
        attained = None
        if n <= MAX_ORDER:
            try:
                attained = graph6_encode(make_clique_join_regular(n, k, d_k))
            except (NoRegularGraph, ParamOutOfRange):
                pass
        return BoundReport(name, {"n": n, "k": k, "d_k": d_k}, value, attained)
    if name in ("t18", "c19"):
        value = radius_bound_bipartite(n, k) if name == "t18" else least_eigenvalue_bound(n, k)
        attained = (graph6_encode(make_complete_bipartite(k - 1, n - k + 1))
                    if MAX_ORDER >= n > k - 1 >= 1 else None)
        return BoundReport(name, {"n": n, "k": k}, value, attained)
    raise ParamOutOfRange(f"unknown bound name {name!r}; choose from {BOUND_NAMES}")


def threshold_report(kind: str, forest: StarForest) -> BoundReport:
    value = order_threshold(kind, forest)
    return BoundReport(kind, {"degrees": list(forest.degrees)}, value, None)
