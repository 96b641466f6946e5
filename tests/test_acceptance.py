"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The enumeration cache is
session-scoped, so the class sweeps are built once and shared.
"""

import math
import time
from contextlib import contextmanager

import pytest

from conftest import (
    double_star,
    edge_count,
    is_bipartite,
    is_connected,
    is_triangle_free,
    star_forests_up_to,
    star_graph,
)
from starfree.enumeration import GraphClass, enumerate_graphs
from starfree.errors import NoRegularGraph
from starfree.families import (
    least_eigenvalue_bound,
    make_clique_join_matching,
    make_clique_join_regular,
    make_complete_bipartite,
    make_complete_split,
    signless_radius_bound,
)
from starfree.search import (
    conjecture_margin_table,
    extremal_search,
    verify_edge_bound,
    verify_join_regular_bound,
)
from starfree.spectra import (
    adjacency_spectrum,
    least_eigenvalue,
    signless_laplacian_radius,
    spectral_radius,
)
from starfree.star_forests import (
    StarForest,
    avoids_star_forest,
    contains_star_forest,
    contains_star_forest_oracle,
)

TOL = 1e-9


@contextmanager
def criterion(num: int, description: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed > budget:
            raise AssertionError(f"runtime {elapsed:.1f}s exceeded the {budget:.0f}s budget")
    except BaseException:
        print(f"\ncriterion {num:02d} FAIL ({time.perf_counter() - t0:.1f}s) {description}")
        raise
    print(f"\ncriterion {num:02d} PASS ({elapsed:.1f}s) {description}")


def test_criterion_01_closed_form_equalities():
    with criterion(1, "complete-bipartite and split-graph radius formulas", budget=10):
        for a in range(1, 21):
            for b in range(a, 21):
                g = make_complete_bipartite(a, b)
                assert spectral_radius(g) == pytest.approx(math.sqrt(a * b), abs=TOL)
        for k in range(2, 7):
            for n in range(k, 41):
                want = (k - 2 + math.sqrt((k - 2) ** 2 + 4 * (k - 1) * (n - k + 1))) / 2
                g = make_complete_split(n, k - 1)
                assert spectral_radius(g) == pytest.approx(want, abs=TOL)


def test_criterion_02_join_regular_equality_and_strictness():
    with criterion(2, "join-regular radius equality; one edge off makes it strict", budget=30):
        result = verify_join_regular_bound(40, 5, 4)
        assert result.failures == ()
        assert result.checked > 300


def test_criterion_03_containment_oracle_equivalence(cache):
    with criterion(3, "Hall-condition containment == exhaustive oracle, all classes n <= 7", budget=300):
        disagreements = 0
        compared = 0
        for n in range(1, 8):
            forests = [StarForest(t) for t in star_forests_up_to(n, 3)]
            for g in enumerate_graphs(n, GraphClass.ALL, cache):
                for f in forests:
                    compared += 1
                    if contains_star_forest(g.adj, f) != contains_star_forest_oracle(g, f):
                        disagreements += 1
        assert disagreements == 0
        assert compared > 10000


def test_criterion_04_edge_bound_suite(cache):
    with criterion(4, "coarse edge bound holds for every free graph, n <= 8", budget=600):
        for degs in ((1, 1), (2, 1), (2, 2)):
            f = StarForest(degs)
            for n in range(f.order, 9):
                violations = verify_edge_bound(n, f, GraphClass.ALL, cache)
                assert violations == [], (degs, n, violations)


def test_criterion_05_bipartite_small_order_families(cache):
    with criterion(5, "star/double-star family at order 18 and scan n <= 10 stay under sqrt(17)"):
        f = StarForest((2, 2))
        cap = math.sqrt(17)
        family = [star_graph(17)] + [double_star(a, 16 - a) for a in range(1, 9)]
        free_family = [g for g in family if avoids_star_forest(g, f)]
        assert len(free_family) >= 2  # the star and at least one lopsided double star
        for g in free_family:
            assert is_connected(g) and is_bipartite(g)
            assert spectral_radius(g) <= cap + TOL
        assert spectral_radius(star_graph(17)) == pytest.approx(cap, abs=TOL)
        # every double star with two leaves on each side hosts the forest
        assert not avoids_star_forest(double_star(8, 8), f)
        for n in range(1, 11):
            for g in enumerate_graphs(n, GraphClass.CONNECTED_BIPARTITE, cache):
                if avoids_star_forest(g, f):
                    assert spectral_radius(g) <= cap + TOL


def test_criterion_06_least_eigenvalue_mirror():
    with criterion(6, "least eigenvalue of K_{k-1,n-k+1} equals the negated ceiling", budget=5):
        for k in range(2, 6):
            for n in range(k, 41):
                g = make_complete_bipartite(k - 1, n - k + 1)
                assert least_eigenvalue(g) == pytest.approx(least_eigenvalue_bound(n, k), abs=TOL)


def test_criterion_07_signless_laplacian_consistency(cache):
    with criterion(7, "conjectured signless ceiling attained by join-regular; margins recorded", budget=600):
        for k in range(2, 5):
            for d in range(1, 4):
                for n in range(max(k, k + d - 1), 31):
                    try:
                        g = make_clique_join_regular(n, k, d)
                    except NoRegularGraph:
                        continue
                    assert signless_laplacian_radius(g) == pytest.approx(
                        signless_radius_bound(n, k, d), abs=TOL
                    ), (n, k, d)
        exceeder_report = []
        for n in range(6, 9):
            table = conjecture_margin_table(n, StarForest((2, 2)), GraphClass.ALL, cache)
            exceeder_report.append((n, len(table.rows), len(table.exceeders), table.max_margin))
        # small-order graphs above the asymptotic ceiling are recorded, not failed
        print("\n  signless margins (n, free, above-bound, max margin):")
        for row in exceeder_report:
            print(f"    n={row[0]}: {row[1]} free, {row[2]} above, max {row[3]:+.6f}")


def test_criterion_08_sandwich_and_gap_monotonicity(cache):
    with criterion(8, "constructed family never beats the scan; scan-vs-family gap shrinks with n"):
        plans = []
        for degs in ((1, 1), (2, 2)):
            f = StarForest(degs)
            for cls in (GraphClass.ALL, GraphClass.CONNECTED):
                plans.append((f, cls, range(f.order, 9)))
            for cls in (GraphClass.BIPARTITE, GraphClass.CONNECTED_BIPARTITE):
                plans.append((f, cls, range(f.order, 10)))
        for f, cls, span in plans:
            gaps = []
            for n in span:
                rec = extremal_search(n, f, cls, cache)
                if cls.bipartite_only:
                    constructed = make_complete_bipartite(1, n - 1)
                elif f.degrees[-1] == 2:
                    constructed = make_clique_join_matching(n, f.k)
                else:
                    constructed = make_complete_split(n, f.k - 1)
                assert avoids_star_forest(constructed, f)
                rho_c = spectral_radius(constructed)
                assert rho_c <= rec.max_rho + TOL, (f.degrees, cls, n)
                gaps.append(rec.max_rho - rho_c)
                if rec.bound_value is not None and rec.bound_applicable:
                    assert rec.max_rho <= rec.bound_value + TOL
            for earlier, later in zip(gaps, gaps[1:]):
                assert later <= earlier + TOL, (f.degrees, cls, gaps)


def test_criterion_09_enumeration_oracle_agreement(cache):
    with criterion(9, "stream counts equal the labeled dedup oracle, n <= 6", budget=60):
        from test_enumeration import census_counts

        all_counts = []
        for n in range(1, 7):
            want = census_counts(n)
            for cls in GraphClass:
                got = sum(1 for _ in enumerate_graphs(n, cls, cache))
                assert got == want[cls], (n, cls)
            all_counts.append(want[GraphClass.ALL])
        assert all_counts == [1, 2, 4, 11, 34, 156]


def test_criterion_10_solver_hygiene(cache):
    with criterion(10, "trace, power sums, bipartite symmetry, LAPACK-vs-Jacobi agreement, n <= 8", budget=900):
        for n in range(1, 9):
            for g in enumerate_graphs(n, GraphClass.ALL, cache):
                res = adjacency_spectrum(g)
                vals = res.eigenvalues
                assert res.max_residual <= 1e-10
                assert abs(sum(vals)) <= 1e-8 * n
                assert abs(sum(x * x for x in vals) - 2 * edge_count(g)) <= 1e-8 * n
                assert abs(spectral_radius(g) - vals[0]) <= TOL
                if is_bipartite(g):
                    for lo, hi in zip(reversed(vals), vals):
                        assert abs(lo + hi) <= TOL
                if is_triangle_free(g):
                    assert vals[0] <= n / 2 + TOL
