import decimal
import math
from fractions import Fraction

import pytest

from conftest import count_calls, cycle_graph, degrees, edge_count, is_connected, max_degree
from starfree.errors import (
    DivisionByZeroK2,
    NegativeDiscriminant,
    NoRegularGraph,
    ParamOutOfRange,
)
from starfree.families import (
    circulant_regular,
    evaluate_bound,
    least_eigenvalue_bound,
    make_clique_join_matching,
    make_clique_join_regular,
    make_complete_bipartite,
    make_complete_split,
    make_complete_split_plus_edge,
    order_threshold,
    radius_bound_bipartite,
    radius_bound_general,
    signless_radius_bound,
    threshold_report,
)
from starfree.graphs import (
    canonical_form,
    edges,
    from_edges,
    graph6_decode,
)
from starfree import star_forests
from starfree.spectra import (
    adjacency_spectrum,
    least_eigenvalue,
    perron_vector,
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


class TestConstructions:
    def test_join_matching_counts(self):
        g = make_clique_join_matching(7, 3)
        assert g.n == 7 and edge_count(g) == 13
        assert is_connected(g) and max_degree(g) == 6

    def test_complete_split_edges(self):
        assert edge_count(make_complete_split(5, 2)) == 7

    def test_split_plus_edge(self):
        g = make_complete_split_plus_edge(7, 2)
        assert edge_count(g) == 1 + 2 * 5 + 1 + 0  # clique + cross + extra edge
        assert max(degrees(g)) == 6

    def test_complete_bipartite(self):
        g = make_complete_bipartite(2, 9)
        assert g.n == 11 and edge_count(g) == 18

    def test_join_regular_cycle_case(self):
        g = make_clique_join_regular(10, 3, 3)
        want = __import__("starfree.graphs", fromlist=["join"]).join(
            __import__("starfree.graphs", fromlist=["complete_graph"]).complete_graph(2),
            cycle_graph(8),
        )
        assert canonical_form(g).code == canonical_form(want).code

    def test_join_regular_matching_case(self):
        g = make_clique_join_regular(7, 2, 2)
        assert canonical_form(g).code == canonical_form(make_clique_join_matching(7, 2)).code

    def test_join_regular_parity_failure(self):
        with pytest.raises(NoRegularGraph):
            make_clique_join_regular(8, 2, 2)

    def test_join_regular_order_failure(self):
        with pytest.raises(NoRegularGraph):
            make_clique_join_regular(5, 3, 4)  # 3 vertices cannot be 3-regular

    def test_join_regular_params(self):
        with pytest.raises(ParamOutOfRange):
            make_clique_join_regular(10, 1, 2)

    def test_circulant_degrees(self):
        # r-regular exactly when r < m and m * r is even; the empty graph
        # (m = r = 0) is vacuously 0-regular
        for m in range(65):
            for r in range(65):
                if (r < m or r == 0) and m * r % 2 == 0:
                    assert all(d == r for d in degrees(circulant_regular(m, r))), (m, r)
                else:
                    with pytest.raises(NoRegularGraph):
                        circulant_regular(m, r)

    def test_matching_join_equals_regular_join_when_even(self):
        for n, k in [(7, 2), (9, 4), (12, 3), (11, 2)]:
            if (n - k + 1) % 2 == 0:
                assert canonical_form(make_clique_join_matching(n, k)).code == canonical_form(
                    make_clique_join_regular(n, k, 2)
                ).code

    def test_matching_join_strict_when_odd(self):
        for n, k in [(10, 2), (8, 3), (12, 5)]:
            if (n - k + 1) % 2 == 1:
                rho = spectral_radius(make_clique_join_matching(n, k))
                assert rho < radius_bound_general(n, k, 2) - 1e-6

    def test_bounded_degree_join_stays_under_ceiling(self):
        # pruning edges from the regular part keeps max degree <= d-1, the
        # ceiling still holds, and only the regular graph attains it
        for n, k, d in [(14, 2, 3), (15, 3, 3), (17, 4, 2)]:
            g = make_clique_join_regular(n, k, d)
            bound = radius_bound_general(n, k, d)
            inner = [e for e in edges(g) if e[0] >= k - 1 and e[1] >= k - 1]
            for drop in (1, 2, 3):
                pruned = from_edges(g.n, [e for e in edges(g) if e not in set(inner[:drop])])
                rho = spectral_radius(pruned)
                assert rho <= bound + 1e-9
                assert rho < bound - 1e-6


def _inner_edges(g, k):
    return [e for e in edges(g) if min(e) >= k - 1]


class TestFastPathsOnFamilies:
    """The containment peel settles every extremal family member without a
    Hall check, and the certified LAPACK Perron vector needs no Jacobi call."""

    K = 4

    @staticmethod
    def _members(k):
        # (name, graph, d) at order 40; the 1-regular join needs an even
        # outside part, so it moves to order 41
        jr2, jr3 = make_clique_join_regular(41, k, 2), make_clique_join_regular(40, k, 3)
        yield "jr2", jr2, 2
        yield "jr3", jr3, 3
        for name, g, d in (("jr2-e", jr2, 2), ("jr3-e", jr3, 3)):
            dropped = _inner_edges(g, k)[5]
            yield name, from_edges(g.n, [e for e in edges(g) if e != dropped]), d
        yield "kb", make_complete_bipartite(k - 1, 40 - k + 1), 1
        yield "jm", make_clique_join_matching(40, k), 2
        yield "sp", make_complete_split(40, k - 1), 1

    def test_members_avoid_without_hall_check(self, monkeypatch):
        halls = count_calls(monkeypatch, "_leaves_fit", star_forests)
        for name, g, d in self._members(self.K):
            assert avoids_star_forest(g, StarForest((d,) * self.K)), name
            # the Jacobi full spectrum is the oracle for the LAPACK Perron radius
            rho = adjacency_spectrum(g).eigenvalues[0]
            assert perron_vector(g).rho == pytest.approx(rho, abs=TOL), name
        assert halls == []

    def test_one_more_inner_edge_contains(self):
        for n, k, d in ((41, self.K, 2), (40, self.K, 3), (10, 3, 2), (10, 2, 3)):
            g = make_clique_join_regular(n, k, d)
            inner = set(_inner_edges(g, k))
            extra = next((u, v) for u in range(k - 1, n) for v in range(u + 1, n)
                         if (u, v) not in inner)
            plus = from_edges(n, edges(g) + [extra])
            forest = StarForest((d,) * k)
            assert contains_star_forest(plus.adj, forest), (n, k, d)
            if n <= 10:
                assert contains_star_forest_oracle(plus, forest), (n, k, d)


class TestRadiusBounds:
    def test_general_known_value(self):
        assert radius_bound_general(10, 2, 2) == pytest.approx((1 + math.sqrt(37)) / 2, abs=TOL)

    def test_general_reduces_to_split_formula_at_d1(self):
        for k in range(2, 7):
            for n in range(k, 41, 7):
                want = (k - 2 + math.sqrt((k - 2) ** 2 + 4 * (k - 1) * (n - k + 1))) / 2
                assert radius_bound_general(n, k, 1) == pytest.approx(want, abs=TOL)
                g = make_complete_split(n, k - 1)
                assert spectral_radius(g) == pytest.approx(want, abs=TOL)

    def test_general_equality_case(self):
        g = make_clique_join_regular(12, 3, 3)
        assert spectral_radius(g) == pytest.approx(radius_bound_general(12, 3, 3), abs=TOL)

    def test_bipartite_value_and_equality(self):
        assert radius_bound_bipartite(11, 3) == pytest.approx(math.sqrt(18), abs=TOL)
        g = make_complete_bipartite(2, 9)
        assert spectral_radius(g) == pytest.approx(radius_bound_bipartite(11, 3), abs=TOL)

    def test_bipartite_star_case(self):
        for n in (5, 9, 17):
            assert radius_bound_bipartite(n, 2) == pytest.approx(math.sqrt(n - 1), abs=TOL)

    def test_least_eigenvalue_mirror(self):
        assert least_eigenvalue_bound(11, 3) == pytest.approx(-math.sqrt(18), abs=TOL)
        g = make_complete_bipartite(2, 9)
        assert least_eigenvalue(g) == pytest.approx(least_eigenvalue_bound(11, 3), abs=TOL)

    def test_monotone_in_n(self):
        for k, d in [(2, 1), (3, 2), (4, 3), (5, 1)]:
            prev = None
            for n in range(max(k, 3), 40):
                val = radius_bound_general(n, k, d)
                if prev is not None:
                    assert val > prev
                prev = val
        prev = None
        for n in range(3, 40):
            val = radius_bound_bipartite(n, 3)
            if prev is not None:
                assert val > prev
            prev = val

    def test_param_checks(self):
        with pytest.raises(ParamOutOfRange):
            radius_bound_general(10, 1, 1)
        with pytest.raises(ParamOutOfRange):
            radius_bound_general(2, 3, 1)
        with pytest.raises(ParamOutOfRange):
            radius_bound_bipartite(10, 1)


class TestSignlessBound:
    def test_conjectured_equality_examples(self):
        for n, k, d in [(20, 3, 2), (13, 2, 2), (16, 4, 3)]:
            g = make_clique_join_regular(n, k, d)
            assert signless_laplacian_radius(g) == pytest.approx(signless_radius_bound(n, k, d), abs=TOL)

    def test_odd_remainder_is_strict(self):
        # leftover isolated vertex in the matching part: the conjectured
        # ceiling is attained only by a genuinely 1-regular part
        g = make_clique_join_matching(12, 2)
        assert signless_laplacian_radius(g) < signless_radius_bound(12, 2, 2) - 1e-6

    def test_zero_regular_case_matches_split(self):
        for k in (2, 3, 4):
            for n in range(k + 2, 30, 5):
                g = make_complete_split(n, k - 1)
                assert signless_laplacian_radius(g) == pytest.approx(
                    signless_radius_bound(n, k, 1), abs=TOL
                )

    def test_negative_discriminant_reported(self):
        with pytest.raises(NegativeDiscriminant):
            signless_radius_bound(1, 4, 1)

    def test_param_checks(self):
        with pytest.raises(ParamOutOfRange):
            signless_radius_bound(10, 1, 1)


class TestThresholds:
    def test_f_value_exact(self):
        f = StarForest((1, 1, 1))
        assert order_threshold("f_value", f) == Fraction(144 * 17**10 + 6)

    def test_connected_threshold_small(self):
        # (2*4 + 5*2 - 7)^2 * (4 + 0)^2 = 11^2 * 16
        assert order_threshold("thm_3_1", StarForest((2, 2))) == Fraction(1936)

    def test_k2_division(self):
        for kind in ("thm_1_7", "f_value", "thm_1_8_and_cor_1_9"):
            with pytest.raises(DivisionByZeroK2):
                order_threshold(kind, StarForest((2, 2)))

    def test_general_threshold_value(self):
        f = StarForest((2, 2, 2))
        # (12 + 15 - 8)^4 * (6 + 1)^4 / 1
        assert order_threshold("thm_1_7", f) == Fraction(19**4 * 7**4)

    def test_bipartite_threshold_is_f_squared_over_4k_minus_8(self):
        f = StarForest((2, 1, 1))
        fv = order_threshold("f_value", f)
        assert order_threshold("thm_1_8_and_cor_1_9", f) == fv * fv / 4

    def test_exactness_no_float(self):
        val = order_threshold("f_value", StarForest((3, 2, 2, 1)))
        assert isinstance(val, Fraction)
        assert val.denominator in (1, 2)

    def test_unknown_kind(self):
        with pytest.raises(ParamOutOfRange):
            order_threshold("bogus", StarForest((2, 2)))

    def test_single_star_rejected(self):
        with pytest.raises(ParamOutOfRange):
            order_threshold("thm_3_1", StarForest((3,)))


class TestBoundReports:
    def test_t18_report(self):
        rep = evaluate_bound("t18", 11, 3)
        assert rep.value == pytest.approx(math.sqrt(18), abs=TOL)
        g = graph6_decode(rep.attained_by)
        assert canonical_form(g).code == canonical_form(make_complete_bipartite(2, 9)).code

    def test_t17_attainment_presence(self):
        assert evaluate_bound("t17", 10, 3, 3).attained_by is not None
        assert evaluate_bound("t17", 8, 2, 2).attained_by is None  # parity gap
        # the closed forms hold past MAX_ORDER, where no graph is built
        assert evaluate_bound("t18", 64, 3).attained_by is not None
        for args in (("t17", 1000000, 3, 2), ("t18", 100, 3), ("c19", 66, 3), ("conj32", 70, 3, 2)):
            assert evaluate_bound(*args).attained_by is None, args

    def test_arity_checked(self):
        for args in (("t18", 11, 3, 2), ("c19", 11, 3, 2), ("t17", 10, 3), ("conj32", 10, 3),
                     ("t17", 10, 3, 2, 1), ("t18", 11)):
            with pytest.raises(ParamOutOfRange):
                evaluate_bound(*args)
        with pytest.raises(ParamOutOfRange):
            evaluate_bound("nosuch", 11, 3)

    def test_conj32_report(self):
        rep = evaluate_bound("conj32", 20, 3, 2)
        assert rep.value == pytest.approx(22.0, abs=TOL)

    def test_threshold_report_json(self):
        rep = threshold_report("thm_3_1", StarForest((2, 2)))
        d = rep.to_json_dict()
        assert d["value"]["numerator"] == "1936"
        assert d["value"]["denominator"] == "1"
        assert d["value"]["decimal"] == "1936"

    def test_report_json_leaves_decimal_context_alone(self):
        with decimal.localcontext() as ctx:
            ctx.prec = 28
            threshold_report("thm_3_1", StarForest((2, 2))).to_json_dict()
            assert decimal.getcontext().prec == 28

    def test_c19_is_mirror(self):
        a = evaluate_bound("t18", 15, 4).value
        b = evaluate_bound("c19", 15, 4).value
        assert a == -b
