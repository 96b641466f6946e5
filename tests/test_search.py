import json
import math

import numpy as np
import pytest

import starfree.enumeration as enumeration_module
from conftest import (
    ORACLE_FORESTS,
    Unbuildable,
    adjacency_matrix,
    doctor_spectra,
    edge_count,
    signless_laplacian_matrix,
)
from starfree import search
from starfree.enumeration import GraphClass, class_rows, enumerate_graphs
from starfree.errors import (
    EmptyClass,
    NegativeDiscriminant,
    OrderTooLarge,
    ParamOutOfRange,
    ParseError,
)
from starfree.families import (
    make_clique_join_matching,
    make_complete_bipartite,
    radius_bound_general,
    signless_radius_bound,
)
from starfree.graphs import Graph, canonical_form, graph6_decode, graph6_encode
from starfree.search import (
    applicable_bound,
    conjecture_margin_table,
    extremal_search,
    read_records,
    verify_bipartite_spectra,
    verify_edge_bound,
    verify_join_regular_bound,
    write_records,
)
from starfree.spectra import spectral_radius
from starfree.star_forests import (
    StarForest,
    avoids_star_forest,
    _place,
    coarse_edge_bound,
    contains_star_forest_oracle,
)

TOL = 1e-9


def check_scans_against_loop(n, forest, graph_class, cache, contains, edge_bound=None):
    """The three class scans against one per-graph loop written here: the
    class stream, ``contains``, and ``eigvalsh`` on matrices built from
    ``g.adj``.  Everything must be equal exactly, floats included.  With
    ``edge_bound`` set, it replaces the coarse edge bound in both."""
    members = list(enumerate_graphs(n, graph_class, cache))
    free = [g for g in members if not contains(g, forest)]
    codes = [graph6_encode(g) for g in free]
    rho = [np.linalg.eigvalsh(adjacency_matrix(g))[-1] for g in free]
    q = [np.linalg.eigvalsh(signless_laplacian_matrix(g))[-1] for g in free]

    if free:
        rec = extremal_search(n, forest, graph_class, cache)
        assert (rec.count_enumerated, rec.count_free) == (len(members), len(free))
        assert rec.max_rho == max(rho)
        assert rec.argmax == tuple(c for c, r in zip(codes, rho) if r >= max(rho) - TOL)
    else:
        with pytest.raises(EmptyClass):
            extremal_search(n, forest, graph_class, cache)

    try:
        bound = signless_radius_bound(n, forest.k, forest.degrees[-1])
    except NegativeDiscriminant:
        with pytest.raises(NegativeDiscriminant):
            conjecture_margin_table(n, forest, graph_class, cache)
    else:
        table = conjecture_margin_table(n, forest, graph_class, cache)
        assert [(r.graph6, r.q, r.margin) for r in table.rows] == [
            (c, x, x - bound) for c, x in zip(codes, q)]
        assert table.max_margin == max((x - bound for x in q), default=-math.inf)
        assert table.exceeders == tuple(c for c, x in zip(codes, q) if x - bound > TOL)

    if n < forest.order:
        with pytest.raises(ParamOutOfRange):
            verify_edge_bound(n, forest, graph_class, cache)
        return
    bound = coarse_edge_bound(forest, n) if edge_bound is None else edge_bound
    got = verify_edge_bound(n, forest, graph_class, cache)
    assert [(v.graph6, v.edges, v.bound) for v in got] == [
        (c, edge_count(g), bound) for c, g in zip(codes, free) if edge_count(g) > bound]


class TestScanOracle:
    """`extremal_search`, `conjecture_margin_table` and `verify_edge_bound`
    share one row scan; a plain loop over the class must agree with it."""

    def test_every_class_up_to_seven(self, cache):
        for degrees in ORACLE_FORESTS:
            for graph_class in GraphClass:
                for n in range(1, 8):
                    check_scans_against_loop(n, StarForest(degrees), graph_class, cache,
                                             contains_star_forest_oracle)

    def test_edge_counts_past_a_lowered_bound(self, cache, monkeypatch):
        # the coarse bound is proved, so the real scans report nothing; at
        # bound n = 7 the edge counts of the rows decide every violation
        monkeypatch.setattr(search, "coarse_edge_bound", lambda forest, n: n)
        for degrees in ((3, 2), (1, 1, 1)):
            for graph_class in GraphClass:
                check_scans_against_loop(7, StarForest(degrees), graph_class, cache,
                                         contains_star_forest_oracle, edge_bound=7)
                assert verify_edge_bound(7, StarForest(degrees), graph_class, cache)

    @pytest.mark.slow
    def test_all_eight_and_bipartite_ten(self, cache):
        # the placement alone, with no peel and no batched stage: a stack of
        # one would run the stages of the scans again
        for degrees in ORACLE_FORESTS:
            for graph_class, n in ((GraphClass.ALL, 8), (GraphClass.CONNECTED, 8),
                                   (GraphClass.BIPARTITE, 10),
                                   (GraphClass.CONNECTED_BIPARTITE, 10)):
                check_scans_against_loop(n, StarForest(degrees), graph_class, cache,
                                         lambda g, f: _place(g.adj, f.degrees))


class TestScansReadRows:
    def test_graphs_only_for_output_rows(self, cache, monkeypatch):
        # the scans read the class's rows; the only Graph objects they make
        # are those of the graph6 strings that they output: the maximisers,
        # the q rows and the edge-bound violations, here made many by a
        # bound lowered to n - 2, below the edges of a tree
        def refuse(*args):
            raise AssertionError("a scan streamed its class as Graph objects")

        monkeypatch.setattr(enumeration_module, "enumerate_graphs", refuse)
        monkeypatch.setattr(search, "enumerate_graphs", refuse, raising=False)
        monkeypatch.setattr(search, "coarse_edge_bound", lambda forest, n: n - 2)
        built = []
        init = Graph.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        for graph_class, n in ((GraphClass.ALL, 7), (GraphClass.CONNECTED_BIPARTITE, 9)):
            class_rows(n, graph_class, cache)  # built before the count starts
            for degrees in ((2, 2), (2, 1, 1)):
                f = StarForest(degrees)
                with monkeypatch.context() as patch:
                    patch.setattr(Graph, "__init__", counted)
                    rec = extremal_search(n, f, graph_class, cache)
                    table = conjecture_margin_table(n, f, graph_class, cache)
                    violations = verify_edge_bound(n, f, graph_class, cache)
                assert violations and rec.count_free < rec.count_enumerated
                assert len(built) == len(rec.argmax) + len(table.rows) + len(violations)
                built.clear()


class TestExtremalSearch:
    def test_connected_two_stars_order_seven(self, cache):
        f = StarForest((2, 2))
        rec = extremal_search(7, f, GraphClass.CONNECTED, cache)
        constructed = make_clique_join_matching(7, 2)
        assert avoids_star_forest(constructed, f)
        assert rec.max_rho >= spectral_radius(constructed) - TOL
        assert canonical_form(constructed).code in rec.argmax
        # this order happens to attain the closed form exactly
        assert rec.max_rho == pytest.approx(radius_bound_general(7, 2, 2), abs=TOL)
        assert rec.count_enumerated == 853

    def test_all_class_two_single_stars(self, cache):
        rec = extremal_search(6, StarForest((1, 1)), GraphClass.ALL, cache)
        assert rec.max_rho == pytest.approx(math.sqrt(5), abs=TOL)
        star6 = make_complete_bipartite(1, 5)
        assert canonical_form(star6).code in rec.argmax

    def test_bipartite_class_star_lower_bound(self, cache):
        rec = extremal_search(8, StarForest((2, 2)), GraphClass.CONNECTED_BIPARTITE, cache)
        assert rec.max_rho >= math.sqrt(7) - TOL
        assert rec.bound_value == pytest.approx(math.sqrt(7), abs=TOL)

    def test_argmax_all_attain_max(self, cache):
        rec = extremal_search(6, StarForest((2, 1)), GraphClass.ALL, cache)
        assert rec.argmax
        for g6 in rec.argmax:
            g = graph6_decode(g6)
            assert avoids_star_forest(g, rec.forest)
            assert spectral_radius(g) >= rec.max_rho - TOL

    def test_counts_consistent(self, cache):
        rec = extremal_search(5, StarForest((2, 2)), GraphClass.ALL, cache)
        assert rec.count_enumerated == 34
        assert rec.count_free == 34  # forest order 6 exceeds 5: everything is free

    def test_empty_class(self, cache):
        with pytest.raises(EmptyClass):
            extremal_search(2, StarForest((1,)), GraphClass.CONNECTED, cache)

    def test_applicability_rules(self):
        # bipartite all-2s forests clear the explicit 11k-4 threshold
        value, applicable = applicable_bound(18, StarForest((2, 2)), GraphClass.CONNECTED_BIPARTITE)
        assert applicable and value == pytest.approx(math.sqrt(17), abs=TOL)
        _, applicable = applicable_bound(17, StarForest((2, 2)), GraphClass.CONNECTED_BIPARTITE)
        assert not applicable
        _, applicable = applicable_bound(9, StarForest((2, 2)), GraphClass.ALL)
        assert not applicable
        value, _ = applicable_bound(9, StarForest((1,)), GraphClass.ALL)
        assert value is None


class TestEdgeBoundScan:
    def test_no_violations_small(self, cache):
        assert verify_edge_bound(6, StarForest((1, 1)), GraphClass.ALL, cache) == []
        assert verify_edge_bound(7, StarForest((2, 1)), GraphClass.CONNECTED, cache) == []

    def test_below_threshold_rejected(self, cache):
        with pytest.raises(ParamOutOfRange):
            verify_edge_bound(5, StarForest((2, 2)), GraphClass.ALL, cache)


class TestConjectureScan:
    def test_margin_table_rows(self, cache):
        f = StarForest((2, 2))
        table = conjecture_margin_table(7, f, GraphClass.CONNECTED, cache)
        # the join-matching construction appears with margin ~ 0 at this order
        target = canonical_form(make_clique_join_matching(7, 2)).code
        margins = {r.graph6: r.margin for r in table.rows}
        assert target in margins
        assert margins[target] == pytest.approx(0.0, abs=TOL)
        assert table.max_margin >= margins[target] - TOL

    def test_edgeless_row_negative(self, cache):
        table = conjecture_margin_table(6, StarForest((2, 2)), GraphClass.ALL, cache)
        edgeless = canonical_form(graph6_decode("E???")).code
        rows = {r.graph6: r for r in table.rows}
        assert rows[edgeless].q == pytest.approx(0.0, abs=TOL)
        assert rows[edgeless].margin < -1.0

    def test_json_dict(self, cache):
        table = conjecture_margin_table(6, StarForest((2, 2)), GraphClass.CONNECTED, cache)
        d = table.to_json_dict()
        assert (d["n"], d["class"], d["forest"]) == (6, "connected", "2,2")
        assert (d["bound_value"], d["max_margin"]) == (table.bound_value, table.max_margin)
        assert d["exceeders"] == list(table.exceeders)
        assert d["rows"] == [r.to_json_dict() for r in table.rows]

    def test_exceeders_recorded_not_asserted(self, cache):
        table = conjecture_margin_table(6, StarForest((2, 2)), GraphClass.ALL, cache)
        for g6 in table.exceeders:
            assert g6 in {r.graph6 for r in table.rows}

    def test_single_star_rejected(self, cache):
        with pytest.raises(ParamOutOfRange):
            conjecture_margin_table(5, StarForest((2,)), GraphClass.ALL, cache)


class TestPersistence:
    def test_round_trip(self, cache, tmp_path):
        recs = [
            extremal_search(6, StarForest((2, 2)), GraphClass.CONNECTED, cache),
            extremal_search(5, StarForest((1, 1)), GraphClass.ALL, cache),
        ]
        path = tmp_path / "records.jsonl"
        write_records(recs, path)
        assert read_records(path) == recs

    def test_output_is_deterministic(self, cache, tmp_path):
        rec = extremal_search(5, StarForest((2, 1)), GraphClass.ALL, cache)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_records([rec], p1)
        write_records([rec], p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_records(tmp_path / "nope.jsonl")

    def test_malformed_line_number(self, cache, tmp_path):
        rec = extremal_search(5, StarForest((2, 1)), GraphClass.ALL, cache)
        path = tmp_path / "bad.jsonl"
        bad_forests = [json.dumps({**rec.to_json_dict(), "forest": t}) for t in ("x", "2:1", "0")]
        bad_fields = [json.dumps({**rec.to_json_dict(), key: value})
                      for key, value in (("n", 5.7), ("argmax", "Dhc"), ("bound_applicable", "no"),
                                         ("count_free", True), ("max_rho", False), ("argmax", [1]))]
        for bad in [b"{not json}", b"\xff"] + [t.encode() for t in bad_forests + bad_fields]:
            write_records([rec], path)
            with open(path, "ab") as fh:
                fh.write(bad + b"\n")
            with pytest.raises(ParseError) as exc:
                read_records(path)
            assert exc.value.line == 2, bad


class TestBipartiteSuite:
    def test_order_past_ceiling_rejected_before_enumerating(self):
        with pytest.raises(OrderTooLarge):
            verify_bipartite_spectra(GraphClass.BIPARTITE.ceiling + 1, Unbuildable())
        # the class scans meet the same check, in enumeration.class_rows
        for graph_class in GraphClass:
            for scan in (extremal_search, conjecture_margin_table, verify_edge_bound):
                with pytest.raises(OrderTooLarge, match="capped at order"):
                    scan(graph_class.ceiling + 1, StarForest((2, 2)), graph_class, Unbuildable())

    def test_empty_suite_rejected(self):
        for max_n in (0, -3):
            with pytest.raises(ParamOutOfRange, match="enumeration needs n >= 1"):
                verify_bipartite_spectra(max_n, Unbuildable())
            # the radius search meets the same check; the q and edge bounds
            # reject these orders themselves
            for graph_class in GraphClass:
                with pytest.raises(ParamOutOfRange, match="enumeration needs n >= 1"):
                    extremal_search(max_n, StarForest((2, 2)), graph_class, Unbuildable())
                for scan in (conjecture_margin_table, verify_edge_bound):
                    with pytest.raises(ParamOutOfRange):
                        scan(max_n, StarForest((2, 2)), graph_class, Unbuildable())

    # the order-3 bipartite level is B? (empty), BG (one edge), BW (path)
    def test_asymmetric_spectrum_fails(self, monkeypatch, cache):
        doctor_spectra(monkeypatch, 3, 1, (1.0, 0.0, -0.5))
        result = verify_bipartite_spectra(4, cache)
        assert result.checked == 1 + 2 + 3 + 7
        assert result.failures == ("asymmetric spectrum at n=3 BG",)

    def test_triangle_free_radius_above_half_order_fails(self, monkeypatch, cache):
        doctor_spectra(monkeypatch, 3, 2, (1.6, 0.0, -1.6))
        result = verify_bipartite_spectra(4, cache)
        assert result.failures == ("triangle-free radius above n/2 at n=3 BW",)

    def test_failures_in_graph_order_asymmetry_first(self, monkeypatch, cache):
        doctor_spectra(monkeypatch, 3, 2, (1.6, 0.0, -1.0))
        result = verify_bipartite_spectra(3, cache)
        assert result.failures == ("asymmetric spectrum at n=3 BW",
                                   "triangle-free radius above n/2 at n=3 BW")


class TestJoinRegularSuite:
    def test_empty_suite_rejected(self):
        for max_n, max_k, max_d in ((20, 1, 3), (20, 4, 0), (1, 4, 3), (-1, -1, -1)):
            with pytest.raises(ParamOutOfRange):
                verify_join_regular_bound(max_n, max_k, max_d)

    def test_smallest_suite_checks_one_construction(self):
        # n = 2, k = 2, d = 1 is K_2, the clique K_1 joined to one vertex
        result = verify_join_regular_bound(2, 2, 1)
        assert (result.checked, result.failures) == (1, ())
