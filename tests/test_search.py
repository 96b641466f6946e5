import json
import math

import pytest

from conftest import Unbuildable, doctor_spectra
from starfree.enumeration import GraphClass
from starfree.errors import EmptyClass, OrderTooLarge, ParamOutOfRange, ParseError
from starfree.families import (
    make_clique_join_matching,
    make_complete_bipartite,
    radius_bound_general,
)
from starfree.graphs import canonical_form, graph6_decode
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
from starfree.star_forests import StarForest, avoids_star_forest

TOL = 1e-9


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

    def test_empty_suite_rejected(self):
        for max_n in (0, -3):
            with pytest.raises(ParamOutOfRange):
                verify_bipartite_spectra(max_n, Unbuildable())

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
