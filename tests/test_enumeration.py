import pytest

from conftest import all_labeled_graphs
from starfree.enumeration import (
    EnumerationCache,
    GraphClass,
    enumerate_graphs,
    parse_graph_class,
)
from starfree.errors import OrderTooLarge, ParamOutOfRange
from starfree.graphs import (
    canonical_code,
    canonical_form,
    is_bipartite,
    is_connected,
)


def census_counts(n: int) -> dict:
    """Labeled-enumeration-plus-dedup oracle, per class."""
    reps = {}
    for g in all_labeled_graphs(n):
        reps.setdefault(canonical_code(g).code, g)
    out = {c: 0 for c in GraphClass}
    for g in reps.values():
        bip = is_bipartite(g) is not None
        conn = is_connected(g)
        out[GraphClass.ALL] += 1
        if conn:
            out[GraphClass.CONNECTED] += 1
        if bip:
            out[GraphClass.BIPARTITE] += 1
        if bip and conn:
            out[GraphClass.CONNECTED_BIPARTITE] += 1
    return out


class TestCounts:
    def test_matches_labeled_dedup_oracle(self, cache):
        # n <= 5 here; the n = 6 oracle agreement is an acceptance criterion
        for n in range(1, 6):
            want = census_counts(n)
            for cls in GraphClass:
                assert sum(1 for _ in enumerate_graphs(n, cls, cache)) == want[cls], (n, cls)

    def test_known_values(self, cache):
        for n, cls, want in ((4, "all", 11), (5, "connected", 21), (6, "all", 156)):
            assert sum(1 for _ in enumerate_graphs(n, GraphClass(cls), cache)) == want

    def test_stream_codes_unique_and_canonical(self, cache):
        for cls in GraphClass:
            seen = set()
            for g in enumerate_graphs(6, cls, cache):
                code = canonical_code(g).code
                assert code not in seen
                seen.add(code)
                assert canonical_form(g).graph == g

    def test_stream_sorted_by_code(self, cache):
        codes = [canonical_code(g).code for g in enumerate_graphs(5, GraphClass.ALL, cache)]
        assert codes == sorted(codes)

    def test_class_predicates_respected(self, cache):
        for g in enumerate_graphs(6, GraphClass.CONNECTED_BIPARTITE, cache):
            assert is_connected(g) and is_bipartite(g) is not None
        for g in enumerate_graphs(6, GraphClass.BIPARTITE, cache):
            assert is_bipartite(g) is not None


class TestLimits:
    def test_n_zero_rejected(self):
        with pytest.raises(ParamOutOfRange):
            list(enumerate_graphs(0, GraphClass.ALL))

    def test_ceilings(self):
        with pytest.raises(OrderTooLarge):
            list(enumerate_graphs(11, GraphClass.ALL))
        with pytest.raises(OrderTooLarge):
            list(enumerate_graphs(13, GraphClass.BIPARTITE))

    def test_parse_graph_class(self):
        assert parse_graph_class("connected_bipartite") is GraphClass.CONNECTED_BIPARTITE
        with pytest.raises(ParamOutOfRange):
            parse_graph_class("planar")

    def test_fresh_cache_consistency(self, cache):
        fresh = list(enumerate_graphs(5, GraphClass.ALL, EnumerationCache()))
        cached = list(enumerate_graphs(5, GraphClass.ALL, cache))
        assert fresh == cached


class TestGraph6OverClasses:
    def test_round_trip_all_enumerated_up_to_seven(self, cache):
        from starfree.graphs import graph6_decode, graph6_encode

        for n in range(1, 8):
            for g in enumerate_graphs(n, GraphClass.ALL, cache):
                assert graph6_decode(graph6_encode(g)) == g
