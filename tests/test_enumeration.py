import pytest

from conftest import Unbuildable, all_labeled_graphs
from starfree.enumeration import (
    ALL_CEILING,
    BIPARTITE_CEILING,
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


#: OEIS class counts by order, starting at n = 1: A000088, A001349,
#: A033995 and A005142.
OEIS = {
    GraphClass.ALL: (1, 2, 4, 11, 34, 156, 1044, 12346, 274668),
    GraphClass.CONNECTED: (1, 1, 2, 6, 21, 112, 853, 11117, 261080),
    GraphClass.BIPARTITE: (1, 2, 3, 7, 13, 35, 88, 303, 1119, 5479, 32303),
    GraphClass.CONNECTED_BIPARTITE: (1, 1, 1, 3, 5, 17, 44, 182, 730, 4032, 25598),
}


def count(n: int, cls: GraphClass, cache: EnumerationCache) -> int:
    return sum(1 for _ in enumerate_graphs(n, cls, cache))


class TestCounts:
    def test_matches_labeled_dedup_oracle(self, cache):
        # n <= 5 here; the n = 6 oracle agreement is an acceptance criterion
        for n in range(1, 6):
            want = census_counts(n)
            for cls in GraphClass:
                assert count(n, cls, cache) == want[cls], (n, cls)

    def test_known_values(self, cache):
        # the orders past these run in the slow tier
        for cls in GraphClass:
            top = 10 if cls.bipartite_only else 8
            assert [count(n, cls, cache) for n in range(1, top + 1)] == list(OEIS[cls][:top])

    @pytest.mark.slow
    def test_oeis_counts_past_tier_one(self, cache):
        for cls, n in ((GraphClass.ALL, 9), (GraphClass.CONNECTED, 9),
                       (GraphClass.BIPARTITE, 11), (GraphClass.CONNECTED_BIPARTITE, 11)):
            assert count(n, cls, cache) == OEIS[cls][n - 1], (cls, n)

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
        assert (ALL_CEILING, BIPARTITE_CEILING) == (9, 12)
        for cls in GraphClass:
            with pytest.raises(OrderTooLarge):
                list(enumerate_graphs(cls.ceiling + 1, cls, Unbuildable()))

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
