import hashlib

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
    canonical_form,
    graph6_encode,
    is_bipartite,
    is_connected,
)


def census_counts(n: int) -> dict:
    """Labeled-enumeration-plus-dedup oracle, per class."""
    reps = {}
    for g in all_labeled_graphs(n):
        reps.setdefault(canonical_form(g).code, g)
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


#: SHA-256 of the newline-joined canonical codes of each level, orders 1 up:
#: a level that gains, loses or reorders a graph, or a canonical labelling
#: that picks another representative, changes its digest.
LEVEL_DIGESTS = {
    "all": (
        "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
        "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
        "f78b1e961185bb637907c0c3de52876ceb3eb2fee4073e88b23fc8308cee8ad4",
        "dab260d3a982994a03c9f8dd70c9abd8e47ba43abb270c1a9b8f982fb67c451e",
        "ba6b2702ab1d647a7964e0bb2815cb74b90f811b2cbc759e36bc8ad37c4c4bfb",
        "a3c0be81f949312e42271323fbf63d26ea9c17eb62bc28b00a1df42c41213ab8",
        "cf43d74eea2e83dd129ee163ab4ba9c0f95efd52978be61a3b45e8d9557307a0",
        "3e503c8c6bec0555cca2382d86a1bb2ede4f18a9e854b4caed44bad3415cacb5",
    ),
    "bipartite": (
        "c3641f8544d7c02f3580b07c0f9887f0c6a27ff5ab1d4a3e29caf197cfc299ae",
        "66f7cc5c004391e37949da741ea5ce5831ff34dd3c3a4e2bea3ccd225d7b2fb1",
        "7fb81607637af87328b1671c81e46a1f74394761b20f3851a429b9ef7fd6212d",
        "d0096592fd68c1dd04eb573a48cb0010b105ea4bb5e42ef9a13a7156f7fcbffe",
        "cc2592d53a0f215983ea841e6d42056b0cdc489ec7d32663acf7663d5670f100",
        "342cb1e9854b7e12ffd3e4568398a6c40258a31e4bf4b2f95a2053d8a8d833f7",
        "031dca5cb24eaee507b3cb24c99005f3eac4d5fbaf62459002585f405d109cc4",
        "02d3d98f9fb44484a8d4a4bd800671d8f436ed9a5b385ed3ccf89050c4bdec1b",
        "103d4529824e1f0bc494a8ac1a11f1dce45a53bf8a4b72839a31ab5dea29c58f",
        "993cc23a801a8902b50ab0817465b0f60b3f34528ba39885a975d14a6bbbb468",
    ),
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
                code = canonical_form(g).code
                assert code not in seen
                seen.add(code)
                assert canonical_form(g).graph == g

    def test_stream_sorted_by_code(self, cache):
        codes = [canonical_form(g).code for g in enumerate_graphs(5, GraphClass.ALL, cache)]
        assert codes == sorted(codes)
        # each level's code is the graph6 of its canonical graph, and the
        # level is strictly increasing in it
        for base, top in (("all", 8), ("bipartite", 10)):
            for n in range(1, top + 1):
                level = cache.level(base, n)
                codes = [entry.code for entry in level]
                assert codes == [graph6_encode(entry.graph) for entry in level]
                assert all(a < b for a, b in zip(codes, codes[1:])), (base, n)

    def test_levels_pinned(self, cache):
        for base, digests in LEVEL_DIGESTS.items():
            for n, want in enumerate(digests, start=1):
                codes = "\n".join(entry.code for entry in cache.level(base, n))
                assert hashlib.sha256(codes.encode()).hexdigest() == want, (base, n)

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
