import hashlib
import tracemalloc

import numpy as np
import pytest

import starfree.enumeration as enumeration_module
import starfree.graphs as graphs_module
from conftest import (
    Unbuildable,
    canonical_rows,
    class_action,
    count_calls,
    group_closure,
    is_bipartite,
    is_connected,
    labeled_rows,
    level_codes,
    reference_colors,
    reference_min_code_search,
    twin_classes,
    twin_swaps,
)
from starfree.enumeration import (
    ALL_CEILING,
    BIPARTITE_CEILING,
    EnumerationCache,
    GraphClass,
    _children,
    _extend,
    enumerate_graphs,
    parse_graph_class,
)
from starfree.errors import OrderTooLarge, ParamOutOfRange
from starfree.graphs import (
    Graph,
    _canonical_forms,
    _min_code_leaves,
    _refine,
    adjacency_bits,
    canonical_form,
    relabel,
)


def census_counts(n: int) -> dict:
    """Labeled-enumeration-plus-dedup oracle, per class: every labeled graph
    of order n is labelled, and each distinct canonical graph counted once."""
    out = {c: 0 for c in GraphClass}
    for row in np.unique(canonical_rows(labeled_rows(n)), axis=0).tolist():
        g = Graph(n, tuple(row))
        bip = is_bipartite(g)
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
    GraphClass.BIPARTITE: (1, 2, 3, 7, 13, 35, 88, 303, 1119, 5479, 32303, 251135),
    GraphClass.CONNECTED_BIPARTITE: (1, 1, 1, 3, 5, 17, 44, 182, 730, 4032, 25598, 212780),
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

#: The same digest for the levels that only the slow tier builds; the OEIS
#: counts alone do not pin their codes.
BIG_LEVEL_DIGESTS = {
    ("all", 9): "84c0f2b683ec39628c405a8c2a125d40dceb0097d2e6c3c61d3cfc041e94d11b",
    ("bipartite", 11): "72272f1b60629ab94152be42f9e8d740d99e94270577de74640fc70365d913d2",
    ("bipartite", 12): "d7ce943f7a691d5766355c1455289464abf6bac64d8ebcdb2c5ec65bc7c09060",
}


def digest(level) -> str:
    return hashlib.sha256("\n".join(level_codes(level)).encode()).hexdigest()


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
                       (GraphClass.BIPARTITE, 11), (GraphClass.CONNECTED_BIPARTITE, 11),
                       (GraphClass.BIPARTITE, 12), (GraphClass.CONNECTED_BIPARTITE, 12)):
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
        # each level holds canonical graphs, and is strictly increasing in
        # their graph6 codes
        for base, top in (("all", 8), ("bipartite", 10)):
            for n in range(1, top + 1):
                level = cache.level(base, n)
                assert level.dtype == np.uint16 and level.shape == (len(level), n), (base, n)
                assert np.array_equal(canonical_rows(level.astype(np.int64)), level), (base, n)
                codes = level_codes(level)
                assert all(a < b for a, b in zip(codes, codes[1:])), (base, n)

    def test_levels_pinned(self, cache):
        for base, digests in LEVEL_DIGESTS.items():
            for n, want in enumerate(digests, start=1):
                assert digest(cache.level(base, n)) == want, (base, n)

    @pytest.mark.slow
    def test_big_levels_pinned(self, cache):
        for (base, n), want in BIG_LEVEL_DIGESTS.items():
            assert digest(cache.level(base, n)) == want, (base, n)

    def test_class_predicates_respected(self, cache):
        for g in enumerate_graphs(6, GraphClass.CONNECTED_BIPARTITE, cache):
            assert is_connected(g) and is_bipartite(g)
        for g in enumerate_graphs(6, GraphClass.BIPARTITE, cache):
            assert is_bipartite(g)


#: The parent levels whose children the fast-path oracles below cover: the
#: children are every pre-tested, twin-minimal child of all <= 7 and
#: bipartite <= 9.
ORACLE_PARENTS = (("all", 6), ("bipartite", 8))


def level_graphs(level: np.ndarray) -> list[Graph]:
    return [Graph(level.shape[1], tuple(row)) for row in level.tolist()]


def child_row(g: Graph, mask: int) -> list[int]:
    return [row | (mask >> v & 1) << g.n for v, row in enumerate(g.adj)] + [mask]


def pretested_masks(g: Graph, bipartite_only: bool) -> list[int]:
    """The masks whose new vertex has the largest degree in the child, and
    that keep a bipartite parent bipartite: whole orbits of g's group."""
    pool = []
    for mask in range(1 << g.n):
        child = child_row(g, mask)
        if mask.bit_count() < max(row.bit_count() for row in child):
            continue
        if bipartite_only and not is_bipartite(Graph(g.n + 1, tuple(child))):
            continue
        pool.append(mask)
    return pool


def holds_lowest_twins(mask: int, classes: list[list[int]]) -> bool:
    """Whether the mask holds, in each twin class, its lowest vertices: its
    bits over the class, lowest vertex first, never rise."""
    for cls in classes:
        held = [mask >> v & 1 for v in cls]
        if held != sorted(held, reverse=True):
            return False
    return True


def pretested_children(cache):
    """(n, rows) per block of children that pass the pre-tests and the twin
    cut."""
    for base, top in ORACLE_PARENTS:
        for m in range(1, top + 1):
            for rows in _children(cache.level(base, m), base == "bipartite"):
                yield m + 1, rows


class TestFastPaths:
    def test_refinement_matches_reference_on_every_child(self, cache):
        children = 0
        for n, rows in pretested_children(cache):
            got = _refine(adjacency_bits(rows)).tolist()
            assert got == [reference_colors(n, row) for row in rows.tolist()], n
            children += len(rows)
        assert children > 1000

    def test_children_keep_the_twin_minimal_masks(self, cache, monkeypatch):
        # on blocks of 1, 7 and all parents, each parent's children are its
        # pre-tested masks that hold the lowest vertices of each twin class,
        # in parent then mask order
        parents = 0
        for base, top in ORACLE_PARENTS:
            for m in range(1, top + 1):
                level = cache.level(base, m)
                want = []
                for g in level_graphs(level):
                    pool = pretested_masks(g, base == "bipartite")
                    classes = twin_classes(g)
                    kept = [mask for mask in pool if holds_lowest_twins(mask, classes)]
                    want += [child_row(g, mask) for mask in kept]
                    parents += len(kept) < len(pool)
                for block in (1, 7, len(level)):
                    monkeypatch.setattr(enumeration_module, "_BLOCK", block)
                    got = np.concatenate(list(_children(level, base == "bipartite")))
                    assert got.tolist() == want, (base, m, block)
        assert parents > 100

    def test_bipartite_masks_keep_the_child_bipartite(self, cache, monkeypatch):
        # on blocks of 1, 7 and all parents, the bipartite tree's children
        # are the all tree's children that are bipartite, in the same order
        cut = 0
        for m in range(1, 8):
            level = cache.level("bipartite", m)
            for block in (1, 7, len(level)):
                monkeypatch.setattr(enumeration_module, "_BLOCK", block)
                degree, both = (np.concatenate(list(_children(level, bipartite_only)))
                                for bipartite_only in (False, True))
                want = [is_bipartite(Graph(m + 1, tuple(row))) for row in degree.tolist()]
                assert np.array_equal(both, degree[want]), (m, block)
            cut += len(degree) - len(both)
        assert cut > 100

    def test_every_child_matches_the_search(self, cache):
        # every child that passes both pre-tests must get from the labelling
        # pass the form that the depth-first search gives.  The leaves of its
        # canonical form must be automorphisms, one per coset of the twin
        # group, that with the twin group make the group the search finds:
        # both groups hold the twin group, the kernel of the action on the
        # twin classes, so they are equal iff they act alike on the classes
        several = one = 0
        for n, rows in pretested_children(cache):
            a = adjacency_bits(rows)
            colors = _refine(a)
            top = colors[:, -1] == colors.max(axis=1)
            rows, a, colors = rows[top], a[top], colors[top]
            canon_rows, orders = _canonical_forms(rows, a, colors)
            labellings = np.argsort(orders, axis=1)
            canon_a = adjacency_bits(canon_rows)
            leaves, owner, _ = _min_code_leaves(canon_rows, canon_a, _refine(canon_a))
            per_graph = np.split(leaves, np.flatnonzero(np.diff(owner)) + 1)
            for row, cells, canon_row, got_labelling, got in zip(
                rows.tolist(), colors.tolist(), canon_rows.tolist(), labellings.tolist(), per_graph,
            ):
                several += len(got) > 1
                one += len(got) == 1
                g = Graph(n, tuple(row))
                order, want_gens = reference_min_code_search(n, g.adj, cells, twin_swaps(g))
                labelling = tuple(order.index(v) for v in range(n))
                canon = relabel(g, labelling)
                want = [tuple(labelling[sigma[order[i]]] for i in range(n)) for sigma in want_gens]
                assert (tuple(canon_row), tuple(got_labelling)) == (canon.adj, labelling)
                got = list(map(tuple, got.tolist()))
                assert all(relabel(canon, sigma) == canon for sigma in got)
                classes = twin_classes(canon)
                actions = {class_action(sigma, classes) for sigma in got}
                assert len(actions) == len(got)
                want_actions = [class_action(sigma, classes) for sigma in want]
                assert actions == group_closure(len(classes), want_actions)
        assert several > 100 and one > 100

    def test_block_size_does_not_change_a_level(self, cache, monkeypatch):
        largest = max(len(cache.level(base, top)) for base, top in ORACLE_PARENTS)
        for block in (1, 7, largest + 1):
            monkeypatch.setattr(enumeration_module, "_BLOCK", block)
            for base, top in ORACLE_PARENTS:
                got = _extend(cache.level(base, top), base == "bipartite")
                want = cache.level(base, top + 1)
                assert got.dtype == want.dtype and np.array_equal(got, want), (block, base)

    def test_one_pass_per_parent_block(self, cache, monkeypatch):
        # a block of parents is the one batching unit: building all 8
        # refines and labels the children of each block of all 7 once, and
        # walks no labelling tree of order 7, so no parent's group is read
        modules = {"_min_code_leaves": (graphs_module,), "_refine": (graphs_module, enumeration_module),
                   "_canonical_forms": (graphs_module, enumeration_module)}
        parents = cache.level("all", 7)
        calls = {name: count_calls(monkeypatch, name, *where) for name, where in modules.items()}
        _extend(parents, False)
        blocks = -(-OEIS[GraphClass.ALL][6] // enumeration_module._BLOCK)
        orders = {name: [args[-1].shape[1] for args in made] for name, made in calls.items()}
        assert orders == {name: [8] * blocks for name in modules}

    def test_no_graph_per_bipartite_parent(self, cache, monkeypatch):
        # the bipartite pre-test is one walk pass per block of parents and
        # builds no Graph: bipartite 9 from the 303 graphs of bipartite 8
        def refuse(*args):
            raise AssertionError("Graph built during a level build")

        parents = cache.level("bipartite", 8)
        calls = count_calls(monkeypatch, "_walks", enumeration_module)
        monkeypatch.setattr(enumeration_module, "Graph", refuse)
        level = _extend(parents, True)
        assert len(level) == OEIS[GraphClass.BIPARTITE][8]
        assert len(calls) == -(-OEIS[GraphClass.BIPARTITE][7] // enumeration_module._BLOCK)

    def test_level_is_held_in_arrays(self, cache):
        # a level keeps its uint16 masks only (16 bytes a class at order 8),
        # at most 32 bytes a class (tracemalloc counts numpy buffers)
        parents = cache.level("all", 7)
        tracemalloc.start()
        try:
            level = _extend(parents, False)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(level) == OEIS[GraphClass.ALL][7]
        assert retained <= 32 * len(level), retained / len(level)

    def test_iteration_converts_the_level_in_blocks(self, cache):
        # the stream turns a few thousand rows into Python ints at a time:
        # converting all 12 346 rows of `all` 8 at once peaked at about
        # 1.5 MB, and blocks of 4096 at about 0.5 MB
        cache.level("all", 8)
        tracemalloc.start()
        try:
            count = sum(1 for _ in enumerate_graphs(8, GraphClass.ALL, cache))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == OEIS[GraphClass.ALL][7]
        assert peak < 1 << 20, peak

    def test_duplicate_children_are_dropped(self, cache, monkeypatch):
        # the sort is the one uniqueness rule: building all 8 labels 15 144
        # top-cell children for its 12 346 classes, every labelled row is a
        # row of the level, and the level keeps one row of each
        parents = cache.level("all", 7)
        sorted_rows = count_calls(monkeypatch, "_graph6_order", enumeration_module)
        level = _extend(parents, False)
        assert [len(args[0]) for args in sorted_rows] == [15144]
        assert len(level) == OEIS[GraphClass.ALL][7]
        assert np.array_equal(np.unique(sorted_rows[0][0], axis=0), np.unique(level, axis=0))

    def test_children_memory(self, cache):
        # the pre-tests and the twin cut work on one (parents, masks) table
        # per block, one vertex column at a time: 0.92 MB (all 8) and
        # 1.17 MB (bipartite 10) under tracemalloc, where (parents, masks,
        # m) temporaries would take several times more
        for base, top in (("all", 8), ("bipartite", 10)):
            parents = cache.level(base, top)
            tracemalloc.start()
            try:
                for _ in _children(parents, base == "bipartite"):
                    pass
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5e6, (base, peak)

    def test_level_build_encodes_no_graph6(self, cache, monkeypatch):
        # graph6 is written only for codes that are output, so neither a
        # build nor the stream of its graphs encodes one
        def refuse(g):
            raise AssertionError("graph6_encode called during a level build")

        monkeypatch.setattr(graphs_module, "graph6_encode", refuse)
        monkeypatch.setattr(enumeration_module, "graph6_encode", refuse, raising=False)
        for base, top in ORACLE_PARENTS:
            want = len(cache.level(base, top + 1))
            assert len(_extend(cache.level(base, top), base == "bipartite")) == want
            assert sum(1 for _ in enumerate_graphs(top + 1, GraphClass(base), cache)) == want


class TestLimits:
    def test_n_zero_rejected(self):
        for cls in GraphClass:
            with pytest.raises(ParamOutOfRange):
                list(enumerate_graphs(0, cls, Unbuildable()))

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
