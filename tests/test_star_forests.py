import math
import random

import pytest

import starfree.star_forests as star_forests_module
from conftest import (
    count_calls,
    cycle_graph,
    edge_count,
    path_graph,
    star_forests_up_to,
    star_graph,
)
from starfree.enumeration import GraphClass, enumerate_graphs
from starfree.errors import ParamOutOfRange, ParseError
from starfree.graphs import (
    complete_graph,
    empty_graph,
    from_edges,
    join,
    union,
)
from starfree.star_forests import (
    MAX_STARS,
    StarForest,
    avoids_star_forest,
    coarse_edge_bound,
    contains_star_forest,
    contains_star_forest_oracle,
    parse_star_forest,
)


class TestStarForestType:
    def test_normalises_order(self):
        f = StarForest((1, 3, 2))
        assert f.degrees == (3, 2, 1)
        assert f.k == 3 and f.leaf_total == 6 and f.order == 9

    def test_rejects_empty_and_zero(self):
        with pytest.raises(ParamOutOfRange):
            StarForest(())
        with pytest.raises(ParamOutOfRange):
            StarForest((2, 0))

    def test_parse_forms(self):
        assert parse_star_forest("2,1,2").degrees == (2, 2, 1)
        assert parse_star_forest("3:2,2,1").degrees == (2, 2, 1)
        assert parse_star_forest("4").degrees == (4,)
        assert parse_star_forest(" 2 , 1 ").degrees == (2, 1)
        assert parse_star_forest("2: 2,\t1").degrees == (2, 1)

    def test_parse_errors(self):
        for bad in ("", "a,b", "2:1", "x:1,1", "2,,1", ",2", "2,", "1:2,", " , ", "2:"):
            with pytest.raises(ParseError):
                parse_star_forest(bad)

    def test_text_round_trip(self):
        f = StarForest((3, 1, 1))
        assert parse_star_forest(f.text()) == f
        assert parse_star_forest(f"{f.k}:{f.text()}") == f

    def test_order_computed_once(self, cache, monkeypatch):
        # containment reads the forest's order once per graph; a scan of the
        # 1 044 graphs of all 7 must not recompute it per graph
        reads = []
        total = StarForest.leaf_total.fget

        def counted(forest):
            reads.append(forest)
            return total(forest)

        monkeypatch.setattr(StarForest, "leaf_total", property(counted))
        forest = StarForest((2, 2))
        assert sum(avoids_star_forest(g, forest) for g in enumerate_graphs(7, GraphClass.ALL, cache)) > 0
        assert len(reads) <= 1


class TestContainment:
    def test_paths(self):
        f = StarForest((2, 1))
        assert not contains_star_forest(path_graph(4).adj, f)
        assert contains_star_forest(path_graph(5).adj, f)

    def test_cycle_two_stars(self):
        assert contains_star_forest(cycle_graph(6).adj, StarForest((2, 2)))

    def test_too_few_vertices(self):
        f = StarForest((2, 2))
        for g in (complete_graph(5), cycle_graph(5), empty_graph(5)):
            assert not contains_star_forest(g.adj, f)

    def test_star_cannot_split(self):
        assert not contains_star_forest(star_graph(5).adj, StarForest((2, 2)))

    def test_forest_contains_itself(self):
        f = StarForest((2, 2))
        g = union(star_graph(2), star_graph(2))
        assert contains_star_forest(g.adj, f)
        assert not avoids_star_forest(g, f)

    def test_edgeless_is_free(self):
        assert avoids_star_forest(empty_graph(10), StarForest((1,)))

    def test_complete_bipartite_free(self):
        # k-1 high-degree vertices cannot host k disjoint stars
        g = join(empty_graph(2), empty_graph(10))
        assert avoids_star_forest(g, StarForest((2, 2, 1)))

    def test_single_star_is_degree_question(self):
        g = star_graph(4)
        assert contains_star_forest(g.adj, StarForest((4,)))
        assert not contains_star_forest(g.adj, StarForest((5,)))

    def test_star_limit_binds_only_the_search(self):
        nine = StarForest((1,) * (MAX_STARS + 1))
        assert avoids_star_forest(empty_graph(5), nine)  # order test
        assert contains_star_forest(complete_graph(20).adj, nine)  # the peel places every star
        with pytest.raises(ParamOutOfRange):
            contains_star_forest(empty_graph(20).adj, nine)

    def test_matches_oracle_exhaustively_small(self):
        forests = [StarForest(t) for t in star_forests_up_to(5, 3)]
        pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for bits in range(1 << len(pairs)):
            g = from_edges(5, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            for f in forests:
                assert contains_star_forest(g.adj, f) == contains_star_forest_oracle(g, f)

    def test_matches_oracle_random(self):
        # any three of the four degree-3 vertices of K_{4,3} see three
        # leaves, all four see only three: every subset of centers counts
        g = union(join(empty_graph(4), empty_graph(3)), empty_graph(1))
        f = StarForest((1, 1, 1, 1))
        assert not contains_star_forest(g.adj, f) and not contains_star_forest_oracle(g, f)
        # 0-2 planted vertices adjacent to all others, under a random
        # relabelling, so that the high-degree peel fires on many inputs
        rng = random.Random(17)
        forests = [StarForest(t) for t in star_forests_up_to(10, 4)]
        compared = peelable = 0
        while compared < 12000:
            n = rng.randint(6, 10)
            p = rng.uniform(0.3, 0.85)
            hubs = rng.randint(0, 2)
            perm = list(range(n))
            rng.shuffle(perm)
            es = [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n)
                  if i < hubs or rng.random() < p]
            g = from_edges(n, es)
            top = max(row.bit_count() for row in g.adj)
            for f in forests:
                if f.order <= n:
                    compared += 1
                    peelable += top >= f.order - 1
                    assert contains_star_forest(g.adj, f) == contains_star_forest_oracle(g, f), (g, f)
        assert peelable > compared // 4

    def test_matches_oracle_past_four_stars(self):
        # a spanning copy: the 2-star must sit on the path's middle vertex,
        # which the falling-degree order places after every clique vertex
        # that carries a 1-star, so a smaller star may take an earlier center
        g = union(union(path_graph(3), complete_graph(4)), complete_graph(4))
        f = StarForest((2, 1, 1, 1, 1))
        assert contains_star_forest(g.adj, f) and contains_star_forest_oracle(g, f)
        # runs of three and more equal stars, where only increasing positions
        # within the run keep one placement per set of centers
        forests = [StarForest(t) for t in [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (2, 2, 2, 1, 1),
                                           (3, 1, 1, 1, 1), (2, 2, 2, 2, 2), (3, 1, 1, 1, 1, 1)]]
        rng = random.Random(41)
        outcomes = {f: set() for f in forests}
        for case in range(150):
            f = forests[case % len(forests)]
            # order 10-13, raised to the forest's order where that is larger
            n = rng.randint(max(10, f.order), max(13, f.order))
            p = rng.uniform(0.1, 0.4)
            g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])
            found = contains_star_forest(g.adj, f)
            assert found == contains_star_forest_oracle(g, f), (g, f)
            outcomes[f].add(found)
        assert all(seen == {False, True} for seen in outcomes.values()), outcomes

    def test_stripped_center_never_reaches_hall(self, monkeypatch):
        # the path 2-0-1-3 plus vertex 4, against 2,1.  Vertices 0 and 1
        # (degree 2) come first in the placement order.  The 2-star on 0
        # and the 1-star on 1 leave 0 one leaf outside the centers, and so
        # do the 2-star on 1 and the 1-star on 0: each later center strips
        # the first, so Hall's table runs only for centers (0, 3) and (1, 2)
        calls = count_calls(monkeypatch, "_leaves_fit", star_forests_module)
        g = from_edges(5, [(0, 1), (0, 2), (1, 3)])
        f = StarForest((2, 1))
        assert not contains_star_forest(g.adj, f) and not contains_star_forest_oracle(g, f)
        assert [rows for rows, _ in calls] == [[0b0110, 0b0010], [0b1001, 0b0001]]

    def test_star_limit_reaches_the_search(self):
        # no vertex has the 2m - 1 neighbours that the peel needs, so all m
        # stars reach the search; the matching number decides
        m = MAX_STARS
        forest = StarForest((1,) * m)
        matching = from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m)])
        assert contains_star_forest(matching.adj, forest)
        assert contains_star_forest(cycle_graph(2 * m).adj, forest)
        assert avoids_star_forest(from_edges(2 * m, [(2 * i, 2 * i + 1) for i in range(m - 1)]), forest)
        assert avoids_star_forest(join(empty_graph(m - 1), empty_graph(m + 1)), forest)

    def test_edge_monotone(self):
        rng = random.Random(23)
        f = StarForest((2, 1))
        for _ in range(100):
            n = rng.randint(5, 8)
            es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
            g = from_edges(n, es)
            non_edges = [(i, j) for i in range(n) for j in range(i + 1, n) if not g.adj[i] >> j & 1]
            if not non_edges:
                continue
            bigger = from_edges(n, es + [rng.choice(non_edges)])
            if contains_star_forest(g.adj, f):
                assert contains_star_forest(bigger.adj, f)

    def test_join_regular_family_is_free(self):
        from starfree.families import make_clique_join_regular

        for n, k, d in [(12, 2, 2), (13, 3, 3), (14, 4, 1), (16, 3, 2)]:
            try:
                g = make_clique_join_regular(n, k, d)
            except Exception:
                continue
            forest = StarForest((d,) * k)
            assert avoids_star_forest(g, forest), (n, k, d)


class TestEdgeBounds:
    def test_coarse_values(self):
        assert coarse_edge_bound(StarForest((2, 2)), 10) == 45
        assert coarse_edge_bound(StarForest((1, 1)), 6) == 15 == math.comb(6, 2)
        assert coarse_edge_bound(StarForest((3, 2, 1)), 12) == 92

    def test_coarse_hypotheses(self):
        with pytest.raises(ParamOutOfRange):
            coarse_edge_bound(StarForest((3,)), 10)
        with pytest.raises(ParamOutOfRange):
            coarse_edge_bound(StarForest((2, 2)), 5)

    def test_coarse_bound_holds_on_free_graphs(self):
        rng = random.Random(29)
        for f in (StarForest((1, 1)), StarForest((2, 1)), StarForest((2, 2))):
            for _ in range(150):
                n = rng.randint(f.order, 9)
                es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
                g = from_edges(n, es)
                if avoids_star_forest(g, f):
                    assert edge_count(g) <= coarse_edge_bound(f, n)
