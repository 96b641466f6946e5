import itertools
import random

import pytest

from conftest import all_labeled_graphs, brute_min_cols, cycle_graph, path_graph, star_graph
from starfree.enumeration import GraphClass, enumerate_graphs
from starfree.errors import BadEdge, OrderTooLarge, ParseError
from starfree.graphs import (
    _equitable_colors,
    canonical_form,
    check_invariants,
    complete_graph,
    degrees,
    edge_count,
    edges,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    is_bipartite,
    is_connected,
    is_triangle_free,
    join,
    max_degree,
    relabel,
    union,
)


class TestConstruction:
    def test_path(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        assert degrees(g) == (1, 2, 1)

    def test_edgeless(self):
        assert edge_count(from_edges(2, [])) == 0

    def test_duplicate_edges_collapse(self):
        assert edge_count(from_edges(4, [(0, 1), (0, 1), (1, 0)])) == 1

    def test_loop_rejected(self):
        with pytest.raises(BadEdge):
            from_edges(4, [(2, 2)])

    def test_endpoint_out_of_range(self):
        with pytest.raises(BadEdge):
            from_edges(3, [(0, 3)])

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            from_edges(65, [])

    def test_join_split_graph(self):
        g = join(complete_graph(2), empty_graph(3))
        assert g.n == 5 and edge_count(g) == 7

    def test_join_singletons(self):
        k2 = canonical_form(complete_graph(2)).code
        assert canonical_form(join(empty_graph(1), empty_graph(1))).code == k2

    def test_join_with_complete(self):
        k4 = canonical_form(complete_graph(4)).code
        assert canonical_form(join(complete_graph(1), complete_graph(3))).code == k4

    def test_union(self):
        g = union(path_graph(3), empty_graph(1))
        assert g.n == 4 and edge_count(g) == 2

    def test_join_order_cap(self):
        with pytest.raises(OrderTooLarge):
            join(empty_graph(33), empty_graph(32))

    def test_c5_self_complementary(self):
        pentagram = from_edges(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)])
        assert canonical_form(pentagram).code == canonical_form(cycle_graph(5)).code

    def test_constructions_keep_invariants(self):
        rng = random.Random(42)
        for _ in range(100):
            n = rng.randint(0, 8)
            es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            g = from_edges(n, es)
            check_invariants(g)
            h_n = rng.randint(0, 5)
            h = from_edges(h_n, [(i, j) for i in range(h_n) for j in range(i + 1, h_n) if rng.random() < 0.4])
            check_invariants(union(g, h))
            if g.n + h.n <= 64:
                j = join(g, h)
                check_invariants(j)
                assert edge_count(j) == edge_count(g) + edge_count(h) + g.n * h.n
                assert j.n == g.n + h.n


class TestPredicates:
    def test_complete_bipartite_facts(self):
        g = join(empty_graph(2), empty_graph(3))
        sides = is_bipartite(g)
        assert sides is not None
        assert sorted(s.bit_count() for s in sides) == [2, 3]
        assert max_degree(g) == 3
        assert is_connected(g)
        assert is_triangle_free(g)

    def test_triangle(self):
        assert is_bipartite(complete_graph(3)) is None
        assert not is_triangle_free(complete_graph(3))

    def test_join_hub_degree(self):
        # a 2-clique joined to (two disjoint edges plus an isolated vertex)
        rest = union(union(complete_graph(2), complete_graph(2)), empty_graph(1))
        g = join(complete_graph(2), rest)
        assert is_connected(g)
        assert max_degree(g) == 6

    def test_empty_graph_conventions(self):
        assert is_connected(empty_graph(0))
        assert is_connected(empty_graph(1))
        assert not is_connected(empty_graph(2))
        assert is_bipartite(empty_graph(0)) == (0, 0)
        assert max_degree(empty_graph(0)) == 0

    def test_components_and_edge_access(self):
        from starfree.graphs import connected_components, edges

        g = union(path_graph(3), complete_graph(2))
        assert connected_components(g) == [0b00111, 0b11000]
        assert g.adj[0] >> 1 & 1 and not g.adj[0] >> 2 & 1
        assert edges(g) == [(0, 1), (1, 2), (3, 4)]


class TestCanonical:
    def test_relabeling_invariance(self):
        g = path_graph(4)
        rng = random.Random(1)
        for _ in range(20):
            perm = list(range(4))
            rng.shuffle(perm)
            assert canonical_form(relabel(g, tuple(perm))).code == canonical_form(g).code

    def test_distinguishes_same_degree_count(self):
        assert canonical_form(path_graph(4)).code != canonical_form(star_graph(3)).code

    def test_eleven_classes_on_four_vertices(self):
        codes = {canonical_form(g).code for g in all_labeled_graphs(4)}
        assert len(codes) == 11

    def test_classifies_exactly_like_brute_force(self):
        # same partition of labeled graphs into classes as the all-orderings
        # minimum, exhaustively for n <= 5
        for n in range(6):
            by_canon = {}
            by_brute = {}
            for i, g in enumerate(all_labeled_graphs(n)):
                by_canon.setdefault(canonical_form(g).code, set()).add(i)
                by_brute.setdefault(brute_min_cols(g), set()).add(i)
            assert sorted(map(sorted, by_canon.values())) == sorted(map(sorted, by_brute.values()))

    def test_larger_invariance_and_generators(self):
        rng = random.Random(7)
        for _ in range(60):
            n = rng.randint(2, 10)
            es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            g = from_edges(n, es)
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g).code == canonical_form(relabel(g, tuple(perm))).code
            cf = canonical_form(g)
            assert canonical_form(cf.graph).code == cf.code  # representative is canonical
            assert cf.code == graph6_encode(cf.graph)
            for sigma in cf.generators:
                assert relabel(cf.graph, sigma) == cf.graph

    def test_brute_oracle_distinct_on_classes_n6(self):
        # one representative per class: the all-orderings minimum must
        # separate them exactly as the canonical codes do
        from starfree.enumeration import enumerate_graphs

        reps = list(enumerate_graphs(6))
        assert len({canonical_form(g).code for g in reps}) == len(reps)
        assert len({brute_min_cols(g) for g in reps}) == len(reps)

    def test_code_carries_order(self):
        assert canonical_form(empty_graph(1)).code != canonical_form(empty_graph(2)).code
        assert (canonical_form(empty_graph(1)).code, canonical_form(empty_graph(2)).code) == ("@", "A?")

    def test_ceiling(self):
        with pytest.raises(OrderTooLarge):
            canonical_form(empty_graph(13))

    def test_canonical_form_is_isomorphic_relabelling(self):
        g = cycle_graph(6)
        h = canonical_form(g).graph
        assert degrees(h) == degrees(g)
        assert canonical_form(h).code == canonical_form(g).code


def orbits(n: int, group) -> set[frozenset[int]]:
    return {frozenset(p[v] for p in group) for v in range(n)}


def group_closure(n: int, generators) -> set[tuple[int, ...]]:
    """Every element of the permutation group the generators generate."""
    identity = tuple(range(n))
    group = {identity}
    frontier = [identity]
    while frontier:
        pi = frontier.pop()
        for sigma in generators:
            composed = tuple(sigma[pi[v]] for v in range(n))
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    return group


class TestGeneratorCompleteness:
    """Canonical augmentation is sound only if the generators reported by
    canonical_form generate the whole automorphism group."""

    def test_generators_generate_brute_force_automorphisms(self, cache):
        rng = random.Random(5)
        for n in range(1, 7):
            for g in enumerate_graphs(n, GraphClass.ALL, cache):
                auts = {p for p in itertools.permutations(range(n)) if relabel(g, p) == g}
                perm = list(range(n))
                rng.shuffle(perm)
                for h in (g, relabel(g, tuple(perm))):
                    cf = canonical_form(h)
                    assert relabel(h, cf.labelling) == cf.graph == g
                    group = group_closure(n, cf.generators)
                    assert orbits(n, group) == orbits(n, auts)
                    assert group == auts

    def test_last_canonical_vertex_passes_the_pre_tests(self, cache):
        # the enumerator rejects children whose new vertex lacks maximum
        # degree or the highest equitable colour; the canonically last vertex
        # must always have both
        rng = random.Random(9)
        graphs = [g for n in range(1, 7) for g in enumerate_graphs(n, GraphClass.ALL, cache)]
        for _ in range(200):
            n = rng.randint(2, 11)
            graphs.append(from_edges(
                n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            ))
        for g in graphs:
            last = canonical_form(g).labelling.index(g.n - 1)
            colors = _equitable_colors(g.n, g.adj)
            assert colors[last] == max(colors)
            assert degrees(g)[last] == max_degree(g)

    def test_passed_colours_give_the_same_form(self, cache, monkeypatch):
        # the enumerator hands canonical_form the refinement of its pre-test;
        # the search must then skip refining again and build the same form
        import starfree.graphs as graphs_module

        rng = random.Random(11)
        inputs = []
        for n in range(1, 7):
            for g in enumerate_graphs(n, GraphClass.ALL, cache):
                perm = list(range(n))
                rng.shuffle(perm)
                inputs += [g, relabel(g, tuple(perm))]
        expected = [(h, _equitable_colors(h.n, h.adj), canonical_form(h)) for h in inputs]

        def refine_again(n, adj):
            raise AssertionError("refined again")

        monkeypatch.setattr(graphs_module, "_equitable_colors", refine_again)
        for h, colors, cf in expected:
            assert canonical_form(h, colors=colors) == cf


def reference_graph6(g):
    """graph6 by its definition, one bit at a time: the order field, then the
    upper triangle column by column (bit i of column j is the edge {i, j}),
    zero-padded to whole 6-bit bytes."""
    if g.n <= 62:
        out = [chr(63 + g.n)]
    else:
        out = ["~"] + [chr(63 + (g.n >> s & 63)) for s in (12, 6, 0)]
    acc = filled = 0
    for j in range(1, g.n):
        for i in range(j):
            acc = acc << 1 | g.adj[i] >> j & 1
            filled += 1
            if filled == 6:
                out.append(chr(63 + acc))
                acc = filled = 0
    if filled:
        out.append(chr(63 + (acc << 6 - filled)))
    return "".join(out)


def random_graph(rng, n, p):
    return from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


class TestGraph6:
    def test_matches_reference_at_every_order(self):
        # orders 63 and 64 take the long order field; 62 is the last short one
        rng = random.Random(12)
        for n in range(65):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                g = random_graph(rng, n, p)
                assert graph6_encode(g) == reference_graph6(g), (n, p)
                assert graph6_decode(graph6_encode(g)) == g, (n, p)

    def test_single_vertex(self):
        assert graph6_encode(empty_graph(1)) == "@"
        assert graph6_decode("@") == empty_graph(1)

    def test_zero_vertices(self):
        assert graph6_decode(graph6_encode(empty_graph(0))) == empty_graph(0)

    def test_round_trip_small(self):
        for n in range(6):
            for g in all_labeled_graphs(n):
                assert graph6_encode(g) == reference_graph6(g), g
                assert graph6_decode(graph6_encode(g)) == g

    def test_round_trip_large_orders(self):
        rng = random.Random(3)
        for n in (62, 63, 64):
            es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
            g = from_edges(n, es)
            assert graph6_decode(graph6_encode(g)) == g

    def test_empty_input(self):
        with pytest.raises(ParseError):
            graph6_decode("")

    def test_trailing_noise(self):
        line = graph6_encode(cycle_graph(5))
        with pytest.raises(ParseError):
            graph6_decode(line + "!!")

    def test_truncated(self):
        line = graph6_encode(complete_graph(7))
        with pytest.raises(ParseError):
            graph6_decode(line[:-1])

    def test_bad_byte_reports_offset(self):
        with pytest.raises(ParseError) as exc:
            graph6_decode("C" + chr(30))
        assert exc.value.offset == 1
        # one spelling per graph: "Bw" is the only accepted graph6 of K_3, so
        # nonzero padding bits and a long order field for n <= 62 are errors
        assert graph6_decode("Bw") == complete_graph(3)
        for line, offset in (("Bx", 1), ("B{", 1), ("B~", 1), ("~??Bw", 0), ("~~?????Bw", 0), ("DQp", 2),
                             ("~?", 2), ("~~???", 5), (" ", 0)):
            with pytest.raises(ParseError) as exc:
                graph6_decode(line)
            assert exc.value.offset == offset, line

    def test_order_beyond_ceiling(self):
        with pytest.raises(OrderTooLarge):
            graph6_decode("~" + chr(63) + chr(64) + chr(64))  # order 65

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(5)
        for n in [*range(65), *(rng.randint(1, 12) for _ in range(100))]:
            g = random_graph(rng, n, 0.4)
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(edges(g))
            want = nx.to_graph6_bytes(nxg, header=False).decode().strip()
            assert graph6_encode(g) == want
