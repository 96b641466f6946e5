import itertools
import random

import numpy as np
import pytest

from conftest import (
    all_labeled_graphs,
    brute_min_cols,
    check_invariants,
    class_action,
    cycle_graph,
    degrees,
    edge_count,
    group_closure,
    is_bipartite,
    is_connected,
    is_triangle_free,
    max_degree,
    path_graph,
    reference_colors,
    star_graph,
    twin_classes,
    twin_group_order,
    twin_swaps,
)
from starfree.enumeration import GraphClass, enumerate_graphs
from starfree.errors import BadEdge, OrderTooLarge, ParseError
from starfree.graphs import (
    CANONICAL_CEILING,
    Graph,
    _canonical_forms,
    _connected,
    _min_code_leaves,
    _refine,
    _walks,
    adjacency_bits,
    canonical_form,
    complete_graph,
    edges,
    empty_graph,
    from_edges,
    graph6_decode,
    graph6_encode,
    join,
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
        assert is_bipartite(g)
        assert max_degree(g) == 3
        assert is_connected(g)
        assert is_triangle_free(g)

    def test_triangle(self):
        assert not is_bipartite(complete_graph(3))
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
        assert is_bipartite(empty_graph(0))
        assert max_degree(empty_graph(0)) == 0

    def test_components_and_edge_access(self):
        g = union(path_graph(3), complete_graph(2))
        singles = np.array([[1 << v for v in range(5)]], dtype="<u8")
        even, odd = _walks(np.array([g.adj], dtype="<u8"), singles)
        assert even.tolist() == [[0b00101, 0b00010, 0b00101, 0b01000, 0b10000]]
        assert odd.tolist() == [[0b00010, 0b00101, 0b00010, 0b10000, 0b01000]]
        assert not is_connected(g)
        assert g.adj[0] >> 1 & 1 and not g.adj[0] >> 2 & 1
        assert edges(g) == [(0, 1), (1, 2), (3, 4)]


def walk_stacks(cache):
    """Same-order stacks of graphs for the walk pass: every graph of all <= 7
    and bipartite <= 9, then random graphs of orders 16, 40, 63 and 64, some
    disconnected, with a path and two cliques of each of those orders."""
    for base, top in (("all", 7), ("bipartite", 9)):
        for n in range(1, top + 1):
            level = cache.level(base, n)
            yield [Graph(n, tuple(row)) for row in level.tolist()]
    rng = random.Random(23)
    for n in (16, 40, 63, 64):
        graphs = [random_graph(rng, n, p) for p in (0.02, 0.05, 0.1, 0.2) for _ in range(10)]
        yield graphs + [path_graph(n), union(complete_graph(n // 2), complete_graph(n - n // 2))]


class TestWalks:
    def test_connected_matches_the_oracle(self, cache):
        kinds = set()
        for graphs in walk_stacks(cache):
            rows = np.array([g.adj for g in graphs], dtype="<u8")
            want = [is_connected(g) for g in graphs]
            assert _connected(rows).tolist() == want, graphs[0].n
            kinds.update((g.n > 9, w) for g, w in zip(graphs, want))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_connected_matches_networkx(self, cache):
        nx = pytest.importorskip("networkx")
        for graphs in walk_stacks(cache):
            rows = np.array([g.adj for g in graphs], dtype="<u8")
            want = []
            for g in graphs:
                nxg = nx.Graph()
                nxg.add_nodes_from(range(g.n))
                nxg.add_edges_from(edges(g))
                want.append(nx.is_connected(nxg))
            assert _connected(rows).tolist() == want, graphs[0].n

    def test_odd_closed_walks_match_the_oracle(self, cache):
        # Konig: a graph is bipartite iff no odd walk returns to its start
        for graphs in walk_stacks(cache):
            n = graphs[0].n
            singles = np.uint64(1) << np.arange(n, dtype=np.uint64)
            rows = np.array([g.adj for g in graphs], dtype="<u8")
            _, odd = _walks(rows, np.broadcast_to(singles, rows.shape))
            got = ((odd & singles) == 0).all(axis=1).tolist()
            assert got == [is_bipartite(g) for g in graphs], n

    def test_connected_conventions(self):
        for n, want in ((0, True), (1, True), (2, False)):
            assert _connected(np.zeros((1, n), dtype="<u8")).tolist() == [want]
            assert _connected(np.zeros((1, n), dtype=np.uint16)).tolist() == [want]


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
            for sigma in leaves(cf.graph):
                assert relabel(cf.graph, sigma) == cf.graph

    def test_brute_oracle_distinct_on_classes_n6(self, cache):
        # one representative per class: the all-orderings minimum must
        # separate them exactly as the canonical codes do
        reps = list(enumerate_graphs(6, GraphClass.ALL, cache))
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


class TestGeneratorCompleteness:
    """Canonical augmentation is sound only if the labelling leaves of a
    canonical graph, with its twin group, make its whole automorphism
    group."""

    def test_generators_generate_brute_force_automorphisms(self, cache):
        # on the canonical graph every leaf is an automorphism and no two
        # share a coset of the twin group, so |leaves| * |twin group| =
        # |Aut| says that the leaves meet every coset; a relabelled graph
        # keeps as many leaves, and each gives the canonical graph back
        rng = random.Random(5)
        for n in range(1, 7):
            for g in enumerate_graphs(n, GraphClass.ALL, cache):
                auts = automorphisms(g)
                got = leaves(g)
                classes = twin_classes(g)
                assert set(got) <= auts
                assert len({class_action(sigma, classes) for sigma in got}) == len(got)
                assert len(got) * twin_group_order(g) == len(auts)
                assert group_closure(n, got + twin_swaps(g)) == auts
                for h in (g, shuffled(g, rng)):
                    cf = canonical_form(h)
                    assert relabel(h, cf.labelling) == cf.graph == g
                    orders = leaves(h)
                    assert len(orders) == len(got)
                    for order in orders:
                        assert relabel(h, tuple(order.index(v) for v in range(n))) == g

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
            colors = _refine(adjacency_bits([g.adj]))[0].tolist()
            assert colors[last] == max(colors)
            assert degrees(g)[last] == max_degree(g)


def leaves(g) -> list[tuple[int, ...]]:
    """The leaves the labelling pass keeps for g, as a stack of one:
    leaf[p] is the vertex placed at position p."""
    rows = np.array([g.adj], dtype=np.int64)
    a = adjacency_bits(rows)
    return list(map(tuple, _min_code_leaves(rows, a, _refine(a))[0].tolist()))


def automorphisms(g) -> set[tuple[int, ...]]:
    """The automorphism group by brute force over all n! permutations."""
    return {p for p in itertools.permutations(range(g.n)) if relabel(g, p) == g}


def shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, tuple(perm))


def cube_graph():
    return from_edges(8, [(v, v ^ 1 << b) for v in range(8) for b in range(3) if v < v ^ 1 << b])


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return from_edges(10, outer + spokes + inner)


def icosahedron():
    """Poles 0 and 11, an upper ring 1..5 and a lower ring 6..10."""
    rings = [(1 + i, 1 + (i + 1) % 5) for i in range(5)] + [(6 + i, 6 + (i + 1) % 5) for i in range(5)]
    poles = [(0, 1 + i) for i in range(5)] + [(11, 6 + i) for i in range(5)]
    band = [(1 + i, 6 + i) for i in range(5)] + [(1 + i, 6 + (i + 1) % 5) for i in range(5)]
    return from_edges(12, rings + poles + band)


class TestGreedyPass:
    """Graphs whose automorphisms are all twin swaps keep one leaf in the
    labelling pass; graphs with other automorphisms keep one leaf per coset
    of the twin group, and on the canonical graph the leaves with the twin
    swaps still generate the group."""

    def test_twin_only_graphs_have_one_leaf(self):
        graphs = [complete_graph(n) for n in range(1, 7)] + [empty_graph(n) for n in range(1, 7)]
        graphs += [join(empty_graph(a), empty_graph(b)) for a, b in ((1, 2), (2, 3), (2, 4), (3, 4))]
        graphs += [star_graph(leaves) for leaves in range(1, 6)]
        graphs += [join(complete_graph(k - 1), empty_graph(m)) for k, m in ((3, 2), (3, 4), (4, 3), (5, 2))]
        rng = random.Random(17)
        for g in graphs:
            for h in (g, shuffled(g, rng)):
                assert len(leaves(h)) == 1, h
                cf = canonical_form(h)
                assert relabel(h, cf.labelling) == cf.graph
                assert cf.code == canonical_form(g).code
                auts = automorphisms(cf.graph)
                assert group_closure(h.n, twin_swaps(cf.graph)) == auts, h
                assert leaves(cf.graph) == [tuple(range(h.n))]
                assert twin_group_order(cf.graph) == len(auts)

    def test_symmetric_graphs_have_several_leaves(self):
        graphs = [cycle_graph(n) for n in (4, 5, 6, 7)]
        graphs += [join(empty_graph(3), empty_graph(3)), cube_graph(), petersen_graph()]
        rng = random.Random(19)
        for g in graphs:
            cf = canonical_form(g)
            for h in (g, shuffled(g, rng)):
                assert len(leaves(h)) > 1, h
                assert canonical_form(h).code == cf.code
            got = leaves(cf.graph)
            assert all(relabel(cf.graph, sigma) == cf.graph for sigma in got)
            group = group_closure(g.n, got + twin_swaps(cf.graph))
            if g.n <= 8:
                assert group == automorphisms(cf.graph), g
            else:  # the Petersen graph's automorphism group is S_5
                assert len(group) == 120
                assert len(got) * twin_group_order(cf.graph) == 120

    def test_groups_at_the_ceiling(self):
        # order CANONICAL_CEILING: C12 and 2C6 hold 4 320 nodes at their
        # widest depth.  The first three have trivial twin groups, so their
        # leaves are their whole groups; 6K2 has 720 leaves, one per
        # permutation of its edges, on top of the 2^6 swaps within them
        rng = random.Random(23)
        two_hexagons = union(cycle_graph(6), cycle_graph(6))
        matching = from_edges(12, [(2 * i, 2 * i + 1) for i in range(6)])
        for g, count, twins in ((two_hexagons, 288, 1), (icosahedron(), 120, 1),
                                (cycle_graph(12), 24, 1), (matching, 720, 64)):
            assert g.n == CANONICAL_CEILING
            cf = canonical_form(g)
            for _ in range(3):
                assert canonical_form(shuffled(g, rng)).code == cf.code
            got = leaves(cf.graph)
            assert len(got) == count and twin_group_order(cf.graph) == twins, g
            assert all(relabel(cf.graph, sigma) == cf.graph for sigma in got)
            classes = twin_classes(cf.graph)
            assert len({class_action(sigma, classes) for sigma in got}) == count
            if twins == 1:
                assert len(group_closure(g.n, got)) == count, g


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


class TestRefinement:
    def test_matches_reference_on_random_graphs(self):
        # one batch per order mixes graphs that settle after different
        # numbers of rounds; paths and cycles need the most rounds
        rng = random.Random(13)
        for n in range(1, 13):
            graphs = [random_graph(rng, n, p) for p in (0.1, 0.3, 0.5, 0.7, 0.9) for _ in range(8)]
            graphs += [path_graph(n), cycle_graph(n) if n >= 3 else empty_graph(n),
                       union(path_graph(n // 2), cycle_graph(n - n // 2)) if n >= 5 else complete_graph(n)]
            got = _refine(adjacency_bits([g.adj for g in graphs]))
            assert got.tolist() == [reference_colors(n, g.adj) for g in graphs], n

    def test_keys_are_exact_up_to_order_14(self):
        # the packed key n * (n + 1)^n passes 2^63 at n = 15; the 14-vertex
        # path settles last, after 7 rounds
        with pytest.raises(OrderTooLarge):
            _refine(np.zeros((1, 15, 15), dtype=np.uint8))
        got = _refine(adjacency_bits([path_graph(14).adj]))
        assert got.tolist() == [reference_colors(14, path_graph(14).adj)]

    def test_order_zero(self):
        assert _refine(adjacency_bits([empty_graph(0).adj])).shape == (1, 0)
        cf = canonical_form(empty_graph(0))
        assert (cf.code, cf.labelling) == ("?", ())
        assert leaves(empty_graph(0)) == [()]


def mixed_stack(n, rng):
    """Graphs of order n that leave the refinement at different rounds, in
    shuffled order: random ones (mostly discrete after a round or two),
    slow settlers (paths, cycles, P + C), twin-heavy ones (K_{a,b},
    K_{k-1} + mK_1 joined) and the edgeless graph."""
    graphs = [random_graph(rng, n, p) for p in (0.2, 0.5, 0.8) for _ in range(4)]
    graphs += [path_graph(n), empty_graph(n), complete_graph(n)]
    if n >= 3:
        graphs.append(cycle_graph(n))
    if n >= 5:
        graphs.append(union(path_graph(n // 2), cycle_graph(n - n // 2)))
    graphs += [join(empty_graph(a), empty_graph(n - a)) for a in range(1, n // 2 + 1)]
    graphs += [join(complete_graph(k - 1), empty_graph(n - k + 1)) for k in range(2, n + 1)]
    rng.shuffle(graphs)
    return np.array([g.adj for g in graphs], dtype=np.uint16).reshape(len(graphs), n)


class TestStackIndependence:
    """The batched passes answer each graph of a stack as if it were a stack
    of one, however long the other graphs take to settle."""

    def test_refinement(self):
        rng = random.Random(29)
        for n in range(1, 13):
            rows = mixed_stack(n, rng)
            got = _refine(adjacency_bits(rows))
            alone = [_refine(adjacency_bits(rows[i:i + 1]))[0].tolist() for i in range(len(rows))]
            assert got.tolist() == alone, n

    def test_canonical_forms(self):
        rng = random.Random(31)
        for n in range(1, 13):
            rows = mixed_stack(n, rng)
            a = adjacency_bits(rows)
            canon, orders = _canonical_forms(rows, a, _refine(a))
            for i in range(len(rows)):
                one = rows[i:i + 1]
                want = _canonical_forms(one, a[i:i + 1], _refine(a[i:i + 1]))
                assert (canon[i].tolist(), orders[i].tolist()) == (want[0][0].tolist(), want[1][0].tolist()), n


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
