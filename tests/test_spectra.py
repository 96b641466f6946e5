import math
import random

import numpy as np
import pytest

from conftest import (
    adjacency_matrix,
    count_calls,
    cycle_graph,
    degrees,
    edge_count,
    is_bipartite,
    is_triangle_free,
    path_graph,
    signless_laplacian_matrix,
    star_graph,
)
from starfree import spectra
from starfree.enumeration import GraphClass, enumerate_graphs
from starfree.errors import Disconnected, EmptyGraph
from starfree.families import (
    make_clique_join_matching,
    make_clique_join_regular,
    radius_bound_general,
)
from starfree.graphs import (
    complete_graph,
    empty_graph,
    from_edges,
    join,
    union,
)
from starfree.spectra import (
    adjacency_spectra,
    adjacency_spectrum,
    check_perron_floor,
    extreme_eigenvalues,
    jacobi_eigensystem,
    least_eigenvalue,
    perron_vector,
    signless_laplacian_radius,
    spectral_radius,
)

TOL = 1e-9


class TestFullSpectrum:
    def test_single_edge(self):
        vals = adjacency_spectrum(complete_graph(2)).eigenvalues
        assert vals == pytest.approx((1.0, -1.0), abs=TOL)

    def test_complete_bipartite_extremes(self):
        res = adjacency_spectrum(join(empty_graph(2), empty_graph(3)))
        assert res.eigenvalues[0] == pytest.approx(math.sqrt(6), abs=TOL)
        assert res.eigenvalues[-1] == pytest.approx(-math.sqrt(6), abs=TOL)

    def test_triangle(self):
        vals = adjacency_spectrum(complete_graph(3)).eigenvalues
        assert vals == pytest.approx((2.0, -1.0, -1.0), abs=TOL)

    def test_empty_graph_rejected(self):
        for query in (adjacency_spectrum, spectral_radius, least_eigenvalue,
                      signless_laplacian_radius, perron_vector):
            with pytest.raises(EmptyGraph):
                query(empty_graph(0))

    def test_result_metadata(self):
        res = adjacency_spectrum(cycle_graph(7))
        assert res.method == "jacobi"
        assert len(res.eigenvalues) == 7
        assert res.max_residual <= 1e-12

    def test_unconverged_jacobi_raises(self, monkeypatch):
        # no sweeps: the eigenpairs are A's diagonal and the identity, and
        # the residual certificate refuses them
        monkeypatch.setattr(spectra, "_MAX_SWEEPS", 0)
        with pytest.raises(ArithmeticError):
            adjacency_spectrum(cycle_graph(5))

    def test_against_numpy_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 16)
            es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
            g = from_edges(n, es)
            mine = adjacency_spectrum(g).eigenvalues
            ref = np.linalg.eigvalsh(adjacency_matrix(g))[::-1]
            assert np.max(np.abs(np.array(mine) - ref)) < 1e-10

    def test_jacobi_on_general_symmetric_matrix(self):
        rng = np.random.default_rng(99)
        m = rng.normal(size=(12, 12))
        m = m + m.T
        vals, vecs, res = jacobi_eigensystem(m)
        assert res < 1e-10
        assert np.allclose(np.sort(vals), np.linalg.eigvalsh(m), atol=1e-10)


class TestJacobiRounds:
    """The round-robin schedule, and the solver on the orders and zero
    blocks that exercise it."""

    def test_every_pair_once_in_disjoint_rounds(self):
        for n in range(65):
            rounds = spectra._rounds(n)
            assert len(rounds) == (0 if n < 2 else n - 1 if n % 2 == 0 else n), n
            pairs = []
            for p, q in rounds:
                assert len(p) == len(q) > 0, n
                assert np.all(p < q), n
                assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p), n
                pairs += zip(p.tolist(), q.tolist())
            assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)], n

    @staticmethod
    def solve(monkeypatch, m):
        """Jacobi's eigenvalues of m, checked against ``eigvalsh``, the
        residual certificate and the sweep cap."""
        with monkeypatch.context() as patch:
            norms = count_calls(patch, "norm", np.linalg)
            vals, _, res = jacobi_eigensystem(m)
        assert np.max(np.abs(vals[::-1] - np.linalg.eigvalsh(m))) <= 1e-10
        assert res <= spectra._RESIDUAL_TOL * max(1.0, float(np.max(np.abs(vals))))
        # one norm scales the target and one tests each sweep's start, so
        # fewer tests than the cap means that one of them stopped the solver
        assert len(norms) - 1 < spectra._MAX_SWEEPS
        return vals

    def test_random_odd_orders(self, monkeypatch):
        rng = random.Random(41)
        for n in (41, 63):
            g = from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
            self.solve(monkeypatch, adjacency_matrix(g))

    def test_clique_join_regular(self, monkeypatch):
        # order 33: 33 rounds of 16 pairs
        vals = self.solve(monkeypatch, adjacency_matrix(make_clique_join_regular(33, 3, 3)))
        assert vals[0] == pytest.approx(radius_bound_general(33, 3, 3), abs=TOL)

    def test_disjoint_cliques(self, monkeypatch):
        # the zero blocks between the cliques leave some pairs of a round,
        # and some whole rounds, with nothing to rotate
        g = union(union(complete_graph(3), complete_graph(4)), complete_graph(5))
        vals = self.solve(monkeypatch, adjacency_matrix(g))
        assert vals == pytest.approx([4, 3, 2] + [-1] * 9, abs=TOL)


def triangle_count(g) -> int:
    """Triangles from the bitmask rows: each is seen once per edge."""
    return sum(bin(g.adj[u] & g.adj[v]).count("1")
               for u in range(g.n) for v in range(u + 1, g.n) if g.adj[u] >> v & 1) // 3


def batched_levels(cache):
    for n in range(1, 8):
        yield list(enumerate_graphs(n, GraphClass.ALL, cache))
    for n in range(1, 10):
        yield list(enumerate_graphs(n, GraphClass.BIPARTITE, cache))


def stack(graphs) -> np.ndarray:
    """Same-order graphs as one (N, n) array of neighbour masks."""
    return np.array([g.adj for g in graphs], dtype=np.uint64)


class TestBatchedSpectra:
    """The blocked LAPACK path against the Jacobi oracle and exact power sums,
    level by level over `all` <= 7 and `bipartite` <= 9 (1119 = 17 * 64 + 31
    graphs at order 9, so block boundaries are crossed)."""

    def test_matches_jacobi(self, cache):
        for level in batched_levels(cache):
            got = adjacency_spectra(stack(level))
            assert got.shape == (len(level), level[0].n)
            for g, row in zip(level, got):
                want = adjacency_spectrum(g).eigenvalues
                assert np.max(np.abs(row - want)) <= TOL, g

    def test_power_sums_are_exact_counts(self, cache):
        for level in batched_levels(cache):
            got = adjacency_spectra(stack(level))
            for g, row in zip(level, got):
                assert abs(row.sum()) <= TOL, g
                assert abs((row ** 2).sum() - 2 * edge_count(g)) <= TOL, g
                assert abs((row ** 3).sum() - 6 * triangle_count(g)) <= TOL, g

    def test_single_vertex_and_single_graph(self):
        assert adjacency_spectra(stack([empty_graph(1)])).tolist() == [[0.0]]
        got = adjacency_spectra(stack([cycle_graph(6)]))
        assert got.shape == (1, 6)
        assert got[0] == pytest.approx((2, 1, 1, -1, -1, -2), abs=TOL)

    def test_empty_and_mixed_inputs(self):
        assert adjacency_spectra(np.empty((0, 4), dtype=np.uint16)).shape == (0, 4)
        for query in (adjacency_spectra, lambda rows: extreme_eigenvalues(rows, False, -1)):
            with pytest.raises(EmptyGraph):
                query(stack([empty_graph(0)]))
        with pytest.raises(ValueError):
            adjacency_spectra([empty_graph(2).adj, empty_graph(3).adj])

    def test_matrices_match_edges(self):
        rng = random.Random(17)
        for n in (1, 7, 40, 64):
            gs = [from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5])
                  for _ in range(3)]
            stacked = spectra._matrices(stack(gs), False)
            assert stacked.shape == (3, n, n) and stacked.dtype == np.float64
            for g, m in zip(gs, stacked):
                want = np.zeros((n, n))
                for u in range(n):
                    for v in range(n):
                        want[u, v] = g.adj[u] >> v & 1
                assert np.array_equal(m, want)
                assert np.array_equal(adjacency_matrix(g), want)
            for g, m in zip(gs, spectra._matrices(stack(gs), True)):
                assert np.array_equal(m, signless_laplacian_matrix(g))

    def test_uncertified_block_raises(self, monkeypatch):
        real = np.linalg.eigh

        def perturbed(m):
            vals, vecs = real(m)
            return vals, vecs + 1e-6

        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ArithmeticError):
            adjacency_spectra(stack([path_graph(4), cycle_graph(4)]))

    def test_blocks_bound_each_eigh_call(self, monkeypatch, cache):
        sizes = []
        real = np.linalg.eigh

        def counted(m):
            sizes.append(m.shape[0])
            return real(m)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        level = cache.level("bipartite", 9)
        adjacency_spectra(level)
        assert max(sizes) == spectra._BLOCK
        assert sum(sizes) == len(level) == 1119
        assert len(sizes) == -(-len(level) // spectra._BLOCK)


class TestExtremeEigenvalues:
    """The one extreme-eigenvalue path on whole levels: `all` <= 7 and
    `bipartite` <= 9, so block boundaries are crossed."""

    def test_same_bits_as_one_graph_at_a_time(self, cache):
        # LAPACK solves each matrix of a stack alone, so a block changes no bit
        for level in batched_levels(cache):
            rows = stack(level)
            for signless, index, matrix in ((False, -1, adjacency_matrix), (False, 0, adjacency_matrix),
                                            (True, -1, signless_laplacian_matrix)):
                got = extreme_eigenvalues(rows, signless, index)
                want = [np.linalg.eigvalsh(matrix(g))[index] for g in level]
                assert got.tolist() == want

    def test_scalars_are_stacks_of_one(self, cache):
        for level in batched_levels(cache):
            rows = stack(level)
            for query, signless, index in ((spectral_radius, False, -1), (least_eigenvalue, False, 0),
                                           (signless_laplacian_radius, True, -1)):
                assert [query(g) for g in level] == extreme_eigenvalues(rows, signless, index).tolist()

    def test_edgeless_reads_positive_zero(self):
        for n in (1, 5, 64):
            rows = stack([empty_graph(n)])
            for signless, index in ((False, -1), (False, 0), (True, -1)):
                value = extreme_eigenvalues(rows, signless, index)[0]
                assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_blocks_bound_each_eigvalsh_call(self, monkeypatch, cache):
        sizes = []
        real = np.linalg.eigvalsh

        def counted(m):
            sizes.append(m.shape[0])
            return real(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        level = cache.level("bipartite", 9)
        extreme_eigenvalues(level, True, -1)
        assert max(sizes) == spectra._BLOCK
        assert sum(sizes) == len(level) == 1119
        assert len(sizes) == -(-len(level) // spectra._BLOCK)


class TestSpectralRadius:
    def test_complete_graph_value(self):
        # the clique on k-1 vertices has radius k-2
        for k in (3, 4, 5, 6):
            assert spectral_radius(complete_graph(k - 1)) == pytest.approx(k - 2, abs=TOL)

    def test_edgeless(self):
        assert spectral_radius(empty_graph(5)) == 0.0

    def test_join_matching_with_leftover_vertex(self):
        # one hub joined to 4 disjoint edges plus an isolated vertex; the
        # equitable quotient has characteristic x^3 - x^2 - 9x + 1, largest
        # root 3.493959207434935, strictly below the closed-form ceiling
        g = make_clique_join_matching(10, 2)
        rho = spectral_radius(g)
        assert rho == pytest.approx(3.493959207434935, abs=TOL)
        assert rho < radius_bound_general(10, 2, 2) - 1e-3

    def test_agrees_with_full_spectrum(self):
        rng = random.Random(21)
        for _ in range(60):
            n = rng.randint(1, 12)
            es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            g = from_edges(n, es)
            assert spectral_radius(g) == pytest.approx(adjacency_spectrum(g).eigenvalues[0], abs=TOL)

    def test_disconnected_takes_max_component(self):
        g = union(complete_graph(4), cycle_graph(5))
        assert spectral_radius(g) == pytest.approx(3.0, abs=TOL)


class TestLeastEigenvalue:
    def test_complete_bipartite(self):
        g = join(empty_graph(2), empty_graph(3))
        assert least_eigenvalue(g) == pytest.approx(-math.sqrt(6), abs=TOL)

    def test_edgeless(self):
        assert least_eigenvalue(empty_graph(4)) == 0.0

    def test_complete(self):
        assert least_eigenvalue(complete_graph(4)) == pytest.approx(-1.0, abs=TOL)

    def test_regular_bipartite_orthogonal_start_trap(self):
        # K_{a,a}: the least eigenvector is +1 on one side, -1 on the other
        for a in (2, 3, 4):
            g = join(empty_graph(a), empty_graph(a))
            assert least_eigenvalue(g) == pytest.approx(-a, abs=TOL)

    def test_agrees_with_full_spectrum(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 12)
            es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            g = from_edges(n, es)
            assert least_eigenvalue(g) == pytest.approx(adjacency_spectrum(g).eigenvalues[-1], abs=TOL)


class TestSignlessLaplacian:
    def test_single_edge(self):
        assert signless_laplacian_radius(complete_graph(2)) == pytest.approx(2.0, abs=TOL)

    def test_cycle_is_twice_degree(self):
        assert signless_laplacian_radius(cycle_graph(4)) == pytest.approx(4.0, abs=TOL)

    def test_spectrum_trace_is_degree_sum(self):
        g = from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)])
        vals, _, _ = jacobi_eigensystem(signless_laplacian_matrix(g))
        assert sum(vals) == pytest.approx(sum(degrees(g)), abs=1e-8)

    def test_agrees_with_full_spectrum(self):
        rng = random.Random(51)
        for _ in range(60):
            n = rng.randint(1, 12)
            es = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.4]
            g = from_edges(n, es)
            want = jacobi_eigensystem(signless_laplacian_matrix(g))[0][0]
            assert signless_laplacian_radius(g) == pytest.approx(want, abs=TOL)

    def test_matrix_shape(self):
        g = star_graph(3)
        q = signless_laplacian_matrix(g)
        assert q[0, 0] == 3 and q[1, 1] == 1 and q[0, 1] == 1


class TestPerron:
    def test_star_ratio(self):
        data = perron_vector(star_graph(3))
        assert data.vector[0] == pytest.approx(1.0, abs=TOL)
        for leaf in data.vector[1:]:
            assert 1.0 / leaf == pytest.approx(math.sqrt(3), abs=1e-8)

    def test_complete_graph_uniform(self):
        data = perron_vector(complete_graph(4))
        assert data.vector == pytest.approx((1.0, 1.0, 1.0, 1.0), abs=TOL)
        assert data.min_entry == pytest.approx(1.0, abs=TOL)

    def test_path_three(self):
        data = perron_vector(path_graph(3))
        assert data.vector[1] == pytest.approx(1.0, abs=TOL)
        assert data.vector[0] == pytest.approx(1 / math.sqrt(2), abs=1e-8)
        assert data.rho == pytest.approx(math.sqrt(2), abs=TOL)

    def test_positive_and_normalised(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(1, 10)
            g = from_edges(n, [(i, i + 1) for i in range(n - 1)]
                           + [(i, j) for i in range(n) for j in range(i + 2, n) if rng.random() < 0.3])
            data = perron_vector(g)
            assert max(data.vector) == pytest.approx(1.0, abs=1e-12)
            assert min(data.vector) > 0
            a = adjacency_matrix(g)
            v = np.array(data.vector)
            assert np.max(np.abs(a @ v - data.rho * v)) < 1e-8

    def test_disconnected_rejected(self):
        with pytest.raises(Disconnected):
            perron_vector(union(complete_graph(2), complete_graph(2)))
        # at order 64 the isolated vertex is bit 63 of the rows
        for g in (union(star_graph(62), empty_graph(1)), union(empty_graph(1), star_graph(62))):
            with pytest.raises(Disconnected):
                perron_vector(g)
        data = perron_vector(star_graph(63))
        assert data.rho == pytest.approx(math.sqrt(63), abs=TOL)

    def test_matches_jacobi_eigenvector(self):
        # the LAPACK vector against the independent Jacobi oracle
        g = join(empty_graph(2), empty_graph(9))
        data = perron_vector(g)
        vals, vecs, _ = jacobi_eigensystem(adjacency_matrix(g))
        want = np.abs(vecs[:, 0]) / np.abs(vecs[:, 0]).max()
        assert data.rho == pytest.approx(vals[0], abs=TOL)
        assert np.max(np.abs(np.array(data.vector) - want)) < TOL

    def test_ill_conditioned_full_order(self):
        # K_32 with a pendant path of 32 vertices: entries along the path
        # fall geometrically (about 31^-32 at its end), below LAPACK's
        # resolution, yet the vector is certified and nonnegative
        clique = [(i, j) for i in range(32) for j in range(i + 1, 32)]
        g = from_edges(64, clique + [(i, i + 1) for i in range(31, 63)])
        data = perron_vector(g)
        v = np.array(data.vector)
        assert np.max(np.abs(adjacency_matrix(g) @ v - data.rho * v)) <= 1e-11 * data.rho
        assert v.min() >= 0 and v.max() == 1.0
        assert data.floor_check()[0] is False

    def test_uncertified_vector_raises(self, monkeypatch):
        g = path_graph(4)
        vals, vecs = np.linalg.eigh(adjacency_matrix(g))
        vecs[:, -1] += 1e-6
        monkeypatch.setattr(np.linalg, "eigh", lambda m: (vals, vecs))
        with pytest.raises(ArithmeticError):
            perron_vector(g)


class TestPerronFloor:
    def test_bipartite_extremal(self):
        ok, margin = check_perron_floor(join(empty_graph(2), empty_graph(9)))
        assert ok and margin > 0

    def test_complete(self):
        ok, _ = check_perron_floor(complete_graph(6))
        assert ok

    def test_path_diagnostic_runs(self):
        ok, margin = check_perron_floor(path_graph(6))
        assert isinstance(ok, bool) and isinstance(margin, float)

    def test_single_vertex(self):
        ok, margin = check_perron_floor(empty_graph(1))
        assert ok and margin == math.inf

    def test_extremal_bipartite_grid(self):
        # the entry floor holds on the bipartite extremal family
        for k in range(2, 6):
            for n in range(k + 1, 26, 4):
                ok, margin = check_perron_floor(join(empty_graph(k - 1), empty_graph(n - k + 1)))
                assert ok, (n, k, margin)


class TestSolverHygiene:
    """Spectral invariants over every isomorphism class of order <= 6; the
    order <= 8 sweep lives in the acceptance suite."""

    def test_invariants_small(self, cache):
        for n in range(1, 7):
            for g in enumerate_graphs(n, GraphClass.ALL, cache):
                res = adjacency_spectrum(g)
                vals = res.eigenvalues
                assert abs(sum(vals)) <= 1e-8 * n
                assert abs(sum(x * x for x in vals) - 2 * edge_count(g)) <= 1e-8 * n
                assert spectral_radius(g) == pytest.approx(vals[0], abs=TOL)
                if is_bipartite(g):
                    for lo, hi in zip(reversed(vals), vals):
                        assert abs(lo + hi) <= TOL
                if is_triangle_free(g):
                    assert vals[0] <= n / 2 + TOL

    def test_regular_graph_radii(self):
        for g, r in [(cycle_graph(5), 2), (complete_graph(5), 4),
                     (join(empty_graph(3), empty_graph(3)), 3)]:
            assert spectral_radius(g) == pytest.approx(r, abs=TOL)
            assert signless_laplacian_radius(g) == pytest.approx(2 * r, abs=TOL)

    def test_full_capacity_order(self):
        # the 64-vertex ceiling end to end: K_{32,32} is 32-regular bipartite
        g = join(empty_graph(32), empty_graph(32))
        assert spectral_radius(g) == pytest.approx(32.0, abs=TOL)
        assert least_eigenvalue(g) == pytest.approx(-32.0, abs=TOL)
        assert signless_laplacian_radius(g) == pytest.approx(64.0, abs=TOL)
        res = adjacency_spectrum(g)
        assert len(res.eigenvalues) == 64 and res.max_residual < 1e-10
