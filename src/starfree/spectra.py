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

The full spectrum comes from a self-contained cyclic Jacobi rotation
eigensolver (dense, O(n^3) per sweep, negligible at order <= 64), certified
by the off-diagonal norm plus an explicit eigenpair residual.  It is the
only full-spectrum path, and an oracle independent of LAPACK that the tests
compare the extremes against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, EmptyGraph
from .graphs import Graph, degrees, is_connected, max_degree

#: Jacobi stops when the off-diagonal Frobenius norm drops below this times
#: max(1, ||M||_F), or after _MAX_SWEEPS sweeps.
SOLVER_TOL = 1e-12
_MAX_SWEEPS = 60

# ceiling on ||A x - rho x||_inf / max(1, rho) for the Perron vector x (max
# entry 1); rho is certified by LAPACK's backward stability, and this
# certifies that x is an eigenvector of it
_RESIDUAL_TOL = 1e-11


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


def adjacency_matrix(g: Graph) -> np.ndarray:
    m = np.zeros((g.n, g.n))
    for v in range(g.n):
        row = g.adj[v]
        while row:
            u = (row & -row).bit_length() - 1
            row &= row - 1
            m[v, u] = 1.0
    return m


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


def _spectrum(g: Graph, matrix_fn) -> SpectrumResult:
    if g.n == 0:
        raise EmptyGraph("spectrum of the order-0 graph is undefined")
    vals, _, residual = jacobi_eigensystem(matrix_fn(g))
    return SpectrumResult(tuple(float(x) for x in vals), "jacobi", residual)


def adjacency_spectrum(g: Graph) -> SpectrumResult:
    """All adjacency eigenvalues, descending."""
    return _spectrum(g, adjacency_matrix)


def signless_laplacian_spectrum(g: Graph) -> SpectrumResult:
    """All eigenvalues of D + A, descending."""
    return _spectrum(g, signless_laplacian_matrix)


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
    residual = float(np.max(np.abs(a @ vec - rho * vec)))
    if residual > _RESIDUAL_TOL * max(1.0, rho):
        raise ArithmeticError(f"Perron vector residual {residual!r} exceeds its certificate")
    return PerronData(rho, tuple(float(v) for v in vec), float(vec.min()))


def check_perron_floor(g: Graph) -> tuple[bool, float]:
    """Whether every Perron entry clears 1/rho (tolerance 1e-9); also the margin."""
    return perron_vector(g).floor_check()
