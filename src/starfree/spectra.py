"""Eigenvalue machinery for adjacency and signless-Laplacian matrices.

Ground truth is a cyclic Jacobi rotation eigensolver (dense, O(n^3) per
sweep — negligible at order <= 64, and its convergence is certified by the
off-diagonal norm plus an explicit eigenpair residual).  Power iteration with
Rayleigh-quotient stopping is the fast path for the three extreme-eigenvalue
queries; it falls back to the full Jacobi spectrum whenever it is slow to
converge or fails its residual certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import Disconnected, EmptyGraph
from .graphs import Graph, degrees, is_connected, max_degree

#: Jacobi stops when the off-diagonal Frobenius norm drops below this times
#: max(1, ||M||_F).
SOLVER_TOL = 1e-12

#: Rayleigh-quotient relative change below which power iteration stops.
POWER_REL_TOL = 1e-13

_POWER_MAX_ITER = 30000
# residual ceiling for accepting a power-iteration eigenpair: for symmetric
# matrices some eigenvalue lies within the 2-norm of the residual, so this
# certifies the value to well under the 1e-9 cross-check tolerance
_RESIDUAL_TOL = 1e-11
# extra power steps perron_vector may take past the unit-vector certificate
_PERRON_POLISH_ITER = 1000


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum of a symmetric graph matrix, sorted descending."""

    eigenvalues: tuple[float, ...]
    method: str
    max_residual: float


@dataclass(frozen=True)
class PerronData:
    """Positive eigenvector of a connected graph, scaled to max entry 1."""

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


def jacobi_eigensystem(matrix: np.ndarray, max_sweeps: int = 60):
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
    for _ in range(max_sweeps):
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
# power iteration fast paths
# ---------------------------------------------------------------------------


def _power_largest(m: np.ndarray, start: np.ndarray | None = None):
    """Largest eigenvalue of a symmetric matrix whose dominant eigenvalue is
    also the largest; returns (value, unit vector) or None on no certificate.

    Stops once the Rayleigh quotient has stabilised (relative change below
    POWER_REL_TOL) *and* the eigenpair residual certifies the value: the
    Rayleigh estimate settles quadratically, long before the vector itself,
    so the residual is the binding condition.
    """
    n = m.shape[0]
    x = np.ones(n) if start is None else np.asarray(start, dtype=float)
    norm = np.linalg.norm(x)
    if norm == 0.0:
        return None
    x = x / norm
    lam_prev = None
    stable = 0
    for _ in range(_POWER_MAX_ITER):
        y = m @ x
        lam = float(x @ y)
        if lam_prev is not None and abs(lam - lam_prev) <= POWER_REL_TOL * max(1.0, abs(lam)):
            stable += 1
        else:
            stable = 0
        lam_prev = lam
        if stable >= 2:
            resid = float(np.max(np.abs(y - lam * x)))
            if resid <= _RESIDUAL_TOL * max(1.0, abs(lam)):
                return lam, x
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            return None  # start vector lies in the kernel; cannot certify
        x = y / ny
    return None


def spectral_radius(g: Graph) -> float:
    """Largest adjacency eigenvalue.

    Power iteration runs on A + I: the shift breaks the +/-rho oscillation on
    bipartite graphs while keeping the matrix entrywise nonnegative, so the
    all-ones start always overlaps the dominant eigenspace.
    """
    if g.n == 0:
        raise EmptyGraph("spectral radius of the order-0 graph is undefined")
    if max_degree(g) == 0:
        return 0.0
    m = adjacency_matrix(g)
    m[np.diag_indices(g.n)] = 1.0
    got = _power_largest(m)
    if got is None:
        return adjacency_spectrum(g).eigenvalues[0]
    return got[0] - 1.0


def least_eigenvalue(g: Graph) -> float:
    """Smallest adjacency eigenvalue, via the largest eigenvalue of cI - A
    with c = max degree (all eigenvalues of cI - A are nonnegative).

    The all-ones vector can be exactly orthogonal to the dominant eigenvector
    of cI - A (regular bipartite graphs), so the start carries a fixed,
    seeded jitter; any failed certificate falls back to the full spectrum.
    """
    if g.n == 0:
        raise EmptyGraph("least eigenvalue of the order-0 graph is undefined")
    c = max_degree(g)
    if c == 0:
        return 0.0
    m = -adjacency_matrix(g)
    m[np.diag_indices(g.n)] = float(c)
    start = 1.0 + 0.25 * np.random.default_rng(0x5EED).random(g.n)
    got = _power_largest(m, start)
    if got is None:
        return adjacency_spectrum(g).eigenvalues[-1]
    lam, _ = got
    # dominance probe: any Rayleigh quotient must stay below the reported top
    probe = np.random.default_rng(0xA17).random(g.n) - 0.5
    rq = float(probe @ (m @ probe) / (probe @ probe))
    if lam + 1e-8 * max(1.0, abs(lam)) < rq:
        return adjacency_spectrum(g).eigenvalues[-1]
    return float(c) - lam


def signless_laplacian_radius(g: Graph) -> float:
    """Largest eigenvalue of Q = D + A (positive semidefinite)."""
    if g.n == 0:
        raise EmptyGraph("signless Laplacian radius of the order-0 graph is undefined")
    if max_degree(g) == 0:
        return 0.0
    got = _power_largest(signless_laplacian_matrix(g))
    if got is None:
        return signless_laplacian_spectrum(g).eigenvalues[0]
    return got[0]


def perron_vector(g: Graph) -> PerronData:
    """Positive unit-max eigenvector of the spectral radius (connected input).

    Deterministic: all-ones start, shift-by-one iteration matrix.  A vector is
    accepted only once it is scaled to max entry 1, is entrywise positive, and
    its residual ||A x - rho x||_inf is at most _RESIDUAL_TOL * max(1, rho).
    The power-iteration certificate is on a unit 2-norm vector, and rescaling
    to max entry 1 multiplies the residual by up to sqrt(n), so the iteration
    continues from the certified vector, for at most _PERRON_POLISH_ITER more
    steps, until the rescaled vector passes.  Otherwise the Jacobi eigenvector
    is returned.
    """
    if g.n == 0:
        raise EmptyGraph("Perron vector of the order-0 graph is undefined")
    if not is_connected(g):
        raise Disconnected("Perron vector requires a connected graph")
    a = adjacency_matrix(g)
    m = a.copy()
    m[np.diag_indices(g.n)] = 1.0
    got = _power_largest(m)
    if got is not None:
        lam, x = got
        for _ in range(_PERRON_POLISH_ITER):
            rho = lam - 1.0
            vec = x / x.max()
            if float(np.max(np.abs(a @ vec - rho * vec))) <= _RESIDUAL_TOL * max(1.0, rho) and vec.min() > 0:
                return PerronData(rho, tuple(float(v) for v in vec), float(vec.min()))
            y = m @ x
            x = y / np.linalg.norm(y)
            lam = float(x @ (m @ x))
    vals, vecs, _ = jacobi_eigensystem(a)
    vec = vecs[:, 0]
    if vec.sum() < 0:
        vec = -vec
    vec = vec / vec.max()
    return PerronData(float(vals[0]), tuple(float(v) for v in vec), float(vec.min()))


def check_perron_floor(g: Graph) -> tuple[bool, float]:
    """Whether every Perron entry clears 1/rho (tolerance 1e-9); also the margin."""
    return perron_vector(g).floor_check()
