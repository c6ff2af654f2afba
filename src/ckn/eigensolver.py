"""Lowest eigenpair of the weighted operator -Laplace - kappa V on the cylinder.

The discrete operator is the grid's: on the interior dofs (the first and
last rows, Dirichlet or zero-weight, and the zero-weight pole nodes
eliminated), the generalized problem K u = lambda M u is scaled by
M^(-1/2) into the standard symmetric one with matrix A = B - kappa V, B
held by the grid as three diagonals.
It is solved by block-size-1 LOPCG, Knyazev's locally optimal
preconditioned conjugate gradient (SIAM J. Sci. Comput. 23 (2001)
517-541): each step applies the preconditioner T once to the
residual r = A y - lambda y and takes the lowest Ritz pair of A on
span{y, T r, p}, p being the previous update direction.  y lies in that
span, so the Rayleigh quotient sequence is non-increasing -- the
fixed-point loop asserts exactly that.

T is LAPACK's banded Cholesky factor (dpbtrf) of a shifted operator, kept
in a SolverCache and shared by every solve on the grid.  It is built at the
Rayleigh quotient minus SHIFT_GAP, and the shift is lowered while dpbtrf
meets a non-positive leading minor, so T is positive definite.  A factor
built for an earlier operator degrades as the operator drifts, so a step
that keeps more than REFRESH_RATIO of the residual on it rebuilds it once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .errors import NonConvergenceError, NormalizationError, PositivityError
from .model import CylinderGrid, Field

SHIFT_GAP = 0.5
# a basis direction whose norm falls below DROP_RTOL times its norm before
# orthogonalization is numerically in the span of the others
DROP_RTOL = 1e-10
# a step that keeps more than this fraction of the residual on a stale
# factor rebuilds it for the current operator
REFRESH_RATIO = 0.8


@dataclass
class EigenResult:
    """Converged lowest eigenpair: unit-norm nonnegative ground state.

    `iterations` counts the LOPCG steps plus the final residual check,
    `lu_solves` the Cholesky solves with the preconditioner (one per step).
    """

    lam: float
    u: Field
    iterations: int
    residual: float
    lu_solves: int


class CylinderOperator:
    """Handle for -Laplace - kappa V in symmetric (mass-scaled) form."""

    def __init__(self, kappa: float, V: Field, grid: CylinderGrid):
        self.grid = grid
        self.isq = 1.0 / np.sqrt(grid.m)
        self.n = grid.m.size
        self.kv = kappa * grid.restrict(V.values) if kappa != 0.0 else np.zeros(self.n)

    def matvec(self, y: np.ndarray) -> np.ndarray:
        (diag, off_phi, off_s), w = self.grid.B, self.grid.n_phi - 2
        out = (diag - self.kv) * y
        out[:-1] += off_phi * y[1:]
        out[1:] += off_phi * y[:-1]
        out[:-w] += off_s * y[w:]
        out[w:] += off_s * y[:-w]
        return out

    def band(self, shift: float = 0.0) -> np.ndarray:
        """B - diag(kv + shift) in LAPACK upper band storage; in s-major order
        B couples phi neighbours (offset 1) and s neighbours (w = n_phi - 2)."""
        (diag, off_phi, off_s), w = self.grid.B, self.grid.n_phi - 2
        ab = np.zeros((w + 1, self.n), order="F")
        ab[w] = diag - (self.kv + shift)
        ab[w - 1, 1:] = off_phi
        ab[0, w:] = off_s
        return ab

    def to_field(self, y: np.ndarray) -> Field:
        return Field(self.grid, self.grid.embed(y * self.isq))

    def from_field(self, u: Field) -> np.ndarray:
        return self.grid.restrict(u.values) / self.isq


def q_norm(V: Field) -> float:
    g = V.grid
    q = g.p / (g.p - 2.0)
    return float(g.integrate(np.abs(V.values) ** q) ** (1.0 / q))


def _check_potential(kappa: float, V: Field, grid: CylinderGrid):
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if V.values.shape != grid.shape:
        raise ValueError("potential lives on a different grid")
    vmin = V.values.min()
    if vmin < -1e-12 * max(V.values.max(), 1.0):
        raise ValueError(f"potential has negative values (min {vmin})")
    nq = q_norm(V)
    if abs(nq - 1.0) > 1e-8:
        raise NormalizationError(f"potential q-norm is {nq}, expected 1 within 1e-8")


class _BandCholesky:
    """A = U^T U from upper band storage `ab`, factored in place by dpbtrf."""

    def __init__(self, ab: np.ndarray):
        self.cb, self.info = dpbtrf(ab, lower=0, overwrite_ab=1)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        return dpbtrs(self.cb, rhs, lower=0)[0]

    @property
    def U(self):
        """The factor as a sparse matrix; only here is scipy.sparse loaded."""
        import scipy.sparse as sp
        return sp.dia_matrix((self.cb, np.arange(len(self.cb) - 1, -1, -1)),
                             shape=(self.cb.shape[1],) * 2)
    L = property(lambda self: self.U.T)


class SolverCache:
    """Banded Cholesky factor of a shifted operator: the LOPCG preconditioner.

    `negative_pivots` is True when the last factor met a non-positive
    leading minor: by Sylvester's law of inertia, the shift was not below
    the lowest eigenvalue.  The factor costs n_s n_phi^3, a solve n_s n_phi^2.
    One instance serves whole continuation runs; the factor is rebuilt for
    a new grid or on request (an unsafe shift, or convergence slowed on a
    stale factor).  `factorizations` counts them all, rejected ones included.
    """

    def __init__(self):
        self._factor = None
        self._op = None
        self.negative_pivots = False
        self.factorizations = 0

    def preconditioner(self, op: CylinderOperator, shift: float, rebuild: bool = False):
        if rebuild or self._factor is None or self._op.grid is not op.grid:
            self._factor = None  # let the old factor go before the next is built
            self._factor = _BandCholesky(op.band(shift))
            self._op = op
            self.factorizations += 1
            self.negative_pivots = self._factor.info != 0
        return self._factor.solve

    def built_for(self, op: CylinderOperator) -> bool:
        """Whether the factor in hand was built for this operator."""
        return self._factor is not None and self._op is op


def _positive_factor(op: CylinderOperator, lam: float, cache: SolverCache, rebuild: bool):
    """The cache's solve; a factor built here is built at lam - SHIFT_GAP and
    refactored at lower shifts while it is not positive definite."""
    shift = lam - SHIFT_GAP
    for attempt in range(8):
        solve = cache.preconditioner(op, shift, rebuild)
        if not cache.negative_pivots:
            return solve
        solve = None  # let the rejected factor go before the next is built
        shift -= 2.0 * (attempt + 1)
        rebuild = True
    raise NonConvergenceError("shifted operator stayed indefinite")


def _default_start(op: CylinderOperator) -> np.ndarray:
    g = op.grid
    y = g.restrict(np.repeat(np.exp(-g.s**2)[:, None], g.n_phi, axis=1)) / op.isq
    return y / np.linalg.norm(y)


def lowest_eigenpair(kappa: float, V: Field, grid: CylinderGrid, tol: float = 1e-9,
                     warm_start: Field | None = None, max_iter: int = 200,
                     cache: SolverCache | None = None) -> EigenResult:
    """Ground state of -Laplace - kappa V with unit weighted L2 norm, by the
    LOPCG iteration of the module docstring on the factor in `cache`.

    `warm_start` (a Field) is the previous iterate in fixed-point or
    continuation loops; reusing it typically cuts the steps to a handful.
    The returned Rayleigh quotient never exceeds the warm start's, which
    downstream monotonicity assertions rely on.  A step that keeps more
    than REFRESH_RATIO of the residual on a factor built for another
    operator rebuilds the factor once for this one.
    """
    _check_potential(kappa, V, grid)
    op = CylinderOperator(kappa, V, grid)
    if cache is None:
        cache = SolverCache()

    if warm_start is not None:
        y = op.from_field(warm_start)
        ny = np.linalg.norm(y)
        if ny == 0.0:
            raise ValueError("warm start is zero on the interior")
        y = y / ny
    else:
        y = _default_start(op)

    Ay = op.matvec(y)
    lam = float(y @ Ay)
    r = Ay - lam * y
    resid = float(np.linalg.norm(r))
    solve = p = None
    solves = it = 0
    # the basis of span{y, T r, p} and its image under A, one column each
    Q = np.empty((op.n, 3), order="F")
    AQ = np.empty((op.n, 3), order="F")
    for it in range(1, max_iter + 1):
        if resid <= tol:
            break
        if solve is None:
            solve = _positive_factor(op, lam, cache, rebuild=False)
        w = solve(r)
        solves += 1
        # orthonormal basis of span{y, T r, p}: a direction that is (numerically)
        # in the span of the others is dropped, judged relative to its own norm
        Q[:, 0], AQ[:, 0] = y, Ay
        k = 1
        for v in (w, p):
            if v is None:
                continue
            nv0 = np.linalg.norm(v)
            for _ in range(2):
                v = v - Q[:, :k] @ (Q[:, :k].T @ v)
            nv = np.linalg.norm(v)
            if nv > DROP_RTOL * nv0:
                Q[:, k] = v / nv
                AQ[:, k] = op.matvec(Q[:, k])
                k += 1
        H = Q[:, :k].T @ AQ[:, :k]
        _, C = np.linalg.eigh(0.5 * (H + H.T))
        c = C[:, 0]
        p = Q[:, 1:k] @ c[1:]
        y = Q[:, :k] @ c
        ny = np.linalg.norm(y)
        y, p = y / ny, p / ny
        Ay = op.matvec(y)
        lam = float(y @ Ay)
        r = Ay - lam * y
        resid, last = float(np.linalg.norm(r)), resid
        if resid > REFRESH_RATIO * last and not cache.built_for(op):
            solve = None  # let the stale factor go before the next is built
            solve = _positive_factor(op, lam, cache, rebuild=True)
    else:
        raise NonConvergenceError(f"eigensolver did not reach residual {tol} in {max_iter} "
                                  f"iterations (last residual {resid:.3e})")

    u = op.to_field(y)
    sign = -1.0 if grid.integrate(u.values) < 0 else 1.0
    u = Field(grid, sign * u.values / np.sqrt(u.norm_sq()))
    umin, umax = u.values.min(), u.values.max()
    if umin < -1e-8 * umax:
        raise PositivityError(
            f"computed ground state is not sign-definite (min {umin:.3e}, max {umax:.3e})"
        )
    return EigenResult(lam=lam, u=u, iterations=it, residual=resid, lu_solves=solves)
