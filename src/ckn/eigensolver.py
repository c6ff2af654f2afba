"""Lowest eigenpair of the weighted operator -Laplace - kappa V on the cylinder.

The discrete operator is the grid's: on the interior dofs (the first and
last rows, Dirichlet or zero-weight, and the zero-weight pole nodes
eliminated), the generalized problem K u = lambda M u is scaled by
M^(-1/2) into the standard symmetric one with matrix A = B - kappa V.
The grid applies it (`CylinderGrid.matvec`) and stores it in band form
for the factor (`CylinderGrid.band`); only the grid reads B's layout.
It is solved by block-size-1 LOPCG, Knyazev's locally optimal
preconditioned conjugate gradient (SIAM J. Sci. Comput. 23 (2001)
517-541): each step applies the preconditioner T once to the
residual r = A y - lambda y and takes the lowest Ritz pair of A on
span{y, T r, p}, p being the previous update direction.  y lies in that
span, so the Rayleigh quotient sequence is non-increasing -- the
fixed-point loop asserts exactly that.

T is LAPACK's banded Cholesky factor (dpbtrf) of a shifted operator, kept
in a SolverCache: every solve on one grid at one kappa shares it, so each
fixed-point solve builds one factor, for its first operator.  It is built
at lam - max(SHIFT_GAP, ||r||), lam and r the Rayleigh quotient and
residual in hand; some eigenvalue lies within ||r|| of lam
(Krylov-Weinstein), so a warm start puts the shift just below lambda_1,
where LOPCG converges fastest.  The shift is lowered while dpbtrf meets a
non-positive leading minor, so T is positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import NonConvergenceError, NormalizationError, PositivityError
from .lapack import dpbtrf, dpbtrs, dsyev
from .model import CylinderGrid, Field

SHIFT_GAP = 0.05
# a basis direction whose norm falls below DROP_RTOL times its norm before
# orthogonalization is numerically in the span of the others
DROP_RTOL = 1e-10


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
        """The layer trace's `U.nnz`: n - k stored entries on band diagonal k = 0..w."""
        w, n = len(self.cb) - 1, self.cb.shape[1]
        return SimpleNamespace(nnz=(w + 1) * n - w * (w + 1) // 2)
    L = U  # L = U^T stores as many


class SolverCache:
    """Banded Cholesky factor of a shifted operator: the LOPCG preconditioner.

    The factor costs n_s n_phi^3, a solve n_s n_phi^2.  It serves every
    solve on one grid at one kappa, so each fixed-point solve builds one,
    for its first operator.  `factorizations` counts every factor built,
    rejected ones included.
    """

    def __init__(self):
        self._factor = None
        self._key = None  # the grid and kappa of the factor
        self.factorizations = 0

    def preconditioner(self, grid: CylinderGrid, kappa: float, kv: np.ndarray, lam: float,
                       resid: float):
        """The solve with the factor of B - diag(kv) on grid, kv = kappa V on its dofs.
        A factor is kept for its grid and kappa; a new one is built at lam - max(SHIFT_GAP,
        resid), and at lower shifts while dpbtrf meets a non-positive leading minor: by
        Sylvester's law, while the shift is not below lambda_1."""
        if self._factor is not None and self._key[0] is grid and self._key[1] == kappa:
            return self._factor.solve
        self._factor = None  # let the old factor go before the next is built
        shift = lam - max(SHIFT_GAP, resid)
        for attempt in range(8):
            factor = _BandCholesky(grid.band(kv + shift))
            self.factorizations += 1
            if factor.info == 0:
                self._factor, self._key = factor, (grid, kappa)
                return factor.solve
            del factor  # let the rejected factor go before the next is built
            shift -= 2.0 * (attempt + 1)
        raise NonConvergenceError("shifted operator stayed indefinite")


def lowest_eigenpair(kappa: float, V: Field, grid: CylinderGrid, tol: float = 1e-9,
                     warm_start: Field | None = None, max_iter: int = 200,
                     cache: SolverCache | None = None) -> EigenResult:
    """Ground state of -Laplace - kappa V with unit weighted L2 norm, by the
    LOPCG iteration of the module docstring on the factor in `cache`.

    `warm_start` (a Field) is the previous iterate in fixed-point or
    continuation loops; reusing it typically cuts the steps to a handful.
    The returned Rayleigh quotient never exceeds the warm start's, which
    downstream monotonicity assertions rely on.
    """
    _check_potential(kappa, V, grid)
    if cache is None:
        cache = SolverCache()
    kv = kappa * grid.restrict(V.values)
    isq = 1.0 / np.sqrt(grid.m)
    if warm_start is None:
        warm_start = Field(grid, np.repeat(np.exp(-grid.s**2)[:, None], grid.n_phi, axis=1))
    # y = M^1/2 u on the dofs, unit norm
    y = grid.restrict(warm_start.values) / isq
    ny = np.linalg.norm(y)
    if ny == 0.0:
        raise ValueError("warm start is zero on the interior")
    y = y / ny

    Ay = grid.matvec(y, kv)
    lam = float(y @ Ay)
    r = Ay - lam * y
    resid = float(np.linalg.norm(r))
    solve = p = None
    solves = it = 0
    # the basis of span{y, T r, p} and its image under A, one column each
    Q = np.empty((y.size, 3), order="F")
    AQ = np.empty((y.size, 3), order="F")
    for it in range(1, max_iter + 1):
        if resid <= tol:
            break
        if solve is None:
            solve = cache.preconditioner(grid, kappa, kv, lam, resid)
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
                AQ[:, k] = grid.matvec(Q[:, k], kv)
                k += 1
        H = Q[:, :k].T @ AQ[:, :k]
        _, C, _ = dsyev(0.5 * (H + H.T))
        c = C[:, 0]
        p = Q[:, 1:k] @ c[1:]
        y = Q[:, :k] @ c
        ny = np.linalg.norm(y)
        y, p = y / ny, p / ny
        Ay = grid.matvec(y, kv)
        lam = float(y @ Ay)
        r = Ay - lam * y
        resid = float(np.linalg.norm(r))
    else:
        raise NonConvergenceError(f"eigensolver did not reach residual {tol} in {max_iter} "
                                  f"iterations (last residual {resid:.3e})")

    u = Field(grid, grid.embed(y * isq))
    sign = -1.0 if grid.integrate(u.values) < 0 else 1.0
    u = Field(grid, sign * u.values / np.sqrt(u.norm_sq()))
    umin, umax = u.values.min(), u.values.max()
    if umin < -1e-8 * umax:
        raise PositivityError(
            f"computed ground state is not sign-definite (min {umin:.3e}, max {umax:.3e})"
        )
    return EigenResult(lam=lam, u=u, iterations=it, residual=resid, lu_solves=solves)
