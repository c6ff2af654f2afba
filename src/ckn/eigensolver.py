"""Lowest eigenpair of the weighted operator -Laplace - kappa V on the cylinder.

The discrete operator is the one the grid assembled from the
staggered-difference energy form: on the interior dofs (Dirichlet rows at
s = +-L and the zero-weight pole nodes eliminated), the generalized problem
K u = lambda M u is scaled by M^(-1/2) into the standard symmetric one with
matrix A = B - kappa V.  It is solved by block-size-1 LOPCG, Knyazev's
locally optimal preconditioned conjugate gradient (SIAM J. Sci. Comput. 23
(2001) 517-541): each step applies the preconditioner T once to the
residual r = A y - lambda y and takes the lowest Ritz pair of A on
span{y, T r, p}, p being the previous update direction.  y lies in that
span, so the Rayleigh quotient sequence is non-increasing -- the
fixed-point loop asserts exactly that.

T is a sparse LU factor of a shifted operator, kept in a SolverCache and
shared by every solve on the grid.  It is built at the Rayleigh quotient
minus SHIFT_GAP; its pivots count the eigenvalues below the shift, and the
shift is lowered until none is negative, so T is positive definite.  A
factor built for an earlier operator degrades as the operator drifts, so a
step that keeps more than REFRESH_RATIO of the residual on such a stale
factor rebuilds it once for the current operator.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NonConvergenceError, NormalizationError, PositivityError
from .model import CylinderGrid, Field

SHIFT_GAP = 0.5
# a basis direction whose norm falls below DROP_RTOL times its norm before
# orthogonalization is numerically in the span of the others
DROP_RTOL = 1e-10
# a step that keeps more than this fraction of the residual on a stale
# factor rebuilds it for the current operator
REFRESH_RATIO = 0.8

try:  # glibc: hands freed heap pages back to the OS
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


@dataclass
class EigenResult:
    """Converged lowest eigenpair: unit-norm nonnegative ground state.

    `iterations` counts the LOPCG steps plus the final residual check,
    `lu_solves` the preconditioner applications (one per step).
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
        return self.grid.B @ y - self.kv * y

    def matrix(self, shift: float = 0.0) -> sp.csc_matrix:
        return (self.grid.B - sp.diags(self.kv + shift)).tocsc()

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


class SolverCache:
    """Sparse LU factor of a shifted operator: the LOPCG preconditioner.

    The factorization uses symmetric mode (symmetric permutation, no
    pivoting), so it is an LDL^T factorization in disguise: the diagonal of
    U holds the pivots, and by Sylvester's law of inertia the number of
    negative ones, `negative_pivots`, is the number of eigenvalues of the
    factored operator below the shift.  One instance is shared across
    fixed-point iterations and whole continuation runs, so the factor
    usually serves operators other than the one it was built for; it is
    rebuilt for a new grid or on request (a shift that left a negative
    pivot, or convergence slowed on a stale factor).
    """

    def __init__(self):
        self._factor = None
        self._op = None
        self.negative_pivots = 0

    def preconditioner(self, op: CylinderOperator, shift: float, rebuild: bool = False):
        if rebuild or self._factor is None or self._op.grid is not op.grid:
            # hand the old factor's pages back, or each rebuild grows the process
            self._factor = None
            if _malloc_trim is not None:
                _malloc_trim(0)
            self._factor = splu(
                op.matrix(shift), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True},
            )
            self._op = op
            self.negative_pivots = int(np.count_nonzero(self._factor.U.diagonal() < 0.0))
        return self._factor.solve

    def built_for(self, op: CylinderOperator) -> bool:
        """Whether the factor in hand was built for this operator."""
        return self._factor is not None and self._op is op


def _positive_factor(op: CylinderOperator, lam: float, cache: SolverCache, rebuild: bool):
    """The cache's solve; a factor built here is built at lam - SHIFT_GAP and
    refactored at lower shifts while a pivot is negative."""
    shift = lam - SHIFT_GAP
    for attempt in range(8):
        solve = cache.preconditioner(op, shift, rebuild)
        if cache.negative_pivots == 0:
            return solve
        # drop the rejected factor before the next one is built
        solve = None
        shift -= 2.0 * (attempt + 1)
        rebuild = True
    raise NonConvergenceError("shifted operator stayed indefinite")


def _default_start(op: CylinderOperator) -> np.ndarray:
    g = op.grid
    blob = np.exp(-g.s**2)[:, None] * np.ones(g.n_phi)[None, :]
    y = g.restrict(blob) / op.isq
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
    solve = None
    p = None
    solves = 0
    it = 0
    for it in range(1, max_iter + 1):
        if resid <= tol:
            break
        if solve is None:
            solve = _positive_factor(op, lam, cache, rebuild=False)
        w = solve(r)
        solves += 1
        # orthonormal basis of span{y, T r, p}: a direction that is (numerically)
        # in the span of the others is dropped, judged relative to its own norm
        Q = y[:, None]
        for v in (w, p):
            if v is None:
                continue
            nv0 = np.linalg.norm(v)
            for _ in range(2):
                v = v - Q @ (Q.T @ v)
            nv = np.linalg.norm(v)
            if nv > DROP_RTOL * nv0:
                Q = np.column_stack([Q, v / nv])
        AQ = np.column_stack([Ay] + [op.matvec(q) for q in Q.T[1:]])
        H = Q.T @ AQ
        _, C = np.linalg.eigh(0.5 * (H + H.T))
        c = C[:, 0]
        p = Q[:, 1:] @ c[1:]
        y = Q @ c
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
        raise NonConvergenceError(
            f"eigensolver did not reach residual {tol} in {max_iter} iterations "
            f"(last residual {resid:.3e})"
        )

    u = op.to_field(y)
    if grid.integrate(u.values) < 0:
        u = Field(grid, -u.values)
    nrm = np.sqrt(u.norm_sq())
    u = Field(grid, u.values / nrm)
    umin, umax = u.values.min(), u.values.max()
    if umin < -1e-8 * umax:
        raise PositivityError(
            f"computed ground state is not sign-definite (min {umin:.3e}, max {umax:.3e})"
        )
    return EigenResult(lam=lam, u=u, iterations=it, residual=resid, lu_solves=solves)
