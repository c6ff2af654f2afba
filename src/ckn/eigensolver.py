"""Lowest eigenpair of the weighted operator -Laplace - kappa V on the cylinder.

The discrete operator is the one the grid assembled from the
staggered-difference energy form: on the interior dofs (Dirichlet rows at
s = +-L and the zero-weight pole nodes eliminated), the generalized problem
K u = lambda M u is scaled by M^(-1/2) into the standard symmetric one with
matrix B - kappa V, solved by shifted inverse power iteration (shift = current
Rayleigh quotient - 0.5) with a preconditioned conjugate-gradient inner
solve.  Every outer step is followed by a two-dimensional Rayleigh-Ritz
extraction on span{previous, new}, which makes the Rayleigh quotient
sequence non-increasing -- the fixed-point loop asserts exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NonConvergenceError, NormalizationError, PositivityError
from .model import CylinderGrid, Field

CG_RTOL = 1e-11


@dataclass
class EigenResult:
    """Converged lowest eigenpair: unit-norm nonnegative ground state."""

    lam: float
    u: Field
    iterations: int
    residual: float


class CylinderOperator:
    """Handle for -Laplace - kappa V in symmetric (mass-scaled) form."""

    def __init__(self, kappa: float, V: Field, grid: CylinderGrid):
        self.grid = grid
        self.kappa = kappa
        self.V = V
        self.isq = 1.0 / np.sqrt(grid.m)
        self.n = grid.m.size
        self.kv = kappa * grid.restrict(V.values) if kappa != 0.0 else np.zeros(self.n)

    def matvec(self, y: np.ndarray) -> np.ndarray:
        return self.grid.B @ y - self.kv * y

    def matrix(self, shift: float = 0.0) -> sp.csc_matrix:
        return (self.grid.B - sp.diags(self.kv + shift)).tocsc()

    def rayleigh(self, y: np.ndarray) -> float:
        return float(y @ self.matvec(y) / (y @ y))

    def to_field(self, y: np.ndarray) -> Field:
        return Field(self.grid, self.grid.embed(y * self.isq))

    def from_field(self, u: Field) -> np.ndarray:
        return self.grid.restrict(u.values) / self.isq

    def apply(self, u: Field) -> Field:
        """Pointwise action (M^-1 K - kappa V) u on the interior nodes."""
        g = self.grid
        act = g.action(u.values)
        if self.kappa != 0.0:
            act = act - self.kv * g.restrict(u.values)
        return Field(g, g.embed(act))


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
    """Reusable factorization preconditioning the shifted inner solves.

    The factorization uses symmetric mode (symmetric permutation, no
    pivoting), so applying it inside CG is a symmetric positive operation.
    One instance can be shared across fixed-point iterations and whole
    continuation runs; it is rebuilt for a new grid or when requested
    (typically because CG failed after the operator drifted).
    """

    def __init__(self):
        self._factor = None
        self._op = None
        self._shift = None

    def preconditioner(self, op: CylinderOperator, shift: float, rebuild: bool = False):
        if rebuild or self._factor is None or self._op.grid is not op.grid:
            self._factor = splu(
                op.matrix(shift), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0.0, options={"SymmetricMode": True},
            )
            self._op, self._shift = op, shift
        return self._factor.solve

    def built_for(self, op: CylinderOperator, shift: float) -> bool:
        """Whether the factor in hand was built for this operator and shift."""
        return self._factor is not None and self._op is op and self._shift == shift

    def invalidate(self):
        self._factor = None


def _pcg(op: CylinderOperator, shift: float, rhs: np.ndarray, x0: np.ndarray,
         rtol: float, max_iter: int, precond):
    """Preconditioned CG for (B - shift I) x = rhs.

    Returns (x, status).  status is "converged", "budget" when the
    iteration budget ran out, "indefinite" when a direction with
    p.(B - shift I)p <= 0 proves the shifted matrix indefinite, or
    "preconditioner" when r.z <= 0 shows the factor is not positive
    definite; x is None for the last two.
    """
    x = x0.copy()
    r = rhs - (op.matvec(x) - shift * x)
    bnorm = float(np.linalg.norm(rhs))
    if bnorm == 0.0:
        return x, "converged"
    z = precond(r)
    pvec = z.copy()
    rz = float(r @ z)
    if rz <= 0.0:
        return None, "preconditioner"
    for _ in range(max_iter):
        if np.linalg.norm(r) <= rtol * bnorm:
            return x, "converged"
        Ap = op.matvec(pvec) - shift * pvec
        pAp = float(pvec @ Ap)
        if pAp <= 0.0:
            return None, "indefinite"
        alpha = rz / pAp
        x += alpha * pvec
        r -= alpha * Ap
        z = precond(r)
        rz_new = float(r @ z)
        if rz_new <= 0.0:
            return None, "preconditioner"
        pvec = z + (rz_new / rz) * pvec
        rz = rz_new
    return x, "budget"


def _inner_solve(op: CylinderOperator, shift: float, rhs: np.ndarray, x0: np.ndarray,
                 rtol: float, cache: SolverCache):
    """Solve (B - shift I) x = rhs; None when the shifted matrix is indefinite.

    A failure with a stale cached factor (built for an earlier operator or
    shift) is retried once with a fresh factor.  There is no retry when CG
    proved the shifted matrix indefinite or the factor is already this
    matrix's: a fresh factor would change nothing, so that is None at once.
    """
    x, status = _pcg(op, shift, rhs, x0, rtol, 200, cache.preconditioner(op, shift))
    if status == "converged":
        return x
    if status == "indefinite" or cache.built_for(op, shift):
        return None
    x, status = _pcg(op, shift, rhs, x0 if x is None else x, rtol, 200,
                     cache.preconditioner(op, shift, rebuild=True))
    if status == "converged":
        return x
    if status != "budget":
        return None
    raise NonConvergenceError("inner CG stalled even with a fresh factorization")


def _default_start(op: CylinderOperator) -> np.ndarray:
    g = op.grid
    blob = np.exp(-g.s**2)[:, None] * np.ones(g.n_phi)[None, :]
    y = g.restrict(blob) / op.isq
    return y / np.linalg.norm(y)


def lowest_eigenpair(kappa: float, V: Field, grid: CylinderGrid, tol: float = 1e-9,
                     warm_start: Field | None = None, max_iter: int = 200,
                     cg_rtol: float = CG_RTOL, cache: SolverCache | None = None) -> EigenResult:
    """Ground state of -Laplace - kappa V with unit weighted L2 norm.

    `warm_start` (a Field) is the previous iterate in fixed-point or
    continuation loops; reusing it typically cuts the outer iterations to
    a handful.  The returned Rayleigh quotient never exceeds the warm
    start's, which downstream monotonicity assertions rely on.
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

    lam = op.rayleigh(y)
    resid = float(np.linalg.norm(op.matvec(y) - lam * y))
    it = 0
    for it in range(1, max_iter + 1):
        if resid <= tol:
            break
        sigma = lam - 0.5
        x = None
        for attempt in range(8):
            x = _inner_solve(op, sigma, y, y / max(lam - sigma, 1e-3), cg_rtol, cache)
            if x is not None:
                break
            sigma -= 2.0 * (attempt + 1)
            cache.invalidate()
        if x is None:
            raise NonConvergenceError("inner CG failed: shifted operator stayed indefinite")

        # Rayleigh-Ritz on span{y, x}: optimal combination, monotone quotient.
        # Near convergence the orthogonalized correction drowns in projection
        # roundoff, so switch to the plain (also monotone) inverse step.
        q1 = y
        v = x - (x @ q1) * q1
        v -= (v @ q1) * q1
        nv = np.linalg.norm(v)
        if nv > 1e-6 * np.linalg.norm(x):
            q2 = v / nv
            b1, b2 = op.matvec(q1), op.matvec(q2)
            H = np.array([[q1 @ b1, q1 @ b2], [q2 @ b1, q2 @ b2]])
            w, U = np.linalg.eigh(H)
            y = U[0, 0] * q1 + U[1, 0] * q2
        else:
            y = x
        y = y / np.linalg.norm(y)
        lam = op.rayleigh(y)
        resid = float(np.linalg.norm(op.matvec(y) - lam * y))
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
    return EigenResult(lam=lam, u=u, iterations=it, residual=resid)
