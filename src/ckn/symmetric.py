"""Closed-form symmetric soliton, its norms, and the transverse linearization.

The s-only positive solution of -u'' + mu u = u^(p-1) is explicit,
u(s) = A cosh(b s)^(-2/(p-2)) with A = (mu p / 2)^(1/(p-2)) and
b = sqrt(mu) (p-2)/2.  All its norms reduce to Gamma-function integrals,
which makes this module the reference oracle for everything grid-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError
from .lapack import dgtsv
from .model import CylinderGrid, Field, ProblemParams, banded_matvec, sphere_area


def mu_FS(p: float, d: int) -> float:
    """Threshold 4(d-1)/(p^2-4) where the symmetric branch loses stability."""
    if p <= 2:
        raise ValueError(f"p must exceed 2, got {p}")
    return 4.0 * (d - 1) / (p * p - 4.0)


def lambda1_H(mu: float, p: float, d: int) -> float:
    """Lowest eigenvalue d - 1 + mu - mu p^2/4 of the transverse linearization."""
    return d - 1.0 + mu - 0.25 * mu * p * p


@dataclass(frozen=True)
class SymmetricSolution:
    """The explicit symmetric critical point at parameter mu."""

    mu: float
    p: float
    A: float
    b: float

    def u(self, s):
        return self.A * np.cosh(self.b * np.asarray(s, dtype=float)) ** (-2.0 / (self.p - 2.0))

    def du(self, s):
        s = np.asarray(s, dtype=float)
        return -(2.0 * self.b / (self.p - 2.0)) * self.u(s) * np.tanh(self.b * s)

    def d2u(self, s):
        s = np.asarray(s, dtype=float)
        c = 2.0 * self.b / (self.p - 2.0)
        t = np.tanh(self.b * s)
        return self.u(s) * (c * c * t * t - c * self.b * (1.0 - t * t))

    def ode_residual(self, s):
        """Pointwise -u'' + mu u - u^(p-1); zero for the exact solution."""
        return -self.d2u(s) + self.mu * self.u(s) - self.u(s) ** (self.p - 1.0)

    def sample(self, grid: CylinderGrid) -> Field:
        return Field(grid, np.repeat(self.u(grid.s)[:, None], grid.n_phi, axis=1))


def soliton(mu, p: float) -> SymmetricSolution:
    """The soliton at mu; an array of mu gives arrays A and b (for `soliton_norms`)."""
    if np.any(np.asarray(mu) <= 0):
        raise ValueError(f"mu must be positive, got {mu}")
    if p <= 2:
        raise ValueError(f"p must exceed 2, got {p}")
    A = (0.5 * mu * p) ** (1.0 / (p - 2.0))
    b = np.sqrt(mu) * (p - 2.0) / 2.0
    return SymmetricSolution(mu=mu, p=p, A=A, b=b)


def _sech_moment(m: float) -> float:
    """int sech^m over R via log-Gamma, stable for large m."""
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(0.5 * m) - math.lgamma(0.5 * (m + 1.0)))


def soliton_norms(mu, p: float, d: int, measure_mode: str = "surface"):
    """Exact (X, Y, Z) of the soliton on the cylinder, elementwise in mu.

    Per unit angular measure Z = A^p I_m / b with m = 2p/(p-2); the first
    integrals of the ODE give X = Z (p-2)/(2p) and Y = Z (p+2)/(2 p mu).
    Surface mode multiplies all three by |S^{d-1}|.  mu may be a scalar or
    an array.
    """
    mu = np.asarray(mu, dtype=float)
    sol = soliton(mu, p)
    m = 2.0 * p / (p - 2.0)
    Z = sol.A**p * _sech_moment(m) / sol.b
    X = Z * (p - 2.0) / (2.0 * p)
    Y = Z * (p + 2.0) / (2.0 * p * mu)
    if measure_mode == "surface":
        area = sphere_area(d)
        X, Y, Z = X * area, Y * area, Z * area
    return X, Y, Z


def critical_value_sym(mu: float, params: ProblemParams) -> float:
    """Z^((p-2)/p) of the soliton, the theta = 1 critical level."""
    _, _, Z = soliton_norms(mu, params.p, params.d, params.measure_mode)
    return Z ** ((params.p - 2.0) / params.p)


def mu_from_kappa_sym(kappa: float, params: ProblemParams) -> float:
    """Invert kappa = Z(mu)^((p-2)/p) through the power law Z(mu) = Z(1) mu^((p+2)/(2(p-2)))."""
    p = params.p
    _, _, Z1 = soliton_norms(1.0, p, params.d, params.measure_mode)
    return (kappa ** (p / (p - 2.0)) / Z1) ** (2.0 * (p - 2.0) / (p + 2.0))


def transverse_mode(mu: float, params: ProblemParams, grid: CylinderGrid):
    """Ground state of the transverse linearization and its eigenvalue.

    -d2/ds2 + mu + d-1 - (p-1) u_sym^(p-2) has the ground state u_sym^(p/2)
    with eigenvalue lambda1_H(mu, p, d).  Returns (lam1, w) where
    w(s, phi) = u_sym(s)^(p/2) cos(phi) is normalized to unit weighted L2
    norm on `grid`.
    """
    phi1 = soliton(mu, params.p).u(grid.s) ** (0.5 * params.p)
    w = Field(grid, phi1[:, None] * np.cos(grid.phi)[None, :])
    nrm = math.sqrt(w.norm_sq())
    return lambda1_H(mu, params.p, params.d), Field(grid, w.values / nrm)


def discrete_soliton(kappa, params: ProblemParams, grid: CylinderGrid):
    """Angular-constant critical points of the grid functional at the levels kappa.

    On fields constant in phi the grid operator reduces exactly to one
    dimension: no phi-edge carries a difference, so M^-1 K u is the folded
    grid's s-operator (`CylinderGrid.s_operator` of `grid.even`) on its dof
    rows, and Z = W sum ws |v|^p with W the angular mass.  The folded
    grid holds the even profiles only, so the nearly singular odd
    (translation) mode never enters.  A bordered Newton iteration in
    (v, mu) solves -v'' + mu v = |v|^(p-2) v together with
    ((p-2)/p) log Z = log kappa, starting from the closed-form soliton.

    kappa may be a scalar or an array.  Each Newton step stacks the
    kappas' tridiagonal systems as the blocks of one, coupled by zeros,
    and solves it for both right-hand sides by one `dgtsv` call; gtsv
    swaps rows only when |dl| > |d|, so it eliminates each block as it
    would alone.  A kappa leaves the solve once its relative update in v
    and in mu is below 1e-10 (3 to 5 steps on the grids in use).

    Returns (mu, v): mu of kappa's shape, v one profile on `grid.even`'s
    n_s nodes per kappa, zero on the mirror row and at s = L.  Raises
    NonConvergenceError at the first failure (a singular block, an
    iterate not finite or with mu <= 0, no convergence in 50 steps),
    naming the kappa, the first in array order when several fail at once.
    """
    p = params.p
    half = grid.even
    ks = np.asarray(kappa, dtype=float).ravel()
    wm = half.wphi.sum() * half.ws[1:-1]
    lap = half.s_operator()
    n = lap.shape[1]
    mu = mu_from_kappa_sym(ks, params)
    v = soliton(mu[:, None], p).u(half.s[1:-1])
    # the stacked off-diagonals, zero between blocks
    upper = np.tile(np.append(lap[0, 1:], 0.0), ks.size)
    lower = np.tile(np.append(lap[2, :-1], 0.0), ks.size)

    def fail(i, why):
        return NonConvergenceError(f"discrete soliton Newton {why} at kappa = {ks[i]:.10g}")

    act = np.arange(ks.size)  # the kappas still in the solve
    for _ in range(50):
        if not act.size:
            break
        va, ma = v[act], mu[act]
        a = np.abs(va) ** (p - 2.0)
        F = banded_matvec(lap, va) + (ma[:, None] - a) * va
        Z = np.abs(va) ** p @ wm
        g = (p - 2.0) / p * np.log(Z) - np.log(ks[act])
        grad = (p - 2.0) * wm * a * va / Z[:, None]
        m = act.size * n
        *_, x, info = dgtsv(lower[:m - 1], (lap[1] + ma[:, None] - (p - 1.0) * a).ravel(),
                            upper[:m - 1], np.column_stack([F.ravel(), va.ravel()]))
        if info > 0:
            raise fail(act[(info - 1) // n], "met a singular Jacobian")
        x = x.reshape(act.size, n, 2)
        dmu = (g - np.einsum("kn,kn->k", grad, x[..., 0])) / np.einsum("kn,kn->k", grad, x[..., 1])
        dv = -x[..., 0] - dmu[:, None] * x[..., 1]
        v[act] = va = va + dv
        mu[act] = ma = ma + dmu
        # a non-finite block would reach its neighbours through the next
        # back substitution, so it stops the solve here
        bad = ~(np.all(np.isfinite(va), axis=1) & np.isfinite(ma) & (ma > 0))
        if bad.any():
            raise fail(act[bad][0], "left the positive finite iterates")
        moving = ((np.max(np.abs(dv), axis=1) > 1e-10 * np.max(np.abs(va), axis=1))
                  | (np.abs(dmu) > 1e-10 * ma))
        act = act[moving]
    if act.size:
        raise fail(act[0], "did not converge")
    prof = np.zeros((ks.size, half.n_s))
    prof[:, 1:-1] = v
    shape = np.shape(kappa)
    return mu.reshape(shape)[()], prof.reshape(shape + (half.n_s,))
