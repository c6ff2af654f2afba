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
from scipy.linalg import solve_banded

from .errors import NonConvergenceError
from .model import CylinderGrid, Field, ProblemParams, sphere_area


def mu_FS(p: float, d: int) -> float:
    """Threshold 4(d-1)/(p^2-4) where the symmetric branch loses stability."""
    if p <= 2:
        raise ValueError(f"p must exceed 2, got {p}")
    den = p * p - 4.0
    if den == 0.0:
        return math.inf
    return 4.0 * (d - 1) / den


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


def _banded_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = ab[1] * v
    out[:-1] += ab[0, 1:] * v[1:]
    out[1:] += ab[2, :-1] * v[:-1]
    return out


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


def discrete_soliton(kappa: float, params: ProblemParams, grid: CylinderGrid):
    """Angular-constant critical point of the grid functional at level kappa.

    On fields constant in phi the grid operator reduces exactly to one
    dimension: no phi-edge carries a difference, so M^-1 K u is the folded
    grid's s-operator (`CylinderGrid.s_operator` of `grid.even`) on its dof
    rows, and Z = W sum ws |v|^p with W the angular total.  The folded
    grid holds the even profiles only, so the nearly singular odd
    (translation) mode never enters.  A bordered Newton iteration in
    (v, mu) solves -v'' + mu v = |v|^(p-2) v together with
    ((p-2)/p) log Z = log kappa, starting from the closed-form soliton.

    Returns (mu, v) with v the nodal s-profile on `grid`, zero at s = +-L.
    Raises NonConvergenceError when the relative update does not fall
    below 1e-10 within 50 steps (3 to 5 suffice on the grids in use).
    """
    p = params.p
    half = grid.even
    wm = half.angular_total * half.ws[1:-1]
    mu = mu_from_kappa_sym(kappa, params)
    v = soliton(mu, p).u(half.s[1:-1])
    lap = half.s_operator()
    for _ in range(50):
        a = np.abs(v) ** (p - 2.0)
        F = _banded_matvec(lap, v) + (mu - a) * v
        Z = wm @ np.abs(v) ** p
        g = (p - 2.0) / p * math.log(Z) - math.log(kappa)
        grad = (p - 2.0) * wm * a * v / Z
        jac = lap.copy()
        jac[1] += mu - (p - 1.0) * a
        x = solve_banded((1, 1), jac, np.column_stack([F, v]))
        dmu = (g - grad @ x[:, 0]) / (grad @ x[:, 1])
        dv = -x[:, 0] - dmu * x[:, 1]
        v = v + dv
        mu = mu + dmu
        if not (np.all(np.isfinite(v)) and math.isfinite(mu) and mu > 0):
            break
        if np.max(np.abs(dv)) <= 1e-10 * np.max(np.abs(v)) and abs(dmu) <= 1e-10 * mu:
            prof = np.zeros(half.n_s)
            prof[1:-1] = v
            u = grid.unfold(Field(half, np.repeat(prof[:, None], grid.n_phi, axis=1)))
            return mu, u.values[:, 0]
    raise NonConvergenceError(
        f"symmetric reference Newton did not converge at kappa = {kappa:.10g}")
