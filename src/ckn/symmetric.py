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


def soliton(mu: float, p: float) -> SymmetricSolution:
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if p <= 2:
        raise ValueError(f"p must exceed 2, got {p}")
    A = (0.5 * mu * p) ** (1.0 / (p - 2.0))
    b = math.sqrt(mu) * (p - 2.0) / 2.0
    return SymmetricSolution(mu=mu, p=p, A=A, b=b)


def _sech_moment(m: float) -> float:
    """int sech^m over R via log-Gamma, stable for large m."""
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(0.5 * m) - math.lgamma(0.5 * (m + 1.0)))


def soliton_norms(mu: float, p: float, d: int, measure_mode: str = "surface"):
    """Exact (X, Y, Z) of the soliton on the cylinder.

    Per unit angular measure Z = A^p I_m / b with m = 2p/(p-2); the first
    integrals of the ODE give X = Z (p-2)/(2p) and Y = Z (p+2)/(2 p mu).
    Surface mode multiplies all three by |S^{d-1}|.
    """
    sol = soliton(mu, p)
    m = 2.0 * p / (p - 2.0)
    Z = sol.A**p * _sech_moment(m) / sol.b
    X = Z * (p - 2.0) / (2.0 * p)
    Y = Z * (p + 2.0) / (2.0 * p * mu)
    if measure_mode == "surface":
        area = sphere_area(d)
        X, Y, Z = X * area, Y * area, Z * area
    return X, Y, Z


def t_symmetric(mu: float, p: float) -> float:
    """Dirichlet-to-mass ratio X/Y = mu (p-2)/(p+2) of the soliton."""
    return mu * (p - 2.0) / (p + 2.0)


def lambda_sym_theta(mu, theta: float, p: float):
    """Curve parameter theta*mu - (1-theta)*t of the symmetric family."""
    return np.asarray(mu) * (theta - (1.0 - theta) * (p - 2.0) / (p + 2.0))


def J_sym_theta(mu: float, theta: float, params: ProblemParams) -> float:
    """Quotient value of the soliton at its own curve parameter."""
    p = params.p
    _, Y, Z = soliton_norms(mu, p, params.d, params.measure_mode)
    return theta**theta * Z**theta * Y ** (1.0 - theta) / Z ** (2.0 / p)


def critical_value_sym(mu: float, params: ProblemParams) -> float:
    """Z^((p-2)/p) of the soliton, the theta = 1 critical level."""
    _, _, Z = soliton_norms(mu, params.p, params.d, params.measure_mode)
    return Z ** ((params.p - 2.0) / params.p)


def mu_from_kappa_sym(kappa: float, params: ProblemParams) -> float:
    """Invert kappa = Z(mu)^((p-2)/p) through the power law Z(mu) = Z(1) mu^((p+2)/(2(p-2)))."""
    p = params.p
    _, _, Z1 = soliton_norms(1.0, p, params.d, params.measure_mode)
    return (kappa ** (p / (p - 2.0)) / Z1) ** (2.0 * (p - 2.0) / (p + 2.0))


def _schrodinger_1d(pot: np.ndarray, h: float) -> np.ndarray:
    """Three-point -d2/ds2 + pot on the interior s nodes, Dirichlet at s = +-L.

    Returned in the (1, 1) banded layout of scipy.linalg.solve_banded.
    """
    ab = np.empty((3, len(pot)))
    ab[0] = ab[2] = -1.0 / h**2
    ab[1] = 2.0 / h**2 + pot
    return ab


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
    dimension: the angular part of K vanishes and the interior mass is
    ws_i wphi_j, so M^-1 K u is the three-point -d2/ds2 on the interior s
    nodes, and Z = W h sum |v|^p with W the angular total.  A bordered
    Newton iteration in (v, mu) solves -v'' + mu v = |v|^(p-2) v together
    with ((p-2)/p) log Z = log kappa, starting from the closed-form
    soliton.  Both solves of a step are symmetrized under s -> -s, which
    removes the nearly singular odd (translation) mode.

    Returns (mu, v) with v the nodal s-profile, zero at s = +-L.  Raises
    NonConvergenceError when the relative update does not fall below 1e-10
    within 50 steps (3 to 5 suffice on the grids in use).
    """
    p = params.p
    h = grid.h_s
    wh = grid.angular_total * h
    mu = mu_from_kappa_sym(kappa, params)
    v = soliton(mu, p).u(grid.s[1:-1])
    v = 0.5 * (v + v[::-1])
    for _ in range(50):
        a = np.abs(v) ** (p - 2.0)
        F = _banded_matvec(_schrodinger_1d(mu - a, h), v)
        Z = wh * np.sum(np.abs(v) ** p)
        g = (p - 2.0) / p * math.log(Z) - math.log(kappa)
        grad = (p - 2.0) * wh * a * v / Z
        x = solve_banded((1, 1), _schrodinger_1d(mu - (p - 1.0) * a, h), np.column_stack([F, v]))
        x = 0.5 * (x + x[::-1])
        dmu = (g - grad @ x[:, 0]) / (grad @ x[:, 1])
        dv = -x[:, 0] - dmu * x[:, 1]
        v = v + dv
        mu = mu + dmu
        if not (np.all(np.isfinite(v)) and math.isfinite(mu) and mu > 0):
            break
        if np.max(np.abs(dv)) <= 1e-10 * np.max(np.abs(v)) and abs(dmu) <= 1e-10 * mu:
            out = np.zeros(grid.n_s)
            out[1:-1] = v
            return mu, out
    raise NonConvergenceError(
        f"symmetric reference Newton did not converge at kappa = {kappa:.10g}")
