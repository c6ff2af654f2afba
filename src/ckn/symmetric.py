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

from .errors import SymmetricStableError
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
    """Invert kappa = Z(mu)^((p-2)/p) on the symmetric family (closed form)."""
    p = params.p
    m = 2.0 * p / (p - 2.0)
    c = (0.5 * p) ** (p / (p - 2.0)) * _sech_moment(m) * 2.0 / (p - 2.0)
    if params.measure_mode == "surface":
        c *= sphere_area(params.d)
    Z = kappa ** (p / (p - 2.0))
    return (Z / c) ** (2.0 * (p - 2.0) / (p + 2.0))


def _transverse_operator_1d(mu: float, params: ProblemParams, grid: CylinderGrid):
    """Tridiagonal FD matrix of -d2/ds2 + mu + d-1 - (p-1) u_sym^(p-2).

    Dirichlet at s = +-L; rows cover the interior s nodes of `grid`.
    Returned in (diag, offdiag) form.
    """
    s = grid.s[1:-1]
    h = grid.h_s
    sol = soliton(mu, params.p)
    pot = mu + params.d - 1.0 - (params.p - 1.0) * sol.u(s) ** (params.p - 2.0)
    diag = 2.0 / h**2 + pot
    off = np.full(len(s) - 1, -1.0 / h**2)
    return diag, off


def _ground_state_tridiag(diag: np.ndarray, off: np.ndarray, tol: float = 1e-12,
                          max_iter: int = 200):
    """Lowest eigenpair of a symmetric tridiagonal matrix by inverse iteration."""
    n = len(diag)
    x = np.exp(-np.linspace(-3.0, 3.0, n) ** 2)
    x /= np.linalg.norm(x)

    def matvec(v):
        out = diag * v
        out[:-1] += off * v[1:]
        out[1:] += off * v[:-1]
        return out

    lam = float(x @ matvec(x))
    sigma = float(np.min(diag)) - 1.0
    for _ in range(max_iter):
        ab = np.zeros((3, n))
        ab[0, 1:] = off
        ab[1] = diag - sigma
        ab[2, :-1] = off
        y = solve_banded((1, 1), ab, x)
        y /= np.linalg.norm(y)
        lam = float(y @ matvec(y))
        r = matvec(y) - lam * y
        x = y
        if np.linalg.norm(r) <= tol * (1.0 + abs(lam)):
            break
        sigma = lam - 0.5
    if x.sum() < 0:
        x = -x
    return lam, x


def transverse_mode(mu: float, params: ProblemParams, grid: CylinderGrid):
    """Ground state of the transverse linearization and its eigenvalue.

    Returns (lam1, w) where w(s, phi) = phi1(s) cos(phi) is normalized to
    unit weighted L2 norm on `grid`.  lam1 approximates d-1+mu-mu p^2/4.
    """
    diag, off = _transverse_operator_1d(mu, params, grid)
    lam1, x = _ground_state_tridiag(diag, off)
    phi1 = np.zeros(grid.n_s)
    phi1[1:-1] = x
    w = Field(grid, phi1[:, None] * np.cos(grid.phi)[None, :])
    nrm = math.sqrt(w.norm_sq())
    return lam1, Field(grid, w.values / nrm)


def descent_direction(mu: float, params: ProblemParams, grid: CylinderGrid) -> Field:
    """Unit-norm direction along which the soliton is a saddle (mu > mu_FS).

    Raises SymmetricStableError when the transverse linearization has no
    negative eigenvalue, i.e. when mu <= mu_FS.
    """
    lam1, w = transverse_mode(mu, params, grid)
    if lam1 >= 0:
        raise SymmetricStableError(
            f"transverse eigenvalue {lam1:.6g} is nonnegative: "
            f"mu = {mu} does not exceed mu_FS = {mu_FS(params.p, params.d):.6g}"
        )
    return w
