"""Alternating eigen-solve / potential-update iteration at fixed kappa.

Each step solves for the ground state of -Laplace - kappa V, then replaces
V by |u|^(p-2) / ||u||_p^(p-2).  The eigenvalue sequence is non-increasing
(the update maximizes the potential energy over unit q-norm potentials),
which is checked at runtime (MonotonicityError).  At convergence
mu = -lambda and the rescaled iterate solves -Laplace u + mu u = u^(p-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityError, NonConvergenceError, NormalizationError
from .model import CylinderGrid, Field, ProblemParams
from .eigensolver import SolverCache, lowest_eigenpair, q_norm

MONOTONE_SLACK = 1e-12
SELF_CONSISTENCY_TOL = 1e-8


def self_potential(u: Field) -> Field:
    """Unit q-norm potential |u|^(p-2) / ||u||_p^(p-2) generated by u."""
    g = u.grid
    p = g.p
    Z = g.integrate(np.abs(u.values) ** p)
    if Z <= 0:
        raise ValueError("cannot build a potential from the zero field")
    return Field(g, np.abs(u.values) ** (p - 2.0) / Z ** ((p - 2.0) / p))


def rescale_to_eqmu(u: Field, kappa: float) -> Field:
    """Scale u so it solves -Laplace w + mu w = w^(p-1).

    The input solves the kappa-normalized limit equation; multiplying by
    c with c^(p-2) = kappa / ||u||_p^(p-2) removes the kappa factor.
    """
    g = u.grid
    p = g.p
    Z = g.integrate(np.abs(u.values) ** p)
    if Z <= 0:
        raise ValueError("cannot rescale the zero field")
    c = (kappa / Z ** ((p - 2.0) / p)) ** (1.0 / (p - 2.0))
    return Field(g, c * u.values)


def critical_value(u_eq: Field, mu: float) -> float:
    """Critical level ||u||_p^(p-2) = Z^((p-2)/p) of a solution of the
    mu-equation; identical to its quotient at Lambda = mu, theta = 1."""
    g = u_eq.grid
    Z = g.integrate(np.abs(u_eq.values) ** g.p)
    return Z ** ((g.p - 2.0) / g.p)


def eqmu_residual(u_eq: Field, mu: float) -> float:
    """Weighted L2 norm of -Laplace u + mu u - u^(p-1) on the interior."""
    g = u_eq.grid
    u = g.restrict(u_eq.values)
    r = g.action(u_eq.values) + mu * u - np.abs(u) ** (g.p - 1.0)
    return float(np.sqrt(np.sum(g.m * r**2)))


@dataclass
class FixedPointResult:
    """One converged critical point of the kappa-normalized problem."""

    kappa: float
    mu: float
    u: Field
    u_eq: Field
    V: Field
    lambda_history: np.ndarray
    converged: bool
    mu_positive: bool
    iterations: int
    eigen_iterations: int = 0


def roothan_solve(kappa: float, V0: Field, grid: CylinderGrid, params: ProblemParams,
                  max_iter: int = 200, tol: float = 1e-10,
                  warm_start: Field | None = None,
                  eigen_tol: float = 1e-9, cache: SolverCache | None = None) -> FixedPointResult:
    """Iterate eigen-solve and potential update to a critical point.

    Convergence needs both a relative eigenvalue increment below `tol` and
    a potential increment below sqrt(tol) in q-norm; iterations continue
    until the converged potential is self-consistent to 1e-8.  A result
    with mu = -lambda <= 0 is returned but flagged unusable for branch
    points (solutions of the mu-equation need mu > 0 to decay).
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    nq = q_norm(V0)
    if abs(nq - 1.0) > 1e-8:
        raise NormalizationError(f"V0 q-norm is {nq}, expected 1 within 1e-8")
    if cache is None:
        cache = SolverCache()

    V = V0
    u_prev = warm_start
    history: list[float] = []
    eig_total = 0
    converged = False
    res = None
    for _ in range(max_iter):
        res = lowest_eigenpair(kappa, V, grid, tol=eigen_tol, warm_start=u_prev, cache=cache)
        eig_total += res.iterations
        lam = res.lam
        if history and lam > history[-1] + MONOTONE_SLACK:
            raise MonotonicityError(
                f"eigenvalue sequence increased: {history[-1]} -> {lam}"
            )
        history.append(lam)
        u_prev = res.u

        V_self = self_potential(res.u)
        dV = q_norm(Field(grid, V_self.values - V.values))
        dlam = abs(history[-1] - history[-2]) if len(history) > 1 else np.inf
        if dlam <= tol * (1.0 + abs(lam)) and dV <= np.sqrt(tol) and dV <= SELF_CONSISTENCY_TOL:
            converged = True
            break
        V = V_self

    if res is None:
        raise NonConvergenceError("roothan_solve made no iterations")

    mu = -history[-1]
    hist = np.asarray(history)
    # Sanity: a monotone sequence converging to -mu never dips below it by much.
    if hist.min() < -abs(mu) - 1.0:
        raise MonotonicityError(
            f"eigenvalue history {hist.min()} broke its lower bound {-abs(mu) - 1.0}")

    u_eq = rescale_to_eqmu(res.u, kappa)
    return FixedPointResult(
        kappa=kappa, mu=mu, u=res.u, u_eq=u_eq, V=V,
        lambda_history=hist, converged=converged, mu_positive=mu > 0,
        iterations=len(history), eigen_iterations=eig_total,
    )
