"""Alternating eigen-solve / potential-update iteration at fixed kappa.

Each step solves for the ground state u of -Laplace - kappa V; the plain
update replaces V by self_potential(u) = |u|^(p-2) / ||u||_p^(p-2), which
maximizes the potential energy over unit q-norm potentials, so the
eigenvalue sequence cannot rise.  At convergence mu = -lambda and the
rescaled iterate solves -Laplace u + mu u = u^(p-1).

Near the bifurcation the plain update slows down critically, so the loop
mixes it (Anderson type II on F = self_potential(u) - V, at most
ANDERSON_DEPTH secant pairs, least squares weighted by the quadrature and
solved through the eigendecomposition of its small Gram matrix as in
Pulay's DIIS; clipped at 0 and renormalized).  Safeguard: a mixed
candidate is kept only if its eigenvalue does not exceed the last accepted
one (by more than the roundoff allowance MONOTONE_SLACK that the plain
step has too); otherwise the history is dropped and the plain step is
taken from the same warm start.  Rejected candidates never enter
`lambda_history`, and a rising plain step raises MonotonicityError.  The
inner eigensolves run at max(eigen_tol, min(INEXACT_CAP, INEXACT_FACTOR *
gap)), gap being the previous self-consistency gap; the cap only keeps
the first solve's tolerance (gap = inf) finite.  Convergence is
declared at the first iterate whose eigensolve residual is within
eigen_tol, whatever tolerance that solve was asked for.  Monotonicity survives
the inexact solves because R(u; self_potential(u)) <= R(u; V) holds for
any u, exact eigenvector or not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MonotonicityError, NonConvergenceError
from .lapack import dsyev
from .model import CylinderGrid, Field, ProblemParams, banded_matvec
from .eigensolver import SolverCache, lowest_eigenpair, q_norm

MONOTONE_SLACK = 1e-12
SELF_CONSISTENCY_TOL = 1e-8
ANDERSON_DEPTH = 5
INEXACT_FACTOR = 0.1
INEXACT_CAP = 1e-2
# Gram eigenvalues below this share of the largest mark dependent secants
GRAM_RTOL = 1e-13


def self_potential(u: Field) -> Field:
    """Unit q-norm potential |u|^(p-2) / ||u||_p^(p-2) generated by u."""
    g = u.grid
    p = g.p
    a = np.abs(u.values) ** (p - 2.0)
    Z = g.integrate(a * u.values**2)
    if Z <= 0:
        raise ValueError("cannot build a potential from the zero field")
    return Field(g, a / Z ** ((p - 2.0) / p))


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


def eqmu_residual(u_eq: Field, mu: float) -> float:
    """Weighted L2 norm of -Laplace u + mu u - u^(p-1) on the interior, u
    zero on the first and last rows: -Laplace u + mu u = M^-1 K u + mu u is
    M^-1/2 (B + mu) M^1/2 u on the dofs."""
    g = u_eq.grid
    u = g.restrict(u_eq.values)
    isq = 1.0 / np.sqrt(g.m)
    r = isq * g.matvec(u / isq, -mu) - np.abs(u) ** (g.p - 1.0)
    return float(np.sqrt(np.sum(g.m * r**2)))


def profile_residual(grid: CylinderGrid, v: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """`eqmu_residual` of the fields constant in phi whose s-profiles are
    the rows of v, each at its mu, as an array: on such fields the grid
    operator is its 1-D `s_operator` and each interior row weighs its
    angular mass (the poles weigh nothing).  Equal to eqmu_residual up to
    roundoff, without building the fields."""
    dof = v[..., 1:-1]
    r = banded_matvec(grid.s_operator(), dof) + mu[..., None] * dof - np.abs(dof) ** (grid.p - 1.0)
    return np.sqrt(grid.wphi.sum() * (r**2 @ grid.ws[1:-1]))


@dataclass
class FixedPointResult:
    """The last iterate of a kappa-normalized fixed-point solve; `converged`
    says whether it met the tolerances."""

    kappa: float
    mu: float
    u: Field
    u_eq: Field
    V: Field
    lambda_history: np.ndarray
    converged: bool
    iterations: int
    eigen_iterations: int
    lu_solves: int
    residual: float
    gap: float


def _anderson(V_self: Field, Fw: np.ndarray, dFw: np.ndarray, steps: np.ndarray) -> Field:
    """Type-II Anderson candidate V + F - (dV + dF) gamma, clipped at 0 and
    renormalized to unit q-norm.  Row k of `dFw` is a residual difference
    sqrt(w) dF and row k of `steps` its dV + dF, flattened; `Fw` is
    sqrt(w) F.  gamma, the least-squares fit of Fw by the rows of dFw,
    solves G gamma = dFw Fw for the Gram matrix G = dFw dFw^T, inverted on
    its eigenvalues above GRAM_RTOL of the largest."""
    e, Q, _ = dsyev(dFw @ dFw.T)
    keep = e > GRAM_RTOL * e[-1]
    Q = Q[:, keep]
    gamma = Q @ ((Q.T @ (dFw @ Fw)) / e[keep])
    step = (gamma @ steps).reshape(V_self.values.shape)
    cand = Field(V_self.grid, np.maximum(V_self.values - step, 0.0))
    return Field(cand.grid, cand.values / q_norm(cand))


def roothan_solve(kappa: float, V0: Field, grid: CylinderGrid, params: ProblemParams,
                  max_iter: int = 200, tol: float = 1e-10,
                  warm_start: Field | None = None,
                  eigen_tol: float = 1e-9, cache: SolverCache | None = None) -> FixedPointResult:
    """Iterate eigen-solve and (mixed) potential update to a critical point.

    Convergence needs a relative eigenvalue increment below `tol`, a
    self-consistency gap ||self_potential(u) - V||_q below sqrt(tol) and
    SELF_CONSISTENCY_TOL, and an eigensolve residual within `eigen_tol`.  A
    result with mu = -lambda <= 0 is returned too, though it cannot be a
    branch point (solutions of the mu-equation need mu > 0 to decay).
    """
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    if cache is None:
        cache = SolverCache()

    sqrt_w = np.sqrt(grid.weights).ravel()
    V = V0
    V_self = None  # plain step from the last accepted iterate
    last = None  # (V_self, sqrt(w) F) of the last accepted iterate, flattened
    # secant pairs, one row each, overwritten cyclically; allocated after the
    # first factor, not under it in the heap (3 MB less peak RSS on 400x48)
    dFw = steps = None
    pairs = 0
    u_prev = warm_start
    history: list[float] = []
    eig_total = lu_total = 0
    gap = np.inf
    converged = False
    res = None
    for _ in range(max_iter):
        eig_tol = max(eigen_tol, min(INEXACT_CAP, INEXACT_FACTOR * gap))
        res = lowest_eigenpair(kappa, V, grid, tol=eig_tol, warm_start=u_prev, cache=cache)
        eig_total += res.iterations
        lu_total += res.lu_solves
        if history and res.lam > history[-1] + MONOTONE_SLACK and V is not V_self:
            # the mixed candidate raised the eigenvalue: forget the secants
            # and take the plain step, which cannot
            pairs = 0
            V = V_self
            res = lowest_eigenpair(kappa, V, grid, tol=eig_tol, warm_start=u_prev, cache=cache)
            eig_total += res.iterations
            lu_total += res.lu_solves
        lam = res.lam
        if history and lam > history[-1] + MONOTONE_SLACK:
            raise MonotonicityError(
                f"eigenvalue sequence increased: {history[-1]} -> {lam}"
            )
        history.append(lam)
        u_prev = res.u

        V_self = self_potential(res.u)
        F = V_self.values - V.values
        gap = q_norm(Field(grid, F))
        dlam = abs(history[-1] - history[-2]) if len(history) > 1 else np.inf
        if (res.residual <= eigen_tol and dlam <= tol * (1.0 + abs(lam))
                and gap <= np.sqrt(tol) and gap <= SELF_CONSISTENCY_TOL):
            converged = True
            break
        # dV + dF is the difference of the plain steps V + F
        cur = (V_self.values.ravel(), sqrt_w * F.ravel())
        if last is not None:
            if dFw is None:
                dFw, steps = np.empty((2, ANDERSON_DEPTH, cur[0].size))
            k = pairs % ANDERSON_DEPTH
            steps[k], dFw[k] = cur[0] - last[0], cur[1] - last[1]
            pairs += 1
        last = cur
        m = min(pairs, ANDERSON_DEPTH)
        V = _anderson(V_self, cur[1], dFw[:m], steps[:m]) if m else V_self

    if res is None:
        raise NonConvergenceError("roothan_solve made no iterations")

    mu = -history[-1]
    u_eq = rescale_to_eqmu(res.u, kappa)
    return FixedPointResult(
        kappa=kappa, mu=mu, u=res.u, u_eq=u_eq, V=V,
        lambda_history=np.asarray(history), converged=converged,
        iterations=len(history), eigen_iterations=eig_total, lu_solves=lu_total,
        residual=eqmu_residual(u_eq, mu), gap=gap,
    )
