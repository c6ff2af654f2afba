"""Non-symmetric branch construction: a start point, then kappa stepping.

Above the stability threshold the symmetric soliton is a saddle of the
theta = 1 quotient.  `initialize` moves it along the closed-form
transverse mode to the minimum of the quotient on that ray and solves the
fixed point from there at the soliton's own closed-form level.
`continue_branch` then steps kappa in either direction, reusing the
previous potential and eigenfunction, halving the step on failures; the
down walk ends on the exact discrete symmetric point past the bifurcation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import CknError, StepFailureError, SymmetricFallbackError
from .eigensolver import SolverCache, q_norm
from .fixedpoint import FixedPointResult, eqmu_residual, roothan_solve, self_potential
from .io import FieldStore
from .model import CylinderGrid, Field, ProblemParams, evaluate_norms
from .symmetric import critical_value_sym, discrete_soliton, mu_FS, soliton, transverse_mode

ASYMMETRY_SYMMETRIC = 1e-4
ASYMMETRY_BIFURCATED = 1e-3
MAX_POINTS = 2000


def asymmetry(u: Field) -> float:
    """Normalized L2 distance of u to its angular average (0 iff symmetric)."""
    g = u.grid
    total = g.wphi.sum()
    avg = (u.values @ g.wphi) / total
    diff = u.values - avg[:, None]
    num = g.integrate(diff**2)
    den = u.norm_sq()
    if den == 0.0:
        raise ValueError("asymmetry of the zero field is undefined")
    return float(np.sqrt(num / den))


@dataclass
class BranchPoint:
    """One converged critical point, stored by value plus a checkpoint id.

    Its certificate is `residual`, the eqmu_residual of the stored field at
    mu, and `gap`, the fixed point's final self-consistency gap.  `gap`,
    `iterations`, `eigen_iterations` and `lu_solves` (the fixed point's
    work counters) are nan for a point not computed by the fixed point.
    """

    kappa: float
    mu: float
    X: float
    Y: float
    Z: float
    t: float
    asymmetry: float
    field_ref: str = ""
    residual: float = math.nan
    gap: float = math.nan
    iterations: float = math.nan
    eigen_iterations: float = math.nan
    lu_solves: float = math.nan


@dataclass
class Branch:
    """Ordered (strictly monotone in kappa) sequence of branch points."""

    params: ProblemParams
    points: list
    provenance: dict = field(default_factory=dict)

    def kappas(self) -> np.ndarray:
        return np.array([pt.kappa for pt in self.points])

    def __post_init__(self):
        ks = self.kappas()
        if len(ks) > 1 and not np.all(np.diff(ks) > 0):
            raise ValueError("branch kappas must be strictly increasing")


def _branch_point(fp: FixedPointResult, store: FieldStore) -> BranchPoint:
    X, Y, Z = evaluate_norms(fp.u_eq)
    cid = store.save(fp.u_eq)
    return BranchPoint(
        kappa=fp.kappa, mu=fp.mu, X=X, Y=Y, Z=Z, t=X / Y,
        asymmetry=asymmetry(fp.u_eq), field_ref=cid, residual=fp.residual, gap=fp.gap,
        iterations=fp.iterations, eigen_iterations=fp.eigen_iterations,
        lu_solves=fp.lu_solves,
    )


def _symmetric_point(mu: float, grid: CylinderGrid, params: ProblemParams,
                     store: FieldStore) -> BranchPoint:
    from .symmetric import soliton_norms

    X, Y, Z = soliton_norms(mu, params.p, params.d, params.measure_mode)
    u = soliton(mu, params.p).sample(grid)
    cid = store.save(u)
    kappa = Z ** ((params.p - 2.0) / params.p)
    return BranchPoint(kappa=kappa, mu=mu, X=X, Y=Y, Z=Z, t=X / Y,
                       asymmetry=0.0, field_ref=cid, residual=eqmu_residual(u, mu))


def initialize(mu0: float, eps: float, grid: CylinderGrid, params: ProblemParams,
               store: FieldStore, cache: SolverCache | None = None,
               tol: float = 1e-10, eigen_tol: float = 1e-9
               ) -> tuple[BranchPoint, FixedPointResult]:
    """Find the point of the non-symmetric branch at the level of the soliton mu0.

    The seed is |u_sym + a* w| on the ray from the sampled soliton u_sym
    along the transverse mode w (scaled to the norm of u_sym), with a*
    minimizing the theta = 1 quotient at mu0 along the ray; eps (> 0) is
    the first probe of the bracket search for a*.  One fixed-point solve
    at the closed-form level kappa0 = critical_value_sym(mu0) turns the
    seed into the start point, so the start depends on mu0 and the grid
    alone.  Returns the converged point and the full fixed-point result
    (whose field and potential seed the continuation).  `tol` and
    `eigen_tol` go to that solve, as in `roothan_solve`.  Raises
    SymmetricFallbackError when the solve returns to the symmetric
    solution, which happens whenever mu0 <= mu_FS.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    p = params.p
    u_sym = soliton(mu0, p).sample(grid)
    _, w = transverse_mode(mu0, params, grid)
    w = Field(grid, math.sqrt(u_sym.norm_sq()) * w.values)

    def ray(a: float) -> Field:
        return Field(grid, np.abs(u_sym.values + a * w.values))

    def quotient(a: float) -> float:
        X, Y, Z = evaluate_norms(ray(a))
        return (X + mu0 * Y) / Z ** (2.0 / p)

    seed = ray(minimize_scalar(quotient, bracket=(0.0, eps)).x)
    seed = Field(grid, seed.values / math.sqrt(seed.norm_sq()))
    fp = roothan_solve(critical_value_sym(mu0, params), self_potential(seed), grid, params,
                       warm_start=seed, cache=cache, tol=tol, eigen_tol=eigen_tol)
    point = _branch_point(fp, store)

    j_sym = critical_value_sym(fp.mu, params) if fp.mu > 0 else np.inf
    if point.asymmetry <= ASYMMETRY_BIFURCATED or fp.kappa >= j_sym:
        raise SymmetricFallbackError(
            f"start at mu0 = {mu0} fell back to the symmetric solution "
            f"(asymmetry {point.asymmetry:.2e}, Q1 {fp.kappa:.6g} vs symmetric {j_sym:.6g})"
        )
    return point, fp


def _discrete_point(kappa: float, grid: CylinderGrid, params: ProblemParams,
                    store: FieldStore | None = None) -> BranchPoint:
    """The angular-constant critical point at kappa (`discrete_soliton`) as a
    branch point certified by its eqmu_residual, checkpointed into `store`
    when one is given."""
    mu, v = discrete_soliton(kappa, params, grid)
    u = Field(grid, np.repeat(v[:, None], grid.n_phi, axis=1))
    X, Y, Z = evaluate_norms(u)
    return BranchPoint(kappa=kappa, mu=mu, X=X, Y=Y, Z=Z, t=X / Y, asymmetry=asymmetry(u),
                       field_ref=store.save(u) if store is not None else "",
                       residual=eqmu_residual(u, mu))


def _predict(cur: Field, prev: Field | None, ratio: float) -> Field:
    if prev is None:
        return cur
    return Field(cur.grid, cur.values + ratio * (cur.values - prev.values))


def continue_branch(start: BranchPoint, eta: float, direction: str, kappa_stop: float,
                    grid: CylinderGrid, params: ProblemParams, store: FieldStore,
                    start_result: FixedPointResult, cache: SolverCache | None = None,
                    mu_min_factor: float = 0.1, tol: float = 1e-10,
                    eigen_tol: float = 1e-9) -> Branch:
    """Step kappa from `start` and collect converged points into a Branch.

    `start_result` is the fixed-point result behind `start`; its potential
    and eigenfunction seed the first step.

    direction "down" walks toward the bifurcation and stops once the point
    is symmetric (asymmetry < 1e-4) or mu <= mu_FS.  Within 1.5 eta of
    the bifurcation level kappa_FS, where the amplitude mode slows
    critically, it instead ends on the angular-constant critical point of
    the grid functional at kappa_FS - eta/2 (`discrete_soliton`), unless
    that level is not positive.  It then extends the branch with
    closed-form symmetric points down to mu_min_factor * mu_FS.  "up"
    walks until kappa_stop.  eta halves on a failed step (no
    convergence, mu <= 0, any CknError from the solver, or a jump past the
    continuity guard) and recovers afterwards; each halving appends
    {"kappa", "reason"} (plus "du" and "bound" for the guard) to
    provenance["halving_reasons"].  Below eta/64 the walk raises
    StepFailureError, whose `branch` holds the points collected so far.
    provenance["computed_points"] counts the start and the fixed-point
    points.
    """
    if direction not in ("down", "up"):
        raise ValueError(f"direction must be 'down' or 'up', got {direction}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if cache is None:
        cache = SolverCache()
    sign = -1.0 if direction == "down" else 1.0
    mu_fs = mu_FS(params.p, params.d)
    kappa_fs = critical_value_sym(mu_fs, params)
    eta_min = eta / 64.0

    V = start_result.V
    u_warm = start_result.u
    points = [start]
    reasons: list[dict] = []
    kappa = start.kappa
    eta_cur = eta
    V_prev = u_prev = None
    kappa_prev = None
    end = None
    while len(points) < MAX_POINTS:
        if direction == "down" and kappa - kappa_fs < 1.5 * eta:
            # the amplitude mode slows critically right above the
            # bifurcation, so once within reach end on the exact symmetric
            # point past it
            if kappa_fs > 0.5 * eta:
                end = _discrete_point(kappa_fs - 0.5 * eta, grid, params, store)
            break
        kappa_next = kappa + sign * eta_cur
        if direction == "up" and kappa_next > kappa_stop:
            break

        ratio = 0.0 if kappa_prev is None else (kappa_next - kappa) / (kappa - kappa_prev)
        V0 = _predict(V, V_prev, ratio)
        V0 = Field(grid, np.maximum(V0.values, 0.0))
        V0 = Field(grid, V0.values / q_norm(V0))
        u0 = _predict(u_warm, u_prev, ratio)
        failure = None
        try:
            fp = roothan_solve(kappa_next, V0, grid, params, warm_start=u0,
                               cache=cache, tol=tol, eigen_tol=eigen_tol)
            if not fp.converged:
                failure = {"reason": "not converged"}
            elif not fp.mu_positive:
                failure = {"reason": "mu <= 0"}
        except CknError as exc:
            failure = {"reason": type(exc).__name__}
        if failure is None:
            # continuity guard against the nominal step: halving the actual
            # step shrinks du until the bound is met
            du = math.sqrt(Field(grid, fp.u.values - u_warm.values).norm_sq())
            bound = 5.0 * eta / max(kappa_next, 1e-12) + 1e-8
            if du > bound:
                failure = {"reason": "continuity guard", "du": du, "bound": bound}
        if failure is not None:
            reasons.append({"kappa": kappa_next, **failure})
            eta_cur *= 0.5
            if eta_cur < eta_min:
                reason = (f"continuation stalled at kappa = {kappa:.6g} "
                          f"(step fell below {eta_min:.3g})")
                partial = Branch(
                    params=params, points=sorted(points, key=lambda pt: pt.kappa),
                    provenance={"direction": direction, "eta": eta, "halvings": len(reasons),
                                "halving_reasons": reasons})
                raise StepFailureError(reason, partial)
            continue
        points.append(_branch_point(fp, store))
        kappa_prev, kappa = kappa, kappa_next
        V_prev, V = V, self_potential(fp.u)
        u_prev, u_warm = u_warm, fp.u
        eta_cur = min(eta, eta_cur * 2.0)
        if direction == "down":
            pt = points[-1]
            if pt.asymmetry < ASYMMETRY_SYMMETRIC or pt.mu <= mu_fs:
                break

    n_computed = len(points)
    if end is not None:
        points.append(end)
    terminal = points[-1]
    if direction == "down":
        # convention: extend below the bifurcation with the symmetric family
        mu_lo = max(points[-1].mu * 0.999, mu_min_factor * mu_fs)
        mu_end = mu_min_factor * mu_fs
        if mu_end < mu_lo:
            n_ext = max(2, int(np.ceil(np.log(mu_lo / mu_end) / np.log(1.06))))
            for mu in np.geomspace(mu_lo, mu_end, n_ext):
                pt = _symmetric_point(float(mu), grid, params, store)
                if pt.kappa < points[-1].kappa:
                    points.append(pt)

    ordered = sorted(points, key=lambda pt: pt.kappa)
    prov = {
        "direction": direction, "eta": eta, "kappa_stop": kappa_stop,
        "halvings": len(reasons), "halving_reasons": reasons,
        "start_kappa": start.kappa, "start_mu": start.mu,
        "terminal_mu": terminal.mu, "terminal_asymmetry": terminal.asymmetry,
        "computed_points": n_computed,
    }
    return Branch(params=params, points=ordered, provenance=prov)


def symmetric_discrete_branch(kappas, grid: CylinderGrid, params: ProblemParams) -> Branch:
    """Angular-constant critical points of the grid functional at the given kappas.

    Each point is the exact 1-D reduction of the discrete problem
    (`discrete_soliton`) embedded as a field constant in phi, so this is
    the symmetric family as the same discrete functional sees it;
    comparing the non-symmetric branch against it cancels the shared
    discretization bias.  Raises NonConvergenceError naming the kappa
    whose Newton solve failed.
    """
    points = [_discrete_point(kappa, grid, params)
              for kappa in sorted(float(k) for k in kappas)]
    return Branch(params=params, points=points, provenance={"family": "symmetric-sector"})


def merge_branches(down: Branch, up: Branch) -> Branch:
    """Join the two continuation directions into one monotone branch."""
    pts = {pt.kappa: pt for pt in down.points}
    pts.update({pt.kappa: pt for pt in up.points})
    ordered = [pts[k] for k in sorted(pts)]
    prov = {"down": down.provenance, "up": up.provenance}
    return Branch(params=down.params, points=ordered, provenance=prov)
