"""Non-symmetric branch construction: a start point, then kappa stepping.

Above the stability threshold the symmetric soliton is a saddle of the
theta = 1 quotient.  `initialize` moves it along the closed-form
transverse mode to the minimum of the quotient on that ray and solves the
fixed point from there at the soliton's own closed-form level.
`continue_branch` then steps kappa in either direction, reusing the
previous potential and eigenfunction, halving the step on failures; the
down walk ends on the exact discrete symmetric point past the bifurcation.

Every field of the branch is even in s, so both solve on the folded grid
`grid.even` (half the unknowns, and no odd translation mode), and every
field they save or return is mirrored back onto the full `grid`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CknError, NonConvergenceError, StepFailureError, SymmetricFallbackError
from .eigensolver import SolverCache, q_norm
from .fixedpoint import FixedPointResult, eqmu_residual, roothan_solve, self_potential
from .io import FieldStore
from .model import CylinderGrid, Field, ProblemParams, evaluate_norms, evaluate_Q
from .symmetric import critical_value_sym, discrete_soliton, mu_FS, soliton, transverse_mode

ASYMMETRY_SYMMETRIC = 1e-4
ASYMMETRY_BIFURCATED = 1e-3
MAX_POINTS = 2000
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
RAY_WIDTH = 1e-4
RAY_MAX_DOUBLINGS = 60


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


@dataclass(kw_only=True)
class BranchPoint:
    """One converged critical point, stored by value plus a checkpoint id.

    Its certificate is `residual`, the eqmu_residual of the stored field at
    mu, and `gap`, the fixed point's final self-consistency gap.  `gap`,
    `iterations`, `eigen_iterations` and `lu_solves` (the fixed point's
    work counters) are nan for a point not computed by the fixed point.
    The fields, in order, are the non-theta columns of `branch.csv`.
    """

    kappa: float
    mu: float
    X: float
    Y: float
    Z: float
    residual: float = math.nan
    gap: float = math.nan
    iterations: float = math.nan
    eigen_iterations: float = math.nan
    lu_solves: float = math.nan
    t: float
    asymmetry: float
    checkpoint: str = ""


@dataclass
class Branch:
    """Ordered (strictly monotone in kappa) sequence of branch points."""

    params: ProblemParams
    points: list
    provenance: dict = field(default_factory=dict)

    def column(self, name: str) -> np.ndarray:
        """One BranchPoint field over the points, as an array."""
        return np.array([getattr(pt, name) for pt in self.points])

    def __post_init__(self):
        ks = self.column("kappa")
        if len(ks) > 1 and not np.all(np.diff(ks) > 0):
            raise ValueError("branch kappas must be strictly increasing")


def _branch_point(fp: FixedPointResult, store: FieldStore) -> BranchPoint:
    X, Y, Z = evaluate_norms(fp.u_eq)
    cid = store.save(fp.u_eq)
    return BranchPoint(
        kappa=fp.kappa, mu=fp.mu, X=X, Y=Y, Z=Z, t=X / Y,
        asymmetry=asymmetry(fp.u_eq), checkpoint=cid, residual=fp.residual, gap=fp.gap,
        iterations=fp.iterations, eigen_iterations=fp.eigen_iterations,
        lu_solves=fp.lu_solves,
    )


def _unfolded(fp: FixedPointResult, grid: CylinderGrid) -> FixedPointResult:
    """fp, solved on grid.even, with its fields mirrored onto grid and the
    residual of the mirrored field."""
    u_eq = grid.unfold(fp.u_eq)
    return dataclasses.replace(fp, u=grid.unfold(fp.u), u_eq=u_eq, V=grid.unfold(fp.V),
                               residual=eqmu_residual(u_eq, fp.mu))


def _ray_minimum(f, eps: float) -> float:
    """A local minimizer of f on a > 0, to within RAY_WIDTH / 2.

    The bracket opens at eps and 2 eps and doubles while f still falls,
    which leaves lo < mid < hi with f(mid) < f(hi); a golden section then
    shrinks [lo, hi] to RAY_WIDTH and returns its midpoint.  Raises
    NonConvergenceError if f still falls after RAY_MAX_DOUBLINGS doublings.
    """
    lo, mid, hi = 0.0, eps, 2.0 * eps
    f_mid, f_hi = f(mid), f(hi)
    doublings = 0
    while f_hi < f_mid:
        if doublings == RAY_MAX_DOUBLINGS:
            raise NonConvergenceError(f"ray quotient still falls after {doublings} "
                                      f"doublings: E({hi:.6g}) = {f_hi:.10g}")
        lo, mid, hi = mid, hi, 2.0 * hi
        f_mid, f_hi = f_hi, f(hi)
        doublings += 1
    c, d = hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo)
    f_c, f_d = f(c), f(d)
    while hi - lo > RAY_WIDTH:
        if f_c < f_d:
            hi, d, f_d = d, c, f_c
            c = hi - GOLDEN * (hi - lo)
            f_c = f(c)
        else:
            lo, c, f_c = c, d, f_d
            d = lo + GOLDEN * (hi - lo)
            f_d = f(d)
    return 0.5 * (lo + hi)


def initialize(mu0: float, eps: float, grid: CylinderGrid, params: ProblemParams,
               store: FieldStore, cache: SolverCache | None = None,
               tol: float = 1e-10, eigen_tol: float = 1e-9
               ) -> tuple[BranchPoint, FixedPointResult]:
    """Find the point of the non-symmetric branch at the level of the soliton mu0.

    The seed is |u_sym + a* w| on the ray from the sampled soliton u_sym
    along the transverse mode w (scaled to the norm of u_sym), with a* > 0
    the golden-section minimum of the theta = 1 quotient at mu0 along the
    ray (the quotient is even in a: a -> -a reflects phi); eps (> 0) is
    the first probe of the bracket search for a*.  One fixed-point solve
    at the closed-form level kappa0 = critical_value_sym(mu0) turns the
    seed into the start point, so the start depends on mu0 and the grid
    alone.  Returns the converged point and the full fixed-point result
    (whose field and potential seed the continuation), both on `grid`
    though solved on `grid.even`.  `tol` and
    `eigen_tol` go to that solve, as in `roothan_solve`.  Raises
    NonConvergenceError when that solve does not converge or ends at
    mu <= 0, and SymmetricFallbackError when it returns to the symmetric
    solution, which happens whenever mu0 <= mu_FS.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    p = params.p
    half = grid.even
    u_sym = soliton(mu0, p).sample(half)
    _, w = transverse_mode(mu0, params, half)
    w = Field(half, math.sqrt(u_sym.norm_sq()) * w.values)

    def ray(a: float) -> Field:
        return Field(half, np.abs(u_sym.values + a * w.values))

    seed = ray(_ray_minimum(lambda a: evaluate_Q(ray(a), mu0, 1.0), eps))
    seed = Field(half, seed.values / math.sqrt(seed.norm_sq()))
    fp = roothan_solve(critical_value_sym(mu0, params), self_potential(seed), half, params,
                       warm_start=seed, cache=cache, tol=tol, eigen_tol=eigen_tol)
    # check before saving, so a failed start leaves no checkpoint behind
    if not (fp.converged and fp.mu > 0):
        raise NonConvergenceError(
            f"start at mu0 = {mu0} gave no usable point (converged {fp.converged}, "
            f"mu {fp.mu:.6g}, residual {fp.residual:.3g}, gap {fp.gap:.3g})")
    fp = _unfolded(fp, grid)
    asym = asymmetry(fp.u_eq)
    j_sym = critical_value_sym(fp.mu, params)
    if asym <= ASYMMETRY_BIFURCATED or fp.kappa >= j_sym:
        raise SymmetricFallbackError(
            f"start at mu0 = {mu0} fell back to the symmetric solution "
            f"(asymmetry {asym:.2e}, Q1 {fp.kappa:.6g} vs symmetric {j_sym:.6g})"
        )
    return _branch_point(fp, store), fp


def _discrete_point(kappa: float, grid: CylinderGrid, params: ProblemParams,
                    store: FieldStore | None = None) -> BranchPoint:
    """The angular-constant critical point at kappa (`discrete_soliton`) as a
    branch point certified by its eqmu_residual, checkpointed into `store`
    when one is given."""
    mu, v = discrete_soliton(kappa, params, grid)
    u = Field(grid, np.repeat(v[:, None], grid.n_phi, axis=1))
    X, Y, Z = evaluate_norms(u)
    return BranchPoint(kappa=kappa, mu=mu, X=X, Y=Y, Z=Z, t=X / Y, asymmetry=asymmetry(u),
                       checkpoint=store.save(u) if store is not None else "",
                       residual=eqmu_residual(u, mu))


def _predict(cur: Field, prev: Field | None, ratio: float) -> Field:
    if prev is None:
        return cur
    return Field(cur.grid, cur.values + ratio * (cur.values - prev.values))


def continue_branch(start: BranchPoint, eta: float, direction: str, kappa_stop: float,
                    grid: CylinderGrid, params: ProblemParams, store: FieldStore,
                    start_result: FixedPointResult, cache: SolverCache | None = None,
                    tol: float = 1e-10, eigen_tol: float = 1e-9) -> Branch:
    """Step kappa from `start` and collect converged points into a Branch.

    `start_result` is the fixed-point result behind `start`, on `grid`;
    its potential and eigenfunction, folded onto `grid.even`, seed the
    first step (ValueError if they are not even in s).  The walk solves on
    `grid.even` and checkpoints each point mirrored onto `grid`.

    direction "down" walks toward the bifurcation and stops once the point
    is symmetric (asymmetry < 1e-4) or mu <= mu_FS.  Within 1.5 eta of
    the bifurcation level kappa_FS, where the amplitude mode slows
    critically, it instead ends on the angular-constant critical point of
    the grid functional at kappa_FS - eta/2 (`discrete_soliton`), unless
    that level is not positive; it is the one point of a walk not
    computed by the fixed point.  "up" walks until kappa_stop.  eta halves
    on a failed step (no convergence, mu <= 0, any CknError from the
    solver, or a jump past the continuity guard) and recovers afterwards;
    each halving appends {"kappa", "reason"} (plus "du" and "bound" for
    the guard) to provenance["halving_reasons"].  Below eta/64, once it
    holds MAX_POINTS points, or when the down walk's end point fails, the
    walk raises StepFailureError, whose `branch` holds the points
    collected so far.
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

    half = grid.even
    V = grid.fold(start_result.V)
    u_warm = grid.fold(start_result.u)
    points = [start]
    reasons: list[dict] = []
    kappa = start.kappa
    eta_cur = eta
    V_prev = u_prev = None
    kappa_prev = None
    end = stopped = None
    while len(points) < MAX_POINTS:
        if direction == "down" and kappa - kappa_fs < 1.5 * eta:
            # the amplitude mode slows critically right above the
            # bifurcation, so once within reach end on the exact symmetric
            # point past it
            if kappa_fs > 0.5 * eta:
                try:
                    end = _discrete_point(kappa_fs - 0.5 * eta, grid, params, store)
                except CknError as exc:
                    stopped = f"the down walk's end point failed: {exc}"
            break
        kappa_next = kappa + sign * eta_cur
        if direction == "up" and kappa_next > kappa_stop:
            break

        ratio = 0.0 if kappa_prev is None else (kappa_next - kappa) / (kappa - kappa_prev)
        V0 = _predict(V, V_prev, ratio)
        V0 = Field(half, np.maximum(V0.values, 0.0))
        V0 = Field(half, V0.values / q_norm(V0))
        u0 = _predict(u_warm, u_prev, ratio)
        failure = None
        try:
            fp = roothan_solve(kappa_next, V0, half, params, warm_start=u0,
                               cache=cache, tol=tol, eigen_tol=eigen_tol)
            if not fp.converged:
                failure = {"reason": "not converged"}
            elif fp.mu <= 0:
                failure = {"reason": "mu <= 0"}
        except CknError as exc:
            failure = {"reason": type(exc).__name__}
        if failure is None:
            # continuity guard against the nominal step: halving the actual
            # step shrinks du until the bound is met
            du = math.sqrt(Field(half, fp.u.values - u_warm.values).norm_sq())
            bound = 5.0 * eta / max(kappa_next, 1e-12) + 1e-8
            if du > bound:
                failure = {"reason": "continuity guard", "du": du, "bound": bound}
        if failure is not None:
            reasons.append({"kappa": kappa_next, **failure})
            eta_cur *= 0.5
            if eta_cur < eta_min:
                stopped = (f"continuation stalled at kappa = {kappa:.6g} "
                           f"(step fell below {eta_min:.3g})")
                break
            continue
        points.append(_branch_point(_unfolded(fp, grid), store))
        kappa_prev, kappa = kappa, kappa_next
        V_prev, V = V, self_potential(fp.u)
        u_prev, u_warm = u_warm, fp.u
        eta_cur = min(eta, eta_cur * 2.0)
        if direction == "down":
            pt = points[-1]
            if pt.asymmetry < ASYMMETRY_SYMMETRIC or pt.mu <= mu_fs:
                break
    else:
        stopped = f"continuation reached MAX_POINTS = {MAX_POINTS} points at kappa = {kappa:.6g}"

    n_computed = len(points)
    if end is not None:
        points.append(end)
    terminal = points[-1]
    ordered = sorted(points, key=lambda pt: pt.kappa)
    prov = {
        "direction": direction, "eta": eta, "kappa_stop": kappa_stop,
        "halvings": len(reasons), "halving_reasons": reasons,
        "start_kappa": start.kappa, "start_mu": start.mu,
        "terminal_mu": terminal.mu, "terminal_asymmetry": terminal.asymmetry,
        "computed_points": n_computed,
    }
    branch = Branch(params=params, points=ordered, provenance=prov)
    if stopped is not None:
        raise StepFailureError(stopped, branch)
    return branch


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


def symmetric_reference(branch: Branch, grid: CylinderGrid, params: ProblemParams) -> Branch:
    """The symmetric reference `branch` is compared against: the discrete
    symmetric branch at 60 geometric kappas from 0.3 kappa_FS to the larger
    of the branch's top and 1.5 kappa_FS, plus 40 on [0.985, 1.02] kappa_FS,
    which resolve the bifurcation."""
    kappa_fs = critical_value_sym(mu_FS(params.p, params.d), params)
    kappas = np.concatenate([
        np.geomspace(0.3 * kappa_fs, max(branch.points[-1].kappa, 1.5 * kappa_fs), 60),
        np.linspace(0.985 * kappa_fs, 1.02 * kappa_fs, 40),
    ])
    return symmetric_discrete_branch(kappas, grid, params)


def merge_branches(down: Branch, up: Branch) -> Branch:
    """Join the two continuation directions into one monotone branch."""
    pts = {pt.kappa: pt for pt in down.points}
    pts.update({pt.kappa: pt for pt in up.points})
    ordered = [pts[k] for k in sorted(pts)]
    prov = {"down": down.provenance, "up": up.provenance}
    return Branch(params=down.params, points=ordered, provenance=prov)
