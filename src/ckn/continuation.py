"""Non-symmetric branch construction: a start point, then kappa stepping.

Above the stability threshold the symmetric soliton is a saddle of the
theta = 1 quotient.  `initialize` moves it along the closed-form
transverse mode past the minimum of the quotient on that ray and solves
the fixed point from there at the soliton's own closed-form level.
`continue_branch` then steps kappa either way, reusing the previous
potential and eigenfunction, each step sized from the field change of the
last; the down walk ends on the exact discrete symmetric point past the
bifurcation.
`compute_branch` is the whole sequence: the start at MU0_FACTOR mu_FS,
the walk down, the walk up, and the two joined by kappa.

Every field of the branch is even in s, so the whole walk lives on the
folded grid `grid.even` (half the unknowns, and no odd translation mode).
The full cylinder `grid` is only the checkpoint format: each point is
saved mirrored onto it, and a walk reads its start back from there.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (CknError, ConfigError, NonConvergenceError, StepFailureError,
                     SymmetricFallbackError)
from .eigensolver import SolverCache, q_norm
from .fixedpoint import (
    FixedPointResult,
    eqmu_residual,
    profile_residual,
    roothan_solve,
    self_potential,
)
from .io import FieldStore
from .model import CylinderGrid, Field, ProblemParams, evaluate_norms, evaluate_Q, profile_norms
from .symmetric import critical_value_sym, discrete_soliton, mu_FS, soliton, transverse_mode

ASYMMETRY_SYMMETRIC = 1e-4
ASYMMETRY_BIFURCATED = 1e-3
MAX_POINTS = 2000
RAY_MAX_DOUBLINGS = 60
# the branch starts at the level of the soliton mu0 = MU0_FACTOR mu_FS
MU0_FACTOR = 1.2
# the ray search of initialize opens at SEED_EPS; the start does not depend on it
SEED_EPS = 0.05
# the fewest cells of h_s that the soliton's width may span at mu0
MIN_CELLS_PER_WIDTH = 2.0


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
    mu (for a point of the symmetric reference, which stores none, that of
    its field constant in phi, read off the profile), and `gap`, the fixed
    point's final self-consistency gap.  `gap`, `iterations`,
    `eigen_iterations` and `lu_solves` (the fixed point's work counters)
    are nan for a point not computed by the fixed point.
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


def _branch_point(fp: FixedPointResult, grid: CylinderGrid, store: FieldStore) -> BranchPoint:
    """fp, solved on grid.even, as a branch point checkpointed on grid."""
    X, Y, Z = evaluate_norms(fp.u_eq)
    return BranchPoint(
        kappa=fp.kappa, mu=fp.mu, X=X, Y=Y, Z=Z, t=X / Y, asymmetry=asymmetry(fp.u_eq),
        checkpoint=store.save(grid.unfold(fp.u_eq)), residual=fp.residual, gap=fp.gap,
        iterations=fp.iterations, eigen_iterations=fp.eigen_iterations,
        lu_solves=fp.lu_solves,
    )


def _ray_minimum(f, eps: float) -> float:
    """The far end hi of a doubling bracket of a local minimizer of f on
    a > 0: the first of 2 eps, 4 eps, ... with f(hi) >= f(hi / 2), so a
    minimizer lies in (hi / 4, hi), or in (0, hi) when hi = 2 eps.  Raises
    NonConvergenceError if f still falls after RAY_MAX_DOUBLINGS doublings.
    """
    hi, f_mid, f_hi = 2.0 * eps, f(eps), f(2.0 * eps)
    doublings = 0
    while f_hi < f_mid:
        if doublings == RAY_MAX_DOUBLINGS:
            raise NonConvergenceError(f"ray quotient still falls after {doublings} "
                                      f"doublings: E({hi:.6g}) = {f_hi:.10g}")
        hi *= 2.0
        f_mid, f_hi = f_hi, f(hi)
        doublings += 1
    return hi


def initialize(mu0: float, eps: float, grid: CylinderGrid, params: ProblemParams,
               store: FieldStore, cache: SolverCache | None = None,
               tol: float = 1e-10, eigen_tol: float = 1e-9
               ) -> tuple[BranchPoint, FixedPointResult]:
    """Find the point of the non-symmetric branch at the level of the soliton mu0.

    The seed is |u_sym + a* w| on the ray from the sampled soliton u_sym
    along the transverse mode w (scaled to the norm of u_sym), with a* > 0
    the far end of the doubling bracket (`_ray_minimum`) of the minimum of
    the theta = 1 quotient at mu0 along the ray (the quotient is even in
    a: a -> -a reflects phi); eps (> 0) is the bracket's first probe.
    One fixed-point solve at the closed-form level kappa0 =
    critical_value_sym(mu0) turns the seed into the start point, so the
    start depends on mu0 and the grid alone.  Returns the converged point,
    checkpointed on `grid`, and the fixed-point result behind it, solved
    on `grid.even` and mirrored onto `grid`.  `tol` and `eigen_tol` go to
    that solve, as in `roothan_solve`.  Raises NonConvergenceError when
    that solve does not converge or ends at mu <= 0, and
    SymmetricFallbackError when it returns to the symmetric solution,
    which happens whenever mu0 <= mu_FS.
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
    asym = asymmetry(fp.u_eq)
    j_sym = critical_value_sym(fp.mu, params)
    if asym <= ASYMMETRY_BIFURCATED or fp.kappa >= j_sym:
        raise SymmetricFallbackError(
            f"start at mu0 = {mu0} fell back to the symmetric solution "
            f"(asymmetry {asym:.2e}, Q1 {fp.kappa:.6g} vs symmetric {j_sym:.6g})"
        )
    return _branch_point(fp, grid, store), dataclasses.replace(
        fp, u=grid.unfold(fp.u), u_eq=grid.unfold(fp.u_eq), V=grid.unfold(fp.V))


def _predict(cur: Field, prev: Field | None, ratio: float) -> Field:
    if prev is None:
        return cur
    return Field(cur.grid, cur.values + ratio * (cur.values - prev.values))


def continue_branch(start: BranchPoint, eta: float, direction: str, kappa_stop: float,
                    grid: CylinderGrid, params: ProblemParams, store: FieldStore,
                    cache: SolverCache | None = None,
                    tol: float = 1e-10, eigen_tol: float = 1e-9) -> Branch:
    """Step kappa from `start` and collect converged points into a Branch.

    The walk reads `start`'s field from its checkpoint in `store`
    (CheckpointError if it is not there, before any solve), folds it onto
    `grid.even` (ValueError if it is not even in s) and seeds the first
    step from it as every accepted point seeds the next one: with its
    normalized field and its self_potential.  It solves on `grid.even`
    and checkpoints each point mirrored onto `grid`, so any point of a
    branch can start a walk.

    direction "down" walks toward the bifurcation and stops once the point
    is symmetric (asymmetry < 1e-4) or mu <= mu_FS.  Within 1.5 eta of
    the bifurcation level kappa_FS, where the amplitude mode slows
    critically, it instead ends on the angular-constant critical point of
    the grid functional at kappa_FS - eta/2, built as the symmetric
    reference builds its points (`_symmetric_points`), unless that level
    is not positive; it is the one point of a walk not computed by the
    fixed point.  "up" walks until kappa_stop.  eta is the first step and
    the unit of the continuity guard du <= bound = 5 eta / kappa + 1e-8,
    du the change of the normalized field; each accepted step sets the
    next to min(2 step, 0.9 bound / (slope trend)), slope = du / step and
    trend = max(1, slope / the last slope).  A failed step (no convergence,
    mu <= 0, any CknError from the solver, or a jump past the guard)
    halves; each halving appends {"kappa", "reason"} (plus "du" and
    "bound" for the guard, and the returned solve's "lu_solves") to
    provenance["halving_reasons"].  Below eta/64, once it holds MAX_POINTS
    points, or when the down walk's end point fails, the walk raises
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

    half = grid.even
    u = grid.fold(store.load(start.checkpoint, grid))
    V, u_warm = self_potential(u), Field(half, u.values / math.sqrt(u.norm_sq()))
    points = [start]
    reasons: list[dict] = []
    kappa = start.kappa
    step = eta
    V_prev = u_prev = None
    kappa_prev = slope_prev = None
    end = stopped = None
    while len(points) < MAX_POINTS:
        if direction == "down" and kappa - kappa_fs < 1.5 * eta:
            # the amplitude mode slows critically right above the
            # bifurcation, so once within reach end on the exact symmetric
            # point past it
            if kappa_fs > 0.5 * eta:
                try:
                    (end,) = _symmetric_points([kappa_fs - 0.5 * eta], grid, params, store)
                except CknError as exc:
                    stopped = f"the down walk's end point failed: {exc}"
            break
        kappa_next = kappa + sign * step
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
        except CknError as exc:
            failure = {"reason": type(exc).__name__}
        else:
            # continuity guard against the nominal step eta: halving the
            # actual step shrinks du until the bound is met
            du = math.sqrt(Field(half, fp.u.values - u_warm.values).norm_sq())
            bound = 5.0 * eta / max(kappa_next, 1e-12) + 1e-8
            if not fp.converged:
                failure = {"reason": "not converged"}
            elif fp.mu <= 0:
                failure = {"reason": "mu <= 0"}
            elif du > bound:
                failure = {"reason": "continuity guard", "du": du, "bound": bound}
            if failure is not None:
                failure["lu_solves"] = fp.lu_solves
        if failure is not None:
            reasons.append({"kappa": kappa_next, **failure})
            step *= 0.5
            if step < eta_min:
                stopped = (f"continuation stalled at kappa = {kappa:.6g} "
                           f"(step fell below {eta_min:.3g})")
                break
            continue
        points.append(_branch_point(fp, grid, store))
        kappa_prev, kappa = kappa, kappa_next
        V_prev, V = V, self_potential(fp.u)
        u_prev, u_warm = u_warm, fp.u
        # trend anticipates the steepening toward the pitchfork, where
        # du/dkappa grows like (kappa - kappa_FS)^(-1/2)
        slope = du / step
        trend = 1.0 if slope_prev is None else max(1.0, slope / slope_prev)
        step = min(2.0 * step, 0.9 * bound / (slope * trend))
        slope_prev = slope
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
        "terminal_mu": terminal.mu, "terminal_asymmetry": terminal.asymmetry,
        "computed_points": n_computed,
    }
    branch = Branch(params=params, points=ordered, provenance=prov)
    if stopped is not None:
        raise StepFailureError(stopped, branch)
    return branch


def compute_branch(grid: CylinderGrid, params: ProblemParams, store: FieldStore, *,
                   eta: float | None = None, eta_up: float | None = None,
                   kappa_stop: float | None = None, cache: SolverCache | None = None,
                   tol: float = 1e-10, eigen_tol: float = 1e-9) -> Branch:
    """The branch: `initialize` at mu0 = MU0_FACTOR mu_FS, `continue_branch`
    down with first step and guard unit `eta` (default kappa0 / 200, kappa0
    the start's level) and up with `eta_up` (default `eta`) to `kappa_stop`
    (default 2 kappa0), the walks joined by kappa; the step controller of
    `continue_branch` sets each walk's later steps.  `provenance` holds
    the `timings`, `convergence` and `provenance` blocks of manifest.json.
    A stalled walk raises StepFailureError whose `branch` holds every
    point so far; after a stalled down walk the up walk does not run.
    Raises ConfigError before any solve when the soliton's width
    2 / ((p - 2) sqrt(mu0)) spans fewer than MIN_CELLS_PER_WIDTH cells of
    h_s, the largest step of grid.s.
    """
    mu0 = MU0_FACTOR * mu_FS(params.p, params.d)
    h_s = float(np.max(np.diff(grid.s)))
    cells = 2.0 / ((params.p - 2.0) * math.sqrt(mu0)) / h_s
    if cells < MIN_CELLS_PER_WIDTH:
        raise ConfigError(f"the grid does not resolve the start level: at mu0 = {mu0:.6g} the "
                          f"soliton width spans w/h_s = {cells:.3g} cells of h_s = {h_s:.4g}, "
                          f"fewer than {MIN_CELLS_PER_WIDTH:g}")
    cache = SolverCache() if cache is None else cache
    t0 = time.perf_counter()
    start, _ = initialize(mu0, SEED_EPS, grid, params, store, cache, tol=tol, eigen_tol=eigen_tol)
    # a walk that never starts (after a stall) takes 0 s
    timings = {"initialize_seconds": time.perf_counter() - t0,
               "down_seconds": 0.0, "up_seconds": 0.0}
    eta = start.kappa / 200.0 if eta is None else eta
    eta_up = eta if eta_up is None else eta_up
    kappa_stop = 2.0 * start.kappa if kappa_stop is None else kappa_stop
    walks, stopped = [], None
    for direction, step, stop in (("down", eta, 0.0), ("up", eta_up, kappa_stop)):
        t_walk = time.perf_counter()
        try:
            walks.append(continue_branch(start, step, direction, stop, grid, params, store,
                                         cache=cache, tol=tol, eigen_tol=eigen_tol))
        except StepFailureError as exc:
            walks.append(exc.branch)
            stopped = exc
        timings[f"{direction}_seconds"] = time.perf_counter() - t_walk
        if stopped is not None:
            break
    points = {pt.kappa: pt for w in walks for pt in w.points}  # both walks hold the start
    timings["branch_seconds"] = time.perf_counter() - t0
    branch = Branch(params, [points[k] for k in sorted(points)], {
        "timings": timings,
        "convergence": {
            "eta": eta, "eta_halvings": sum(w.provenance["halvings"] for w in walks),
            "halving_reasons": [dict(r, direction=w.provenance["direction"])
                                for w in walks for r in w.provenance["halving_reasons"]],
            "points_down": len(walks[0].points),
            "points_up": len(walks[1].points) if len(walks) > 1 else 0,
            "factorizations": cache.factorizations, "kappa_range": [min(points), max(points)],
        },
        "provenance": {"mu0": mu0, "eps": SEED_EPS, "seed_direction": (
            "end of the doubling bracket of the theta = 1 quotient's minimum on the ray from "
            "u_sym along the transverse mode u_sym(s)^(p/2) cos(phi), solved at kappa_sym(mu0)")},
    })
    if stopped is not None:
        raise StepFailureError(str(stopped), branch)
    return branch


def _symmetric_points(kappas, grid: CylinderGrid, params: ProblemParams,
                      store: FieldStore | None = None) -> list[BranchPoint]:
    """The angular-constant critical points at the kappas, in their order,
    from one batched `discrete_soliton` solve.

    X, Y, Z and the residual are read off the profiles on `grid.even`
    (`profile_norms`, `profile_residual`), not off 2-D fields, which
    would take most of the reference's time; the asymmetry of a field
    constant in phi is 0.  When `store` is given, each point saves its
    field, on `grid`, and is certified as every stored point is: by the
    eqmu_residual of the field it saves.
    """
    half = grid.even
    mu, v = discrete_soliton(kappas, params, grid)
    X, Y, Z = profile_norms(half, v)
    residual = profile_residual(half, v, mu)
    rows = np.column_stack([kappas, mu, X, Y, Z, residual]).tolist()
    points = [BranchPoint(kappa=k, mu=m, X=x, Y=y, Z=z, t=x / y, asymmetry=0.0, residual=r)
              for k, m, x, y, z, r in rows]
    if store is not None:
        for pt, prof in zip(points, v):
            u = Field(half, np.repeat(prof[:, None], half.n_phi, axis=1))
            pt.checkpoint = store.save(grid.unfold(u))
            pt.residual = eqmu_residual(u, pt.mu)
    return points


def symmetric_discrete_branch(kappas, grid: CylinderGrid, params: ProblemParams) -> Branch:
    """Angular-constant critical points of the grid functional at the given kappas.

    Each point is the exact 1-D reduction of the discrete problem
    (`discrete_soliton`, one Newton solve for all kappas) embedded as a
    field constant in phi, so this is the symmetric family as the same
    discrete functional sees it; comparing the non-symmetric branch
    against it cancels the shared discretization bias.  Raises
    NonConvergenceError naming the kappa whose solve failed (the
    smallest, when several fail in one Newton step).
    """
    points = _symmetric_points(np.sort(np.asarray(kappas, dtype=float)), grid, params)
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
