"""Non-symmetric branch construction: saddle descent, then kappa stepping.

Above the stability threshold the symmetric soliton is a saddle of the
theta = 1 quotient.  `initialize` perturbs it along the transverse mode,
runs a conjugate-gradient descent of the quotient on the unit L2 sphere,
and polishes the limit with the fixed-point solver.  `continue_branch`
then steps kappa in either direction, reusing the previous potential and
eigenfunction, halving the step on failures.
"""

from __future__ import annotations

import logging
import math
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .errors import CknError, StepFailureError, SymmetricFallbackError
from .eigensolver import SolverCache, q_norm
from .fixedpoint import FixedPointResult, eqmu_residual, roothan_solve, self_potential
from .io import FieldStore
from .model import CylinderGrid, Field, ProblemParams, evaluate_norms
from .symmetric import critical_value_sym, discrete_soliton, mu_FS, soliton, transverse_mode

log = logging.getLogger(__name__)

ASYMMETRY_SYMMETRIC = 1e-4
ASYMMETRY_BIFURCATED = 1e-3


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
    `iterations` and `eigen_iterations` (the fixed point's work counters)
    are nan for a point not computed by the fixed point.
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


@dataclass
class Branch:
    """Ordered (strictly monotone in kappa) sequence of branch points."""

    params: ProblemParams
    points: list
    provenance: dict = field(default_factory=dict)
    store_dir: str = ""

    def kappas(self) -> np.ndarray:
        return np.array([pt.kappa for pt in self.points])

    def mus(self) -> np.ndarray:
        return np.array([pt.mu for pt in self.points])

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


class _SphereObjective:
    """Quotient (X + mu Y) / Z^(2/p) and its gradient on reduced dofs."""

    def __init__(self, grid: CylinderGrid, mu: float):
        self.grid = grid
        self.m = grid.m
        self.mu = mu
        self.p = grid.p

    def norms(self, x):
        Kx = self.grid.apply_K(self.grid.embed(x))
        X = float(x @ Kx)
        Y = float(self.m @ x**2)
        Z = float(self.m @ np.abs(x) ** self.p)
        return X, Y, Z, Kx

    def value_grad(self, x):
        p = self.p
        X, Y, Z, Kx = self.norms(x)
        E = (X + self.mu * Y) / Z ** (2.0 / p)
        # weighted-space gradient: M^-1 K x + mu x - ((X+muY)/Z) |x|^(p-2) x
        g = Kx / self.m + self.mu * x - ((X + self.mu * Y) / Z) * np.abs(x) ** (p - 2.0) * x
        g *= 2.0 / Z ** (2.0 / p)
        return E, g

    def dot(self, a, b):
        return float(self.m @ (a * b))


def _sphere_cg_descent(obj: _SphereObjective, x0: np.ndarray, max_iter: int = 400,
                       gtol: float = 1e-7, restart: int = 20):
    """Polak-Ribiere CG with Armijo backtracking on the unit L2 sphere."""
    x = x0 / math.sqrt(obj.dot(x0, x0))
    E, g = obj.value_grad(x)
    g = g - obj.dot(g, x) * x
    d = -g
    alpha = 1.0 / max(1.0, math.sqrt(obj.dot(g, g)))
    g_prev = g
    for k in range(max_iter):
        gnorm = math.sqrt(obj.dot(g, g))
        if gnorm <= gtol * (1.0 + abs(E)):
            break
        slope = obj.dot(g, d)
        if slope >= 0.0 or k % restart == 0:
            d = -g
            slope = -gnorm**2
        accepted = False
        a = alpha * 2.0
        for _ in range(40):
            xn = x + a * d
            xn = xn / math.sqrt(obj.dot(xn, xn))
            En, gn = obj.value_grad(xn)
            if En <= E + 1e-4 * a * slope:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            break
        alpha = a
        x, E = xn, En
        gn = gn - obj.dot(gn, xn) * xn
        beta = max(0.0, obj.dot(gn, gn - g_prev) / obj.dot(g_prev, g_prev))
        d = -gn + beta * d
        g = g_prev = gn
    return x, E


def initialize(mu0: float, eps: float, grid: CylinderGrid, params: ProblemParams,
               store: FieldStore | None = None, cache: SolverCache | None = None,
               descent_iters: int = 400) -> tuple[BranchPoint, FixedPointResult]:
    """Find one point of the non-symmetric branch by saddle descent at mu0.

    eps is the perturbation size relative to the L2 norm of the symmetric
    solution (default 0.05).  Returns the converged point and the full
    fixed-point result (whose field and potential seed the continuation).
    Raises SymmetricFallbackError when the descent returns to the
    symmetric solution, which happens whenever mu0 <= mu_FS.
    """
    if store is None:
        store = FieldStore(tempfile.mkdtemp(prefix="ckn_branch_"))
    if cache is None:
        cache = SolverCache()
    p = params.p
    u_sym = soliton(mu0, p).sample(grid)

    if eps == 0.0:
        log.warning("initialize called with eps = 0: returning the symmetric fixed point")
        kappa0 = float(grid.integrate(np.abs(u_sym.values) ** p) ** ((p - 2.0) / p))
        fp = roothan_solve(kappa0, self_potential(u_sym), grid, params,
                           warm_start=u_sym, cache=cache)
        return _branch_point(fp, store), fp

    lam1, w = transverse_mode(mu0, params, grid)
    eps_abs = eps * math.sqrt(u_sym.norm_sq())
    u0 = Field(grid, u_sym.values + eps_abs * w.values)

    obj = _SphereObjective(grid, mu0)
    x, E = _sphere_cg_descent(obj, grid.restrict(u0.values), max_iter=descent_iters)
    u_cg = Field(grid, grid.embed(x))
    if grid.integrate(u_cg.values) < 0:
        u_cg = Field(grid, -u_cg.values)
    u_cg = Field(grid, np.abs(u_cg.values))

    # the descent value is the critical level kappa_0 = Q^1_{mu0}[u]
    kappa0 = float(E)
    fp = roothan_solve(kappa0, self_potential(u_cg), grid, params,
                       warm_start=u_cg, cache=cache)
    point = _branch_point(fp, store)

    j_sym = critical_value_sym(fp.mu, params) if fp.mu > 0 else np.inf
    if point.asymmetry <= ASYMMETRY_BIFURCATED or fp.kappa >= j_sym:
        raise SymmetricFallbackError(
            f"descent at mu0 = {mu0} fell back to the symmetric solution "
            f"(asymmetry {point.asymmetry:.2e}, Q1 {fp.kappa:.6g} vs symmetric {j_sym:.6g})"
        )
    return point, fp


def _angular_average(u: Field) -> Field:
    g = u.grid
    avg = (u.values @ g.wphi) / g.wphi.sum()
    return Field(g, np.repeat(avg[:, None], g.n_phi, axis=1))


def _predict(cur: Field, prev: Field | None, ratio: float) -> Field:
    if prev is None:
        return cur
    return Field(cur.grid, cur.values + ratio * (cur.values - prev.values))


def continue_branch(start: BranchPoint, eta: float, direction: str, kappa_stop: float,
                    grid: CylinderGrid, params: ProblemParams, store: FieldStore,
                    start_result: FixedPointResult | None = None,
                    cache: SolverCache | None = None, max_points: int = 2000,
                    mu_min_factor: float = 0.1, tol: float = 1e-10,
                    fp_max_iter: int = 1200) -> Branch:
    """Step kappa from `start` and collect converged points into a Branch.

    direction "down" walks toward the bifurcation and stops once the point
    is symmetric (asymmetry < 1e-4) or mu <= mu_FS, then extends the branch
    with closed-form symmetric points down to mu_min_factor * mu_FS;
    "up" walks until kappa_stop.  eta halves on a failed step (no
    convergence, mu <= 0, any CknError from the solver, or a jump past the
    continuity guard) and recovers afterwards; each halving appends
    {"kappa", "reason"} (plus "du" and "bound" for the guard) to
    provenance["halving_reasons"].  Below eta/64 the walk raises
    StepFailureError, whose `branch` holds the points collected so far.

    The amplitude mode slows the plain fixed point down critically near
    the bifurcation; the Anderson-mixed one in `roothan_solve` needs tens
    of iterations there, so `fp_max_iter` is a cap on a failing solve, not
    a budget for a slow one.  Once kappa drops below the closed-form
    bifurcation level the seed is symmetrized, which removes the
    asymmetric transient altogether.
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

    if start_result is not None:
        V = start_result.V
        u_warm = start_result.u
    else:
        u_eq = store.load(start.field_ref, grid)
        V = self_potential(u_eq)
        nrm = math.sqrt(u_eq.norm_sq())
        u_warm = Field(grid, u_eq.values / nrm)

    points = [start]
    reasons: list[dict] = []
    kappa = start.kappa
    eta_cur = eta
    V_prev = u_prev = None
    kappa_prev = None
    while len(points) < max_points:
        kappa_next = kappa + sign * eta_cur
        if direction == "down" and kappa - kappa_fs < 1.5 * eta:
            # the amplitude mode slows critically right above the
            # bifurcation, so once within reach jump past it in one step
            kappa_next = min(kappa_next, kappa_fs - 0.5 * eta)
        if direction == "up" and kappa_next > kappa_stop:
            break
        if kappa_next <= 0:
            break

        crossing = direction == "down" and kappa_next < kappa_fs
        if crossing:
            # past the bifurcation the target is symmetric: seed it directly
            V0 = self_potential(_angular_average(u_warm))
            u0 = _angular_average(u_warm)
        else:
            ratio = 0.0 if kappa_prev is None else (kappa_next - kappa) / (kappa - kappa_prev)
            V0 = _predict(V, V_prev, ratio)
            V0 = Field(grid, np.maximum(V0.values, 0.0))
            V0 = Field(grid, V0.values / q_norm(V0))
            u0 = _predict(u_warm, u_prev, ratio)
        failure = None
        try:
            fp = roothan_solve(kappa_next, V0, grid, params, warm_start=u0,
                               cache=cache, tol=tol, max_iter=fp_max_iter)
            if not fp.converged:
                failure = {"reason": "not converged"}
            elif not fp.mu_positive:
                failure = {"reason": "mu <= 0"}
        except CknError as exc:
            failure = {"reason": type(exc).__name__}
        if failure is None and not (crossing and asymmetry(fp.u) < ASYMMETRY_SYMMETRIC):
            # continuity guard against the nominal step: halving the actual
            # step shrinks du until the bound is met.  The guard is waived
            # for the bifurcation crossing, where dropping the asymmetric
            # component is the expected jump.
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
                                "halving_reasons": reasons},
                    store_dir=str(store.dir))
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

    terminal = points[-1]
    n_computed = len(points)
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
    return Branch(params=params, points=ordered, provenance=prov,
                  store_dir=str(store.dir))


def symmetric_discrete_branch(kappas, grid: CylinderGrid, params: ProblemParams) -> Branch:
    """Angular-constant critical points of the grid functional at the given kappas.

    Each point is the exact 1-D reduction of the discrete problem
    (`discrete_soliton`) embedded as a field constant in phi, so this is
    the symmetric family as the same discrete functional sees it;
    comparing the non-symmetric branch against it cancels the shared
    discretization bias.  Raises NonConvergenceError naming the kappa
    whose Newton solve failed.
    """
    points = []
    for kappa in sorted(float(k) for k in kappas):
        mu, v = discrete_soliton(kappa, params, grid)
        u = Field(grid, np.repeat(v[:, None], grid.n_phi, axis=1))
        X, Y, Z = evaluate_norms(u)
        points.append(BranchPoint(kappa=kappa, mu=mu, X=X, Y=Y, Z=Z, t=X / Y,
                                  asymmetry=asymmetry(u)))
    return Branch(params=params, points=points, provenance={"family": "symmetric-sector"})


def merge_branches(down: Branch, up: Branch) -> Branch:
    """Join the two continuation directions into one monotone branch."""
    pts = {pt.kappa: pt for pt in down.points}
    pts.update({pt.kappa: pt for pt in up.points})
    ordered = [pts[k] for k in sorted(pts)]
    prov = {"down": down.provenance, "up": up.provenance}
    return Branch(params=down.params, points=ordered, provenance=prov,
                  store_dir=down.store_dir)
