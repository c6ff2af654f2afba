import functools

import numpy as np
import pytest
from scipy.integrate import quad

from ckn import continuation, symmetric
from ckn.continuation import (
    _ray_minimum,
    Branch,
    BranchPoint,
    asymmetry,
    continue_branch,
    initialize,
    merge_branches,
    symmetric_discrete_branch,
)
from ckn.eigensolver import SolverCache
from ckn.errors import NonConvergenceError, StepFailureError, SymmetricFallbackError
from ckn.fixedpoint import eqmu_residual, roothan_solve, self_potential
from ckn.io import FieldStore
from ckn.model import Field, ProblemParams, build_grid, evaluate_norms
from ckn.symmetric import (
    critical_value_sym,
    discrete_soliton,
    mu_FS,
    mu_from_kappa_sym,
    soliton,
    soliton_norms,
)

P, D = 2.8, 5


@pytest.fixture(scope="module")
def coarse():
    params = ProblemParams(D, P, 1.0, "surface")
    grid = build_grid(8.0, 120, 16, params)
    return grid, params, SolverCache()


def test_asymmetry_symmetric_field(coarse):
    g, params, _ = coarse
    u = soliton(2.0, P).sample(g)
    assert asymmetry(u) < 1e-14


def test_asymmetry_pure_harmonic(coarse):
    g, params, _ = coarse
    gs = np.exp(-g.s**2)
    u = Field(g, gs[:, None] * np.cos(g.phi)[None, :])
    assert asymmetry(u) == pytest.approx(1.0, rel=1e-10)


def test_asymmetry_small_perturbation(coarse):
    g, params, _ = coarse
    gs = np.exp(-g.s**2)
    u = Field(g, gs[:, None] * (1.0 + 0.1 * np.cos(g.phi)[None, :]))
    # oracle: <cos^2> under the sin^3 density is 1/5
    num = quad(lambda t: np.cos(t) ** 2 * np.sin(t) ** 3, 0, np.pi)[0]
    den = quad(lambda t: np.sin(t) ** 3, 0, np.pi)[0]
    m2 = num / den
    expected = 0.1 * np.sqrt(m2) / np.sqrt(1.0 + 0.01 * m2)
    assert expected == pytest.approx(0.04468, abs=2e-5)
    assert asymmetry(u) == pytest.approx(expected, rel=1e-6)


@pytest.fixture(scope="module")
def mini_branch(coarse, tmp_path_factory):
    g, params, cache = coarse
    store = FieldStore(tmp_path_factory.mktemp("mini"))
    start, fp = initialize(1.2 * mu_FS(P, D), 0.05, g, params, store, cache)
    eta = start.kappa / 60.0
    down = continue_branch(start, eta, "down", 0.0, g, params, store,
                           start_result=fp, cache=cache)
    up = continue_branch(start, eta, "up", start.kappa * 1.1, g, params, store,
                         start_result=fp, cache=cache)
    return store, start, fp, down, up


def test_initialize_breaks_symmetry(mini_branch):
    _, start, fp, _, _ = mini_branch
    assert start.asymmetry > 1e-3
    params = ProblemParams(D, P, 1.0, "surface")
    assert start.kappa < critical_value_sym(start.mu, params)
    assert start.mu > mu_FS(P, D)


def test_initialize_falls_back_below_threshold(coarse, tmp_path_factory):
    g, params, cache = coarse
    store = FieldStore(tmp_path_factory.mktemp("fallback"))
    with pytest.raises(SymmetricFallbackError):
        initialize(0.9 * mu_FS(P, D), 0.05, g, params, store, cache)
    assert list(store.dir.iterdir()) == []


def test_initialize_rejects_an_unconverged_start(coarse, tmp_path_factory, monkeypatch):
    # three fixed-point iterations leave the start far from self-consistent;
    # it must not become the first point of the branch
    g, params, cache = coarse
    monkeypatch.setattr(continuation, "roothan_solve",
                        functools.partial(roothan_solve, max_iter=3))
    store = FieldStore(tmp_path_factory.mktemp("unconverged"))
    with pytest.raises(NonConvergenceError, match="converged False"):
        initialize(1.2 * mu_FS(P, D), 0.05, g, params, store, cache)
    assert list(store.dir.iterdir()) == []


def test_initialize_start_is_set_by_mu0_and_grid(coarse, tmp_path_factory):
    # eps only opens the ray search, so the start is the same point for any
    # eps, at exactly the closed-form level of the soliton mu0
    g, params, cache = coarse
    store = FieldStore(tmp_path_factory.mktemp("deterministic"))
    mu0 = 1.2 * mu_FS(P, D)
    starts = [initialize(mu0, eps, g, params, store, cache)[0] for eps in (0.05, 0.2)]
    for pt in starts:
        assert pt.kappa == critical_value_sym(mu0, params)
    assert starts[1].mu == pytest.approx(starts[0].mu, rel=1e-12)
    with pytest.raises(ValueError):
        initialize(mu0, 0.0, g, params, store, cache)


def test_ray_minimum_on_a_parabola():
    # bracketed by doubling from eps below the minimum, and from an eps past it
    for eps in (0.05, 1.0):
        assert _ray_minimum(lambda a: (a - 0.3) ** 2, eps) == pytest.approx(0.3, abs=5e-5)


def test_ray_minimum_raises_on_a_falling_quotient():
    calls = []

    def falling(a):
        calls.append(a)
        return -a

    with pytest.raises(NonConvergenceError, match="still falls"):
        _ray_minimum(falling, 0.05)
    assert len(calls) == continuation.RAY_MAX_DOUBLINGS + 2


def test_initialize_start_sits_at_the_ray_minimum(coarse, tmp_path_factory, monkeypatch):
    g, params, cache = coarse
    found = []

    def recording(f, eps):
        a = _ray_minimum(f, eps)
        found.append((f, a))
        return a

    monkeypatch.setattr(continuation, "_ray_minimum", recording)
    store = FieldStore(tmp_path_factory.mktemp("ray"))
    initialize(1.2 * mu_FS(P, D), 0.05, g, params, store, cache)
    ((quotient, a),) = found
    assert a > 0
    assert quotient(a) <= quotient(a - 1e-3)
    assert quotient(a) <= quotient(a + 1e-3)


def test_branch_kappa_monotone(mini_branch):
    _, _, _, down, up = mini_branch
    for br in (down, up):
        assert np.all(np.diff(br.column("kappa")) > 0)


def test_branch_point_invariants(mini_branch):
    _, _, _, down, up = mini_branch
    for br in (down, up):
        for pt in br.points:
            assert pt.mu > 0 and pt.Z > 0
            assert 0.0 <= pt.asymmetry <= 1.0
            assert pt.X + pt.mu * pt.Y == pytest.approx(pt.Z, rel=1e-5)
            assert pt.kappa == pytest.approx(pt.Z ** ((P - 2) / P), rel=1e-6)
            assert pt.t == pytest.approx(pt.X / pt.Y, rel=1e-12)


def test_down_branch_reaches_bifurcation(mini_branch):
    _, _, _, down, _ = mini_branch
    mufs = mu_FS(P, D)
    nonsym = [pt for pt in down.points if pt.asymmetry > 1e-4]
    assert min(pt.mu for pt in nonsym) <= 1.1 * mufs
    # the walk holds only solved points: the start and the fixed-point
    # points, then one discrete symmetric point below the bifurcation
    computed = down.provenance["computed_points"]
    assert len(down.points) == computed + 1
    assert all(np.isfinite(pt.gap) for pt in down.points[1:])
    end = down.points[0]
    assert np.isnan(end.gap) and end.asymmetry <= 1e-4 and end.mu <= mufs


def test_down_walk_ends_on_discrete_soliton(mini_branch, coarse):
    # within 1.5 eta of kappa_FS the walk takes no fixed-point step: its
    # terminal point is the angular-constant grid solution at kappa_FS - eta/2
    store, _, _, down, _ = mini_branch
    g, params, _ = coarse
    kfs = critical_value_sym(mu_FS(P, D), params)
    (end,) = [pt for pt in down.points if pt.kappa == kfs - 0.5 * down.provenance["eta"]]
    mu, v = discrete_soliton(end.kappa, params, g)
    u = store.load(end.checkpoint, g)
    np.testing.assert_array_equal(u.values, np.repeat(v[:, None], g.n_phi, axis=1))
    assert end.mu == mu == down.provenance["terminal_mu"]
    assert end.residual == eqmu_residual(u, mu) <= 1e-10 * np.sqrt(u.norm_sq())
    assert np.all(np.isnan([end.gap, end.iterations, end.eigen_iterations, end.lu_solves]))
    computed = [pt for pt in down.points if np.isfinite(pt.gap)]
    assert down.provenance["computed_points"] == len(computed)
    assert min(pt.kappa for pt in computed) - kfs < 1.5 * down.provenance["eta"]


def test_down_walk_with_step_past_zero_has_no_terminal_point(mini_branch, coarse):
    # kappa_FS - eta/2 <= 0: the walk ends at once, with neither a fixed-point
    # solve nor a discrete point
    store, start, fp, _, _ = mini_branch
    g, params, cache = coarse
    kfs = critical_value_sym(mu_FS(P, D), params)
    down = continue_branch(start, 2.0 * kfs, "down", 0.0, g, params, store,
                           start_result=fp, cache=cache)
    assert down.provenance["computed_points"] == 1
    assert down.provenance["terminal_mu"] == start.mu
    assert down.points == [start]


def test_down_walk_keeps_its_points_when_the_end_point_fails(mini_branch, coarse,
                                                               tmp_path, monkeypatch):
    # a failed discrete end point stops the walk like a stall: the points
    # computed so far come back in the StepFailureError, none is lost
    _, start, fp, down, _ = mini_branch
    g, params, cache = coarse

    def failing(kappa, *args):
        raise NonConvergenceError(f"forced failure at kappa = {kappa}")

    monkeypatch.setattr(continuation, "discrete_soliton", failing)
    with pytest.raises(StepFailureError, match="end point failed: forced failure") as exc:
        continue_branch(start, down.provenance["eta"], "down", 0.0, g, params,
                        FieldStore(tmp_path), start_result=fp, cache=cache)
    branch = exc.value.branch
    computed = [pt.kappa for pt in down.points if np.isfinite(pt.gap)]
    assert [pt.kappa for pt in branch.points] == computed
    assert branch.provenance["computed_points"] == len(computed) > 1


def test_energy_ordering_along_branch(mini_branch):
    _, _, _, down, up = mini_branch
    params = ProblemParams(D, P, 1.0, "surface")
    mufs = mu_FS(P, D)
    for br in (down, up):
        for pt in br.points:
            if pt.mu > 1.01 * mufs and pt.asymmetry > 1e-3:
                assert pt.kappa < critical_value_sym(pt.mu, params)


def test_checkpoints_stored_and_loadable(mini_branch, coarse):
    store, _, _, down, _ = mini_branch
    g, _, _ = coarse
    pt = down.points[-1]
    u = store.load(pt.checkpoint, g)
    assert u.values.shape == g.shape


def test_merge_branches(mini_branch):
    _, _, _, down, up = mini_branch
    merged = merge_branches(down, up)
    ks = merged.column("kappa")
    assert np.all(np.diff(ks) > 0)
    assert len(merged.points) <= len(down.points) + len(up.points)


def test_branch_validation():
    params = ProblemParams(D, P, 1.0, "surface")
    pts = [BranchPoint(kappa=2.0, mu=1.0, X=1, Y=1, Z=2, t=1, asymmetry=0.0),
           BranchPoint(kappa=1.0, mu=0.5, X=1, Y=1, Z=2, t=1, asymmetry=0.0)]
    with pytest.raises(ValueError):
        Branch(params=params, points=pts)


def test_symmetric_discrete_branch_matches_closed_form(coarse):
    g, params, _ = coarse
    kfs = critical_value_sym(mu_FS(P, D), params)
    br = symmetric_discrete_branch([0.8 * kfs, kfs], g, params)
    assert len(br.points) == 2
    for pt in br.points:
        mu_cf = mu_from_kappa_sym(pt.kappa, params)
        assert pt.mu == pytest.approx(mu_cf, rel=2e-3)
        assert pt.asymmetry <= 1e-8
        _, _, Zc = soliton_norms(mu_cf, P, D, "surface")
        assert pt.Z == pytest.approx(Zc, rel=5e-3)


def test_symmetric_discrete_branch_stays_symmetric_far_above_bifurcation(coarse):
    # a 2-D fixed point seeded with the soliton loses angular constancy to
    # roundoff here and lands on the concentrated state (mu 73.8)
    g, params, _ = coarse
    kappa = 3.0 * critical_value_sym(mu_FS(P, D), params)
    (pt,) = symmetric_discrete_branch([kappa], g, params).points
    assert pt.asymmetry <= 1e-8
    # the discrete mu is 15.045 against 15.012 in closed form: an O(h^2)
    # gap that falls fourfold per grid doubling
    assert pt.mu == pytest.approx(mu_from_kappa_sym(kappa, params), rel=3e-3)


def test_symmetric_discrete_branch_matches_2d_fixed_point(coarse):
    g, params, cache = coarse
    kfs = critical_value_sym(mu_FS(P, D), params)
    kappas = [0.8 * kfs, kfs]
    br = symmetric_discrete_branch(kappas, g, params)
    for kappa, pt in zip(kappas, br.points):
        u0 = soliton(mu_from_kappa_sym(kappa, params), P).sample(g)
        fp = roothan_solve(kappa, self_potential(u0), g, params, warm_start=u0, cache=cache)
        assert fp.converged
        X, Y, Z = evaluate_norms(fp.u_eq)
        for got, want in [(pt.kappa, fp.kappa), (pt.mu, fp.mu), (pt.X, X), (pt.Y, Y), (pt.Z, Z)]:
            assert got == pytest.approx(want, rel=1e-7)


def test_discrete_soliton_solves_the_2d_grid_equation(coarse):
    # the 1-D reduction is exact: its profile, constant in phi, solves the
    # 2-D discrete mu-equation to roundoff
    g, params, _ = coarse
    kappa = 1.3 * critical_value_sym(mu_FS(P, D), params)
    mu, v = discrete_soliton(kappa, params, g)
    u = Field(g, np.repeat(v[:, None], g.n_phi, axis=1))
    assert eqmu_residual(u, mu) <= 1e-12 * np.sqrt(u.norm_sq())
    assert evaluate_norms(u)[2] ** ((P - 2.0) / P) == pytest.approx(kappa, rel=1e-12)


def test_symmetric_reference_failure_names_kappa(coarse, monkeypatch):
    g, params, _ = coarse
    monkeypatch.setattr(symmetric, "solve_banded", lambda lu, ab, b: np.full(b.shape, np.nan))
    with pytest.raises(NonConvergenceError, match="kappa = 12.5"):
        symmetric_discrete_branch([12.5], g, params)


def test_continue_branch_rejects_bad_args(mini_branch, coarse):
    store, start, fp, _, _ = mini_branch
    g, params, cache = coarse
    with pytest.raises(ValueError):
        continue_branch(start, -0.1, "down", 0.0, g, params, store, fp)
    with pytest.raises(ValueError):
        continue_branch(start, 0.1, "sideways", 0.0, g, params, store, fp)


def test_walk_at_p3_keeps_to_the_centred_branch(tmp_path):
    # at high mu the centred solution is a saddle under shifts in s; on the
    # full cylinder its roundoff odd part grew until the fixed point landed
    # off centre (mu 100 -> 175), the continuity guard rejected every step
    # and the up walk stalled at kappa 36.0.  The folded grid carries no odd
    # mode, so the walk ends at its stop.  The top of this walk is badly
    # under-resolved (the soliton spans about two cells of h_s): only its
    # continuity is checked, not its accuracy
    p = 3.0
    params = ProblemParams(D, p, 1.0, "surface")
    g = build_grid(8.0, 240, 28, params)
    store, cache = FieldStore(tmp_path), SolverCache()
    start, fp = initialize(1.2 * mu_FS(p, D), 0.05, g, params, store, cache)
    eta = start.kappa / 200.0
    down = continue_branch(start, eta, "down", 0.0, g, params, store,
                           start_result=fp, cache=cache)
    up = continue_branch(start, 8.0 * eta, "up", 2.6 * start.kappa, g, params, store,
                         start_result=fp, cache=cache)
    assert up.points[-1].kappa > 2.6 * start.kappa - 8.0 * eta
    branch = merge_branches(down, up)
    mu = branch.column("mu")
    assert np.all(np.diff(mu) > 0)
    assert np.max(mu[1:] / mu[:-1]) <= 1.25
