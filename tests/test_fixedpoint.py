import numpy as np
import pytest

from ckn import fixedpoint
from ckn.errors import MonotonicityError, NormalizationError
from ckn.eigensolver import EigenResult, SolverCache, q_norm
from ckn.fixedpoint import (
    eqmu_residual,
    rescale_to_eqmu,
    roothan_solve,
    self_potential,
)
from ckn.model import Field, ProblemParams, build_grid, evaluate_Q, evaluate_norms
from ckn.symmetric import critical_value_sym, discrete_soliton, mu_FS, soliton

P, D = 2.8, 5


@pytest.fixture(scope="module")
def setup():
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, 400, 48, params)
    return g, params, SolverCache()


def soliton_start(g, mu):
    u = soliton(mu, g.p).sample(g)
    V0 = self_potential(u)
    kappa = float(g.integrate(np.abs(u.values) ** g.p) ** ((g.p - 2.0) / g.p))
    return kappa, V0, u


def test_soliton_is_fixed_point(setup):
    g, params, cache = setup
    mu = mu_FS(P, D)
    kappa, V0, u = soliton_start(g, mu)
    fp = roothan_solve(kappa, V0, g, params, warm_start=u, cache=cache)
    assert fp.converged
    assert fp.mu == pytest.approx(mu, rel=5e-4)
    # the eigenvalue stabilizes within the first three iterations
    dl = np.abs(np.diff(fp.lambda_history))
    assert dl.size == 0 or dl[min(2, dl.size - 1)] <= 1e-7 * (1 + abs(fp.mu))
    # and the iterate stays at the symmetric solution
    nrm = np.sqrt(u.norm_sq())
    drift = np.sqrt(Field(g, fp.u.values - u.values / nrm).norm_sq())
    assert drift < 5e-3


def test_lambda_history_monotone(setup):
    g, params, cache = setup
    kappa, V0, u = soliton_start(g, 2.0)
    # start away from the fixed point: blend with a flat potential
    flat = np.full(g.shape, 1.0)
    mix = Field(g, 0.5 * V0.values + 0.5 * flat / q_norm(Field(g, flat)))
    fp = roothan_solve(kappa, Field(g, mix.values / q_norm(mix)), g, params, cache=cache)
    hist = fp.lambda_history
    assert np.all(np.diff(hist) <= 1e-12)
    assert hist.min() >= -fp.mu - 1.0


def test_self_consistency_at_convergence(setup):
    g, params, cache = setup
    kappa, V0, u = soliton_start(g, 2.0)
    fp = roothan_solve(kappa, V0, g, params, warm_start=u, cache=cache)
    gap = q_norm(Field(g, self_potential(fp.u).values - fp.V.values))
    assert gap <= 1e-8


def test_symmetric_sector_closure(setup):
    g, params, cache = setup
    kappa, V0, u = soliton_start(g, 2.0)
    fp = roothan_solve(kappa, V0, g, params, warm_start=u, cache=cache)
    from ckn.continuation import asymmetry

    assert asymmetry(fp.u) <= 1e-8


def test_eqmu_residual_small(setup):
    g, params, cache = setup
    kappa, V0, u = soliton_start(g, mu_FS(P, D))
    fp = roothan_solve(kappa, V0, g, params, warm_start=u, cache=cache)
    assert eqmu_residual(fp.u_eq, fp.mu) <= 1e-5
    X, Y, Z = evaluate_norms(fp.u_eq)
    assert X + fp.mu * Y == pytest.approx(Z, rel=1e-6)
    assert fp.kappa == pytest.approx(Z ** ((P - 2) / P), rel=1e-6)


def test_rescale_to_eqmu_identity(setup):
    g, params, _ = setup
    mu = 2.0
    u = soliton(mu, P).sample(g)
    kappa = float(g.integrate(np.abs(u.values) ** g.p) ** ((g.p - 2.0) / g.p))
    w = rescale_to_eqmu(u, kappa)
    np.testing.assert_allclose(w.values, u.values, rtol=1e-12)
    # scaled by 2 comes back to the soliton
    w2 = rescale_to_eqmu(Field(g, 2.0 * u.values), kappa)
    np.testing.assert_allclose(w2.values, u.values, rtol=1e-12)


def test_critical_value_consistency(setup):
    g, params, cache = setup
    mu = mu_FS(P, D)
    kappa, V0, u = soliton_start(g, mu)
    fp = roothan_solve(kappa, V0, g, params, warm_start=u, cache=cache)
    cv = evaluate_norms(fp.u_eq)[2] ** ((P - 2.0) / P)
    assert cv == pytest.approx(15.65, abs=0.05)
    assert cv == pytest.approx(evaluate_Q(fp.u_eq, fp.mu, 1.0), rel=1e-8)


def test_unnormalized_potential_rejected(setup):
    g, params, _ = setup
    with pytest.raises(NormalizationError):
        roothan_solve(1.0, Field(g, np.full(g.shape, 1.0)), g, params)


def test_bad_kappa_rejected(setup):
    g, params, _ = setup
    _, V0, _ = soliton_start(g, 2.0)
    with pytest.raises(ValueError):
        roothan_solve(-1.0, V0, g, params)


def test_rising_eigenvalue_raises_typed_error(monkeypatch):
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, 48, 10, params)
    kappa, V0, u = soliton_start(g, 2.0)
    unit = Field(g, u.values / np.sqrt(u.norm_sq()))
    lams = iter([-2.0, -1.0])

    def rising(kappa, V, grid, **kwargs):
        return EigenResult(lam=next(lams), u=unit, iterations=1, residual=0.0, lu_solves=0)

    monkeypatch.setattr(fixedpoint, "lowest_eigenpair", rising)
    with pytest.raises(MonotonicityError, match="increased"):
        roothan_solve(kappa, V0, g, params)


def asymmetric_start(kappa_factor, n_s=64, n_phi=10):
    """Small grid, kappa = kappa_factor * kappa_FS, and the discrete symmetric
    potential tilted by a cos(phi) bump, so the slow amplitude mode is excited."""
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, n_s, n_phi, params)
    kappa = kappa_factor * critical_value_sym(mu_FS(P, D), params)
    mu_sym, v = discrete_soliton(kappa, params, g)
    V = self_potential(Field(g, np.repeat(v[:, None], g.n_phi, axis=1))).values
    V = V * (1.0 + 0.3 * np.cos(g.phi)[None, :] * np.exp(-g.s**2)[:, None])
    V0 = Field(g, V)
    return g, params, kappa, Field(g, V / q_norm(V0)), mu_sym


def test_rejected_candidates_never_enter_history(monkeypatch):
    # every mixed candidate reports a higher eigenvalue, so the safeguard
    # must fall back to the plain step each time
    g, params, kappa, V0, mu_sym = asymmetric_start(0.9)
    real = fixedpoint.lowest_eigenpair
    rejected, iterations, lu_solves = [], [], []

    def raise_mixed(kappa, V, grid, warm_start=None, **kwargs):
        res = real(kappa, V, grid, warm_start=warm_start, **kwargs)
        iterations.append(res.iterations)
        lu_solves.append(res.lu_solves)
        plain = warm_start is None or np.array_equal(V.values, self_potential(warm_start).values)
        if plain:
            return res
        rejected.append(res.lam + 1.0)
        return EigenResult(lam=rejected[-1], u=res.u, iterations=res.iterations,
                           residual=res.residual, lu_solves=res.lu_solves)

    monkeypatch.setattr(fixedpoint, "lowest_eigenpair", raise_mixed)
    fp = roothan_solve(kappa, V0, g, params, max_iter=400)
    assert rejected
    assert fp.converged
    assert fp.mu == pytest.approx(mu_sym, rel=1e-9)
    hist = fp.lambda_history
    assert np.all(np.diff(hist) <= fixedpoint.MONOTONE_SLACK)
    assert not set(rejected) & set(hist)
    assert fp.iterations == len(hist) == len(iterations) - len(rejected)
    assert fp.eigen_iterations == sum(iterations)
    assert fp.lu_solves == sum(lu_solves)


def test_matches_discrete_soliton_below_bifurcation():
    # below kappa_FS the only critical point is the symmetric one, which the
    # exact 1-D reduction computes independently of the fixed point
    g, params, kappa, V0, mu_sym = asymmetric_start(0.9)
    fp = roothan_solve(kappa, V0, g, params)
    assert fp.converged
    assert fp.mu == pytest.approx(mu_sym, rel=1e-9)


def test_near_bifurcation_iteration_count():
    # the plain iteration needs 429 steps here: the amplitude mode
    # contracts at a rate close to 1 next to the bifurcation
    g, params, kappa, V0, mu_sym = asymmetric_start(0.97)
    fp = roothan_solve(kappa, V0, g, params)
    assert fp.converged
    assert fp.iterations <= 40
    assert fp.mu == pytest.approx(mu_sym, rel=1e-9)


def test_right_below_bifurcation_iteration_count():
    # at 0.995 kappa_FS the Anderson safeguard cycled with the inexact
    # shift-invert solves (154 iterations); the mixed candidates must keep
    # converging this close to the bifurcation
    g, params, kappa, V0, mu_sym = asymmetric_start(0.995)
    fp = roothan_solve(kappa, V0, g, params)
    assert fp.converged
    assert fp.iterations <= 60
    assert fp.mu == pytest.approx(mu_sym, rel=1e-9)


def test_result_carries_certificate(setup):
    g, params, cache = setup
    kappa, V0, u = soliton_start(g, 2.0)
    fp = roothan_solve(kappa, V0, g, params, warm_start=u, cache=cache)
    assert fp.residual == eqmu_residual(fp.u_eq, fp.mu)
    assert fp.gap == pytest.approx(
        q_norm(Field(g, self_potential(fp.u).values - fp.V.values)), rel=1e-12)
    assert fp.gap <= fixedpoint.SELF_CONSISTENCY_TOL
