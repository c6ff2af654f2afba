import numpy as np
import pytest
from scipy.integrate import quad

from ckn.analysis import symmetric_theta_curve
from ckn.model import ProblemParams, build_grid, evaluate_Q
from ckn.symmetric import (
    J_sym_theta,
    critical_value_sym,
    lambda1_H,
    lambda_sym_theta,
    mu_FS,
    mu_from_kappa_sym,
    soliton,
    soliton_norms,
    t_symmetric,
    transverse_mode,
)

P, D = 2.8, 5


def quad_norms(mu, p):
    """Independent 1D quadrature of the closed-form profile."""
    sol = soliton(mu, p)
    lim = 60.0 / np.sqrt(mu)
    X = quad(lambda s: sol.du(s) ** 2, -lim, lim, limit=200)[0]
    Y = quad(lambda s: sol.u(s) ** 2, -lim, lim, limit=200)[0]
    Z = quad(lambda s: sol.u(s) ** P, -lim, lim, limit=200)[0]
    return X, Y, Z


def test_soliton_constants():
    sol = soliton(4.16667, P)
    assert sol.A == pytest.approx(9.0657, abs=2e-4)
    assert sol.b == pytest.approx(0.81650, abs=2e-5)


def test_soliton_domain_errors():
    with pytest.raises(ValueError):
        soliton(-1.0, P)
    with pytest.raises(ValueError):
        soliton(0.0, P)
    with pytest.raises(ValueError):
        soliton(1.0, 2.0)


def test_soliton_ode_residual():
    sol = soliton(4.16667, P)
    for s in (-2.3, 0.0, 0.7, 5.1):
        assert abs(sol.ode_residual(s)) < 1e-10


def test_soliton_peak_at_origin():
    sol = soliton(3.0, P)
    assert sol.u(0.0) == pytest.approx(sol.A, rel=1e-15)
    assert sol.du(0.0) == 0.0
    s = np.linspace(-4, 4, 101)
    assert np.argmax(sol.u(s)) == 50


@pytest.mark.parametrize("mu", [0.5, 2.0, mu_FS(P, D), 9.0])
def test_soliton_norms_match_quadrature(mu):
    X, Y, Z = soliton_norms(mu, P, D, "probability")
    Xq, Yq, Zq = quad_norms(mu, P)
    assert X == pytest.approx(Xq, rel=1e-9)
    assert Y == pytest.approx(Yq, rel=1e-9)
    assert Z == pytest.approx(Zq, rel=1e-9)
    # Euler-Lagrange pairing is exact
    assert X + mu * Y == pytest.approx(Z, rel=1e-12)


def test_soliton_norms_surface_factor():
    from ckn.model import sphere_area

    Xp, Yp, Zp = soliton_norms(2.0, P, D, "probability")
    Xs, Ys, Zs = soliton_norms(2.0, P, D, "surface")
    a = sphere_area(D)
    assert (Xs / Xp, Ys / Yp, Zs / Zp) == (pytest.approx(a),) * 3


def test_critical_value_anchor():
    params = ProblemParams(D, P, 1.0, "surface")
    assert critical_value_sym(mu_FS(P, D), params) == pytest.approx(15.65, abs=0.01)


def test_lambda1_H_values():
    mu = mu_FS(P, D)
    assert lambda1_H(mu, P, D) == pytest.approx(0.0, abs=1e-12)
    assert lambda1_H(1.0, P, D) == pytest.approx(3.04, abs=1e-12)
    assert lambda1_H(1e-12, P, D) == pytest.approx(D - 1, abs=1e-10)


def test_mu_FS_values():
    assert mu_FS(P, D) == pytest.approx(4.1667, abs=1e-4)
    assert mu_FS(2.78, D) == pytest.approx(4.2914, abs=1e-4)
    assert mu_FS(2.78, D) == pytest.approx(16.0 / (2.78**2 - 4.0), rel=1e-14)
    with pytest.raises(ValueError):
        mu_FS(2.0, D)
    # divergent but overflow-safe close to p = 2
    assert np.isfinite(mu_FS(2.0 + 1e-13, D))
    assert mu_FS(2.0 + 1e-13, D) > 1e12


def test_virial_identity_sweep():
    for mu in np.geomspace(0.01, 100.0, 17):
        X, Y, _ = soliton_norms(mu, P, D, "probability")
        assert X / Y == pytest.approx(t_symmetric(mu, P), rel=1e-12)


def test_t_symmetric_value():
    assert t_symmetric(mu_FS(P, D), P) == pytest.approx(0.69444, abs=1e-5)


def test_symmetric_curve_theta_one_collapse():
    params = ProblemParams(D, P, 1.0, "surface")
    mus = [1.0, 2.0, 5.0]
    curve = symmetric_theta_curve(params, 1.0, mus)
    for lam, J, mu in zip(curve.Lambda, curve.J, mus):
        assert lam == pytest.approx(mu, rel=1e-14)
        assert J == pytest.approx(critical_value_sym(mu, params), rel=1e-14)


def test_symmetric_curve_lambda_FS_identity():
    # Lambda_sym at mu_FS with theta = 5/7 equals the explicit threshold
    mu = mu_FS(P, D)
    assert lambda_sym_theta(mu, 5.0 / 7.0, P) == pytest.approx(2.7778, abs=1e-4)
    assert lambda_sym_theta(mu, 5.0 / 7.0, P) == pytest.approx(25.0 / 9.0, rel=1e-12)


def test_J_sym_matches_grid_quotient():
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(10.0, 400, 48, params)
    for theta in (5.0 / 7.0, 0.85, 1.0):
        for mu in (2.0, mu_FS(P, D)):
            u = soliton(mu, P).sample(g)
            lam = lambda_sym_theta(mu, theta, P)
            assert J_sym_theta(mu, theta, params) == pytest.approx(
                evaluate_Q(u, lam, theta), rel=5e-3)


def test_mu_from_kappa_inverts_closed_form():
    params = ProblemParams(D, P, 1.0, "surface")
    for mu in (0.3, 1.0, mu_FS(P, D), 17.0):
        kappa = critical_value_sym(mu, params)
        assert mu_from_kappa_sym(kappa, params) == pytest.approx(mu, rel=1e-12)


@pytest.fixture(scope="module")
def grid_surface():
    params = ProblemParams(D, P, 1.0, "surface")
    return build_grid(8.0, 600, 16, params), params


def test_transverse_eigenvalue_at_threshold(grid_surface):
    g, params = grid_surface
    lam1, _ = transverse_mode(mu_FS(P, D), params, g)
    assert abs(lam1) < 1e-3


@pytest.mark.parametrize("factor, tol", [(1.2, {"abs": 1e-3}), (3.0, {"rel": 1e-3})],
                         ids=["1.2", "3.0"])
def test_transverse_eigenvalue_above_threshold(grid_surface, factor, tol):
    # the lowest eigenpair: a one-signed s-profile at the closed-form value
    g, params = grid_surface
    mu = factor * mu_FS(P, D)
    lam1, w = transverse_mode(mu, params, g)
    assert lam1 == pytest.approx(lambda1_H(mu, P, D), **tol)
    assert lam1 < 0
    profile = w.values[1:-1, np.argmax(np.cos(g.phi))]
    assert np.all(profile > 0)


def test_transverse_mode_discretization_order():
    params = ProblemParams(D, P, 1.0, "surface")
    mu = 1.2 * mu_FS(P, D)
    exact = lambda1_H(mu, P, D)
    errs = []
    for n in (151, 301, 601):
        g = build_grid(8.0, n, 8, params)
        lam1, _ = transverse_mode(mu, params, g)
        errs.append(abs(lam1 - exact))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) >= 1.8


def test_descent_direction_properties(grid_surface):
    # above threshold the transverse mode is the descent direction off the
    # symmetric branch
    g, params = grid_surface
    mu = 1.2 * mu_FS(P, D)
    _, w = transverse_mode(mu, params, g)
    assert w.norm_sq() == pytest.approx(1.0, rel=1e-12)
    # odd in cos(phi): angular average vanishes
    avg = g.integrate(w.values)
    assert abs(avg) < 1e-12
