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


def test_symmetric_levels_are_power_laws():
    # the closed-form inversions of lambda_GN and mu_from_kappa_sym rest on
    # J_sym ~ mu^(theta - (p-2)/(2p)) and kappa_sym ~ mu^((p+2)/(2p))
    for p, d in ((2.7, 5), (2.8, 5), (3.2, 5), (2.5, 3), (4.0, 3), (2.2, 7)):
        for mode in ("surface", "probability"):
            params = ProblemParams(d, p, 1.0, mode)
            for mu in (0.3, 2.0, 11.0):
                ratio = critical_value_sym(2 * mu, params) / critical_value_sym(mu, params)
                assert ratio == pytest.approx(2 ** ((p + 2) / (2 * p)), rel=1e-13)
                for theta in (d * (p - 2) / (2 * p), 0.8, 1.0):
                    e = theta - (p - 2) / (2 * p)
                    ratio = J_sym_theta(2 * mu, theta, params) / J_sym_theta(mu, theta, params)
                    assert ratio == pytest.approx(2**e, rel=1e-13)


@pytest.fixture(scope="module")
def grid_surface():
    params = ProblemParams(D, P, 1.0, "surface")
    return build_grid(8.0, 600, 16, params), params


def transverse_residual(mu, s, f, lam):
    """Three-point residual of -f'' + (mu + d-1 - (p-1) u_sym^(p-2)) f - lam f
    on the interior of the uniform nodes s."""
    pot = mu + D - 1.0 - (P - 1.0) * soliton(mu, P).u(s[1:-1]) ** (P - 2.0)
    h = s[1] - s[0]
    return (-f[2:] + 2.0 * f[1:-1] - f[:-2]) / h**2 + (pot - lam) * f[1:-1]


def transverse_profile(g, w):
    """s-profile of a field separable as profile(s) cos(phi)."""
    j = np.argmax(np.cos(g.phi))
    f = w.values[:, j] / np.cos(g.phi[j])
    np.testing.assert_allclose(w.values, np.outer(f, np.cos(g.phi)), rtol=0, atol=1e-15)
    return f


def check_transverse_eigenpair(g, params, mu, tol):
    """The returned pair is the lowest eigenpair of the three-point
    transverse operator on the grid up to O(h^2): Rayleigh quotient at
    lam1, small residual, one-signed profile."""
    lam1, w = transverse_mode(mu, params, g)
    f = transverse_profile(g, w)
    x = f[1:-1]
    r = transverse_residual(mu, g.s, f, 0.0)
    assert x @ r / (x @ x) == pytest.approx(lam1, **tol)
    assert np.linalg.norm(r - lam1 * x) <= 1e-2 * np.linalg.norm(x)
    assert np.all(f > 0)
    return lam1


def test_transverse_eigenvalue_at_threshold(grid_surface):
    g, params = grid_surface
    assert check_transverse_eigenpair(g, params, mu_FS(P, D), {"abs": 1e-3}) == 0.0


@pytest.mark.parametrize("factor, tol", [(1.2, {"abs": 1e-3}), (3.0, {"rel": 1e-3})],
                         ids=["1.2", "3.0"])
def test_transverse_eigenvalue_above_threshold(grid_surface, factor, tol):
    g, params = grid_surface
    assert check_transverse_eigenpair(g, params, factor * mu_FS(P, D), tol) < 0


def test_transverse_mode_residual_second_order():
    # the closed-form pair (u_sym^(p/2), lambda1_H) solves the continuous
    # transverse equation: its three-point residual falls as h^2
    for factor in (1.0, 1.2, 3.0):
        mu = factor * mu_FS(P, D)
        lam = lambda1_H(mu, P, D)
        errs = []
        for n in (151, 301, 601):
            s = np.linspace(-8.0, 8.0, n)
            f = soliton(mu, P).u(s) ** (P / 2.0)
            errs.append(np.max(np.abs(transverse_residual(mu, s, f, lam))) / np.max(f))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) >= 1.9


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
