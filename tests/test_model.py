import numpy as np
import pytest
from scipy.integrate import quad

from ckn.model import (
    Field,
    ProblemParams,
    build_grid,
    dirichlet_energy,
    evaluate_norms,
    evaluate_Q,
    sphere_area,
    theta_critical,
)
from ckn.symmetric import mu_FS, soliton, soliton_norms


def test_theta_critical_values():
    assert theta_critical(2.8, 5) == pytest.approx(0.714286, abs=1e-6)
    assert theta_critical(2.8, 5) == pytest.approx(5.0 / 7.0, rel=1e-14)
    # p -> 2+ limit vanishes
    assert theta_critical(2.0 + 1e-12, 5) == pytest.approx(0.0, abs=1e-11)
    # critical Sobolev exponent gives exactly 1
    assert theta_critical(10.0 / 3.0, 5) == pytest.approx(1.0, rel=1e-14)


def test_theta_critical_domain():
    with pytest.raises(ValueError):
        theta_critical(2.0, 5)
    with pytest.raises(ValueError):
        theta_critical(1.5, 5)


def test_params_validation():
    ProblemParams(5, 2.8, 1.0, "surface")
    with pytest.raises(ValueError):
        ProblemParams(5, 2.0, 1.0)  # p = 2 excluded
    with pytest.raises(ValueError):
        ProblemParams(5, 10.0 / 3.0, 1.0)  # p = 2d/(d-2) excluded
    with pytest.raises(ValueError):
        ProblemParams(5, 2.8, 0.5)  # below theta_critical
    with pytest.raises(ValueError):
        ProblemParams(2, 2.5, 1.0)  # d < 3 unsupported
    with pytest.raises(ValueError):
        ProblemParams(5, 2.8, 1.0, "lebesgue")


def test_quadrature_of_constant_probability():
    params = ProblemParams(5, 2.8, 1.0, "probability")
    g = build_grid(10.0, 400, 48, params)
    assert g.integrate(np.ones(g.shape)) == pytest.approx(20.0, abs=1e-9)


def test_quadrature_of_constant_surface():
    params = ProblemParams(5, 2.8, 1.0, "surface")
    g = build_grid(10.0, 400, 48, params)
    assert g.integrate(np.ones(g.shape)) == pytest.approx(
        20.0 * sphere_area(5), rel=1e-10)


def test_quadrature_cos2_matches_1d_oracle():
    # oracle: int cos^2 sin^3 / int sin^3 over (0, pi)
    num = quad(lambda t: np.cos(t) ** 2 * np.sin(t) ** 3, 0, np.pi)[0]
    den = quad(lambda t: np.sin(t) ** 3, 0, np.pi)[0]
    assert num / den == pytest.approx(1.0 / 5.0, rel=1e-12)
    params = ProblemParams(5, 2.8, 1.0, "probability")
    g = build_grid(10.0, 400, 48, params)
    val = g.integrate(np.repeat(np.cos(g.phi)[None, :] ** 2, g.n_s, axis=0))
    assert val == pytest.approx(20.0 / 5.0, rel=1e-10)


def test_quadrature_odd_polynomial_vanishes():
    params = ProblemParams(5, 2.8, 1.0, "probability")
    g = build_grid(10.0, 200, 24, params)
    for k in (1, 3):
        val = g.integrate(np.repeat(np.cos(g.phi)[None, :] ** k, g.n_s, axis=0))
        assert abs(val) < 1e-12


def test_pole_weights_vanish():
    params = ProblemParams(5, 2.8, 1.0, "surface")
    g = build_grid(8.0, 100, 16, params)
    assert g.wphi[0] == 0.0
    assert g.wphi[-1] == 0.0
    assert np.all(g.ep[:, 0] == 0.0)
    assert np.all(g.ep[:, -1] == 0.0)
    assert np.all(np.diff(g.s) > 0)
    assert np.all(np.diff(g.phi) > 0)


def test_build_grid_rejects_bad_sizes():
    params = ProblemParams(5, 2.8)
    with pytest.raises(ValueError):
        build_grid(-1.0, 100, 16, params)
    with pytest.raises(ValueError):
        build_grid(8.0, 8, 16, params)
    with pytest.raises(ValueError):
        build_grid(8.0, 100, 4, params)


@pytest.mark.parametrize("folded", [False, True])
def test_integrate_is_the_weighted_double_sum(folded):
    g = build_grid(8.0, 49, 10, ProblemParams(5, 2.8))
    if folded:
        g = g.even
    v = np.random.default_rng(3).random(g.shape)
    ref = np.einsum("i,j,ij->", g.ws, g.wphi, v)
    assert g.integrate(v) == pytest.approx(ref, rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_field_rejects_exactly_the_non_finite_values():
    # a single nan or inf is caught, and so are +inf and -inf together,
    # whose sum is nan; finite values are accepted even when their sum
    # overflows
    g = build_grid(8.0, 32, 8, ProblemParams(5, 2.8))
    for bad in ([np.nan], [np.inf], [np.inf, -np.inf]):
        v = np.ones(g.shape)
        v.flat[:len(bad)] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Field(g, v)
    big = np.full(g.shape, np.finfo(float).max)
    with np.errstate(over="ignore"):
        assert np.isinf(big.sum())
    np.testing.assert_array_equal(Field(g, big).values, big)


def test_field_validation():
    params = ProblemParams(5, 2.8)
    g = build_grid(8.0, 32, 8, params)
    with pytest.raises(ValueError):
        Field(g, np.ones((3, 3)))
    bad = np.ones(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)


@pytest.fixture(scope="module")
def soliton_surface():
    p, d = 2.8, 5
    params = ProblemParams(d, p, 1.0, "surface")
    g = build_grid(10.0, 400, 48, params)
    mu = mu_FS(p, d)
    u = soliton(mu, p).sample(g)
    return g, u, mu, params


def test_norms_of_sampled_soliton(soliton_surface):
    g, u, mu, params = soliton_surface
    X, Y, Z = evaluate_norms(u)
    Xc, Yc, Zc = soliton_norms(mu, g.p, g.d, "surface")
    # closed-form oracle Z = A^p I_m / b times |S^4|; about 1.5e4 in this mode
    assert Zc == pytest.approx(26.319 * 576.5, rel=2e-3)
    assert Z == pytest.approx(Zc, rel=5e-3)
    assert Y == pytest.approx(Yc, rel=1e-10)
    assert X == pytest.approx(Xc, rel=2e-3)


def test_norm_of_constant_has_zero_gradient():
    params = ProblemParams(5, 2.8)
    g = build_grid(8.0, 64, 12, params)
    X, Y, Z = evaluate_norms(Field(g, np.full(g.shape, 3.0)))
    assert X == 0.0
    assert Y == pytest.approx(9.0 * g.integrate(np.ones(g.shape)), rel=1e-12)


def test_norm_scaling_homogeneity():
    params = ProblemParams(5, 2.8)
    g = build_grid(8.0, 64, 12, params)
    rng = np.random.RandomState(7)
    u = Field(g, rng.rand(*g.shape) + 0.5)
    X, Y, Z = evaluate_norms(u)
    lam = -2.3
    X2, Y2, Z2 = evaluate_norms(Field(g, lam * u.values))
    assert X2 == pytest.approx(lam**2 * X, rel=1e-12)
    assert Y2 == pytest.approx(lam**2 * Y, rel=1e-12)
    assert Z2 == pytest.approx(abs(lam) ** g.p * Z, rel=1e-12)


def test_zero_field_rejected():
    params = ProblemParams(5, 2.8)
    g = build_grid(8.0, 32, 8, params)
    with pytest.raises(ValueError):
        evaluate_norms(Field(g, np.zeros(g.shape)))


def test_Q_at_soliton_matches_paper_anchor(soliton_surface):
    g, u, mu, params = soliton_surface
    assert evaluate_Q(u, mu, 1.0) == pytest.approx(15.65, abs=0.05)


def test_Q_probability_mode_value():
    p, d = 2.8, 5
    params = ProblemParams(d, p, 1.0, "probability")
    g = build_grid(10.0, 400, 48, params)
    mu = mu_FS(p, d)
    u = soliton(mu, p).sample(g)
    # independent closed form: (A^p I_m / b)^((p-2)/p)
    _, _, Zc = soliton_norms(mu, p, d, "probability")
    assert evaluate_Q(u, mu, 1.0) == pytest.approx(Zc ** ((p - 2) / p), rel=1e-3)
    assert evaluate_Q(u, mu, 1.0) == pytest.approx(6.149, abs=2e-3)


def test_Q_scale_invariance():
    params = ProblemParams(5, 2.8)
    g = build_grid(8.0, 64, 12, params)
    rng = np.random.RandomState(3)
    u = Field(g, rng.rand(*g.shape) + 0.2)
    q1 = evaluate_Q(u, 1.7, 0.8)
    q2 = evaluate_Q(Field(g, 3.0 * u.values), 1.7, 0.8)
    assert q2 == pytest.approx(q1, rel=1e-12)


def test_Q_negative_base_error():
    params = ProblemParams(5, 2.8)
    g = build_grid(8.0, 32, 8, params)
    u = Field(g, np.ones(g.shape))
    with pytest.raises(ValueError):
        evaluate_Q(u, -1.0, 0.8)  # X = 0, Lambda Y < 0, fractional theta
    # integer theta tolerates a negative base
    assert evaluate_Q(u, -1.0, 1.0) < 0


def test_measure_mode_consistency():
    p, d = 2.8, 5
    gp = build_grid(8.0, 64, 12, ProblemParams(d, p, 1.0, "probability"))
    gs = build_grid(8.0, 64, 12, ProblemParams(d, p, 1.0, "surface"))
    rng = np.random.RandomState(11)
    vals = rng.rand(*gp.shape) + 0.3
    for theta, lam in [(1.0, 2.0), (0.8, 1.3), (5.0 / 7.0, 0.7)]:
        q_p = evaluate_Q(Field(gp, vals), lam, theta)
        q_s = evaluate_Q(Field(gs, vals), lam, theta)
        assert q_s == pytest.approx(q_p * sphere_area(d) ** ((p - 2) / p), rel=1e-10)


def test_euler_lagrange_pairing_on_grid(soliton_surface):
    g, u, mu, params = soliton_surface
    X, Y, Z = evaluate_norms(u)
    assert X + mu * Y == pytest.approx(Z, rel=5e-3)


def _even_field(g, seed, dirichlet=False):
    """A random field on g, even in s (zero on s = +-L when `dirichlet`)."""
    v = np.random.default_rng(seed).random(g.shape) + 0.1
    v = v + v[::-1]
    if dirichlet:
        v[0] = v[-1] = 0.0
    return Field(g, v)


def _laplace(g, values):
    """-Laplace u = M^-1 K u = M^-1/2 B M^1/2 u on the dofs of g, u zero on
    the first and last rows."""
    sq = np.sqrt(g.m)
    return g.matvec(g.restrict(values) * sq, 0.0) / sq


def _folded_readings(g, f):
    """What the folded grid and unfold read of a field f on g.even."""
    h = g.even
    return [h.integrate(f.values), dirichlet_energy(f), _laplace(h, f.values),
            h.restrict(f.values), g.unfold(f).values]


@pytest.mark.parametrize("n_s", [48, 49])
def test_folded_grid_reads_even_fields_as_the_full_grid(n_s):
    # every integral, energy and interior action of an even field is the
    # same on the even sector, with no node on s = 0 (even n_s) or with one;
    # its mirror row and that row's edge weigh nothing, so no value in the
    # mirror row is ever read
    g = build_grid(8.0, n_s, 10, ProblemParams(5, 2.8))
    h = g.even
    assert h is g.even and h.n_s == n_s - n_s // 2 + 1
    np.testing.assert_array_equal(h.s, g.s[n_s // 2 - 1:])
    assert g.es.shape == (n_s - 1, 10) and h.es.shape == (h.n_s - 1, 10)
    assert h.ws[0] == 0 and np.all(h.es[0] == 0) and np.all(h.ep[0] == 0)
    rng = np.random.default_rng(n_s)
    for seed in range(3):
        u = _even_field(g, seed)
        f = g.fold(u)
        for full, half in [(g.integrate(u.values), h.integrate(f.values)),
                           (dirichlet_energy(u), dirichlet_energy(f)),
                           (g.integrate(u.values**3), h.integrate(f.values**3))]:
            assert half == pytest.approx(full, rel=1e-13)
        mirror = f.values.copy()
        mirror[0] = 100.0 * rng.standard_normal(g.n_phi)
        for a, b in zip(_folded_readings(g, f), _folded_readings(g, Field(h, mirror))):
            np.testing.assert_array_equal(a, b)
        u = _even_field(g, seed, dirichlet=True)
        full = _laplace(g, u.values).reshape(n_s - 2, -1)[n_s // 2 - 1:]
        half = _laplace(h, g.fold(u).values).reshape(h.n_s - 2, -1)
        np.testing.assert_allclose(half, full, rtol=0, atol=1e-13 * np.abs(full).max())


def test_unfold_inverts_fold_exactly():
    for n_s in (48, 49):
        g = build_grid(8.0, n_s, 10, ProblemParams(5, 2.8))
        u = _even_field(g, 5)
        f = g.fold(u)
        np.testing.assert_array_equal(g.unfold(f).values, u.values)
        # the folded grid's dofs are rows 1:-1, as on the full grid
        np.testing.assert_array_equal(g.even.embed(g.even.restrict(f.values))[1:-1, 1:-1],
                                      f.values[1:-1, 1:-1])


def test_fold_rejects_a_field_that_is_not_even():
    g = build_grid(8.0, 48, 10, ProblemParams(5, 2.8))
    u = _even_field(g, 2)
    odd = np.repeat(np.sign(g.s)[:, None] * np.exp(-g.s**2)[:, None], g.n_phi, axis=1)
    scale = np.sqrt(u.norm_sq() / Field(g, odd).norm_sq())
    g.fold(Field(g, u.values + 1e-12 * scale * odd))  # roundoff-sized: folds
    with pytest.raises(ValueError, match="not even"):
        g.fold(Field(g, u.values + 1e-9 * scale * odd))
    with pytest.raises(ValueError, match="not symmetric"):
        g.even.even


@pytest.mark.parametrize("n_s", [48, 49])
def test_s_operator_is_the_grid_on_angular_constant_fields(n_s):
    # the folded grid's 1-D operator is the full grid's action on an even
    # profile constant in phi; its band is finite in the corners
    # solve_banded checks but never reads
    g = build_grid(8.0, n_s, 10, ProblemParams(5, 2.8))
    h = g.even
    prof = np.exp(-g.s**2)
    prof[[0, -1]] = 0.0
    ab = h.s_operator()
    assert np.all(np.isfinite(ab))
    v = prof[n_s // 2:-1]
    Av = ab[1] * v
    Av[:-1] += ab[0, 1:] * v[1:]
    Av[1:] += ab[2, :-1] * v[:-1]
    full = _laplace(g, np.repeat(prof[:, None], g.n_phi, axis=1)).reshape(n_s - 2, -1)
    np.testing.assert_allclose(Av, full[n_s // 2 - 1:, 0], rtol=1e-12, atol=1e-12)
