import numpy as np
import pytest

from ckn.analysis import (
    ThetaCurve,
    curve_values,
    detect_crossing,
    lambda_FS,
    lambda_GN,
    map_to_theta,
    min_envelope,
    symmetric_theta_curve,
)
from ckn.errors import AmbiguousCrossingError
from ckn.gn import J_infinity
from ckn.model import ProblemParams, build_grid, evaluate_Q, theta_critical
from ckn.symmetric import J_sym_theta, mu_FS, soliton_norms

P, D = 2.8, 5


def test_lambda_FS_paper_values():
    assert lambda_FS(P, 1.0, D) == pytest.approx(mu_FS(P, D), rel=1e-14)
    assert lambda_FS(P, 1.0, D) == pytest.approx(4.1667, abs=1e-4)
    assert lambda_FS(P, 5.0 / 7.0, D) == pytest.approx(2.7778, abs=1e-4)
    with pytest.raises(ValueError):
        lambda_FS(2.0, 1.0, D)


def test_lambda_FS_matches_curve_parametrization():
    rng = np.random.RandomState(0)
    for _ in range(100):
        p = 2.0 + rng.rand() * 1.2
        theta = theta_critical(p, D) + rng.rand() * (1 - theta_critical(p, D))
        mu = mu_FS(p, D)
        direct = lambda_FS(p, theta, D)
        via_t = theta * mu - (1 - theta) * mu * (p - 2) / (p + 2)
        assert direct == pytest.approx(via_t, rel=1e-12)


def test_curve_values_theta_one_collapse():
    X, Y, Z = soliton_norms(2.0, P, D, "surface")
    lam, J = curve_values(1.0, 2.0, X, Y, Z, P)
    assert lam == pytest.approx(2.0, rel=1e-12)
    assert J == pytest.approx(Z ** ((P - 2) / P), rel=1e-12)


def test_curve_values_symmetric_slope():
    for mu in (0.5, 2.0, 7.0):
        X, Y, Z = soliton_norms(mu, P, D, "surface")
        for theta in (5.0 / 7.0, 0.8, 0.9):
            lam, _ = curve_values(theta, mu, X, Y, Z, P)
            expected = mu * (theta - (1 - theta) * (P - 2) / (P + 2))
            assert lam == pytest.approx(expected, rel=1e-10)


def test_simplified_J_matches_direct_quotient():
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, 200, 24, params)
    rng = np.random.RandomState(5)
    vals = np.exp(-g.s[:, None] ** 2) * (1.0 + 0.3 * np.cos(g.phi)[None, :])
    from ckn.model import Field, evaluate_norms

    u = Field(g, vals)
    X, Y, Z = evaluate_norms(u)
    for theta in (5.0 / 7.0, 0.85, 1.0):
        mu_eff = 2.0
        lam, J = curve_values(theta, mu_eff, X, Y, Z, P)
        simplified = (theta * (X + mu_eff * Y)) ** theta * Y ** (1 - theta) / Z ** (2 / P)
        assert J == pytest.approx(simplified, rel=1e-12)
        # direct evaluation of the quotient at the mapped parameter
        assert J == pytest.approx(evaluate_Q(u, lam, theta), rel=1e-10)


def _line_curve(theta, lams, js, mus=None, symmetric=False):
    lams = np.asarray(lams, float)
    n = len(lams)
    mus = np.asarray(mus, float) if mus is not None else np.linspace(1, 2, n)
    return ThetaCurve(theta=theta, mu=mus, Lambda=lams, J=np.asarray(js, float),
                      symmetric=np.full(n, symmetric, dtype=bool))


def test_detect_crossing_synthetic():
    # straight lines crossing at Lambda = 1.5, J = 2.5
    sym = _line_curve(0.8, [0.0, 3.0], [1.0, 4.0], mus=[1.0, 4.0], symmetric=True)
    non = _line_curve(0.8, [0.0, 3.0], [4.0, 1.0], mus=[10.0, 13.0])
    c = detect_crossing(sym, non)
    assert c is not None
    assert c.Lambda1 == pytest.approx(1.5, rel=1e-12)
    assert c.J1 == pytest.approx(2.5, rel=1e-12)
    assert c.mu1_star == pytest.approx(2.5, rel=1e-12)
    assert c.mu1 == pytest.approx(11.5, rel=1e-12)


def test_detect_crossing_none():
    sym = _line_curve(0.8, [0.0, 3.0], [1.0, 4.0], symmetric=True)
    non = _line_curve(0.8, [0.0, 3.0], [5.0, 6.0])
    assert detect_crossing(sym, non) is None


def test_detect_crossing_identical_curves_ambiguous():
    sym = _line_curve(0.8, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0], symmetric=True)
    non = _line_curve(0.8, [0.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(AmbiguousCrossingError):
        detect_crossing(sym, non)


def test_detect_crossing_multiple_ambiguous():
    sym = _line_curve(0.8, [0.0, 4.0], [2.0, 2.0], mus=[1.0, 2.0], symmetric=True)
    non = _line_curve(0.8, [0.0, 1.0, 2.0, 3.0, 4.0],
                      [1.0, 3.0, 1.0, 3.0, 1.0], mus=[10, 11, 12, 13, 14])
    with pytest.raises(AmbiguousCrossingError) as exc:
        detect_crossing(sym, non)
    assert len(exc.value.crossings) == 4


def test_detect_crossing_theta_mismatch():
    sym = _line_curve(0.8, [0, 1], [1, 2], symmetric=True)
    non = _line_curve(0.9, [0, 1], [2, 1])
    with pytest.raises(ValueError):
        detect_crossing(sym, non)


def test_min_envelope_single_curve():
    c = _line_curve(0.8, [0.0, 2.0], [1.0, 3.0])
    rows, jumps = min_envelope([c], np.linspace(0, 2, 5))
    assert jumps == []
    for lam, j, src in rows:
        assert j == pytest.approx(1.0 + lam, rel=1e-12)
        assert src == 0


def test_min_envelope_switch_and_bound():
    c1 = _line_curve(0.8, [0.0, 2.0], [1.0, 3.0])
    c2 = _line_curve(0.8, [0.0, 2.0], [3.0, 1.0])
    grid = np.linspace(0, 2, 21)
    rows, jumps = min_envelope([c1, c2], grid)
    assert len(jumps) == 1
    assert jumps[0] == pytest.approx(1.0, abs=0.06)
    for lam, j, src in rows:
        assert j <= 1.0 + lam + 1e-12
        assert j <= 3.0 - lam + 1e-12


def test_min_envelope_empty_errors():
    with pytest.raises(ValueError):
        min_envelope([], [0.0, 1.0])
    c = _line_curve(0.8, [0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        min_envelope([c], [5.0, 6.0])


def test_symmetric_theta_curve_builder():
    params = ProblemParams(D, P, 5.0 / 7.0, "surface")
    mus = np.geomspace(0.5, 20, 50)
    c = symmetric_theta_curve(params, 5.0 / 7.0, mus)
    assert np.all(np.diff(c.Lambda) > 0)
    assert np.all(c.symmetric)
    k = 17
    assert c.J[k] == pytest.approx(J_sym_theta(mus[k], 5.0 / 7.0, params), rel=1e-12)


@pytest.fixture(scope="module")
def j_inf_pair(gn_profile_p28):
    pr = gn_profile_p28
    return (J_infinity(P, D, "surface", pr), J_infinity(P, D, "probability", pr))


def test_lambda_GN_residual_and_value(j_inf_pair):
    j_s, _ = j_inf_pair
    lam_gn = lambda_GN(P, D, j_s, "surface")
    assert np.isfinite(lam_gn) and lam_gn > 0
    # the bisection leaves essentially no residual
    theta = theta_critical(P, D)
    params = ProblemParams(D, P, theta, "surface")
    slope = theta - (1 - theta) * (P - 2) / (P + 2)
    mu_hat = lam_gn / slope
    assert abs(J_sym_theta(mu_hat, theta, params) - j_s) <= 1e-8
    assert lam_gn == pytest.approx(2.706965061745906, rel=1e-13)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            lambda_GN(P, D, bad, "surface")


def test_lambda_GN_mode_consistency(j_inf_pair):
    j_s, j_p = j_inf_pair
    a = lambda_GN(P, D, j_s, "surface")
    b = lambda_GN(P, D, j_p, "probability")
    assert a == pytest.approx(b, rel=1e-8)


def test_lambda_GN_monotone_crossing_exists(j_inf_pair):
    j_s, _ = j_inf_pair
    theta = theta_critical(P, D)
    params = ProblemParams(D, P, theta, "surface")
    lam_gn = lambda_GN(P, D, j_s, "surface")
    slope = theta - (1 - theta) * (P - 2) / (P + 2)
    mu_hat = lam_gn / slope
    # symmetric level below the limit level on the left, above on the right
    assert J_sym_theta(0.5 * mu_hat, theta, params) < j_s
    assert J_sym_theta(2.0 * mu_hat, theta, params) > j_s


def _envelope(run, theta):
    """Envelope of the symmetric reference and the branch's non-symmetric
    points on the Lambda grid `ckn analyze` uses."""
    nonsym = map_to_theta(run["branch"], theta)
    sym = map_to_theta(run["sym_branch"], theta)
    lo = max(nonsym.Lambda.min(), sym.Lambda.min())
    hi = min(nonsym.Lambda.max(), sym.Lambda.max())
    grid_l = np.linspace(lo, hi, 400)
    rows, jumps = min_envelope([sym, nonsym.nonsymmetric()], grid_l)
    return sym, nonsym, grid_l, rows, jumps


def test_envelope_jump_matches_crossing(run_p278):
    """The argmin switches once, within one grid cell of the detected
    crossing."""
    theta = 5.0 / 7.0
    sym, nonsym, grid_l, rows, jumps = _envelope(run_p278, theta)
    crossing = detect_crossing(sym, nonsym)
    assert crossing is not None
    cell = grid_l[1] - grid_l[0]
    assert len(jumps) == 1
    assert abs(jumps[0] - crossing.Lambda1) <= cell
    # envelope lies below both curves at their own sample points
    env_l = np.array([r[0] for r in rows])
    env_j = np.array([r[1] for r in rows])
    lo, hi = grid_l[0], grid_l[-1]
    for c in (sym, nonsym):
        inside = (c.Lambda > lo + cell) & (c.Lambda < hi - cell)
        ej = np.interp(c.Lambda[inside], env_l, env_j)
        assert np.all(ej <= c.J[inside] + cell * 10.0)


def test_envelope_single_jump_at_bifurcation(run_p27):
    """Without a crossing the envelope leaves the symmetric curve once,
    where the branch bifurcates from it."""
    theta = 5.0 / 7.0
    _, _, grid_l, _, jumps = _envelope(run_p27, theta)
    assert len(jumps) == 1
    assert abs(jumps[0] - lambda_FS(2.7, theta, D)) <= 2 * (grid_l[1] - grid_l[0])


def test_crossing_on_tier1_grid(run_p278):
    """The p = 2.78 crossing on the 240x28 grid, pinned to guard the
    polyline intersection against the discrete symmetric reference."""
    theta = 5.0 / 7.0
    crossing = detect_crossing(map_to_theta(run_p278["sym_branch"], theta),
                               map_to_theta(run_p278["branch"], theta))
    assert crossing.Lambda1 == pytest.approx(2.8618806443, rel=1e-8)
    assert crossing.mu1_star == pytest.approx(4.2867295, rel=1e-5)
    assert crossing.mu1 == pytest.approx(5.0732135, rel=1e-5)
