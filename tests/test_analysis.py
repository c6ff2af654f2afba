import numpy as np
import pytest

from ckn.analysis import (
    ThetaCurve,
    compare,
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
from ckn.symmetric import mu_FS, soliton_norms

P, D = 2.8, 5


def j_sym(mu, theta, mode="surface"):
    """Symmetric level theta^theta Z^theta Y^(1-theta) / Z^(2/p), from the
    Pohozaev identity X + mu Y = Z."""
    _, Y, Z = soliton_norms(mu, P, D, mode)
    return theta**theta * Z**theta * Y ** (1 - theta) / Z ** (2 / P)


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
    # on one line but apart in Lambda: no overlap
    non = _line_curve(0.8, [4.0, 5.0], [5.0, 6.0])
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
    mu1s = [c.mu1 for c in exc.value.crossings]
    assert mu1s == sorted(mu1s)


def _segment_crossings(sym, nonsym):
    """Reference for detect_crossing: every segment of the non-symmetric
    polyline against every segment of the symmetric one, each meeting point
    as (mu1, mu1_star, Lambda1, J1)."""
    ns = nonsym.nonsymmetric()
    hits = []
    for i in range(len(ns.mu) - 1):
        for j in range(len(sym.mu) - 1):
            a = (ns.Lambda[i + 1] - ns.Lambda[i], ns.J[i + 1] - ns.J[i])
            b = (sym.Lambda[j + 1] - sym.Lambda[j], sym.J[j + 1] - sym.J[j])
            r = (sym.Lambda[j] - ns.Lambda[i], sym.J[j] - ns.J[i])
            den = a[0] * b[1] - a[1] * b[0]
            if den == 0:
                continue
            s = (r[0] * b[1] - r[1] * b[0]) / den
            t = (r[0] * a[1] - r[1] * a[0]) / den
            if 0 <= s <= 1 and 0 <= t <= 1:
                hits.append((ns.mu[i] + s * (ns.mu[i + 1] - ns.mu[i]),
                             sym.mu[j] + t * (sym.mu[j + 1] - sym.mu[j]),
                             ns.Lambda[i] + s * a[0], ns.J[i] + s * a[1]))
    return sorted(hits)


def test_detect_crossing_matches_segment_pairs():
    # random polylines fold many times in Lambda; their mu ranges are far
    # apart, so no meeting point is taken for a contact at the bifurcation
    rng = np.random.RandomState(3)
    statuses = np.zeros(3, int)  # none, found, ambiguous
    for _ in range(300):
        n, m = rng.randint(2, 12, size=2)
        non = _line_curve(0.8, rng.rand(n) * 4, 1 + rng.rand(n) * 2, mus=np.linspace(10, 20, n))
        sym = _line_curve(0.8, rng.rand(m) * 4, 1 + rng.rand(m) * 2, mus=np.linspace(1, 2, m),
                          symmetric=True)
        expected = _segment_crossings(sym, non)
        try:
            c = detect_crossing(sym, non)
            got = [] if c is None else [c]
        except AmbiguousCrossingError as exc:
            got = exc.crossings
            assert len(got) > 1
        assert len(got) == len(expected)
        for c, e in zip(got, expected):
            for x, y in zip((c.mu1, c.mu1_star, c.Lambda1, c.J1), e):
                assert abs(x - y) <= 1e-10 * max(abs(y), 1.0)
        statuses[min(len(got), 2)] += 1
    assert statuses.min() >= 20


def test_detect_crossing_on_a_fold_node():
    # the reference meets the branch at its Lambda fold, the node the two
    # monotone pieces share, and runs at nearly the slope of the upper arm;
    # the crossing is reported once, at the node
    non = _line_curve(0.8, [2.0, 1.0, 2.0], [1.0, 2.0, 3.0], mus=[10.0, 11.0, 12.0])
    for e in (0.5, 3e-9):
        sym = _line_curve(0.8, [0.0, 2.0], [1.0 + e, 3.0 - e], mus=[1.0, 2.0], symmetric=True)
        c = detect_crossing(sym, non)
        assert c.Lambda1 == pytest.approx(1.0, rel=1e-12)
        assert c.J1 == pytest.approx(2.0, rel=1e-12)
        assert c.mu1 == pytest.approx(11.0, rel=1e-12)
        assert c.mu1_star == pytest.approx(1.5, rel=1e-12)


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
    assert c.J[k] == pytest.approx(j_sym(mus[k], 5.0 / 7.0), rel=1e-12)


def test_array_norms_and_unsorted_curve():
    # one array call of soliton_norms gives the scalar calls' values up to
    # the few-ulp difference of numpy's vectorized power, and a ThetaCurve
    # orders its columns by mu whatever the input order
    mus = np.array([7.0, 0.3, mu_FS(P, D), 2.0, 40.0])
    for mode in ("surface", "probability"):
        arrays = soliton_norms(mus, P, D, mode)
        for k, mu in enumerate(mus):
            for a, x in zip(arrays, soliton_norms(float(mu), P, D, mode)):
                assert a[k] == pytest.approx(x, rel=4e-15)
    params = ProblemParams(D, P, 0.8, "surface")
    c = symmetric_theta_curve(params, 0.8, mus)
    order = np.argsort(mus)
    np.testing.assert_array_equal(c.mu, mus[order])
    assert np.all(np.diff(c.Lambda) > 0)
    for mu, J in zip(c.mu, c.J):
        assert J == pytest.approx(j_sym(mu, 0.8), rel=1e-12)
    flags = np.array([True, False, True, False, False])
    c = ThetaCurve(0.8, mus, -mus, mus**2, flags)
    np.testing.assert_array_equal(c.mu, mus[order])
    np.testing.assert_array_equal(c.Lambda, -mus[order])
    np.testing.assert_array_equal(c.J, mus[order] ** 2)
    np.testing.assert_array_equal(c.symmetric, flags[order])


@pytest.fixture(scope="module")
def j_inf_pair(gn_profile_p28):
    pr = gn_profile_p28
    return (J_infinity(P, D, "surface", pr), J_infinity(P, D, "probability", pr))


def test_lambda_GN_residual_and_value(j_inf_pair):
    j_s, _ = j_inf_pair
    lam_gn = lambda_GN(P, D, j_s, "surface")
    assert np.isfinite(lam_gn) and lam_gn > 0
    # the closed-form inversion leaves essentially no residual
    theta = theta_critical(P, D)
    slope = theta - (1 - theta) * (P - 2) / (P + 2)
    mu_hat = lam_gn / slope
    assert abs(j_sym(mu_hat, theta) - j_s) <= 1e-8
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
    lam_gn = lambda_GN(P, D, j_s, "surface")
    slope = theta - (1 - theta) * (P - 2) / (P + 2)
    mu_hat = lam_gn / slope
    # symmetric level below the limit level on the left, above on the right
    assert j_sym(0.5 * mu_hat, theta) < j_s
    assert j_sym(2.0 * mu_hat, theta) > j_s


def test_envelope_jump_matches_crossing(run_p278):
    """The argmin switches once, within 0.0075 in Lambda of the detected
    crossing."""
    sym = map_to_theta(run_p278["sym_branch"], 5.0 / 7.0)
    nonsym = map_to_theta(run_p278["branch"], 5.0 / 7.0)
    crossing, ambiguous, rows, jumps = compare(sym, nonsym)
    assert crossing is not None and not ambiguous
    assert len(jumps) == 1
    assert abs(jumps[0] - crossing.Lambda1) <= 0.0075
    # envelope lies below both curves at their own sample points
    env_l = np.array([r[0] for r in rows])
    env_j = np.array([r[1] for r in rows])
    cell = env_l[1] - env_l[0]
    for c in (sym, nonsym):
        inside = (c.Lambda > env_l[0] + cell) & (c.Lambda < env_l[-1] - cell)
        ej = np.interp(c.Lambda[inside], env_l, env_j)
        assert np.all(ej <= c.J[inside] + 0.075)


def test_envelope_single_jump_at_bifurcation(run_p27):
    """Without a crossing the envelope leaves the symmetric curve once,
    where the branch bifurcates from it."""
    theta = 5.0 / 7.0
    crossing, ambiguous, _, jumps = compare(map_to_theta(run_p27["sym_branch"], theta),
                                            map_to_theta(run_p27["branch"], theta))
    assert crossing is None and not ambiguous
    assert len(jumps) == 1
    assert abs(jumps[0] - lambda_FS(2.7, theta, D)) <= 0.042


def test_crossing_on_tier1_grid(run_p278):
    """The p = 2.78 crossing on the 240x28 grid, pinned to guard the
    polyline intersection against the discrete symmetric reference."""
    theta = 5.0 / 7.0
    crossing = detect_crossing(map_to_theta(run_p278["sym_branch"], theta),
                               map_to_theta(run_p278["branch"], theta))
    assert crossing.Lambda1 == pytest.approx(2.8618790057, rel=1e-8)
    # the walk at a fixed step eta = kappa0 / 200 (down) and 8 eta (up) gave 2.8618806
    assert crossing.Lambda1 == pytest.approx(2.8618806, rel=1e-5)
    assert crossing.mu1_star == pytest.approx(4.2867271, rel=1e-5)
    assert crossing.mu1 == pytest.approx(5.0725303, rel=1e-5)
