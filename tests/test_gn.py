import numpy as np
import pytest

from ckn.gn import J_infinity, balance_constant, radial_ground_state
from ckn.model import sphere_area

P, D = 2.8, 5


@pytest.fixture()
def profile(gn_profile_p28):
    return gn_profile_p28


def test_one_dimensional_reduction():
    pr = radial_ground_state(P, 1)
    assert pr.u0 == pytest.approx((P / 2.0) ** (1.0 / (P - 2.0)), abs=1e-9)


def test_pohozaev_residuals(profile):
    rx, ry = profile.pohozaev_residuals()
    assert rx <= 1e-5
    assert ry <= 1e-5


def test_euler_lagrange_pairing(profile):
    assert profile.X_e + profile.Y_e == pytest.approx(profile.Z_e, rel=1e-6)


def test_profile_shape(profile):
    assert profile.u[0] == pytest.approx(profile.u0, rel=1e-6)
    assert np.all(np.diff(profile.u) <= 1e-12 * profile.u0)
    assert profile.u[-1] <= 1e-6 * profile.u0


def test_shooting_dichotomy(profile):
    from ckn.gn import _shoot

    a = profile.u0
    sign_hi, _ = _shoot(1.05 * a, P, D)
    sign_lo, _ = _shoot(0.95 * a, P, D)
    assert sign_hi == 1  # overshoot above critical
    assert sign_lo == -1  # undershoot below


def test_supercritical_rejected():
    with pytest.raises(ValueError):
        radial_ground_state(10.0 / 3.0, 5)
    with pytest.raises(ValueError):
        radial_ground_state(2.0, 5)


def test_balance_constant():
    th = 5.0 / 7.0
    assert balance_constant(P, D) == pytest.approx(
        th**th * (1 - th) ** (1 - th), rel=1e-14)


def test_J_infinity_balanced_identity(profile):
    # with X+Y = Z the level reduces to k Z^(1-2/p)
    j = J_infinity(P, D, "surface", profile)
    assert j == pytest.approx(
        balance_constant(P, D) * profile.Z_e ** (1.0 - 2.0 / P), rel=1e-6)


def test_J_infinity_measure_modes(profile):
    js = J_infinity(P, D, "surface", profile)
    jp = J_infinity(P, D, "probability", profile)
    assert js / jp == pytest.approx(sphere_area(D) ** (1.0 - 2.0 / P), rel=1e-12)


def test_domain_and_step_robustness(profile):
    j0 = J_infinity(P, D, "surface", profile)
    pr2 = radial_ground_state(P, D, r_max=100.0)
    j2 = J_infinity(P, D, "surface", pr2)
    assert abs(j2 / j0 - 1.0) <= 1e-3
