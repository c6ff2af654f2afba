import numpy as np
import pytest

from ckn.gn import (
    N_CELLS,
    R_MAX,
    J_infinity,
    _newton,
    _petviashvili,
    balance_constant,
    radial_ground_state,
)
from ckn.model import sphere_area
from ckn.symmetric import soliton

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


def _assert_finite_volume_solution(u, X, Y, Z, p, d, r_max):
    # the finite-volume equations, written out here independently of the
    # solver, and the shape of the ground state
    n = len(u)
    h = r_max / n
    faces = (np.arange(n) + 0.5) * h
    vol = np.diff(np.concatenate([[0.0], faces]) ** d) / d
    flux = faces ** (d - 1) * np.diff(np.append(u, 0.0)) / h
    res = np.concatenate([[0.0], flux[:-1]]) - flux + vol * (u - u ** (p - 1))
    assert np.max(np.abs(res)) <= 1e-10 * np.max(vol * u ** (p - 1))
    assert np.all(u > 0)
    assert np.all(np.diff(u) <= 1e-12 * u[0])
    assert X + Y == pytest.approx(Z, rel=1e-10)  # exact on the mesh


def test_newton_certificate(profile):
    # re-solve on the profile's own mesh
    u, (X, Y, Z) = _newton(profile.u[:-1], P, D, profile.r[-1])
    _assert_finite_volume_solution(u, X, Y, Z, P, D, profile.r[-1])
    # one mesh alone misses Pohozaev by O(h^2); the extrapolated norms do not
    th = 5.0 / 7.0
    assert abs(X - th * Z) / Z > 1e-6
    assert max(profile.pohozaev_residuals()) <= 1e-8


@pytest.mark.parametrize("d", [3, 4, 5])
@pytest.mark.parametrize("p", [2.7, 2.8, 3.0])
def test_solve_from_one_dimensional_profile(p, d):
    # Petviashvili then Newton reach the ground state in dimension d from
    # the explicit d = 1 profile; Newton alone from there fails at d = 4
    # and 5 or lands on -u
    r = np.linspace(0.0, R_MAX, N_CELLS + 1)[:-1]
    u, (X, Y, Z) = _newton(_petviashvili(soliton(1.0, p).u(r), p, d, R_MAX), p, d, R_MAX)
    _assert_finite_volume_solution(u, X, Y, Z, p, d, R_MAX)


@pytest.mark.parametrize("p, j_ref", [
    (2.8, 7.719374786753006), (2.78, 7.4679887060691), (2.7, 6.496110621047179),
    (3.3, 14.427632475900646)])
def test_J_infinity_matches_shooting(p, j_ref):
    # reference levels from adaptive RK45 shooting with bisection on u(0) to
    # 1e-12; near the critical exponent 10/3 the peak narrows (u(0) = 159 at
    # p = 3.3), which takes more Petviashvili steps and finer mesh pairs
    assert J_infinity(p, D, "surface") == pytest.approx(j_ref, rel=1e-8)


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


@pytest.mark.parametrize("p, j_surface, j_probability", [
    (2.7, 6.496110622341706, 2.782503110107866),
    (2.78, 7.467988710096983, 2.9833970658795246),
    (2.8, 7.719374792097373, 3.032432438675487),
    (3.0, 10.374343163478596, 3.4876892572895017),
    (3.3, 14.427632493088055, 3.978280196713907)])
def test_newton_alone_on_refined_meshes_keeps_the_level(p, j_surface, j_probability):
    # Petviashvili's iteration runs on the coarse mesh only; each refined
    # mesh starts Newton from the interpolated solution.  The levels are
    # those of the solve that restarted Petviashvili on every mesh, to a
    # few ulps
    profile = radial_ground_state(p, D)
    assert J_infinity(p, D, "surface", profile) == pytest.approx(j_surface, rel=2e-15)
    assert J_infinity(p, D, "probability", profile) == pytest.approx(j_probability, rel=2e-15)
