"""Radial shooting solver for the Euclidean ground state of -Lap u + u = u^(p-1).

The positive radial solution on R^d realizes the Gagliardo-Nirenberg
infimum; combined with the balance constant k = theta^theta (1-theta)^(1-theta)
at theta = d(p-2)/(2p) it gives the limit level of the critical-exponent
curve for concentrating solutions.  Shooting uses adaptive RK45 with the
overshoot/undershoot dichotomy and bisection on u(0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import NonConvergenceError
from .model import sphere_area, theta_critical


R_MAX = 50.0
TAIL_CUT = 1e-9


@dataclass
class RadialProfile:
    """Radial ground state with its norms as genuine Lebesgue integrals."""

    p: float
    d: int
    r: np.ndarray
    u: np.ndarray
    u0: float
    X_e: float
    Y_e: float
    Z_e: float

    def norms(self, measure_mode: str = "surface"):
        if measure_mode == "surface":
            return self.X_e, self.Y_e, self.Z_e
        area = sphere_area(self.d)
        return self.X_e / area, self.Y_e / area, self.Z_e / area

    def pohozaev_residuals(self) -> tuple[float, float]:
        """Relative residuals of X = Theta Z and Y = (1-Theta) Z."""
        th = theta_critical(self.p, self.d)
        return (
            abs(self.X_e - th * self.Z_e) / self.Z_e,
            abs(self.Y_e - (1.0 - th) * self.Z_e) / self.Z_e,
        )


def _rhs(p: float, d: int):
    def f(r, y):
        u, v = y[0], y[1]
        up = np.sign(u) * np.abs(u) ** (p - 1.0)
        dv = u - up - (d - 1.0) / r * v
        rd = r ** (d - 1.0)
        return [v, dv, v * v * rd, u * u * rd, np.abs(u) ** p * rd]

    return f


def _shoot(a: float, p: float, d: int, r_max: float = R_MAX, dense: bool = False):
    """Integrate from the regular series start; classify the trajectory.

    Returns (sign, sol): sign +1 for overshoot (u crossed zero), -1 for
    undershoot (u turned back up), 0 when the tail cutoff was reached.
    """
    r0 = 1e-8
    curv = (a - a ** (p - 1.0)) / d
    y0 = [a + 0.5 * curv * r0**2, curv * r0, 0.0, 0.0, 0.0]

    def overshoot(r, y):
        return y[0]

    overshoot.terminal = True
    overshoot.direction = -1.0

    def undershoot(r, y):
        return y[1]

    undershoot.terminal = True
    undershoot.direction = 1.0

    def tail(r, y):
        return y[0] - TAIL_CUT * a

    tail.terminal = True
    tail.direction = -1.0

    # classification shots run without the tail stop: an overshooting
    # trajectory passes through the cutoff level before crossing zero
    events = (overshoot, undershoot, tail) if dense else (overshoot, undershoot)
    sol = solve_ivp(
        _rhs(p, d), (r0, r_max), y0, method="RK45", events=events,
        rtol=1e-10, atol=1e-12, dense_output=dense, max_step=0.25,
    )
    if sol.t_events[0].size:
        return 1, sol
    if sol.t_events[1].size:
        return -1, sol
    return 0, sol


def radial_ground_state(p: float, d: int, tol: float = 1e-12,
                        r_max: float = R_MAX) -> RadialProfile:
    """Positive decreasing radial solution of -Lap u + u = u^(p-1) on R^d.

    Bisection on the central value u(0): overshoot above the critical
    amplitude, undershoot below.  d = 1 is allowed (for validation against
    the explicit one-dimensional solution); the public problem setup uses
    d >= 3.
    """
    if p <= 2:
        raise ValueError(f"p must exceed 2, got {p}")
    if d >= 3 and p >= 2.0 * d / (d - 2.0):
        raise ValueError(f"p={p} is supercritical for d={d}")

    a_lo = (0.5 * p) ** (1.0 / (p - 2.0))  # the d = 1 amplitude undershoots for d > 1
    sign, _ = _shoot(a_lo, p, d, r_max)
    if sign > 0:
        a_lo *= 0.999
    a_hi = a_lo
    for _ in range(100):
        a_hi *= 1.3
        sign, _ = _shoot(a_hi, p, d, r_max)
        if sign > 0:
            break
    else:
        raise NonConvergenceError("no overshoot found while bracketing u(0)")

    for _ in range(200):
        if a_hi - a_lo <= tol:
            break
        a_mid = 0.5 * (a_lo + a_hi)
        sign, _ = _shoot(a_mid, p, d, r_max)
        if sign > 0:
            a_hi = a_mid
        else:
            a_lo = a_mid
    else:
        raise NonConvergenceError(f"bisection on u(0) did not reach {tol}")

    a = 0.5 * (a_lo + a_hi)
    _, sol = _shoot(a, p, d, r_max, dense=True)
    r_end = sol.t[-1]
    rr = np.linspace(sol.t[0], r_end, 4000)
    uu = sol.sol(rr)[0]
    X_e, Y_e, Z_e = (float(v) * sphere_area(d) for v in sol.y[2:5, -1])

    profile = RadialProfile(p=p, d=d, r=rr, u=uu, u0=a, X_e=X_e, Y_e=Y_e, Z_e=Z_e)
    _certify(profile)
    return profile


def _certify(profile: RadialProfile):
    u = profile.u
    if u.min() <= 0:
        raise NonConvergenceError("profile not positive up to the tail cutoff")
    if np.any(np.diff(u) > 1e-12 * profile.u0):
        raise NonConvergenceError("profile not monotone decreasing")
    el = abs(profile.X_e + profile.Y_e - profile.Z_e) / profile.Z_e
    if el > 1e-6:
        raise NonConvergenceError(f"Euler-Lagrange pairing off by {el:.2e}")
    rx, ry = profile.pohozaev_residuals()
    if max(rx, ry) > 1e-5:
        raise NonConvergenceError(f"Pohozaev residuals too large: {rx:.2e}, {ry:.2e}")


def balance_constant(p: float, d: int) -> float:
    """k = theta^theta (1-theta)^(1-theta) at the critical exponent."""
    th = theta_critical(p, d)
    return th**th * (1.0 - th) ** (1.0 - th)


def J_infinity(p: float, d: int, measure_mode: str = "surface",
               profile: RadialProfile | None = None) -> float:
    """Limit level k (X_e + Y_e) / Z_e^(2/p) of the critical-theta curve.

    In probability mode the Euclidean norms are divided by |S^{d-1}|, so
    the level changes by the factor |S^{d-1}|^(2/p - 1).
    """
    if profile is None:
        profile = radial_ground_state(p, d)
    X, Y, Z = profile.norms(measure_mode)
    return balance_constant(p, d) * (X + Y) / Z ** (2.0 / p)
