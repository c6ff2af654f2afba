"""Banded solver for the Euclidean ground state of -Lap u + u = u^(p-1).

The positive radial solution on R^d realizes the Gagliardo-Nirenberg
infimum; combined with the balance constant k = theta^theta (1-theta)^(1-theta)
at theta = d(p-2)/(2p) it gives the limit level of the critical-exponent
curve for concentrating solutions.  -(r^(d-1) u')'/r^(d-1) + u = u^(p-1) is
discretized by finite volumes on a uniform mesh of [0, r_max], u(r_max) = 0,
so each iteration is one tridiagonal solve.  Newton alone from the explicit
d = 1 profile fails at d = 5 (the peak grows from 1.52 to 19.13 at p = 2.8);
Petviashvili's iteration (Pelinovsky & Stepanyants, SIAM J. Numer. Anal. 42,
2004) converges from any positive start and hands Newton a close one.  The
discrete equation gives X + Y = Z exactly but the Pohozaev identities only
to O(h^2): the norms are Richardson-extrapolated from N and 2N cells, and
the extrapolated identities are the certificate.  The ground state is
unique and nondegenerate (Kwong, ARMA 105, 1989), so the Newton Jacobian is
invertible at the solution."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import NonConvergenceError
from .model import sphere_area, theta_critical
from .symmetric import _banded_matvec, soliton


R_MAX = 50.0
N_CELLS = 4000  # coarse mesh; the norms are extrapolated from N and 2N cells
N_CELLS_MAX = 256000
PETVIASHVILI_TOL = 1e-3  # Newton takes over once the update is this share of the peak
PETVIASHVILI_MAX_STEPS = 1000  # p = 3.3 at d = 5 takes about 190
# the mesh pair is doubled until the extrapolated Pohozaev identities hold to
# this; near the critical exponent the peak narrows and needs finer meshes
POHOZAEV_TARGET = 1e-8


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


def _mesh(n: int, d: float, r_max: float):
    """The finite-volume band of -Lap_r + 1 on n cells of [0, r_max] in
    dimension d: (ab, vol, w) with ab in solve_banded's (1, 1) layout, vol
    the cell volumes and w the face flux weights.

    Node i sits at r_i = i h, h = r_max / n, with the cell [r_i - h/2, r_i + h/2]
    cut at 0; u_n = 0.  Face i + 1/2 carries the flux weight r^(d-1)/h, the
    origin none (u'(0) = 0).
    """
    h = r_max / n
    faces = (np.arange(n) + 0.5) * h
    w = faces ** (d - 1.0) / h
    vol = np.diff(np.concatenate([[0.0], faces]) ** d) / d
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -w[:-1]
    ab[1] = w + vol
    ab[1, 1:] += w[:-1]
    return ab, vol, w


def _petviashvili(u: np.ndarray, p: float, d: float, r_max: float) -> np.ndarray:
    """Petviashvili's iteration on the mesh of len(u) cells from the positive
    start u, until its update is below PETVIASHVILI_TOL of the peak.  With
    L = -Lap_r + 1 and N(u) = vol u^(p-1) on the band of `_mesh`,
    u <- M^((p-1)/(p-2)) L^-1 N(u), M = <u, Lu> / <u, N(u)>."""
    ab, vol, _ = _mesh(len(u), d, r_max)
    for _ in range(PETVIASHVILI_MAX_STEPS):
        nonlin = vol * np.abs(u) ** (p - 2.0) * u
        m = (u @ _banded_matvec(ab, u)) / (u @ nonlin)
        du = m ** ((p - 1.0) / (p - 2.0)) * solve_banded((1, 1), ab, nonlin) - u
        u = u + du
        if np.max(np.abs(du)) <= PETVIASHVILI_TOL * np.max(np.abs(u)):
            return u
    raise NonConvergenceError(f"Petviashvili's iteration stalled on the {len(u)}-cell radial mesh")


def _newton(u: np.ndarray, p: float, d: float, r_max: float):
    """Newton's method on the mesh of len(u) cells from u, which must be
    close to the solution.  Returns (u, [X, Y, Z] per unit sphere area)."""
    ab, vol, w = _mesh(len(u), d, r_max)
    for _ in range(30):
        a = np.abs(u) ** (p - 2.0)
        F = _banded_matvec(ab, u) - vol * a * u
        jac = ab.copy()
        jac[1] -= vol * (p - 1.0) * a
        du = solve_banded((1, 1), jac, F)
        u = u - du
        if not np.all(np.isfinite(u)):
            break
        if np.max(np.abs(du)) <= 1e-10 * np.max(np.abs(u)):
            grad = np.diff(np.append(u, 0.0))
            return u, np.array([w @ grad**2, vol @ u**2, vol @ np.abs(u) ** p])
    raise NonConvergenceError(f"Newton failed on the {len(u)}-cell radial mesh at d = {d:.6g}")


def radial_ground_state(p: float, d: int, r_max: float = R_MAX) -> RadialProfile:
    """Positive decreasing radial solution of -Lap u + u = u^(p-1) on R^d.

    r_max is the length of the radial domain.  The profile u on the nodes r
    (u(r_max) = 0), u0 = u[0] and the norms are extrapolated from the last
    mesh pair.  d = 1 is allowed (for validation against the explicit
    one-dimensional solution); the public problem setup uses d >= 3.
    """
    if p <= 2:
        raise ValueError(f"p must exceed 2, got {p}")
    if d >= 3 and p >= 2.0 * d / (d - 2.0):
        raise ValueError(f"p={p} is supercritical for d={d}")

    # Petviashvili on the coarse mesh only: each refined mesh starts Newton
    # from the interpolated solution of the mesh before
    r = np.linspace(0.0, r_max, N_CELLS + 1)[:-1]
    coarse = _newton(_petviashvili(soliton(1.0, p).u(r), p, d, r_max), p, d, r_max)
    while True:
        n = len(coarse[0])
        r = np.linspace(0.0, r_max, 2 * n + 1)
        guess = np.interp(r[:-1], r[::2], np.append(coarse[0], 0.0))
        fine = _newton(guess, p, d, r_max)
        u_e = np.append((4.0 * fine[0][::2] - coarse[0]) / 3.0, 0.0)
        X_e, Y_e, Z_e = sphere_area(d) * (4.0 * fine[1] - coarse[1]) / 3.0
        profile = RadialProfile(p=p, d=d, r=r[::2], u=u_e, u0=u_e[0], X_e=X_e, Y_e=Y_e, Z_e=Z_e)
        if max(profile.pohozaev_residuals()) <= POHOZAEV_TARGET or 2 * n >= N_CELLS_MAX:
            break
        coarse = fine
    _certify(profile)
    return profile


def _certify(profile: RadialProfile):
    u = profile.u
    if u[:-1].min() <= 0:
        raise NonConvergenceError("profile not positive inside the domain")
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
