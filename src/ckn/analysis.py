"""Reparametrization of branches for theta < 1 and diagram diagnostics.

A branch of critical points indexed by mu maps, for each admissible theta,
to the curve mu -> (Lambda, J) with Lambda = theta mu - (1-theta) X/Y and
J = theta^theta (X + mu Y)^theta Y^(1-theta) / Z^(2/p).  This module builds
those curves, finds where the non-symmetric curve crosses the symmetric
one, assembles the minimizing envelope over curves, and computes the
existence threshold on the critical-exponent symmetric curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import ASYMMETRY_BIFURCATED
from .errors import AmbiguousCrossingError
from .model import ProblemParams, theta_critical
from .symmetric import J_sym_theta, lambda_sym_theta


@dataclass
class ThetaCurve:
    """Sampled (mu, Lambda, J) curve for one theta, tagged by symmetry."""

    theta: float
    mu: np.ndarray
    Lambda: np.ndarray
    J: np.ndarray
    symmetric: np.ndarray

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.Lambda = np.asarray(self.Lambda, dtype=float)
        self.J = np.asarray(self.J, dtype=float)
        self.symmetric = np.asarray(self.symmetric, dtype=bool)
        if not (len(self.mu) == len(self.Lambda) == len(self.J) == len(self.symmetric)):
            raise ValueError("curve columns have mismatched lengths")
        if np.any(self.J <= 0):
            raise ValueError("curve has non-positive J values")

    def nonsymmetric(self) -> ThetaCurve:
        """The sub-curve of the points not flagged symmetric."""
        keep = ~self.symmetric
        return ThetaCurve(self.theta, self.mu[keep], self.Lambda[keep], self.J[keep],
                          self.symmetric[keep])


def curve_values(theta: float, mu, X, Y, Z, p: float):
    """(Lambda, J) of one critical point from its norms."""
    mu = np.asarray(mu, dtype=float)
    X, Y, Z = (np.asarray(a, dtype=float) for a in (X, Y, Z))
    Lam = theta * mu - (1.0 - theta) * X / Y
    J = theta**theta * (X + mu * Y) ** theta * Y ** (1.0 - theta) / Z ** (2.0 / p)
    return Lam, J


def map_to_theta(branch, theta: float) -> ThetaCurve:
    """Reparametrize a Branch for the given theta."""
    params = branch.params
    tc = theta_critical(params.p, params.d)
    if not tc - 1e-12 <= theta <= 1.0 + 1e-12:
        raise ValueError(f"theta={theta} outside [{tc}, 1]")
    mu = np.array([pt.mu for pt in branch.points])
    X = np.array([pt.X for pt in branch.points])
    Y = np.array([pt.Y for pt in branch.points])
    Z = np.array([pt.Z for pt in branch.points])
    asym = np.array([pt.asymmetry for pt in branch.points])
    Lam, J = curve_values(theta, mu, X, Y, Z, params.p)
    order = np.argsort(mu)
    return ThetaCurve(
        theta=theta, mu=mu[order], Lambda=Lam[order], J=J[order],
        symmetric=asym[order] <= ASYMMETRY_BIFURCATED,
    )


def symmetric_theta_curve(params: ProblemParams, theta: float,
                          mu_grid) -> ThetaCurve:
    """Closed-form symmetric curve sampled on mu_grid."""
    mu = np.asarray(mu_grid, dtype=float)
    Lam = lambda_sym_theta(mu, theta, params.p)
    J = np.array([J_sym_theta(m, theta, params) for m in mu])
    return ThetaCurve(theta=theta, mu=mu, Lambda=Lam, J=J,
                      symmetric=np.ones(len(mu), bool))


def lambda_FS(p: float, theta: float, d: int) -> float:
    """Bifurcation location 4 (d-1)/(p^2-4) ((2 theta - 1) p + 2)/(p + 2)."""
    if p <= 2:
        raise ValueError(f"p must exceed 2, got {p}")
    return 4.0 * (d - 1.0) / (p * p - 4.0) * ((2.0 * theta - 1.0) * p + 2.0) / (p + 2.0)


@dataclass
class Crossing:
    Lambda1: float
    J1: float
    mu1_star: float
    mu1: float


def _monotone_pieces(Lam: np.ndarray):
    """Index ranges [i0, i1] on which Lam is strictly monotone."""
    if len(Lam) < 2:
        return []
    d = np.sign(np.diff(Lam))
    pieces = []
    start = 0
    cur = 0.0
    for i, s in enumerate(d):
        if s == 0.0:
            continue
        if cur == 0.0:
            cur = s
        elif s != cur:
            pieces.append((start, i))
            start = i
            cur = s
    pieces.append((start, len(Lam) - 1))
    return [(a, b) for a, b in pieces if b > a]


def _seg_intersections(L1, J1, L2, J2):
    """Segment-pair intersections of two polylines given as (Lambda, J) arrays.

    Returns (overlaps, i, j, s, t): the number of collinear segment pairs,
    and for every other pair that meets, in row-major (i, j) order, the
    segment indices and the fractions s along segment i of the first
    polyline and t along segment j of the second.
    """
    da = np.stack([np.diff(L1), np.diff(J1)])[:, :, None]
    db = np.stack([np.diff(L2), np.diff(J2)])[:, None, :]
    rhs = np.stack([L2[:-1], J2[:-1]])[:, None, :] - np.stack([L1[:-1], J1[:-1]])[:, :, None]
    den = da[0] * db[1] - da[1] * db[0]
    scale = np.maximum(np.maximum(np.abs(da[0] * db[1]), np.abs(da[1] * db[0])), 1e-300)
    parallel = np.abs(den) <= 1e-12 * scale
    cross = rhs[0] * da[1] - rhs[1] * da[0]
    size = np.maximum(np.abs(da).max(axis=0), 1.0) * np.maximum(np.abs(rhs).max(axis=0), 1.0)
    overlaps = int(np.count_nonzero(parallel & (np.abs(cross) <= 1e-10 * size)))
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (rhs[0] * db[1] - rhs[1] * db[0]) / den
        t = cross / den
    hit = ~parallel & (s >= -1e-12) & (s <= 1 + 1e-12) & (t >= -1e-12) & (t <= 1 + 1e-12)
    i, j = np.nonzero(hit)
    return overlaps, i, j, s[i, j], t[i, j]


def detect_crossing(sym: ThetaCurve, nonsym: ThetaCurve) -> Crossing | None:
    """Intersection of the symmetric and non-symmetric (Lambda, J) curves.

    Only genuinely non-symmetric points of `nonsym` participate, which
    drops the shared segment below the bifurcation.  Returns None when the
    curves do not cross; raises AmbiguousCrossingError when they cross
    more than once or overlap (all candidates attached).
    """
    if abs(sym.theta - nonsym.theta) > 1e-12:
        raise ValueError("curves belong to different theta values")
    ns = nonsym.nonsymmetric()
    if len(ns.mu) < 2:
        return None
    overlaps, i, j, s, t = _seg_intersections(ns.Lambda, ns.J, sym.Lambda, sym.J)

    def along(x, k, f):
        return x[k] + f * (x[k + 1] - x[k])

    candidates = [Crossing(*c) for c in zip(along(ns.Lambda, i, s), along(ns.J, i, s),
                                            along(sym.mu, j, t), along(ns.mu, i, s))]

    # contacts at the bifurcation have nearly equal parameter preimages;
    # a genuine coexistence crossing pairs two distinct solutions
    candidates = [c for c in candidates
                  if abs(c.mu1 - c.mu1_star) > 0.05 * max(abs(c.mu1), abs(c.mu1_star))]

    # polylines can duplicate a hit at shared segment endpoints
    unique: list[Crossing] = []
    for c in candidates:
        if not any(abs(c.Lambda1 - u.Lambda1) <= 1e-8 * (1.0 + abs(u.Lambda1))
                   and abs(c.mu1 - u.mu1) <= 1e-6 * (1.0 + abs(u.mu1)) for u in unique):
            unique.append(c)

    if overlaps:
        raise AmbiguousCrossingError(
            f"curves overlap on {overlaps} segment pairs", unique)
    if len(unique) > 1:
        raise AmbiguousCrossingError(
            f"{len(unique)} distinct crossings found", unique)
    return unique[0] if unique else None


def min_envelope(curves: list[ThetaCurve], Lambda_grid):
    """Pointwise minimum of J over curves on Lambda_grid.

    Returns (rows, jumps): rows are (Lambda, J_min, source index) with NaN
    J and source -1 where no curve is defined; jumps are the Lambda
    midpoints where the argmin switches between sources.  Each monotone
    piece of each curve is interpolated over the whole grid (+inf outside
    the piece); ties go to the earliest curve and piece.
    """
    if not curves:
        raise ValueError("need at least one curve")
    grid = np.asarray(Lambda_grid, dtype=float)
    levels, owners = [np.full(len(grid), np.inf)], [-1]
    for k, c in enumerate(curves):
        for (a, b) in _monotone_pieces(c.Lambda):
            xs, ys = c.Lambda[a:b + 1], c.J[a:b + 1]
            if xs[0] > xs[-1]:
                xs, ys = xs[::-1], ys[::-1]
            inside = (xs[0] - 1e-12 <= grid) & (grid <= xs[-1] + 1e-12)
            levels.append(np.where(inside, np.interp(grid, xs, ys), np.inf))
            owners.append(k)
    levels = np.array(levels)
    src = np.array(owners)[levels.argmin(axis=0)]
    if np.all(src < 0):
        raise ValueError("no curve is defined anywhere on the Lambda grid")
    J = levels.min(axis=0)
    rows = list(zip(grid.tolist(), np.where(src >= 0, J, np.nan).tolist(), src.tolist()))
    jumps = [0.5 * (l0 + l1) for (l0, _, s0), (l1, _, s1) in zip(rows, rows[1:])
             if s0 >= 0 and s1 >= 0 and s0 != s1]
    return rows, jumps


def lambda_GN(p: float, d: int, J_inf: float, measure_mode: str = "surface") -> float:
    """Existence threshold sup{Lambda_sym(mu) : J_sym(mu) < J_inf} at
    theta = Theta(p, d), computed on the closed-form symmetric curve.

    At Theta the symmetric level is the power law J_sym(mu) = J_sym(1) mu^e
    with e = Theta - (p-2)/(2p) = (d-1)(p-2)/(2p) > 0, so the threshold is
    the curve parameter at mu = (J_inf / J_sym(1))^(1/e).  J_inf must be
    given in the same measure mode.
    """
    if not (J_inf > 0 and np.isfinite(J_inf)):
        raise ValueError(f"J_inf must be positive and finite, got {J_inf}")
    theta = theta_critical(p, d)
    j1 = J_sym_theta(1.0, theta, ProblemParams(d, p, theta, measure_mode))
    mu_hat = (J_inf / j1) ** (1.0 / (theta - (p - 2.0) / (2.0 * p)))
    return float(lambda_sym_theta(mu_hat, theta, p))
