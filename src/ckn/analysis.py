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
from scipy.optimize import brentq

from .errors import AmbiguousCrossingError
from .model import ProblemParams, theta_critical
from .symmetric import J_sym_theta, lambda_sym_theta

SYMMETRIC_FLAG_ASYMMETRY = 1e-3


@dataclass
class ThetaCurve:
    """Sampled (mu, Lambda, J) curve for one theta, tagged by symmetry."""

    theta: float
    mu: np.ndarray
    Lambda: np.ndarray
    J: np.ndarray
    symmetric: np.ndarray
    source: str = ""
    params: ProblemParams | None = None

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.Lambda = np.asarray(self.Lambda, dtype=float)
        self.J = np.asarray(self.J, dtype=float)
        self.symmetric = np.asarray(self.symmetric, dtype=bool)
        if not (len(self.mu) == len(self.Lambda) == len(self.J) == len(self.symmetric)):
            raise ValueError("curve columns have mismatched lengths")
        if np.any(self.J <= 0):
            raise ValueError("curve has non-positive J values")

    @property
    def lambda_monotone(self) -> bool:
        dL = np.diff(self.Lambda)
        return bool(np.all(dL >= 0) or np.all(dL <= 0))


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
        symmetric=asym[order] <= SYMMETRIC_FLAG_ASYMMETRY,
        source="branch", params=params,
    )


def symmetric_theta_curve(params: ProblemParams, theta: float,
                          mu_grid) -> ThetaCurve:
    """Closed-form symmetric curve sampled on mu_grid."""
    mu = np.asarray(mu_grid, dtype=float)
    Lam = lambda_sym_theta(mu, theta, params.p)
    J = np.array([J_sym_theta(m, theta, params) for m in mu])
    return ThetaCurve(theta=theta, mu=mu, Lambda=Lam, J=J,
                      symmetric=np.ones(len(mu), bool), source="symmetric",
                      params=params)


def lambda_FS(p: float, theta: float, d: int) -> float:
    """Bifurcation location 4 (d-1)/(p^2-4) ((2 theta - 1) p + 2)/(p + 2)."""
    if p <= 2:
        raise ValueError(f"p must exceed 2, got {p}")
    return 4.0 * (d - 1.0) / (p * p - 4.0) * ((2.0 * theta - 1.0) * p + 2.0) / (p + 2.0)


def best_constant(J: float) -> float:
    """Candidate optimal constant: reciprocal of the minimal quotient."""
    if J <= 0:
        raise ValueError(f"J must be positive, got {J}")
    return 1.0 / J


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
    """Intersections of two polylines given as (Lambda, J) arrays."""
    hits = []
    for i in range(len(L1) - 1):
        a0, a1 = np.array([L1[i], J1[i]]), np.array([L1[i + 1], J1[i + 1]])
        for j in range(len(L2) - 1):
            b0, b1 = np.array([L2[j], J2[j]]), np.array([L2[j + 1], J2[j + 1]])
            da, db = a1 - a0, b1 - b0
            den = da[0] * db[1] - da[1] * db[0]
            scale = max(abs(da[0] * db[1]), abs(da[1] * db[0]), 1e-300)
            rhs = b0 - a0
            if abs(den) <= 1e-12 * scale:
                cross = rhs[0] * da[1] - rhs[1] * da[0]
                if abs(cross) <= 1e-10 * max(np.abs(da).max(), 1.0) * max(np.abs(rhs).max(), 1.0):
                    hits.append(("overlap", i, j, None, None))
                continue
            s = (rhs[0] * db[1] - rhs[1] * db[0]) / den
            t = (rhs[0] * da[1] - rhs[1] * da[0]) / den
            if -1e-12 <= s <= 1 + 1e-12 and -1e-12 <= t <= 1 + 1e-12:
                hits.append(("point", i, j, s, t))
    return hits


def detect_crossing(sym: ThetaCurve, nonsym: ThetaCurve) -> Crossing | None:
    """Intersection of the symmetric and non-symmetric (Lambda, J) curves.

    Only genuinely non-symmetric points of `nonsym` participate, which
    drops the shared segment below the bifurcation.  Returns None when the
    curves do not cross; raises AmbiguousCrossingError when they cross
    more than once or overlap (all candidates attached).
    """
    if abs(sym.theta - nonsym.theta) > 1e-12:
        raise ValueError("curves belong to different theta values")
    asym = ~nonsym.symmetric
    if asym.sum() < 2:
        return None
    muN, LN, JN = nonsym.mu[asym], nonsym.Lambda[asym], nonsym.J[asym]
    if max(LN) < min(sym.Lambda) or min(LN) > max(sym.Lambda):
        return None

    candidates = []
    overlaps = 0
    for (a, b) in _monotone_pieces(LN):
        for (c, e) in _monotone_pieces(sym.Lambda):
            hits = _seg_intersections(LN[a:b + 1], JN[a:b + 1],
                                      sym.Lambda[c:e + 1], sym.J[c:e + 1])
            for kind, i, j, s, t in hits:
                if kind == "overlap":
                    overlaps += 1
                    continue
                Lam1 = LN[a + i] + s * (LN[a + i + 1] - LN[a + i])
                J1 = JN[a + i] + s * (JN[a + i + 1] - JN[a + i])
                mu1 = muN[a + i] + s * (muN[a + i + 1] - muN[a + i])
                mu1s = sym.mu[c + j] + t * (sym.mu[c + j + 1] - sym.mu[c + j])
                candidates.append(Crossing(Lambda1=Lam1, J1=J1, mu1_star=mu1s, mu1=mu1))

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
    if not unique:
        return None
    c = unique[0]
    if sym.params is not None and sym.source == "symmetric":
        # closed-form curve: refine the cell intersection exactly
        c = _polish_crossing(c, sym, nonsym)
    return c


def _polish_crossing(c: Crossing, sym: ThetaCurve, nonsym: ThetaCurve) -> Crossing:
    """One closed-form refinement: solve J_sym(Lambda) = J_branch(Lambda).

    The symmetric side is evaluated exactly; the branch side stays the
    piecewise-linear interpolant near the detected cell.
    """
    params = sym.params
    theta = sym.theta
    slope = theta - (1.0 - theta) * (params.p - 2.0) / (params.p + 2.0)
    if slope <= 0:
        return c

    asym = ~nonsym.symmetric
    LN, JN = nonsym.Lambda[asym], nonsym.J[asym]
    muN = nonsym.mu[asym]

    def branch_J(lam):
        for (a, b) in _monotone_pieces(LN):
            seg = slice(a, b + 1)
            lo, hi = LN[seg].min(), LN[seg].max()
            if lo - 1e-12 <= lam <= hi + 1e-12:
                xs = LN[seg]
                ys = JN[seg]
                ms = muN[seg]
                if xs[0] > xs[-1]:
                    xs, ys, ms = xs[::-1], ys[::-1], ms[::-1]
                if abs(np.interp(lam, xs, ms) - c.mu1) < 0.5 * max(c.mu1, 1.0):
                    return np.interp(lam, xs, ys), np.interp(lam, xs, ms)
        return None, None

    def gap(lam):
        jb, _ = branch_J(lam)
        if jb is None:
            return np.nan
        mu_s = lam / slope
        return J_sym_theta(mu_s, theta, params) - jb

    dL = 0.02 * abs(c.Lambda1) + 1e-9
    lo, hi = c.Lambda1 - dL, c.Lambda1 + dL
    glo, ghi = gap(lo), gap(hi)
    if np.isnan(glo) or np.isnan(ghi) or glo * ghi > 0:
        return c
    lam1 = brentq(gap, lo, hi, xtol=1e-12 * max(abs(c.Lambda1), 1.0))
    jb, mu1 = branch_J(lam1)
    return Crossing(Lambda1=float(lam1), J1=float(jb),
                    mu1_star=float(lam1 / slope), mu1=float(mu1))


def min_envelope(curves: list[ThetaCurve], Lambda_grid):
    """Pointwise minimum of J over curves on Lambda_grid.

    Returns (rows, jumps): rows are (Lambda, J_min, source index) with NaN
    J where no curve is defined; jumps are the Lambda midpoints where the
    argmin switches between sources.
    """
    if not curves:
        raise ValueError("need at least one curve")
    grid = np.asarray(Lambda_grid, dtype=float)
    rows = []
    for lam in grid:
        best, src = np.inf, -1
        for k, c in enumerate(curves):
            for (a, b) in _monotone_pieces(c.Lambda):
                xs, ys = c.Lambda[a:b + 1], c.J[a:b + 1]
                if xs[0] > xs[-1]:
                    xs, ys = xs[::-1], ys[::-1]
                if xs[0] - 1e-12 <= lam <= xs[-1] + 1e-12:
                    j = float(np.interp(lam, xs, ys))
                    if j < best:
                        best, src = j, k
        rows.append((float(lam), best if np.isfinite(best) else float("nan"), src))
    if all(not np.isfinite(r[1]) for r in rows):
        raise ValueError("no curve is defined anywhere on the Lambda grid")
    jumps = []
    for (l0, j0, s0), (l1, j1, s1) in zip(rows, rows[1:]):
        if s0 >= 0 and s1 >= 0 and s0 != s1:
            jumps.append(0.5 * (l0 + l1))
    return rows, jumps


def lambda_GN(p: float, d: int, J_inf: float, measure_mode: str = "surface") -> float:
    """Existence threshold sup{Lambda_sym(mu) : J_sym(mu) < J_inf} at
    theta = Theta(p, d), computed on the closed-form symmetric curve.

    J_inf must be given in the same measure mode.  Relies on monotonicity
    of the symmetric curve parameter in mu (checked; falls back to a scan
    plus maximum when violated).
    """
    theta = theta_critical(p, d)
    params = ProblemParams(d, p, theta, measure_mode)
    slope = theta - (1.0 - theta) * (p - 2.0) / (p + 2.0)

    mus = np.geomspace(1e-6, 1e8, 300)
    js = np.array([J_sym_theta(m, theta, params) for m in mus])
    below = js < J_inf
    if not below.any():
        raise ValueError("symmetric curve never drops below the limit level")
    if below.all():
        raise ValueError("symmetric curve never reaches the limit level")

    if np.all(np.diff(js) > 0) and slope > 0:
        i = int(np.argmin(below))  # first False
        mu_hat = brentq(lambda m: J_sym_theta(m, theta, params) - J_inf,
                        mus[i - 1], mus[i], xtol=1e-14, rtol=1e-15)
        resid = abs(J_sym_theta(mu_hat, theta, params) - J_inf)
        if resid > 1e-8:
            raise ValueError(f"bisection residual {resid} above tolerance")
        return float(lambda_sym_theta(mu_hat, theta, p))
    # non-monotone fallback: best Lambda among sampled sub-level points
    return float(np.max(lambda_sym_theta(mus[below], theta, p)))
