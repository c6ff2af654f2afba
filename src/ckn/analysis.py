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
from .symmetric import soliton_norms


@dataclass
class ThetaCurve:
    """Sampled (mu, Lambda, J) curve for one theta, ordered by mu, tagged by symmetry."""

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
        order = np.argsort(self.mu)
        self.mu, self.Lambda, self.J, self.symmetric = (
            self.mu[order], self.Lambda[order], self.J[order], self.symmetric[order])

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
    mu = branch.column("mu")
    Lam, J = curve_values(theta, mu, *map(branch.column, ("X", "Y", "Z")), params.p)
    return ThetaCurve(theta=theta, mu=mu, Lambda=Lam, J=J,
                      symmetric=branch.column("asymmetry") <= ASYMMETRY_BIFURCATED)


def symmetric_theta_curve(params: ProblemParams, theta: float,
                          mu_grid) -> ThetaCurve:
    """Closed-form symmetric curve sampled on mu_grid."""
    mu = np.asarray(mu_grid, dtype=float)
    Lam, J = curve_values(theta, mu, *soliton_norms(mu, params.p, params.d, params.measure_mode),
                          params.p)
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


def _pieces(c: ThetaCurve) -> list[np.ndarray]:
    """Each strictly monotone run of c's Lambda as a (3, n) array of rows
    Lambda (ascending), J and mu.  Consecutive runs share the node at the
    fold between them; a step that leaves Lambda unchanged joins no run."""
    s = np.sign(np.diff(c.Lambda))
    ends = np.flatnonzero(np.diff(s)) + 1
    cols = np.array([c.Lambda, c.J, c.mu])
    return [cols[:, a:b + 1][:, ::int(s[a])]
            for a, b in zip(np.r_[0, ends], np.r_[ends, len(s)]) if b > a and s[a]]


def detect_crossing(sym: ThetaCurve, nonsym: ThetaCurve) -> Crossing | None:
    """Intersection of the symmetric and non-symmetric (Lambda, J) curves.

    Only genuinely non-symmetric points of `nonsym` participate, which
    drops the shared segment below the bifurcation.  On each pair of
    monotone pieces the difference of the two linear interpolants is
    linear between their merged Lambda nodes, so its zeros are exactly
    where the polylines meet; a run of zero nodes is an overlap.  Returns
    None when the curves do not cross; raises AmbiguousCrossingError when
    they cross more than once or overlap (all candidates attached, ordered
    by mu1 and then mu1_star).
    """
    if abs(sym.theta - nonsym.theta) > 1e-12:
        raise ValueError("curves belong to different theta values")
    candidates, overlaps = [], 0
    for lam_n, j_n, mu_n in _pieces(nonsym.nonsymmetric()):
        for lam_s, j_s, mu_s in _pieces(sym):
            x = np.union1d(lam_n, lam_s)
            x = x[(max(lam_n[0], lam_s[0]) <= x) & (x <= min(lam_n[-1], lam_s[-1]))]
            d = np.interp(x, lam_n, j_n) - np.interp(x, lam_s, j_s)
            sign = np.sign(d)
            overlaps += np.count_nonzero((sign[1:] == 0) & (sign[:-1] == 0))
            k = np.flatnonzero(sign[1:] * sign[:-1] < 0)
            roots = np.r_[x[sign == 0], x[k] + d[k] / (d[k] - d[k + 1]) * (x[k + 1] - x[k])]
            candidates += [Crossing(lam, np.interp(lam, lam_n, j_n), np.interp(lam, lam_s, mu_s),
                                    np.interp(lam, lam_n, mu_n)) for lam in roots]
    candidates.sort(key=lambda c: (c.mu1, c.mu1_star))

    # contacts at the bifurcation have nearly equal parameter preimages;
    # a genuine coexistence crossing pairs two distinct solutions
    candidates = [c for c in candidates
                  if abs(c.mu1 - c.mu1_star) > 0.05 * max(abs(c.mu1), abs(c.mu1_star))]

    # pieces that meet at a fold both hold a hit on their shared node
    unique: list[Crossing] = []
    for c in candidates:
        if not any(abs(c.Lambda1 - u.Lambda1) <= 1e-8 * (1.0 + abs(u.Lambda1))
                   and abs(c.mu1 - u.mu1) <= 1e-6 * (1.0 + abs(u.mu1)) for u in unique):
            unique.append(c)

    if overlaps:
        raise AmbiguousCrossingError(
            f"curves overlap between {overlaps} pairs of Lambda nodes", unique)
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
        for xs, ys, _ in _pieces(c):
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


def compare(sym: ThetaCurve, nonsym: ThetaCurve):
    """Crossing and minimizing envelope of a branch's curve `nonsym` against
    its symmetric reference's curve `sym`, at one theta.

    Returns (crossing, ambiguous, rows, jumps): an ambiguous crossing keeps
    its first candidate (or None), and rows and jumps are `min_envelope`'s
    for the reference and the branch's non-symmetric points on 400 Lambdas
    from the reference's smallest to the smaller of the two curves' largest.
    """
    try:
        crossing, ambiguous = detect_crossing(sym, nonsym), False
    except AmbiguousCrossingError as exc:
        crossing, ambiguous = (exc.crossings[0] if exc.crossings else None), True
    grid = np.linspace(sym.Lambda.min(), min(nonsym.Lambda.max(), sym.Lambda.max()), 400)
    # the branch's symmetric terminal row only duplicates the reference
    return (crossing, ambiguous, *min_envelope([sym, nonsym.nonsymmetric()], grid))


def lambda_GN(p: float, d: int, J_inf: float, measure_mode: str = "surface") -> float:
    """Existence threshold sup{Lambda_sym(mu) : J_sym(mu) < J_inf} at
    theta = Theta(p, d), computed on the closed-form symmetric curve.

    At Theta the symmetric level is J_sym(mu) = J_sym(1) mu^e with e =
    Theta - (p-2)/(2p) = (d-1)(p-2)/(2p) > 0 and Lambda_sym(mu) = Lambda_sym(1) mu,
    so the threshold is Lambda_sym(1) (J_inf / J_sym(1))^(1/e).  J_inf must
    be given in the same measure mode.
    """
    if not (J_inf > 0 and np.isfinite(J_inf)):
        raise ValueError(f"J_inf must be positive and finite, got {J_inf}")
    theta = theta_critical(p, d)
    lam1, j1 = curve_values(theta, 1.0, *soliton_norms(1.0, p, d, measure_mode), p)
    mu_hat = (J_inf / j1) ** (1.0 / (theta - (p - 2.0) / (2.0 * p)))
    return float(lam1 * mu_hat)
