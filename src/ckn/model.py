"""Problem parameters, the weighted cylinder grid, and quotient evaluation.

Everything downstream works on the truncated cylinder [-L, L] x S^{d-1},
reduced to the two variables (s, phi) where phi in [0, pi] is the azimuthal
angle.  The angular measure carries the density sin^{d-2}(phi), normalized
either to total mass 1 ("probability" mode) or to |S^{d-1}| ("surface" mode).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

MEASURE_MODES = ("probability", "surface")
MIN_N_S = 16
MIN_N_PHI = 8
# a field folds onto the even sector only when its odd part in s is below
# this share of its norm
EVEN_RTOL = 1e-10


def sphere_area(d: int) -> float:
    """Surface measure |S^{d-1}| of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def theta_critical(p: float, d: int) -> float:
    """Critical interpolation exponent d(p-2)/(2p).

    Admissible exponents theta for the quotient lie in [theta_critical, 1].
    The formula holds in any dimension d >= 1 (the radial ground state's
    Pohozaev identities use it at d = 1 as well); ProblemParams separately
    requires d >= 3.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if p <= 2:
        raise ValueError(f"exponent p must exceed 2, got {p}")
    return d * (p - 2.0) / (2.0 * p)


@dataclass(frozen=True)
class ProblemParams:
    """Dimension, exponent and measure convention defining one problem."""

    d: int
    p: float
    theta: float = 1.0
    measure_mode: str = "surface"

    def __post_init__(self):
        if self.d < 3:
            raise ValueError(f"dimension must be >= 3, got {self.d}")
        if not 2.0 < self.p < 2.0 * self.d / (self.d - 2.0):
            raise ValueError(
                f"p must satisfy 2 < p < 2d/(d-2) = {2 * self.d / (self.d - 2)}, got {self.p}"
            )
        tc = theta_critical(self.p, self.d)
        if not tc <= self.theta <= 1.0:
            raise ValueError(
                f"theta must lie in [theta_critical, 1] = [{tc}, 1], got {self.theta}"
            )
        if self.measure_mode not in MEASURE_MODES:
            raise ValueError(f"measure_mode must be one of {MEASURE_MODES}")


@dataclass(frozen=True, eq=False)
class CylinderGrid:
    """Tensor (s, phi) grid with sin^{d-2}(phi)-weighted quadrature and the
    one discrete energy operator every solver reads.

    s is uniform on [-L, L]; phi nodes are cosine-clustered towards the
    poles, phi_j = (pi/2) (1 - cos(pi j / (n_phi - 1))).  Node weights at
    the poles vanish exactly (the angular density is zero there).

    The operator is its edge weights: `es[i, j]` on the s-edge
    (i, j)-(i+1, j) and `ep[i, j]` on the phi-edge (i, j)-(i, j+1), zero on
    the two pole cells so that pole values never enter any norm or energy;
    K is the matrix of the energy they weigh.  The solver dofs are the
    nodes off the first and last rows and the poles: `m` is their
    quadrature mass and `B` the three nonzero diagonals (offsets 0, 1,
    n_phi - 2 in s-major order) of the mass-scaled interior stiffness
    M^-1/2 K_int M^-1/2, which only `matvec` and `band` read.

    `even` is the folded grid: the sector of fields even in s, on the
    nodes with s >= 0 behind a mirror row, the image of the first node
    with s > 0.  Each node's and each s-edge's weight is summed with its
    mirror image's, which leaves the mirror row and its edge with zero
    weight: for odd n_s that edge's weight went to its image, for even
    n_s it is the centre edge, which carries no flux on even fields.  So,
    like a pole, the mirror row is no dof, and every integral, energy and
    operator entry of an even field is the full grid's.  `fold` and
    `unfold` map fields between the two.
    """

    d: int
    p: float
    measure_mode: str
    L: float
    n_s: int
    n_phi: int
    s: np.ndarray
    phi: np.ndarray
    ws: np.ndarray
    wphi: np.ndarray
    es: np.ndarray
    ep: np.ndarray
    m: np.ndarray
    B: tuple[np.ndarray, np.ndarray, np.ndarray]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_s, self.n_phi)

    @functools.cached_property
    def even(self) -> CylinderGrid:
        if not np.allclose(self.s, -self.s[::-1], rtol=0, atol=1e-12 * self.L):
            raise ValueError("a grid whose s is not symmetric has no even sector")
        k = self.n_s // 2 - 1  # the mirror row
        copies = np.full(self.n_s - k, 2.0)  # how many full-grid nodes each row stands for
        copies[0] = 0.0
        if self.n_s % 2:
            copies[1] = 1.0  # the node on s = 0 is its own mirror
        es = 2.0 * self.es[k:]
        es[0] = 0.0
        return _with_operator(dataclasses.replace(
            self, n_s=self.n_s - k, s=self.s[k:], ws=copies * self.ws[k:], es=es,
            ep=copies[:, None] * self.ep[k:]))

    def fold(self, u: Field) -> Field:
        """u on the folded grid `even`; raises ValueError when the odd part
        of u exceeds EVEN_RTOL of its norm, so it is never misread."""
        v = u.values
        odd = 0.5 * (v - v[::-1])
        if self.integrate(odd**2) > EVEN_RTOL**2 * self.integrate(v**2):
            raise ValueError("field is not even in s: its odd part exceeds "
                             f"{EVEN_RTOL:g} of its norm")
        return Field(self.even, v[self.n_s // 2 - 1:])

    def unfold(self, u: Field) -> Field:
        """The field on this grid whose fold is u (a field on `even`)."""
        v = u.values[1:]
        return Field(self, np.concatenate([v[::-1][:self.n_s // 2], v]))

    @property
    def weights(self) -> np.ndarray:
        """Full (n_s, n_phi) quadrature weight table."""
        return np.outer(self.ws, self.wphi)

    def integrate(self, values: np.ndarray) -> float:
        return float(self.ws @ values @ self.wphi)

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """Interior dofs of a nodal table, flattened in s-major order."""
        return values[1:-1, 1:-1].ravel()

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Inverse of restrict: zero first and last rows, pole rows copy neighbors."""
        full = np.zeros(self.shape)
        full[1:-1, 1:-1] = vec.reshape(-1, self.n_phi - 2)
        full[:, 0] = full[:, 1]
        full[:, -1] = full[:, -2]
        return full

    def matvec(self, y: np.ndarray, shift) -> np.ndarray:
        """(B - diag(shift)) y for a vector y of interior dofs; `shift` is
        an array on the dofs (kappa V) or a scalar."""
        (diag, off_phi, off_s), w = self.B, self.n_phi - 2
        out = (diag - shift) * y
        out[:-1] += off_phi * y[1:]
        out[1:] += off_phi * y[:-1]
        out[:-w] += off_s * y[w:]
        out[w:] += off_s * y[:-w]
        return out

    def band(self, shift) -> np.ndarray:
        """B - diag(shift) in LAPACK upper band storage; in s-major order B
        couples phi neighbours (offset 1) and s neighbours (w = n_phi - 2)."""
        (diag, off_phi, off_s), w = self.B, self.n_phi - 2
        ab = np.zeros((w + 1, diag.size), order="F")
        ab[w] = diag - shift
        ab[w - 1, 1:] = off_phi
        ab[0, w:] = off_s
        return ab

    def s_operator(self) -> np.ndarray:
        """-d2/ds2 on the dof rows, as the grid acts on fields constant in
        phi: no phi-edge carries a difference, so each s-edge's weight over
        its node's mass couples the rows.  Returned in the (1, 1) banded
        layout: row 0 the superdiagonal from column 1, row 1 the diagonal,
        row 2 the subdiagonal up to the last column but one."""
        ws = self.ws[1:-1]
        edge = self.es[:, 1] / self.wphi[1]  # each s-edge's weight per unit angular mass
        ab = np.zeros((3, len(ws)))  # the two unused corners stay zero
        ab[0, 1:] = -edge[1:-1] / ws[:-1]
        ab[2, :-1] = -edge[1:-1] / ws[1:]
        ab[1] = (edge[:-1] + edge[1:]) / ws
        return ab


def banded_matvec(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The product with v (along its last axis) of the tridiagonal matrix
    `ab` held in the (1, 1) banded layout of `CylinderGrid.s_operator`."""
    out = ab[1] * v
    out[..., :-1] += ab[0, 1:] * v[..., 1:]
    out[..., 1:] += ab[2, :-1] * v[..., :-1]
    return out


def build_grid(L: float, n_s: int, n_phi: int, params: ProblemParams) -> CylinderGrid:
    """Construct the weighted tensor grid for `params` and its operator.

    The angular node weights are trapezoidal cells times the nodal density
    sin^{d-2}(phi), rescaled so the total angular mass is exact (1 or
    |S^{d-1}|); quadrature of a constant is then exact by construction.
    """
    if L <= 0:
        raise ValueError(f"half-length L must be positive, got {L}")
    if n_s < MIN_N_S or n_phi < MIN_N_PHI:
        raise ValueError(f"grid {n_s}x{n_phi} is below the minimum {MIN_N_S}x{MIN_N_PHI}")

    d = params.d
    s = np.linspace(-L, L, n_s)
    h_s = 2.0 * L / (n_s - 1)
    ws = np.full(n_s, h_s)
    ws[0] = ws[-1] = 0.5 * h_s

    j = np.arange(n_phi)
    phi = 0.5 * math.pi * (1.0 - np.cos(math.pi * j / (n_phi - 1)))
    phi[0], phi[-1] = 0.0, math.pi

    cells = np.zeros(n_phi)  # the pole nodes carry no weight
    cells[1:-1] = 0.5 * (phi[2:] - phi[:-2])
    raw = cells * np.sin(phi) ** (d - 2)
    total = 1.0 if params.measure_mode == "probability" else sphere_area(d)
    scale = total / raw.sum()
    wphi = scale * raw

    dphi = np.diff(phi)
    mid = 0.5 * (phi[:-1] + phi[1:])
    mphi = scale * dphi * np.sin(mid) ** (d - 2)
    mphi[0] = mphi[-1] = 0.0  # pole cells carry no angular-gradient weight
    return _with_operator(CylinderGrid(
        d=d, p=params.p, measure_mode=params.measure_mode, L=L, n_s=n_s, n_phi=n_phi,
        s=s, phi=phi, ws=ws, wphi=wphi, es=np.tile(wphi / h_s, (n_s - 1, 1)),
        ep=np.outer(ws, mphi / dphi**2), m=None, B=None,
    ))


def _with_operator(g: CylinderGrid) -> CylinderGrid:
    """g with the mass m of its interior dofs and its operator B."""
    # M^-1/2 K_int M^-1/2: a node's diagonal entry sums its edge weights, an
    # edge contributes minus its weight; the zero pole-cell weight ends each
    # phi row, so the offset-1 diagonal needs no gaps
    w = g.n_phi - 2
    m = g.weights[1:-1, 1:-1].ravel()
    isq = 1.0 / np.sqrt(m)
    diag = ((g.es[:-1] + g.es[1:])[:, 1:-1] + g.ep[1:-1, :-1] + g.ep[1:-1, 1:]).ravel() / m
    off_phi = -g.ep[1:-1, 1:].ravel()[:-1] * isq[:-1] * isq[1:]
    off_s = -g.es[1:-1, 1:-1].ravel() * isq[:-w] * isq[w:]
    return dataclasses.replace(g, m=m, B=(diag, off_phi, off_s))


@dataclass
class Field:
    """Nodal values of a function u(s, phi) on a CylinderGrid."""

    grid: CylinderGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        # a finite sum of squares proves every value finite (np.vdot, unlike
        # np.dot and @, warns of no overflow); otherwise the elementwise
        # test decides
        v = self.values.ravel()
        if not (math.isfinite(np.vdot(v, v)) or np.all(np.isfinite(v))):
            raise ValueError("field contains non-finite values")

    def norm_sq(self) -> float:
        return self.grid.integrate(self.values**2)


def dirichlet_energy(u: Field) -> float:
    """Quadrature-weighted energy int |grad u|^2: the edge-weighted sum of
    squared differences, exactly zero on constants."""
    g, v = u.grid, u.values
    x_s = np.einsum("ij,ij->", g.es, np.diff(v, axis=0) ** 2)
    x_phi = np.einsum("ij,ij->", g.ep, np.diff(v, axis=1) ** 2)
    return float(x_s + x_phi)


def evaluate_norms(u: Field) -> tuple[float, float, float]:
    """Return (X, Y, Z) = (int |grad u|^2, int u^2, int |u|^p)."""
    g = u.grid
    if not np.any(u.values):
        raise ValueError("cannot evaluate norms of the zero field")
    X = dirichlet_energy(u)
    Y = g.integrate(u.values**2)
    Z = g.integrate(np.abs(u.values) ** g.p)
    return X, Y, Z


def profile_norms(grid: CylinderGrid, v: np.ndarray):
    """`evaluate_norms` of the fields constant in phi whose s-profiles are
    the rows of v, as arrays: such a field has no phi differences, so X
    weighs each s-difference by its edge's weights summed over phi, and
    the angular mass factors out of Y and Z.  Equal to evaluate_norms up
    to roundoff, without building the fields."""
    W = grid.wphi.sum()
    X = np.diff(v, axis=-1) ** 2 @ grid.es.sum(axis=1)
    Y = W * (v**2 @ grid.ws)
    Z = W * (np.abs(v) ** grid.p @ grid.ws)
    return X, Y, Z


def evaluate_Q(u: Field, Lambda: float, theta: float) -> float:
    """Interpolation quotient (X + Lambda Y)^theta Y^(1-theta) / Z^(2/p)."""
    X, Y, Z = evaluate_norms(u)
    base = X + Lambda * Y
    if base <= 0 and not float(theta).is_integer():
        raise ValueError(
            f"X + Lambda*Y = {base} is not positive; quotient undefined for theta={theta}"
        )
    p = u.grid.p
    return base**theta * Y ** (1.0 - theta) / Z ** (2.0 / p)
