"""Problem parameters, the weighted cylinder grid, and quotient evaluation.

Everything downstream works on the truncated cylinder [-L, L] x S^{d-1},
reduced to the two variables (s, phi) where phi in [0, pi] is the azimuthal
angle.  The angular measure carries the density sin^{d-2}(phi), normalized
either to total mass 1 ("probability" mode) or to |S^{d-1}| ("surface" mode).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

MEASURE_MODES = ("probability", "surface")


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
    the poles vanish exactly (the angular density is zero there); the
    staggered midpoint weights `mphi` used for the angular gradient are
    zero on the two pole-adjacent cells, so pole values never enter any
    norm or energy.

    `K` is the staggered-difference energy form on the full tensor grid
    (u . K u = int |grad u|^2; pole rows are zero).  The solver dofs are
    the interior nodes (off the Dirichlet ends s = +-L and off the poles):
    `m` is their quadrature mass and `B = M^-1/2 K_int M^-1/2` the
    mass-scaled interior stiffness, symmetric in the Euclidean product.
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
    dphi: np.ndarray
    mphi: np.ndarray
    h_s: float
    angular_total: float
    K: sp.csr_matrix
    m: np.ndarray
    B: sp.csr_matrix

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_s, self.n_phi)

    @property
    def weights(self) -> np.ndarray:
        """Full (n_s, n_phi) quadrature weight table."""
        return np.outer(self.ws, self.wphi)

    def integrate(self, values: np.ndarray) -> float:
        return float(np.einsum("i,j,ij->", self.ws, self.wphi, values))

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """Interior dofs of a nodal table, flattened in s-major order."""
        return values[1:-1, 1:-1].ravel()

    def embed(self, vec: np.ndarray) -> np.ndarray:
        """Inverse of restrict: zero Dirichlet rows, pole rows copy neighbors."""
        full = np.zeros(self.shape)
        full[1:-1, 1:-1] = vec.reshape(self.n_s - 2, self.n_phi - 2)
        full[:, 0] = full[:, 1]
        full[:, -1] = full[:, -2]
        return full

    def action(self, values: np.ndarray) -> np.ndarray:
        """Pointwise -Laplace u = M^-1 (K u) on the interior dofs.

        Boundary columns of K contribute, so fields with nonzero values at
        s = +-L are differentiated against those values; on an embedded
        interior vector x, K u is exactly K_int x.
        """
        return self.restrict((self.K @ values.ravel()).reshape(self.shape)) / self.m


def build_grid(L: float, n_s: int, n_phi: int, params: ProblemParams) -> CylinderGrid:
    """Construct the weighted tensor grid for `params` and assemble its operator.

    The angular node weights are trapezoidal cells times the nodal density
    sin^{d-2}(phi), rescaled so the total angular mass is exact (1 or
    |S^{d-1}|); quadrature of a constant is then exact by construction.
    """
    if L <= 0:
        raise ValueError(f"half-length L must be positive, got {L}")
    if n_s < 16 or n_phi < 8:
        raise ValueError(f"grid too small: need n_s >= 16, n_phi >= 8, got {n_s}x{n_phi}")

    d = params.d
    s = np.linspace(-L, L, n_s)
    h_s = 2.0 * L / (n_s - 1)
    ws = np.full(n_s, h_s)
    ws[0] = ws[-1] = 0.5 * h_s

    j = np.arange(n_phi)
    phi = 0.5 * math.pi * (1.0 - np.cos(math.pi * j / (n_phi - 1)))
    phi[0], phi[-1] = 0.0, math.pi

    cells = np.empty(n_phi)
    cells[0] = 0.5 * (phi[1] - phi[0])
    cells[-1] = 0.5 * (phi[-1] - phi[-2])
    cells[1:-1] = 0.5 * (phi[2:] - phi[:-2])
    raw = cells * np.sin(phi) ** (d - 2)
    raw[0] = raw[-1] = 0.0
    total = 1.0 if params.measure_mode == "probability" else sphere_area(d)
    scale = total / raw.sum()
    wphi = scale * raw

    dphi = np.diff(phi)
    mid = 0.5 * (phi[:-1] + phi[1:])
    mphi = scale * dphi * np.sin(mid) ** (d - 2)
    mphi[0] = mphi[-1] = 0.0  # pole cells carry no angular-gradient weight

    # energy form: s-differences weighted by wphi, phi-differences by ws
    diag_s = np.full(n_s, 2.0)
    diag_s[0] = diag_s[-1] = 1.0
    T_s = sp.diags([np.full(n_s - 1, -1.0), diag_s, np.full(n_s - 1, -1.0)], [-1, 0, 1]) / h_s
    cell = mphi / dphi**2
    diag_p = np.zeros(n_phi)
    diag_p[:-1] += cell
    diag_p[1:] += cell
    A_phi = sp.diags([-cell, diag_p, -cell], [-1, 0, 1])
    K = (sp.kron(T_s, sp.diags(wphi)) + sp.kron(sp.diags(ws), A_phi)).tocsr()

    inner = np.arange(n_s * n_phi).reshape(n_s, n_phi)[1:-1, 1:-1].ravel()
    m = np.outer(ws, wphi)[1:-1, 1:-1].ravel()
    S = sp.diags(1.0 / np.sqrt(m))
    B = (S @ K[inner][:, inner].tocsr() @ S).tocsr()

    return CylinderGrid(
        d=d, p=params.p, measure_mode=params.measure_mode, L=L, n_s=n_s, n_phi=n_phi,
        s=s, phi=phi, ws=ws, wphi=wphi, dphi=dphi, mphi=mphi, h_s=h_s,
        angular_total=total, K=K, m=m, B=B,
    )


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
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def norm_sq(self) -> float:
        return self.grid.integrate(self.values**2)


def dirichlet_energy(u: Field) -> float:
    """Quadrature-weighted energy int |grad u|^2 from staggered differences.

    This is u . K u, summed over the differences themselves so that it is
    exactly zero on constants (K u carries roundoff there).
    """
    g = u.grid
    v = u.values
    ds = np.diff(v, axis=0)
    x_s = np.einsum("j,ij->", g.wphi, ds**2) / g.h_s
    dp = np.diff(v, axis=1)
    x_phi = np.einsum("i,j,ij->", g.ws, g.mphi / g.dphi**2, dp**2)
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
