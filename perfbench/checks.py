"""Checks of ckn outputs made apart from the program.

Nothing here imports ckn.  The symmetric soliton norms come from Beta
integrals of sech powers, the quadrature is rebuilt from the grid rule
that ckn documents, and checkpoints and CSV files are parsed from
their documented byte and text layouts.  A check never compares against
a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from pathlib import Path

import numpy as np

MAGIC = b"CKNFLD01"
_HEADER = struct.Struct("<IidBdii")

# Relative tolerances, fixed from the solver tolerances the workloads pin
# (fixed point 1e-10, eigen 1e-9) with a margin of about a hundred.
NEHARI_RTOL = 1e-6
REINTEGRATE_RTOL = 1e-9
ASYMMETRY_ATOL = 1e-9
SOLITON_RTOL = 1e-12
ASYMMETRIC = 1e-3
SYMMETRIC = 1e-4


class Tally:
    """Operations attempted, operations failed by a known program fault,
    and any other check that did not hold (which makes the run incorrect)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.errors.append(f"{name}: {detail}")
        return ok

    def known_fault(self, ok: bool):
        """An operation that fails because of a documented program fault."""
        self.attempted += 1
        if not ok:
            self.failed += 1


# ----------------------------------------------------------------------
# closed forms


def sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def mu_fs(p: float, d: int) -> float:
    """Stability threshold 4(d-1)/(p^2-4) of the symmetric branch."""
    return 4.0 * (d - 1.0) / (p * p - 4.0)


def theta_critical(p: float, d: int) -> float:
    return d * (p - 2.0) / (2.0 * p)


def _beta_half(a: float) -> float:
    """B(1/2, a) = int_R sech(x)^(2a) dx."""
    return math.exp(0.5 * math.log(math.pi) + math.lgamma(a) - math.lgamma(a + 0.5))


def soliton_profile(mu: float, p: float, s) -> np.ndarray:
    """u(s) = A sech(b s)^k with k = 2/(p-2), the s-only solution of
    -u'' + mu u = u^(p-1)."""
    A = (0.5 * mu * p) ** (1.0 / (p - 2.0))
    b = math.sqrt(mu) * (p - 2.0) / 2.0
    return A / np.cosh(b * np.asarray(s, dtype=float)) ** (2.0 / (p - 2.0))


def soliton_norms(mu: float, p: float, d: int, surface: bool = True):
    """(X, Y, Z) of the soliton, each integral taken on its own.

    With u = A sech^k(bs): Y = A^2 B(1/2,k)/b, Z = A^p B(1/2,k+1)/b and,
    from u' = -A k b sech^k tanh, X = A^2 k^2 b (B(1/2,k) - B(1/2,k+1)).
    The Nehari identity X + mu Y = Z is then a property to test, not an
    input.
    """
    k = 2.0 / (p - 2.0)
    A = (0.5 * mu * p) ** (1.0 / (p - 2.0))
    b = math.sqrt(mu) * (p - 2.0) / 2.0
    Y = A * A * _beta_half(k) / b
    Z = A**p * _beta_half(k + 1.0) / b
    X = A * A * k * k * b * (_beta_half(k) - _beta_half(k + 1.0))
    area = sphere_area(d) if surface else 1.0
    return X * area, Y * area, Z * area


def kappa_sym(mu: float, p: float, d: int, surface: bool = True) -> float:
    """Critical level Z^((p-2)/p) of the soliton at mu."""
    return soliton_norms(mu, p, d, surface)[2] ** ((p - 2.0) / p)


def j_sym_at_lambda(lam: float, theta: float, p: float, d: int, surface: bool = True) -> float:
    """Quotient level of the symmetric family at curve parameter Lambda.

    Lambda = theta mu - (1-theta) X/Y with X/Y = mu (p-2)/(p+2) on the
    soliton, and X + Lambda Y = theta (X + mu Y) = theta Z.
    """
    slope = theta - (1.0 - theta) * (p - 2.0) / (p + 2.0)
    mu = lam / slope
    X, Y, Z = soliton_norms(mu, p, d, surface)
    return (theta * (X + mu * Y)) ** theta * Y ** (1.0 - theta) / Z ** (2.0 / p)


def level_from_row(theta: float, kappa: float, mu: float, t: float, p: float) -> tuple[float, float]:
    """(Lambda, J) a branch row must carry if its field solves the mu-equation.

    A solution has X + mu Y = Z (Nehari) and kappa = Z^((p-2)/p), so Z, and
    Y = Z/(t + mu) with t = X/Y, follow from the row's kappa, mu and t.
    """
    Z = kappa ** (p / (p - 2.0))
    Y = Z / (t + mu)
    lam = theta * mu - (1.0 - theta) * t
    J = theta**theta * Z**theta * Y ** (1.0 - theta) / Z ** (2.0 / p)
    return lam, J


# ----------------------------------------------------------------------
# quadrature and files


class Quadrature:
    """Node weights of the ckn tensor grid, rebuilt from its stated rule.

    s is uniform on [-L, L] with trapezoid weights; phi_j =
    (pi/2)(1 - cos(pi j/(n_phi-1))) with cell widths times sin^(d-2) phi,
    rescaled to the sphere measure; the angular gradient uses midpoint
    densities with zero weight on the two pole cells.
    """

    def __init__(self, L: float, n_s: int, n_phi: int, d: int, surface: bool = True):
        self.shape = (n_s, n_phi)
        self.s = np.linspace(-L, L, n_s)
        self.h = 2.0 * L / (n_s - 1)
        self.ws = np.full(n_s, self.h)
        self.ws[[0, -1]] = 0.5 * self.h
        phi = 0.5 * math.pi * (1.0 - np.cos(math.pi * np.arange(n_phi) / (n_phi - 1)))
        phi[0], phi[-1] = 0.0, math.pi
        cells = np.empty(n_phi)
        cells[0] = 0.5 * (phi[1] - phi[0])
        cells[-1] = 0.5 * (phi[-1] - phi[-2])
        cells[1:-1] = 0.5 * (phi[2:] - phi[:-2])
        raw = cells * np.sin(phi) ** (d - 2)
        raw[[0, -1]] = 0.0
        scale = (sphere_area(d) if surface else 1.0) / raw.sum()
        self.wphi = scale * raw
        self.dphi = np.diff(phi)
        self.mphi = scale * self.dphi * np.sin(0.5 * (phi[:-1] + phi[1:])) ** (d - 2)
        self.mphi[[0, -1]] = 0.0

    def integrate(self, values: np.ndarray) -> float:
        return float(self.ws @ values @ self.wphi)

    def norms(self, values: np.ndarray, p: float) -> tuple[float, float, float]:
        X = (float(np.sum((np.diff(values, axis=0) ** 2) @ self.wphi)) / self.h
             + float(self.ws @ (np.diff(values, axis=1) ** 2) @ (self.mphi / self.dphi**2)))
        return X, self.integrate(values**2), self.integrate(np.abs(values) ** p)

    def asymmetry(self, values: np.ndarray) -> float:
        avg = values @ self.wphi / self.wphi.sum()
        return math.sqrt(self.integrate((values - avg[:, None]) ** 2) / self.integrate(values**2))


def read_checkpoint(path) -> dict:
    """Parse a ckn field checkpoint; raises ValueError on a damaged file."""
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + _HEADER.size + 4 or raw[:len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a ckn checkpoint")
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != struct.unpack("<I", raw[-4:])[0]:
        raise ValueError(f"{path}: checksum mismatch")
    _, d, p, mode, L, n_s, n_phi = _HEADER.unpack_from(raw, len(MAGIC))
    values = np.frombuffer(raw[len(MAGIC) + _HEADER.size:-4], dtype="<f8")
    if values.size != n_s * n_phi:
        raise ValueError(f"{path}: {values.size} values for a {n_s}x{n_phi} grid")
    return {"d": d, "p": p, "surface": mode == 1, "L": L, "n_s": n_s, "n_phi": n_phi,
            "values": values.reshape(n_s, n_phi)}


def read_csv(path) -> list[dict]:
    """Rows of a ckn CSV keyed by its header; numeric cells become floats."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        row = {}
        for key, cell in zip(header, ln.split(",")):
            try:
                row[key] = float(cell)
            except ValueError:
                row[key] = cell
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# branch output


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def terminal_mu(rows: list[dict]) -> float:
    """mu where the down walk stopped: the largest mu of a symmetric row.

    Rows below it are the closed-form extension the walk appends."""
    return max(r["mu"] for r in rows if r["asymmetry"] < SYMMETRIC)


def row_levels_ok(row: dict, thetas: list[float], p: float) -> tuple[bool, str]:
    """Every (Lambda, J) pair of a row matches the mu-equation's identities."""
    for theta in thetas:
        tag = f"{theta:.6f}"
        lam, J = level_from_row(theta, row["kappa"], row["mu"], row["t"], p)
        if _rel(row[f"J_{tag}"], J) > NEHARI_RTOL or abs(row[f"Lambda_{tag}"] - lam) > 1e-9 * (1 + abs(lam)):
            return False, (f"theta {tag}: J {row[f'J_{tag}']!r} vs {J!r}, "
                           f"Lambda {row[f'Lambda_{tag}']!r} vs {lam!r}")
    return True, ""


def row_checkpoint_ok(row: dict, cp_dir: Path, grid: dict, mu_end: float) -> tuple[bool, str]:
    """The row's checkpoint is the field the row describes.

    A computed row (mu >= mu_end) must re-integrate to its kappa and
    asymmetry; an extension row must hold the sampled closed-form soliton.
    """
    try:
        cp = read_checkpoint(cp_dir / f"{row['checkpoint']}.ckn")
    except (OSError, ValueError) as exc:
        return False, str(exc)
    for key in ("d", "p", "L", "n_s", "n_phi", "surface"):
        if cp[key] != grid[key]:
            return False, f"checkpoint {key} = {cp[key]!r}, run has {grid[key]!r}"
    p, u = cp["p"], cp["values"]
    quad = Quadrature(cp["L"], cp["n_s"], cp["n_phi"], cp["d"], cp["surface"])
    if row["mu"] >= mu_end:
        kappa = quad.integrate(np.abs(u) ** p) ** ((p - 2.0) / p)
        asym = quad.asymmetry(u)
        ok = _rel(kappa, row["kappa"]) <= REINTEGRATE_RTOL and abs(asym - row["asymmetry"]) <= ASYMMETRY_ATOL
        return ok, f"re-integrated kappa {kappa!r} asymmetry {asym!r}"
    ref = soliton_profile(row["mu"], p, quad.s)[:, None]
    dev = float(np.max(np.abs(u - ref))) / float(np.max(ref))
    ok = (dev <= SOLITON_RTOL and row["asymmetry"] == 0.0
          and _rel(row["kappa"], kappa_sym(row["mu"], p, cp["d"], cp["surface"])) <= 1e-10)
    return ok, f"closed-form row: field deviates by {dev:.2e}"


def branch_properties(rows: list[dict], manifest: dict, p: float, d: int, surface: bool = True):
    """(name, ok, detail) for the walk's start, end and pitchfork scaling."""
    mufs = mu_fs(p, d)
    conv = manifest["convergence"]
    n_down, n_up = conv["points_down"], conv["points_up"]
    out = [("row count", len(rows) == n_down + n_up - 1,
            f"{len(rows)} rows for {n_down} down and {n_up} up points")]
    if not out[0][1]:
        return out
    start = rows[n_down - 1]  # rows are sorted by kappa; the walks share the start
    level = kappa_sym(start["mu"], p, d, surface)
    out.append(("start point", start["asymmetry"] > ASYMMETRIC and start["kappa"] < level,
                f"asymmetry {start['asymmetry']:.3g}, kappa {start['kappa']:.6g} "
                f"vs symmetric {level:.6g}"))
    mu_end = terminal_mu(rows)
    out.append(("down walk end", abs(mu_end / mufs - 1.0) <= 0.02,
                f"terminal mu {mu_end:.6g} vs mu_FS {mufs:.6g}"))
    near = sorted((r for r in rows if r["mu"] > mufs and 0.02 < r["asymmetry"] < 0.45),
                  key=lambda r: r["mu"])[:5]
    if len(near) >= 3:
        slope = float(np.polyfit(np.log([r["mu"] - mufs for r in near]),
                                 np.log([r["asymmetry"] ** 2 for r in near]), 1)[0])
    else:
        slope = float("nan")
    out.append(("pitchfork exponent", abs(slope - 1.0) <= 0.3,
                f"{slope:.3f} from {len(near)} points"))
    return out


def check_branch_dir(out: Path, tally: Tally, p: float, d: int, thetas: list[float], grid: dict):
    """Check branch.csv, its manifest and every row's checkpoint."""
    rows = read_csv(out / "branch.csv")
    manifest = json.loads((out / "manifest.json").read_text())
    tally.check("branch rows sorted", all(a["kappa"] < b["kappa"] for a, b in zip(rows, rows[1:])))
    for name, ok, detail in branch_properties(rows, manifest, p, d, grid["surface"]):
        tally.check(name, ok, detail)
    mu_end = terminal_mu(rows)
    for row in rows:
        ok, detail = row_levels_ok(row, thetas, p)
        if ok:
            ok, detail = row_checkpoint_ok(row, out / "checkpoints", grid, mu_end)
        tally.check(f"row kappa={row['kappa']!r}", ok, detail)


def recheck_checkpoints(out: Path, tally: Tally, grid: dict):
    """Re-read every row's checkpoint once more, one operation per row.

    `ckn analyze` writes its symmetric reference into the same checkpoint
    directory with ids restarting at cp_00000, so a row whose field was
    overwritten fails here; that is a known program fault, not an error
    of the run.
    """
    rows = read_csv(out / "branch.csv")
    mu_end = terminal_mu(rows)
    for row in rows:
        tally.known_fault(row_checkpoint_ok(row, out / "checkpoints", grid, mu_end)[0])


def check_gn(path, tally: Tally, p: float, d: int, surface: bool = True):
    """gn.csv: Theta in closed form, and J_inf met by the symmetric curve at Lambda_GN."""
    row = read_csv(path)[0]
    theta = theta_critical(p, d)
    tally.check("gn Theta", _rel(row["Theta"], theta) <= 1e-12, f"{row['Theta']!r} vs {theta!r}")
    j = j_sym_at_lambda(row["Lambda_GN"], theta, p, d, surface)
    tally.check("gn level", abs(j - row["J_inf"]) <= 1e-8,
                f"J_sym(Lambda_GN) = {j!r}, J_inf = {row['J_inf']!r}")


def check_fixed_point(tally: Tally, name: str, fp, quad: Quadrature, p: float):
    """A fixed-point result: converged, non-increasing eigenvalue history,
    a field at the requested level kappa = Z^((p-2)/p), and X + mu Y = Z."""
    hist = np.asarray(fp.lambda_history)
    tally.check(f"{name} converged", bool(fp.converged), f"{fp.iterations} iterations")
    tally.check(f"{name} monotone", bool(np.all(np.diff(hist) <= 1e-12)),
                f"largest increase {np.max(np.diff(hist), initial=0.0):.3e}")
    X, Y, Z = quad.norms(fp.u_eq.values, p)
    level = Z ** ((p - 2.0) / p)
    tally.check(f"{name} level", _rel(level, fp.kappa) <= REINTEGRATE_RTOL,
                f"re-integrated kappa {level!r} vs {fp.kappa!r}")
    tally.check(f"{name} Nehari", _rel(X + fp.mu * Y, Z) <= NEHARI_RTOL,
                f"X + mu Y = {X + fp.mu * Y!r}, Z = {Z!r}")
