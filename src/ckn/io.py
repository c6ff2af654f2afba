"""Run configuration, field checkpoints, CSV emission, and run manifests.

Checkpoint layout (little endian, no padding):

    magic   8 bytes  b"CKNFLD01"
    version uint32
    d       int32
    p       float64
    mode    uint8    0 = probability, 1 = surface (any other is rejected)
    L       float64
    n_s     int32
    n_phi   int32
    values  n_s * n_phi float64, C order (s-major)
    crc     uint32   zlib.crc32 of everything above

Round trips are bitwise exact.  CSV files start with '#' comment lines
carrying the run id, a parameter echo and a format version; floats are
written with repr so parsing them back returns identical doubles.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
import struct
import sys
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CheckpointError, ConfigError
from .lapack import scipy_module
from .model import MIN_N_PHI, MIN_N_S, CylinderGrid, Field, ProblemParams, theta_critical

MAGIC = b"CKNFLD01"
CHECKPOINT_VERSION = 1
CSV_FORMAT = "ckn-csv-1"
_HEADER = struct.Struct("<IidBdii")
DEFAULT_THETAS = (0.72, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0)


def _atomic_write(path: Path, data: bytes):
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def save_field(path, u: Field) -> None:
    g = u.grid
    mode = 0 if g.measure_mode == "probability" else 1
    head = MAGIC + _HEADER.pack(CHECKPOINT_VERSION, g.d, g.p, mode, g.L, g.n_s, g.n_phi)
    body = np.ascontiguousarray(u.values, dtype="<f8").tobytes()
    payload = head + body
    crc = struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    _atomic_write(Path(path), payload + crc)


def load_field(path, grid: CylinderGrid) -> Field:
    raw = Path(path).read_bytes()
    if len(raw) < len(MAGIC) + _HEADER.size + 4:
        raise CheckpointError(f"{path}: truncated checkpoint")
    if raw[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {raw[:8]!r}")
    crc_stored = struct.unpack("<I", raw[-4:])[0]
    if zlib.crc32(raw[:-4]) & 0xFFFFFFFF != crc_stored:
        raise CheckpointError(f"{path}: checksum mismatch")
    version, d, p, mode, L, n_s, n_phi = _HEADER.unpack_from(raw, len(MAGIC))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported version {version}")
    body = raw[len(MAGIC) + _HEADER.size:-4]
    if n_s <= 0 or n_phi <= 0 or len(body) != 8 * n_s * n_phi:
        raise CheckpointError(f"{path}: {len(body)} value bytes do not hold a {n_s}x{n_phi} grid")
    if mode not in (0, 1):
        raise CheckpointError(f"{path}: unknown measure mode byte {mode}")
    values = np.frombuffer(body, dtype="<f8").reshape(n_s, n_phi).copy()
    if (grid.d, grid.p, grid.measure_mode, grid.L, grid.n_s, grid.n_phi) != (
            d, p, ("probability", "surface")[mode], L, n_s, n_phi):
        raise CheckpointError(f"{path}: checkpoint does not match the supplied grid")
    return Field(grid, values)


class FieldStore:
    """Directory of numbered field checkpoints with deterministic ids.

    Numbering continues after the highest id already in the directory, so
    stores opened on the same directory by successive commands never
    overwrite each other's fields.
    """

    def __init__(self, directory):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        ids = [int(f.stem[3:]) for f in self.dir.glob("cp_*.ckn") if f.stem[3:].isdigit()]
        self._counter = max(ids, default=-1) + 1

    def save(self, u: Field) -> str:
        cid = f"cp_{self._counter:05d}"
        self._counter += 1
        save_field(self.dir / f"{cid}.ckn", u)
        return cid

    def load(self, cid: str, grid: CylinderGrid) -> Field:
        path = self.dir / f"{cid}.ckn"
        if not path.exists():
            raise CheckpointError(f"checkpoint {cid} not found in {self.dir}")
        return load_field(path, grid)


def theta_tag(theta: float) -> str:
    """The name of theta in output file and column names."""
    return f"{theta:.6f}"


def _positive(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and 0 < x < math.inf


# each RunConfig annotation: the test its values must pass, and their name;
# every number of a run (d, the grid, p, the thetas, tolerances) is positive
_ADMITS = {
    "int": (lambda x: isinstance(x, numbers.Integral) and _positive(x), "a positive integer"),
    "float": (_positive, "a positive number"),
    "float | None": (lambda x: x is None or _positive(x), "a positive number or null"),
    "str": (lambda x: isinstance(x, str), "a string"),
    "list | None": (lambda x: x is None or isinstance(x, list) and len(x) > 0
                    and all(map(_positive, x)), "a non-empty list of positive numbers or null"),
}


@dataclass
class RunConfig:
    """All knobs of one reproducible run; round-trips through JSON."""

    d: int = 5
    p: float = 2.8
    theta_list: list | None = None  # None: those of DEFAULT_THETAS in [Theta(p), 1]
    measure_mode: str = "surface"
    L: float | None = None
    n_s: int = 400
    n_phi: int = 48
    eta: float | None = None  # each walk's first step and guard unit; None: kappa0 / 200
    kappa_stop: float | None = None
    tol: float = 1e-10
    eigen_tol: float = 1e-9
    out: str = "ckn_out"
    run_id: str = "ckn-run"

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            admits, kind = _ADMITS[f.type]
            if not admits(value):
                raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
        try:
            self.params()
            if self.theta_list is None:
                tc = theta_critical(self.p, self.d)
                self.theta_list = [th for th in DEFAULT_THETAS if th >= tc]
            for th in self.theta_list:
                self.params(th)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        tags = [theta_tag(th) for th in self.theta_list]
        if len(set(tags)) < len(tags):
            raise ConfigError(f"theta_list names one output tag twice: {tags}")
        if self.n_s < MIN_N_S or self.n_phi < MIN_N_PHI:
            raise ConfigError(f"grid {self.n_s}x{self.n_phi} is below {MIN_N_S}x{MIN_N_PHI}")

    def params(self, theta: float = 1.0) -> ProblemParams:
        return ProblemParams(self.d, self.p, theta, self.measure_mode)

    def half_length(self, mu_min: float) -> float:
        """Truncation policy: 12/sqrt(mu_min), floored at 8."""
        if self.L is not None:
            return self.L
        return max(8.0, 12.0 / np.sqrt(mu_min))

    @classmethod
    def from_json(cls, text: str, **overrides) -> "RunConfig":
        """The config of the JSON object `text`, its fields replaced by `overrides`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**{**data, **overrides})

    @classmethod
    def load(cls, path, **overrides) -> "RunConfig":
        return cls.from_json(Path(path).read_text(), **overrides)


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(float(x))
    return str(x)


def write_csv(path, comments: list[str], header: list[str], rows) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(f"# format: {CSV_FORMAT}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _atomic_write(Path(path), ("\n".join(lines) + "\n").encode())


def read_csv(path):
    """Parse a ckn CSV back into (comments, header, rows of floats/strings)."""
    comments, header, rows = [], None, []
    for line in Path(path).read_text().splitlines():
        if not line:
            continue
        if line.startswith("#"):
            comments.append(line[1:].strip())
            continue
        cells = line.split(",")
        if header is None:
            header = cells
            continue
        parsed = []
        for c in cells:
            try:
                parsed.append(float(c))
            except ValueError:
                parsed.append(c)
        rows.append(parsed)
    return comments, header, rows


def config_echo(config: RunConfig) -> list[str]:
    return [
        f"run_id: {config.run_id}",
        f"params: d={config.d} p={config.p} measure_mode={config.measure_mode} "
        f"n_s={config.n_s} n_phi={config.n_phi}",
    ]


@functools.cache
def _scipy_version() -> str:
    """`version` of scipy/version.py beside the installed package, or the
    package's own where ckn.lapack's fallback imported scipy.  Importing
    scipy would cost every ckn process its package init, and
    importlib.metadata 37 stdlib modules."""
    if "scipy" in sys.modules:
        return sys.modules["scipy"].__version__
    return scipy_module("version").version


def write_manifest(path, config: RunConfig, extra: dict) -> None:
    from . import BLAS_THREADS, __version__

    payload = {
        "config": dataclasses.asdict(config),
        "versions": {
            "ckn": __version__,
            "numpy": np.__version__,
            "scipy": _scipy_version(),
        },
        "openblas_num_threads": BLAS_THREADS,
    }
    payload.update(extra)
    _atomic_write(Path(path), json.dumps(payload, indent=2, sort_keys=True).encode())
