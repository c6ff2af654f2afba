"""Command-line driver: symmetric curves, branch runs, diagram analysis.

Subcommands: symmetric-curve, branch, analyze, gn-limit, reproduce-figures.
A JSON config file provides the run parameters; command-line flags win
over the file.  Exit codes: 0 success, 2 configuration error, 3 solver
non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, continuation, gn, io, svg
from .errors import CheckpointError, CknError, ConfigError, NonConvergenceError, StepFailureError
from .model import ProblemParams, build_grid, theta_critical
from .symmetric import mu_FS, soliton, soliton_norms

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4
# the smallest mu of the symmetric curves (and of the default L), as a share of mu_FS
MU_MIN_FACTOR = 0.1


def _load_config(args) -> io.RunConfig:
    # every flag's dest is the RunConfig field it overrides; the config is
    # built once, so the default thetas are those admissible at the final p
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(io.RunConfig)
                 if getattr(args, f.name, None) is not None}
    if args.config:
        return io.RunConfig.load(args.config, **overrides)
    return io.RunConfig(**overrides)


def _grid(config: io.RunConfig):
    params = config.params()
    mu_fs = mu_FS(config.p, config.d)
    L = config.half_length(mu_fs * MU_MIN_FACTOR)
    return build_grid(L, config.n_s, config.n_phi, params), params


def cmd_symmetric_curve(config: io.RunConfig, out: Path) -> list[Path]:
    """Closed-form symmetric curve tables, one CSV per theta."""
    files = []
    mu_fs = mu_FS(config.p, config.d)
    mus = np.geomspace(MU_MIN_FACTOR * mu_fs * 0.5, 40.0 * mu_fs, 400)
    X, Y, Z = soliton_norms(mus, config.p, config.d, config.measure_mode)
    for theta in config.theta_list:
        lam, J = analysis.curve_values(theta, mus, X, Y, Z, config.p)
        rows = zip(*(a.tolist() for a in (mus, lam, J, X / Y, X, Y, Z)))
        path = out / f"sym_curve_{io.theta_tag(theta)}.csv"
        io.write_csv(path, io.config_echo(config) + [f"theta: {theta!r}"],
                     ["mu", "Lambda", "J", "t", "X", "Y", "Z"], rows)
        files.append(path)
    return files


def cmd_branch(config: io.RunConfig, out: Path) -> list[Path]:
    """Compute the non-symmetric branch; emit branch.csv and manifest.json."""
    grid, params = _grid(config)
    manifest = out / "manifest.json"
    stopped = None
    t0 = time.perf_counter()
    try:
        branch = continuation.compute_branch(
            grid, params, io.FieldStore(out / "checkpoints"), eta=config.eta,
            kappa_stop=config.kappa_stop, tol=config.tol, eigen_tol=config.eigen_tol)
    except StepFailureError as exc:
        # keep what the stalled walk collected; the error still exits 3
        branch, stopped = exc.branch, exc
    except CknError as exc:
        # a rejected grid or a failed start saves no checkpoint, but its reason is kept
        io.write_manifest(manifest, config, {
            "timings": {"initialize_seconds": time.perf_counter() - t0},
            "stopped": str(exc)})
        raise

    path = out / "branch.csv"
    _write_branch(path, config, branch)
    io.write_manifest(manifest, config, {
        **branch.provenance, "stopped": None if stopped is None else str(stopped)})
    if stopped is not None:
        raise stopped
    return [path, manifest]


_COLUMNS = [f.name for f in dataclasses.fields(continuation.BranchPoint)]


def _write_branch(path: Path, config: io.RunConfig, branch: continuation.Branch):
    """branch.csv: a column per BranchPoint field, each theta's Lambda and J after mu."""
    cols = [[getattr(pt, c) for pt in branch.points] for c in _COLUMNS]
    norms = [branch.column(c) for c in ("mu", "X", "Y", "Z")]
    lams, Js = zip(*(analysis.curve_values(th, *norms, config.p) for th in config.theta_list))
    tags = [io.theta_tag(theta) for theta in config.theta_list]
    header = _COLUMNS[:2] + [f"Lambda_{t}" for t in tags] + [f"J_{t}" for t in tags] + _COLUMNS[2:]
    io.write_csv(path, io.config_echo(config), header,
                 zip(*cols[:2], *(a.tolist() for a in lams + Js), *cols[2:]))


def _read_branch(path: Path, params: ProblemParams) -> continuation.Branch:
    """The Branch that `_write_branch` wrote to path, bit for bit."""
    try:
        _, header, rows = io.read_csv(path)
    except FileNotFoundError:
        # a branch run that stopped before its first point wrote only the manifest
        manifest = path.with_name("manifest.json")
        stopped = manifest.exists() and json.loads(manifest.read_text()).get("stopped")
        if not stopped:
            raise
        raise CheckpointError(f"{path.parent} has no {path.name}: ckn branch stopped: {stopped}")
    missing = [c for c in _COLUMNS if c not in header]
    if missing:
        raise CheckpointError(f"{path} has no column {missing[0]}: run the branch command again")
    return continuation.Branch(params, [continuation.BranchPoint(
        **{c: row[header.index(c)] for c in _COLUMNS}) for row in rows])


def _field_contour_csv(config, out: Path, name: str, field) -> Path:
    rows = []
    g = field.grid
    for i, s in enumerate(g.s):
        for j, phi in enumerate(g.phi):
            rows.append((float(s), float(phi), float(field.values[i, j])))
    path = out / name
    io.write_csv(path, io.config_echo(config), ["s", "phi", "u"], rows)
    return path


def cmd_analyze(config: io.RunConfig, out: Path) -> list[Path]:
    """Crossings, envelopes, existence threshold, and SVG diagrams."""
    grid, params = _grid(config)
    branch = _read_branch(out / "branch.csv", params)
    store = io.FieldStore(out / "checkpoints")
    # a branch computed on another grid raises CheckpointError before any output
    store.load(branch.points[0].checkpoint, grid)
    files = cmd_gn_limit(config, out)
    # resolved by the same discrete functional as the branch, so the tiny
    # J gaps near a crossing are bias-cancelled
    reference = continuation.symmetric_reference(branch, grid, params)

    crossing_rows = []
    for theta in config.theta_list:
        tag = io.theta_tag(theta)
        sym, nonsym = analysis.map_to_theta(reference, theta), analysis.map_to_theta(branch, theta)
        crossing, ambiguous, envelope, jumps = analysis.compare(sym, nonsym)
        flag = "true" if ambiguous else "false"
        if crossing is None:
            crossing_rows.append((theta, float("nan"), float("nan"), float("nan"), "false", flag))
        else:
            crossing_rows.append((theta, crossing.Lambda1, crossing.mu1_star, crossing.mu1,
                                  "true", flag))

        env_path = out / f"envelope_{tag}.csv"
        io.write_csv(env_path, io.config_echo(config) + [f"jumps: {jumps!r}"],
                     ["Lambda", "J_min", "source"],
                     [(l, j, ("symmetric", "branch")[s] if s >= 0 else "none")
                      for (l, j, s) in envelope])
        files.append(env_path)

        diagram = out / f"diagram_{tag}.svg"
        # render_diagram skips the envelope's nan rows
        svg.render_diagram(
            diagram, (nonsym.Lambda, nonsym.J), (sym.Lambda, sym.J),
            tuple(zip(*envelope))[:2], title=f"d={config.d} p={config.p} theta={theta:.4f}")
        files.append(diagram)

        if crossing is not None and not ambiguous:
            near = min(branch.points, key=lambda pt: abs(pt.mu - crossing.mu1))
            files.append(_field_contour_csv(config, out, f"crossing_field_mu1_{tag}.csv",
                                            store.load(near.checkpoint, grid)))
            u_star = soliton(crossing.mu1_star, config.p).sample(grid)
            files.append(_field_contour_csv(
                config, out, f"crossing_field_mu1_star_{tag}.csv", u_star))

    cr_path = out / "crossings.csv"
    io.write_csv(cr_path, io.config_echo(config),
                 ["theta", "Lambda1", "mu1_star", "mu1", "found", "ambiguous"],
                 crossing_rows)
    files.append(cr_path)
    return files


def cmd_gn_limit(config: io.RunConfig, out: Path) -> list[Path]:
    profile = gn.radial_ground_state(config.p, config.d)
    theta_c = theta_critical(config.p, config.d)
    j_inf = gn.J_infinity(config.p, config.d, config.measure_mode, profile)
    lam_gn = analysis.lambda_GN(config.p, config.d, j_inf, config.measure_mode)
    path = out / "gn.csv"
    io.write_csv(path, io.config_echo(config),
                 ["Theta", "J_inf", "Lambda_GN"], [(theta_c, j_inf, lam_gn)])
    return [path]


def cmd_reproduce_figures(config: io.RunConfig, out: Path) -> list[Path]:
    """Canonical d=5 sweep: the theta family at p=2.8 (the config's thetas,
    the critical theta and the near-critical 0.7213 and 0.7283), and
    p in {2.78, 2.7} at the critical theta."""
    files = []
    theta_c = round(theta_critical(2.8, 5), 6)
    scenarios = [
        ("p2.8_theta_family", 2.8, [theta_c, 0.7213, 0.7283, *config.theta_list]),
        ("p2.78_theta_critical", 2.78, [theta_c]),
        ("p2.7_theta_critical", 2.7, [theta_c]),
    ]
    for name, p, thetas in scenarios:
        # one theta per tag: a config theta may share the critical theta's
        sub_cfg = dataclasses.replace(
            config, p=p, theta_list=sorted({io.theta_tag(t): t for t in thetas}.values()),
            out=str(out / name), run_id=f"{config.run_id}/{name}")
        sub_out = out / name
        sub_out.mkdir(parents=True, exist_ok=True)
        files += cmd_symmetric_curve(sub_cfg, sub_out)
        files += cmd_branch(sub_cfg, sub_out)
        files += cmd_analyze(sub_cfg, sub_out)
    return files


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckn",
        description="Critical points and symmetry breaking of the "
                    "Caffarelli-Kohn-Nirenberg quotient on the cylinder",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [
        ("symmetric-curve", cmd_symmetric_curve),
        ("branch", cmd_branch),
        ("analyze", cmd_analyze),
        ("gn-limit", cmd_gn_limit),
        ("reproduce-figures", cmd_reproduce_figures),
    ]:
        sp = sub.add_parser(name, help=fn.__doc__)
        sp.set_defaults(fn=fn)
        sp.add_argument("--config", type=str, default=None, help="JSON config file")
        sp.add_argument("--d", type=int)
        sp.add_argument("--p", type=float)
        sp.add_argument("--theta", dest="theta_list", type=float, nargs="+")
        sp.add_argument("--L", type=float)
        sp.add_argument("--ns", dest="n_s", type=int)
        sp.add_argument("--nphi", dest="n_phi", type=int)
        sp.add_argument("--measure-mode", dest="measure_mode",
                        choices=("probability", "surface"))
        sp.add_argument("--eta", type=float, help="each walk's first step and guard unit")
        sp.add_argument("--kappa-stop", dest="kappa_stop", type=float)
        sp.add_argument("--out", type=str)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        out = Path(config.out)
        out.mkdir(parents=True, exist_ok=True)
        files = args.fn(config, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NonConvergenceError, StepFailureError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (OSError, CheckpointError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CknError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    for f in files:
        print(f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
