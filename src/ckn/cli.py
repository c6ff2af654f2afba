"""Command-line driver: symmetric curves, branch runs, diagram analysis.

Subcommands: symmetric-curve, branch, analyze, gn-limit, reproduce-figures.
A JSON config file provides the run parameters; command-line flags win
over the file.  Exit codes: 0 success, 2 configuration error, 3 solver
non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, continuation, gn, io, svg
from .errors import CheckpointError, CknError, ConfigError, NonConvergenceError, StepFailureError
from .eigensolver import SolverCache
from .model import build_grid, theta_critical
from .symmetric import critical_value_sym, mu_FS, soliton, soliton_norms

EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4


def _theta_tag(theta: float) -> str:
    return f"{theta:.6f}"


def _load_config(args) -> io.RunConfig:
    if args.config:
        config = io.RunConfig.load(args.config)
    else:
        config = io.RunConfig()
    # every flag's dest is the RunConfig field it overrides
    overrides = {f.name: getattr(args, f.name) for f in dataclasses.fields(io.RunConfig)
                 if getattr(args, f.name, None) is not None}
    return dataclasses.replace(config, **overrides)


def _grid(config: io.RunConfig):
    params = config.params()
    mu_fs = mu_FS(config.p, config.d)
    L = config.half_length(mu_fs * config.mu_min_factor)
    return build_grid(L, config.n_s, config.n_phi, params), params


def cmd_symmetric_curve(config: io.RunConfig, out: Path) -> list[Path]:
    """Closed-form symmetric curve tables, one CSV per theta."""
    files = []
    mu_fs = mu_FS(config.p, config.d)
    mus = np.geomspace(config.mu_min_factor * mu_fs * 0.5, 40.0 * mu_fs, 400)
    X, Y, Z = soliton_norms(mus, config.p, config.d, config.measure_mode)
    for theta in config.theta_list:
        lam, J = analysis.curve_values(theta, mus, X, Y, Z, config.p)
        rows = zip(*(a.tolist() for a in (mus, lam, J, X / Y, X, Y, Z)))
        path = out / f"sym_curve_{_theta_tag(theta)}.csv"
        io.write_csv(path, io.config_echo(config) + [f"theta: {theta!r}"],
                     ["mu", "Lambda", "J", "t", "X", "Y", "Z"], rows)
        files.append(path)
    return files


def cmd_branch(config: io.RunConfig, out: Path) -> list[Path]:
    """Initialize and continue the non-symmetric branch; emit branch.csv."""
    grid, params = _grid(config)
    store = io.FieldStore(out / "checkpoints")
    cache = SolverCache()
    mu_fs = mu_FS(config.p, config.d)

    manifest = out / "manifest.json"
    t0 = time.perf_counter()
    try:
        start, fp = continuation.initialize(
            config.mu0_factor * mu_fs, config.eps, grid, params, store, cache,
            tol=config.tol, eigen_tol=config.eigen_tol)
    except CknError as exc:
        # a failed start saves no checkpoint, but its reason is kept
        io.write_manifest(manifest, config, {
            "timings": {"initialize_seconds": time.perf_counter() - t0},
            "stopped": str(exc)})
        raise
    # a walk that never starts (after a stall) takes 0 s
    timings = {"initialize_seconds": time.perf_counter() - t0,
               "down_seconds": 0.0, "up_seconds": 0.0}
    eta = config.eta if config.eta is not None else start.kappa / 200.0
    kappa_stop = config.kappa_stop if config.kappa_stop is not None else 2.0 * start.kappa
    walks, stopped = [], None
    for direction, stop in (("down", 0.0), ("up", kappa_stop)):
        t_walk = time.perf_counter()
        try:
            walks.append(continuation.continue_branch(
                start, eta, direction, stop, grid, params, store, start_result=fp,
                cache=cache, tol=config.tol, eigen_tol=config.eigen_tol))
        except StepFailureError as exc:
            # keep what the stalled walk collected; the error still exits 3
            walks.append(exc.branch)
            stopped = exc
        timings[f"{direction}_seconds"] = time.perf_counter() - t_walk
        if stopped is not None:
            break
    branch = functools.reduce(continuation.merge_branches, walks)
    timings["branch_seconds"] = time.perf_counter() - t0

    header = ["kappa", "mu"]
    for theta in config.theta_list:
        header.append(f"Lambda_{_theta_tag(theta)}")
    for theta in config.theta_list:
        header.append(f"J_{_theta_tag(theta)}")
    header += ["residual", "gap", "iterations", "eigen_iterations", "lu_solves", "t",
               "asymmetry", "checkpoint"]
    rows = []
    for pt in branch.points:
        vals = [analysis.curve_values(theta, pt.mu, pt.X, pt.Y, pt.Z, config.p)
                for theta in config.theta_list]
        rows.append([pt.kappa, pt.mu] + [float(lam) for lam, _ in vals]
                    + [float(J) for _, J in vals]
                    + [pt.residual, pt.gap, pt.iterations, pt.eigen_iterations,
                       pt.lu_solves, pt.t, pt.asymmetry, pt.field_ref])
    path = out / "branch.csv"
    io.write_csv(path, io.config_echo(config), header, rows)

    n_points = {w.provenance["direction"]: len(w.points) for w in walks}
    io.write_manifest(manifest, config, {
        "timings": timings,
        "convergence": {
            "eta": eta,
            "eta_halvings": sum(w.provenance["halvings"] for w in walks),
            "halving_reasons": [dict(r, direction=w.provenance["direction"])
                                for w in walks for r in w.provenance["halving_reasons"]],
            "points_down": n_points.get("down", 0),
            "points_up": n_points.get("up", 0),
            "factorizations": cache.factorizations,
            "kappa_range": [branch.points[0].kappa, branch.points[-1].kappa],
        },
        "provenance": {
            "mu0": config.mu0_factor * mu_fs, "eps": config.eps,
            "seed_direction": ("golden-section minimum of the theta = 1 quotient on the ray "
                               "from u_sym along the transverse mode u_sym(s)^(p/2) cos(phi), "
                               "solved at kappa_sym(mu0)"),
        },
        "stopped": None if stopped is None else str(stopped),
    })
    if stopped is not None:
        raise stopped
    return [path, manifest]


def _branch_curves_from_csv(header, rows, theta: float):
    """The theta curve of the parsed branch.csv columns `header` and `rows`."""
    tag = f"Lambda_{_theta_tag(theta)}"
    if tag not in header:
        raise ConfigError(f"branch.csv has no columns for theta={theta}")
    iL, iJ = header.index(tag), header.index(f"J_{_theta_tag(theta)}")
    i_mu, i_asym = header.index("mu"), header.index("asymmetry")
    mu, Lam, J, asym = (np.array([r[i] for r in rows]) for i in (i_mu, iL, iJ, i_asym))
    return analysis.ThetaCurve(theta=theta, mu=mu, Lambda=Lam, J=J,
                               symmetric=asym <= continuation.ASYMMETRY_BIFURCATED)


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
    branch_csv = out / "branch.csv"
    if not branch_csv.exists():
        raise FileNotFoundError(f"{branch_csv} not found: run the branch command first")
    _, header_b, rows_b = io.read_csv(branch_csv)
    i_mu, i_cp = header_b.index("mu"), header_b.index("checkpoint")
    grid, params = _grid(config)
    store = io.FieldStore(out / "checkpoints")
    # a branch computed on another grid raises CheckpointError before any output
    store.load(rows_b[0][i_cp], grid)
    files = cmd_gn_limit(config, out)
    mu_fs = mu_FS(config.p, config.d)

    # Symmetric reference resolved by the same discrete functional as the
    # branch, so the tiny J gaps near a crossing are bias-cancelled.
    kappa_fs = critical_value_sym(mu_fs, params)
    kap_branch = np.array([r[header_b.index("kappa")] for r in rows_b], dtype=float)
    kap_hi = max(kap_branch.max(), 1.5 * kappa_fs)
    kappas = np.concatenate([
        np.geomspace(0.3 * kappa_fs, kap_hi, 60),
        np.linspace(0.985 * kappa_fs, 1.02 * kappa_fs, 40),
    ])
    sym_branch = continuation.symmetric_discrete_branch(kappas, grid, params)

    crossing_rows = []
    for theta in config.theta_list:
        nonsym = _branch_curves_from_csv(header_b, rows_b, theta)
        mu_hi = max(nonsym.mu.max() * 1.2, 4.0 * mu_fs)
        sym_smooth = analysis.symmetric_theta_curve(
            params, theta, np.geomspace(config.mu_min_factor * mu_fs * 0.5, mu_hi, 600))
        sym = analysis.map_to_theta(sym_branch, theta)
        try:
            crossing = analysis.detect_crossing(sym, nonsym)
            flagged = False
        except analysis.AmbiguousCrossingError as exc:
            crossing = exc.crossings[0] if exc.crossings else None
            flagged = True
        if crossing is None:
            crossing_rows.append((theta, float("nan"), float("nan"), float("nan"),
                                  "false", "true" if flagged else "false"))
        else:
            crossing_rows.append((theta, crossing.Lambda1, crossing.mu1_star,
                                  crossing.mu1, "true", "true" if flagged else "false"))

        lo = np.min(sym.Lambda)
        hi = min(np.max(nonsym.Lambda), np.max(sym.Lambda))
        grid_l = np.linspace(lo, hi, 400)
        # the branch's symmetric terminal row only duplicates the reference
        rows, jumps = analysis.min_envelope([sym, nonsym.nonsymmetric()], grid_l)
        env_path = out / f"envelope_{_theta_tag(theta)}.csv"
        io.write_csv(env_path, io.config_echo(config) + [f"jumps: {jumps!r}"],
                     ["Lambda", "J_min", "source"],
                     [(l, j, ("symmetric", "branch")[s] if s >= 0 else "none")
                      for (l, j, s) in rows])
        files.append(env_path)

        diagram = out / f"diagram_{_theta_tag(theta)}.svg"
        ok = np.isfinite([r[1] for r in rows])
        env_xy = (np.array([r[0] for r in rows])[ok], np.array([r[1] for r in rows])[ok])
        svg.render_diagram(
            diagram, (nonsym.Lambda, nonsym.J), (sym_smooth.Lambda, sym_smooth.J), env_xy,
            title=f"d={config.d} p={config.p} theta={theta:.4f}")
        files.append(diagram)

        if crossing is not None and not flagged:
            near = min(rows_b, key=lambda r: abs(r[i_mu] - crossing.mu1))
            fld = store.load(near[i_cp], grid)
            files.append(_field_contour_csv(
                config, out, f"crossing_field_mu1_{_theta_tag(theta)}.csv", fld))
            u_star = soliton(crossing.mu1_star, config.p).sample(grid)
            files.append(_field_contour_csv(
                config, out, f"crossing_field_mu1_star_{_theta_tag(theta)}.csv", u_star))

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
    """Canonical d=5 sweep: theta family at p=2.8 plus the three regimes
    p in {2.8, 2.78, 2.7} at the critical theta, and the near-critical
    theta comparison."""
    files = []
    theta_c = theta_critical(2.8, 5)
    scenarios = [
        ("p2.8_theta_family", 2.8, sorted(set([round(theta_c, 6)] + list(config.theta_list)))),
        ("p2.78_theta_critical", 2.78, [round(theta_c, 6)]),
        ("p2.7_theta_critical", 2.7, [round(theta_c, 6)]),
        ("p2.8_theta_near_critical", 2.8, [round(theta_c, 6), 0.7213, 0.7283]),
    ]
    base = dataclasses.asdict(config)
    for name, p, thetas in scenarios:
        sub = dict(base)
        sub.update({"p": p, "theta_list": thetas, "out": str(out / name),
                    "run_id": f"{config.run_id}/{name}"})
        sub_cfg = io.RunConfig(**sub)
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
        sp.add_argument("--mu0-factor", dest="mu0_factor", type=float)
        sp.add_argument("--eps", type=float)
        sp.add_argument("--eta", type=float)
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
