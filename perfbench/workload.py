"""One workload of the ckn benchmark, run in a fresh child process.

    python perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR --result FILE

Runs whole rounds of the workload until S seconds have passed (at least
one round; with --trace 1, untraced and traced rounds alternate and the
run ends after a traced one).  Each round times its solve phase, then
checks the outputs with checks.py.  The result file gets per-round times,
the traced rounds' layer metrics, the operation tally and the peak RSS.
ckn must be importable (the parent puts src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import checks
from layertrace import Tracer

D = 5
THETA_C28 = 5.0 / 7.0
TOL, EIGEN_TOL = 1e-10, 1e-9

# Branch workloads: explicit L, eta and kappa-stop keep the up walk below
# the resolution stall that the default L = 18.6 runs into on these grids.
BRANCH = {
    "branch-p28": dict(p=2.8, thetas=[THETA_C28, 1.0], n_s=160, n_phi=20, L=8.0,
                       eta=0.3, kappa_stop=20.0, analyze=False),
    "pipeline-p278": dict(p=2.78, thetas=[THETA_C28], n_s=120, n_phi=16, L=8.0,
                          eta=0.3, kappa_stop=20.0, analyze=True),
}
FINE = dict(p=2.8, n_s=400, n_phi=48, L=8.0, oracle_mu=(2.0, checks.mu_fs(2.8, D), 8.0),
            fp_mu=2.0, mu0_factor=1.2, eps=0.05)


def _clock():
    return time.perf_counter(), time.process_time()


def _elapsed(start):
    return time.perf_counter() - start[0], time.process_time() - start[1]


def branch_round(name: str, out: Path, seed: int, tally: checks.Tally):
    """`ckn branch` (then `ckn analyze`) through the CLI entry point.

    Takes no random input: the seed is ignored."""
    from ckn import cli

    w = BRANCH[name]
    out.mkdir(parents=True)
    config = out / "tolerances.json"
    config.write_text(json.dumps({"tol": TOL, "eigen_tol": EIGEN_TOL}))
    argv = ["--config", str(config), "--d", str(D), "--p", repr(w["p"]),
            "--theta", *map(repr, w["thetas"]), "--L", repr(w["L"]), "--ns", str(w["n_s"]),
            "--nphi", str(w["n_phi"]), "--measure-mode", "surface", "--eta", repr(w["eta"]),
            "--kappa-stop", repr(w["kappa_stop"]), "--out", str(out)]
    grid = {"d": D, "p": w["p"], "L": w["L"], "n_s": w["n_s"], "n_phi": w["n_phi"], "surface": True}

    start = _clock()
    rc = cli.main(["branch"] + argv)
    wall, cpu = _elapsed(start)
    if not tally.check("ckn branch exit code", rc == 0, f"exit {rc}"):
        return wall, cpu
    checks.check_branch_dir(out, tally, w["p"], D, w["thetas"], grid)
    if w["analyze"]:
        start = _clock()
        rc = cli.main(["analyze"] + argv)
        more = _elapsed(start)
        wall, cpu = wall + more[0], cpu + more[1]
        if tally.check("ckn analyze exit code", rc == 0, f"exit {rc}"):
            checks.recheck_checkpoints(out, tally, grid)
            checks.check_gn(out / "gn.csv", tally, w["p"], D)
    return wall, cpu


def fine_round(name: str, out: Path, seed: int, tally: checks.Tally):
    """Library solves on the 400x48 grid: three cold oracle eigensolves,
    one fixed point from a seeded random potential, one saddle descent."""
    from ckn import continuation, eigensolver, fixedpoint, io, model, symmetric

    w = FINE
    p = w["p"]
    out.mkdir(parents=True)
    noise = np.random.default_rng(seed).random((w["n_s"], w["n_phi"]))
    fp_kappa = checks.kappa_sym(w["fp_mu"], p, D)

    start = _clock()
    params = model.ProblemParams(D, p, 1.0, "surface")
    grid = model.build_grid(w["L"], w["n_s"], w["n_phi"], params)
    oracle = []
    for mu in w["oracle_mu"]:
        u = symmetric.soliton(mu, p).sample(grid)
        kappa = grid.integrate(np.abs(u.values) ** p) ** ((p - 2.0) / p)
        res = eigensolver.lowest_eigenpair(kappa, fixedpoint.self_potential(u), grid,
                                           tol=EIGEN_TOL)
        oracle.append((mu, res.lam))
    v_sym = fixedpoint.self_potential(symmetric.soliton(w["fp_mu"], p).sample(grid))
    v_noise = model.Field(grid, noise)
    mixed = 0.5 * v_sym.values + 0.5 * noise / eigensolver.q_norm(v_noise)
    v0 = model.Field(grid, mixed / eigensolver.q_norm(model.Field(grid, mixed)))
    fp = fixedpoint.roothan_solve(fp_kappa, v0, grid, params, tol=TOL, eigen_tol=EIGEN_TOL)
    _, fp_init = continuation.initialize(
        w["mu0_factor"] * symmetric.mu_FS(p, D), w["eps"], grid, params,
        io.FieldStore(out / "checkpoints"), eigensolver.SolverCache())
    wall, cpu = _elapsed(start)

    quad = checks.Quadrature(w["L"], w["n_s"], w["n_phi"], D)
    for mu, lam in oracle:
        tally.check(f"oracle mu={mu:.6g}", abs(lam + mu) <= 1e-3 * mu, f"lambda {lam!r}")
    checks.check_fixed_point(tally, "fixed point", fp, quad, p)
    tally.check("fixed point mu", abs(fp.mu - w["fp_mu"]) <= 1e-3 * w["fp_mu"], f"mu {fp.mu!r}")
    asym = quad.asymmetry(fp.u.values)
    tally.check("fixed point symmetric", asym <= checks.SYMMETRIC, f"asymmetry {asym:.3e}")
    checks.check_fixed_point(tally, "descent polish", fp_init, quad, p)
    level = checks.kappa_sym(fp_init.mu, p, D)
    asym = quad.asymmetry(fp_init.u_eq.values)
    tally.check("descent start point", asym > checks.ASYMMETRIC and fp_init.kappa < level,
                f"asymmetry {asym:.3g}, kappa {fp_init.kappa:.6g} vs symmetric {level:.6g}")
    return wall, cpu


WORKLOADS = {"branch-p28": branch_round, "pipeline-p278": branch_round, "fine-400x48": fine_round}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)

    run_round = WORKLOADS[args.workload]
    tally = checks.Tally()
    rounds = []
    began = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        tracer = Tracer() if traced else None
        out = args.out / f"round{len(rounds)}"
        shutil.rmtree(out, ignore_errors=True)
        with tracer.installed() if traced else contextlib.nullcontext():
            wall, cpu = run_round(args.workload, out, args.seed, tally)
        shutil.rmtree(out, ignore_errors=True)
        entry = {"traced": traced, "wall_s": wall, "cpu_s": cpu}
        if traced:
            entry["layers"] = tracer.metrics()
            tally.errors += tracer.consistency(entry["layers"])
        rounds.append(entry)
        done = time.perf_counter() - began >= args.seconds
        if done and not (args.trace and len(rounds) % 2 == 1):
            break

    args.result.write_text(json.dumps({
        "rounds": rounds, "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
