"""ckn benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a ckn checkout (src/ckn must be there; nothing is
installed).  Without --workload it runs every workload in turn.  Each
workload runs in its own fresh child process with BLAS pinned to one
thread.  After it, several fresh interpreters import ckn.cli to measure
set-up time.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}},
with the end_to_end metrics of BENCHMARK.json, or its per_layer metrics
under --trace 1.  Scratch output goes to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("branch-p28", "pipeline-p278", "fine-400x48")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150
SETUP_CODE = ("import time; t = time.perf_counter(); import ckn.cli; ckn.cli.build_parser(); "
              "print(time.perf_counter() - t)")
# One BLAS thread: the eigensolver's vectors (18k entries on 400x48) are
# above OpenBLAS's threading threshold, and its spinning second thread
# doubles CPU time for no wall-time gain on an idle core and stalls badly
# on a busy one.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def _env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED)


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int) -> dict:
    out = root / ".perfbench_out" / name
    out.mkdir(parents=True, exist_ok=True)
    result = out / "child_result.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           "--result", str(result)]
    log = out / "child.log"
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(cmd, cwd=root, env=_env(root), stdout=fh,
                                  stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: child exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not result.exists():
        tail = log.read_text()[-2000:]
        raise BenchError(f"{name}: child exited {proc.returncode}\n{tail}")
    return json.loads(result.read_text())


def measure_setup(root: Path) -> tuple[list[float], list[float]]:
    """Fresh interpreter to ckn.cli imported with its parser built: the
    whole process wall time, and the import alone as the child sees it."""
    walls, imports = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root, env=_env(root),
                              capture_output=True, text=True, timeout=60)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise BenchError(f"importing ckn.cli failed:\n{proc.stderr[-2000:]}")
        imports.append(float(proc.stdout.split()[-1]))
    return walls, imports


def summarize(child: dict, setup: tuple[list[float], list[float]], spec: dict, trace: int) -> dict:
    untraced = [r for r in child["rounds"] if not r["traced"]]
    traced = [r for r in child["rounds"] if r["traced"]]
    errors = list(child["errors"])
    if trace:
        entries = spec["per_layer"]
        values = {}
        for key in traced[0]["layers"]:
            vals = [r["layers"][key] for r in traced]
            values[key] = statistics.median(vals)
        counts = [m["name"] for m in entries if m["unit"] == "count"]
        for r in traced[1:]:
            for key in counts:
                if r["layers"][key] != traced[0]["layers"][key]:
                    errors.append(f"count {key} differs between traced rounds")
        wall_traced = statistics.median(r["wall_s"] for r in traced)
        wall_plain = statistics.median(r["wall_s"] for r in untraced)
        values["trace.wall_s"] = wall_traced
        values["trace.untraced_wall_s"] = wall_plain
        values["trace.overhead"] = wall_traced / wall_plain - 1.0
        values["trace.overhead_computed"] = values["trace.recording_s"] / wall_plain
        values["setup.import_s"] = statistics.median(setup[1])
    else:
        entries = spec["end_to_end"]
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in untraced),
            "cpu_s": statistics.median(r["cpu_s"] for r in untraced),
            "setup_s": statistics.median(setup[0]),
            "peak_rss_mb": child["peak_rss_mb"],
        }
    missing = [m["name"] for m in entries if m["name"] not in values]
    if missing:
        raise BenchError(f"no value for metrics {missing}")
    for msg in errors[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in entries},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: each in turn, one JSON line each)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ckn" / "__init__.py").is_file():
        print(f"error: {root} is not a ckn checkout (no src/ckn); run from the repo root",
              file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    try:
        for name in [args.workload] if args.workload else WORKLOADS:
            child = run_workload(root, name, args.seed, args.seconds, args.trace)
            print(json.dumps(summarize(child, measure_setup(root), spec, args.trace)), flush=True)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
