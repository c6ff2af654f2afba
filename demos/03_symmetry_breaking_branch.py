#!/usr/bin/env python3
"""Construct the first non-symmetric branch and watch the pitchfork.

Above mu_FS the symmetric solution is a saddle: moving it along the
transverse mode to the quotient's minimum on that ray, then solving the
fixed point at its closed-form level, gives a genuinely non-symmetric
critical point with lower energy; stepping the critical level kappa walks
the branch back to the bifurcation.  Takes about two seconds on the demo
grid.
"""

import tempfile

import numpy as np

from ckn.continuation import continue_branch, initialize
from ckn.eigensolver import SolverCache
from ckn.io import FieldStore
from ckn.model import ProblemParams, build_grid
from ckn.symmetric import critical_value_sym, mu_FS

p, d = 2.8, 5
params = ProblemParams(d, p, 1.0, "surface")
grid = build_grid(8.0, 160, 20, params)
cache = SolverCache()
mu_fs = mu_FS(p, d)

with tempfile.TemporaryDirectory(prefix="ckn_demo_") as tmp:
    store = FieldStore(tmp)
    print(f"initializing at mu0 = 1.2 mu_FS = {1.2 * mu_fs:.4f} ...")
    start, _ = initialize(1.2 * mu_fs, 0.05, grid, params, store, cache)
    j_sym = critical_value_sym(start.mu, params)
    print(f"  found: mu = {start.mu:.4f}, asymmetry = {start.asymmetry:.3f}")
    print(f"  energy {start.kappa:.4f} < symmetric level {j_sym:.4f}")

    print("\nwalking down towards the bifurcation ...")
    eta = start.kappa / 120.0
    # the walk reads its start back from the checkpoint `initialize` saved
    down = continue_branch(start, eta, "down", 0.0, grid, params, store, cache=cache)
    print(f"  {len(down.points)} points, terminal mu = {down.provenance['terminal_mu']:.4f} "
          f"(mu_FS = {mu_fs:.4f})")

print("\npitchfork scaling asymmetry^2 ~ (mu - mu_FS):")
pts = [q for q in down.points if q.mu > mu_fs and 0.02 < q.asymmetry < 0.45]
for q in sorted(pts, key=lambda q: q.mu)[:8]:
    print(f"  mu - mu_FS = {q.mu - mu_fs:8.4f}   asym^2 = {q.asymmetry**2:.5f}   "
          f"ratio = {q.asymmetry**2 / (q.mu - mu_fs):.4f}")

x = np.log([q.mu - mu_fs for q in pts[:6]])
y = np.log([q.asymmetry**2 for q in pts[:6]])
print(f"fitted exponent: {np.polyfit(x, y, 1)[0]:.3f} (pitchfork predicts 1)")
