#!/usr/bin/env python3
"""Construct the first non-symmetric branch and watch the pitchfork.

Above mu_FS the symmetric solution is a saddle: moving it along the
transverse mode to the quotient's minimum on that ray, then solving the
fixed point at its closed-form level, gives a genuinely non-symmetric
critical point with lower energy; stepping the critical level kappa walks
the branch back to the bifurcation, and up.  `compute_branch` runs that
whole sequence.  Takes about two seconds on the demo grid.
"""

import tempfile

import numpy as np

from ckn.continuation import MU0_FACTOR, compute_branch
from ckn.io import FieldStore
from ckn.model import ProblemParams, build_grid
from ckn.symmetric import critical_value_sym, mu_FS

p, d = 2.8, 5
params = ProblemParams(d, p, 1.0, "surface")
grid = build_grid(8.0, 160, 20, params)
mu_fs = mu_FS(p, d)
# the start's level: the closed-form critical value of the soliton mu0
kappa0 = critical_value_sym(MU0_FACTOR * mu_fs, params)
eta = kappa0 / 120.0

print(f"computing the branch from mu0 = {MU0_FACTOR} mu_FS = {MU0_FACTOR * mu_fs:.4f} ...")
with tempfile.TemporaryDirectory(prefix="ckn_demo_") as tmp:
    # fine steps down to the bifurcation, eight times coarser up to 2 kappa0
    branch = compute_branch(grid, params, FieldStore(tmp), eta=eta, eta_up=8.0 * eta)

# the down walk is the branch at or below the start
down = [q for q in branch.points if q.kappa <= kappa0]
start, top = down[-1], branch.points[-1]
j_sym = critical_value_sym(start.mu, params)
print(f"  start: mu = {start.mu:.4f}, asymmetry = {start.asymmetry:.3f}")
print(f"  energy {start.kappa:.4f} < symmetric level {j_sym:.4f}")
print(f"  walking down: {len(down)} points, terminal mu = {down[0].mu:.4f} "
      f"(mu_FS = {mu_fs:.4f})")
print(f"  walking up: to kappa = {top.kappa:.4f}, mu = {top.mu:.4f}")

print("\npitchfork scaling asymmetry^2 ~ (mu - mu_FS):")
pts = [q for q in down if q.mu > mu_fs and 0.02 < q.asymmetry < 0.45]
for q in sorted(pts, key=lambda q: q.mu)[:8]:
    print(f"  mu - mu_FS = {q.mu - mu_fs:8.4f}   asym^2 = {q.asymmetry**2:.5f}   "
          f"ratio = {q.asymmetry**2 / (q.mu - mu_fs):.4f}")

x = np.log([q.mu - mu_fs for q in pts[:6]])
y = np.log([q.asymmetry**2 for q in pts[:6]])
print(f"fitted exponent: {np.polyfit(x, y, 1)[0]:.3f} (pitchfork predicts 1)")
