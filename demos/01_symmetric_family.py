#!/usr/bin/env python3
"""The explicit symmetric family and its closed-form diagnostics.

The s-only critical points of the cylinder quotient are known in closed
form, so everything here is exact arithmetic: profiles, norms, the
stability threshold, and the (Lambda, J) curves for several theta.
Writes demo_out/sym_curve_*.csv.
"""

from pathlib import Path

import numpy as np

from ckn.io import RunConfig
from ckn.cli import cmd_symmetric_curve
from ckn.model import ProblemParams
from ckn.symmetric import (
    critical_value_sym,
    lambda1_H,
    mu_FS,
    soliton,
    soliton_norms,
)

p, d = 2.8, 5
params = ProblemParams(d, p, 1.0, "surface")

print(f"dimension d = {d}, exponent p = {p}")
mu_fs = mu_FS(p, d)
print(f"stability threshold mu_FS = 4(d-1)/(p^2-4) = {mu_fs:.6f}")
print(f"transverse eigenvalue at the threshold: {lambda1_H(mu_fs, p, d):+.2e}")

sol = soliton(mu_fs, p)
print(f"\nsoliton at mu_FS: amplitude A = {sol.A:.5f}, decay rate b = {sol.b:.5f}")
print(f"pointwise ODE residual at s = 0.7: {sol.ode_residual(0.7):.1e}")

X, Y, Z = soliton_norms(mu_fs, p, d, "surface")
print(f"\nclosed-form norms (surface measure): X = {X:.2f}, Y = {Y:.2f}, Z = {Z:.2f}")
print(f"Euler-Lagrange pairing X + mu Y - Z = {X + mu_fs * Y - Z:.2e}")
print(f"Dirichlet-to-mass ratio t = X/Y = {X / Y:.6f} "
      f"(virial formula mu (p-2)/(p+2) gives {mu_fs * (p - 2) / (p + 2):.6f})")
print(f"critical level at mu_FS: Q = Z^((p-2)/p) = {critical_value_sym(mu_fs, params):.4f}")

print("\ncritical level along the symmetric family:")
for mu in np.geomspace(0.5, 40.0, 7):
    print(f"  mu = {mu:7.3f}:  J1 = {critical_value_sym(mu, params):9.4f}")

out = Path("demo_out")
out.mkdir(exist_ok=True)
config = RunConfig(theta_list=[0.714286, 0.8, 0.9, 1.0], out=str(out),
                   run_id="demo-symmetric")
files = cmd_symmetric_curve(config, out)
print("\nwrote:")
for f in files:
    print(f"  {f}")
