"""Self-test of the benchmark's independent checks; runs no workload.

    python3 -m pytest -q perfbench/test_checks.py
"""

import math
import struct
import zlib

import numpy as np
import pytest

import checks

P, D = 2.8, 5
THETAS = [5.0 / 7.0, 1.0]


def test_closed_forms():
    assert abs(checks.mu_fs(P, D) - 4.16667) <= 5e-6
    level = checks.kappa_sym(checks.mu_fs(P, D), P, D)
    assert abs(level - 15.65) <= 0.05
    for mu in (0.3, 2.0, checks.mu_fs(P, D), 40.0):
        X, Y, Z = checks.soliton_norms(mu, P, D)
        assert abs(X + mu * Y - Z) <= 1e-12 * Z
        assert abs(X / Y - mu * (P - 2.0) / (P + 2.0)) <= 1e-12 * X / Y


def test_quadrature_matches_closed_form_soliton():
    quad = checks.Quadrature(8.0, 400, 48, D)
    mu = 2.0
    u = np.repeat(checks.soliton_profile(mu, P, quad.s)[:, None], 48, axis=1)
    X, Y, Z = quad.norms(u, P)
    Xc, Yc, Zc = checks.soliton_norms(mu, P, D)
    assert abs(Y / Yc - 1.0) <= 1e-3 and abs(Z / Zc - 1.0) <= 1e-3
    assert abs(X / Xc - 1.0) <= 1e-2
    assert quad.asymmetry(u) <= 1e-14
    assert abs(quad.integrate(np.ones(quad.shape)) - 16.0 * checks.sphere_area(D)) <= 1e-9


def _write_checkpoint(path, values, d, p, L):
    """A surface-mode checkpoint in the documented byte layout."""
    n_s, n_phi = values.shape
    payload = (checks.MAGIC + struct.pack("<IidBdii", 1, d, p, 1, L, n_s, n_phi)
               + np.ascontiguousarray(values, dtype="<f8").tobytes())
    path.write_bytes(payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))


def _symmetric_branch(tmp_path, n_rows=6):
    """A branch directory whose rows are closed-form solitons: every row
    satisfies the identities the checks test."""
    out = tmp_path / "run"
    (out / "checkpoints").mkdir(parents=True)
    quad_s = np.linspace(-8.0, 8.0, 40)
    header = ["kappa", "mu"] + [f"Lambda_{t:.6f}" for t in THETAS] + \
             [f"J_{t:.6f}" for t in THETAS] + ["t", "asymmetry", "checkpoint"]
    rows = []
    for k, mu in enumerate(np.geomspace(0.5, 3.0, n_rows)):
        X, Y, Z = checks.soliton_norms(mu, P, D)
        lam = [th * mu - (1 - th) * X / Y for th in THETAS]
        J = [th**th * (X + mu * Y) ** th * Y ** (1 - th) / Z ** (2 / P) for th in THETAS]
        cid = f"cp_{k:05d}"
        u = np.repeat(checks.soliton_profile(mu, P, quad_s)[:, None], 10, axis=1)
        _write_checkpoint(out / "checkpoints" / f"{cid}.ckn", u, D, P, 8.0)
        rows.append([Z ** ((P - 2) / P), mu, *lam, *J, X / Y, 0.0, cid])
    text = "# format: ckn-csv-1\n" + ",".join(header) + "\n" + \
        "\n".join(",".join(repr(float(c)) if isinstance(c, float) else c for c in r) for r in rows)
    (out / "branch.csv").write_text(text + "\n")
    grid = {"d": D, "p": P, "L": 8.0, "n_s": 40, "n_phi": 10, "surface": True}
    return out, grid


def _row_failures(out, grid):
    rows = checks.read_csv(out / "branch.csv")
    mu_end = math.inf  # every row is a closed-form row
    bad = 0
    for row in rows:
        ok, _ = checks.row_levels_ok(row, THETAS, P)
        ok = ok and checks.row_checkpoint_ok(row, out / "checkpoints", grid, mu_end)[0]
        bad += not ok
    return bad


def test_consistent_branch_passes(tmp_path):
    out, grid = _symmetric_branch(tmp_path)
    assert _row_failures(out, grid) == 0


@pytest.mark.parametrize("column", ["J_1.000000", "J_0.714286", "kappa"])
def test_one_corrupted_row_is_rejected(tmp_path, column):
    out, grid = _symmetric_branch(tmp_path)
    lines = (out / "branch.csv").read_text().splitlines()
    header = lines[1].split(",")
    cells = lines[4].split(",")
    cells[header.index(column)] = repr(float(cells[header.index(column)]) * (1 + 1e-5))
    lines[4] = ",".join(cells)
    (out / "branch.csv").write_text("\n".join(lines) + "\n")
    assert _row_failures(out, grid) == 1


def test_swapped_checkpoint_is_rejected(tmp_path):
    out, grid = _symmetric_branch(tmp_path)
    a, b = out / "checkpoints" / "cp_00001.ckn", out / "checkpoints" / "cp_00002.ckn"
    a_bytes = a.read_bytes()
    a.write_bytes(b.read_bytes())
    b.write_bytes(a_bytes)
    assert _row_failures(out, grid) == 2


def test_damaged_checkpoint_is_rejected(tmp_path):
    out, grid = _symmetric_branch(tmp_path)
    path = out / "checkpoints" / "cp_00003.ckn"
    raw = bytearray(path.read_bytes())
    raw[100] ^= 1
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="checksum"):
        checks.read_checkpoint(path)
    assert _row_failures(out, grid) == 1


def _pitchfork_rows(exponent):
    mufs = checks.mu_fs(P, D)
    rows = [{"kappa": 10.0 + k, "mu": mufs + dm, "asymmetry": 0.5 * dm ** (exponent / 2), "t": 0.0}
            for k, dm in enumerate([0.02, 0.05, 0.1, 0.2])]
    start_mu = mufs + 0.5
    X, Y, Z = checks.soliton_norms(start_mu, P, D)
    rows.append({"kappa": 0.99 * Z ** ((P - 2) / P), "mu": start_mu, "asymmetry": 0.5, "t": 0.0})
    end = {"kappa": 1.0, "mu": 1.005 * mufs, "asymmetry": 0.0, "t": 0.0}
    return [end] + rows, {"convergence": {"points_down": 6, "points_up": 1}}


def test_branch_properties_accept_a_pitchfork():
    rows, manifest = _pitchfork_rows(1.0)
    results = {name: ok for name, ok, _ in checks.branch_properties(rows, manifest, P, D)}
    assert all(results.values()), results


def test_branch_properties_reject_a_wrong_exponent():
    rows, manifest = _pitchfork_rows(2.0)
    results = {name: ok for name, ok, _ in checks.branch_properties(rows, manifest, P, D)}
    assert not results["pitchfork exponent"]


def test_gn_level(tmp_path):
    theta = checks.theta_critical(P, D)
    lam = 3.0
    j = checks.j_sym_at_lambda(lam, theta, P, D)
    for j_inf, ok in ((j, True), (j * (1 + 1e-8), False)):
        path = tmp_path / "gn.csv"
        path.write_text(f"# format: ckn-csv-1\nTheta,J_inf,Lambda_GN\n{theta!r},{j_inf!r},{lam!r}\n")
        tally = checks.Tally()
        checks.check_gn(path, tally, P, D)
        assert (not tally.errors) == ok, tally.errors


def test_tally_counts_known_faults_apart():
    tally = checks.Tally()
    tally.check("a", True)
    tally.known_fault(False)
    assert (tally.attempted, tally.failed, tally.errors) == (2, 1, [])
    tally.check("c", False, "x")
    assert tally.errors == ["c: x"]
