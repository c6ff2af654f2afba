import dataclasses
import json
import os
import struct
import subprocess
import sys
import xml.etree.ElementTree as ET
import zlib
from pathlib import Path

import numpy as np
import pytest

import ckn
from ckn import cli, continuation, eigensolver
from ckn.analysis import curve_values, map_to_theta
from ckn.continuation import BranchPoint, asymmetry
from ckn.eigensolver import SolverCache
from ckn.errors import CheckpointError, ConfigError, NonConvergenceError
from ckn.fixedpoint import SELF_CONSISTENCY_TOL, eqmu_residual
from ckn.io import (
    _HEADER,
    MAGIC,
    FieldStore,
    RunConfig,
    load_field,
    read_csv,
    save_field,
    write_csv,
)
from ckn.model import Field, ProblemParams, build_grid
from ckn.symmetric import critical_value_sym, mu_FS


@pytest.fixture()
def small_field():
    params = ProblemParams(5, 2.8, 1.0, "surface")
    g = build_grid(8.0, 32, 8, params)
    rng = np.random.RandomState(42)
    return Field(g, rng.rand(*g.shape))


def test_checkpoint_bitwise_roundtrip(tmp_path, small_field):
    p1 = tmp_path / "a.ckn"
    p2 = tmp_path / "b.ckn"
    save_field(p1, small_field)
    u = load_field(p1, small_field.grid)
    save_field(p2, u)
    assert p1.read_bytes() == p2.read_bytes()
    np.testing.assert_array_equal(u.values, small_field.values)
    assert u.grid.L == small_field.grid.L
    assert u.grid.measure_mode == small_field.grid.measure_mode


def test_checkpoint_rejects_corruption(tmp_path, small_field):
    p = tmp_path / "x.ckn"
    save_field(p, small_field)
    raw = bytearray(p.read_bytes())
    raw[60] ^= 0xFF
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_field(p, small_field.grid)


def test_checkpoint_rejects_bad_magic(tmp_path, small_field):
    p = tmp_path / "x.ckn"
    save_field(p, small_field)
    raw = bytearray(p.read_bytes())
    raw[0] = ord("X")
    p.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_field(p, small_field.grid)


def test_checkpoint_grid_mismatch(tmp_path, small_field):
    p = tmp_path / "x.ckn"
    save_field(p, small_field)
    for L, n_s, params in [(8.0, 64, ProblemParams(5, 2.8, 1.0, "surface")),
                           (8.0, 32, ProblemParams(5, 2.78, 1.0, "surface")),
                           (9.0, 32, ProblemParams(5, 2.8, 1.0, "surface")),
                           (8.0, 32, ProblemParams(5, 2.8, 1.0, "probability"))]:
        with pytest.raises(CheckpointError):
            load_field(p, build_grid(L, n_s, 8, params))
    same = build_grid(8.0, 32, 8, ProblemParams(5, 2.8, 1.0, "surface"))
    np.testing.assert_array_equal(load_field(p, same).values, small_field.values)


def test_checkpoint_rejects_unknown_mode_byte(tmp_path):
    # a mode byte other than 0 (probability) or 1 (surface), under a valid CRC
    g = build_grid(8.0, 16, 8, ProblemParams(5, 2.8, 1.0, "surface"))
    path = tmp_path / "f.ckn"
    save_field(path, Field(g, np.ones(g.shape)))
    raw = bytearray(path.read_bytes()[:-4])
    assert raw[24] == 1
    raw[24] = 7
    path.write_bytes(bytes(raw) + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match="mode byte 7"):
        load_field(path, g)


@pytest.mark.parametrize("n_s, n_phi", [(16, 9), (-16, -8)])
def test_checkpoint_rejects_wrong_dimensions(tmp_path, n_s, n_phi):
    # a header whose grid does not match the stored values, under a valid CRC
    g = build_grid(8.0, 16, 8, ProblemParams(5, 2.8, 1.0, "surface"))
    path = tmp_path / "f.ckn"
    save_field(path, Field(g, np.ones(g.shape)))
    raw = path.read_bytes()[:-4]
    head = list(_HEADER.unpack_from(raw, len(MAGIC)))
    head[-2:] = n_s, n_phi
    raw = MAGIC + _HEADER.pack(*head) + raw[len(MAGIC) + _HEADER.size:]
    path.write_bytes(raw + struct.pack("<I", zlib.crc32(raw) & 0xFFFFFFFF))
    with pytest.raises(CheckpointError, match="do not hold"):
        load_field(path, g)


def test_field_store_sequential_ids(tmp_path, small_field):
    store = FieldStore(tmp_path / "cps")
    ids = [store.save(small_field) for _ in range(3)]
    assert ids == ["cp_00000", "cp_00001", "cp_00002"]
    u = store.load("cp_00001", small_field.grid)
    np.testing.assert_array_equal(u.values, small_field.values)
    with pytest.raises(CheckpointError):
        store.load("cp_99999", small_field.grid)


def test_config_roundtrip():
    cfg = RunConfig(p=2.78, theta_list=[0.7143, 1.0], n_s=64, n_phi=12,
                    eta=0.05, kappa_stop=30.0, run_id="t-1")
    again = RunConfig.from_json(json.dumps(dataclasses.asdict(cfg)))
    assert again == cfg


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(p=2.0)
    with pytest.raises(ConfigError):
        RunConfig(theta_list=[0.5])  # below critical exponent for p = 2.8
    with pytest.raises(ConfigError):
        RunConfig(n_s=-5)
    with pytest.raises(ConfigError):
        RunConfig.from_json(json.dumps({"bogus_key": 1}))
    # the ray search's eps and the mu floor are constants, not config keys
    for key, value in [("eps", 0.05), ("mu_min_factor", 0.1)]:
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_json(json.dumps({key: value}))
    with pytest.raises(ConfigError):
        RunConfig.from_json("{not json")
    # each theta names its output files and columns by its tag
    for thetas in ([0.8, 0.8], [0.7500001, 0.75]):
        with pytest.raises(ConfigError, match="tag"):
            RunConfig(theta_list=thetas)


def test_config_half_length():
    cfg = RunConfig()
    assert cfg.half_length(4.0) == 8.0       # floored
    assert cfg.half_length(0.25) == 24.0     # 12/sqrt(0.25)
    cfg2 = RunConfig(L=5.5)
    assert cfg2.half_length(0.25) == 5.5
    # the CLI's default L comes from the mu floor 0.1 mu_FS: 18.6 at p = 2.8
    assert cli._grid(cfg)[0].L == 12.0 / np.sqrt(mu_FS(2.8, 5) * 0.1)


def test_csv_roundtrip_exact_floats(tmp_path):
    path = tmp_path / "t.csv"
    rows = [(0.1 + 0.2, 1.0 / 3.0, "cp_00001"), (np.float64(np.pi), -1e-17, "")]
    write_csv(path, ["run_id: t", "params: x"], ["a", "b", "ref"], rows)
    comments, header, back = read_csv(path)
    assert header == ["a", "b", "ref"]
    assert any("run_id" in c for c in comments)
    assert any(c.startswith("format:") for c in comments)
    assert back[0][0] == rows[0][0]
    assert back[0][1] == rows[0][1]
    assert back[1][0] == float(np.pi)
    assert back[1][1] == -1e-17
    assert back[0][2] == "cp_00001"


def _tiny_config(tmp_path, **over):
    data = dict(d=5, p=2.8, theta_list=[0.714286, 1.0], measure_mode="surface",
                L=8.0, n_s=48, n_phi=10,
                eta=0.6, kappa_stop=19.0,
                out=str(tmp_path / "out"), run_id="cli-test")
    data.update(over)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    return cfg


def _config_grid(cfg):
    """The grid that the CLI builds for the config file cfg."""
    return cli._grid(RunConfig.load(cfg))[0]


def test_cli_symmetric_curve_deterministic(tmp_path):
    cfg = _tiny_config(tmp_path)
    assert cli.main(["symmetric-curve", "--config", str(cfg)]) == 0
    first = (tmp_path / "out" / "sym_curve_1.000000.csv").read_bytes()
    assert cli.main(["symmetric-curve", "--config", str(cfg)]) == 0
    second = (tmp_path / "out" / "sym_curve_1.000000.csv").read_bytes()
    assert first == second


def test_cli_symmetric_curve_contents(tmp_path):
    cfg = _tiny_config(tmp_path)
    assert cli.main(["symmetric-curve", "--config", str(cfg)]) == 0
    comments, header, rows = read_csv(tmp_path / "out" / "sym_curve_1.000000.csv")
    assert header == ["mu", "Lambda", "J", "t", "X", "Y", "Z"]
    params = ProblemParams(5, 2.8, 1.0, "surface")
    for r in rows[:: len(rows) // 7]:
        mu, lam, J, t = r[0], r[1], r[2], r[3]
        assert lam == pytest.approx(mu, rel=1e-12)
        assert J == pytest.approx(critical_value_sym(mu, params), rel=1e-12)
        assert t == pytest.approx(mu * (2.8 - 2) / (2.8 + 2), rel=1e-12)


def test_cli_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"p": 1.0}))
    assert cli.main(["symmetric-curve", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("over", [
    {"theta_list": 0.8}, {"theta_list": [0.8, "0.9"]}, {"L": "8"}, {"n_s": 100.5},
    {"n_phi": True}, {"d": 5.0}, {"tol": float("nan")}, None,
], ids=["theta-scalar", "theta-str", "L-str", "ns-float", "nphi-bool", "d-float",
        "tol-nan", "top-level-list"])
def test_cli_mistyped_config_exit_code(tmp_path, capsys, over):
    if over is None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
    else:
        cfg = _tiny_config(tmp_path, **over)
    assert cli.main(["branch", "--config", str(cfg)]) == 2
    assert "must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["symmetric-curve", "branch", "analyze"])
def test_cli_empty_theta_list_exit_code(tmp_path, capsys, command):
    cfg = _tiny_config(tmp_path, theta_list=[])
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert "non-empty" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["symmetric-curve", "branch", "analyze"])
def test_cli_coinciding_theta_tags_exit_code(tmp_path, capsys, command):
    # 0.7500001 and 0.75 would both write envelope_0.750000.csv (and the
    # same branch.csv columns), so the config is refused before any output
    cfg = _tiny_config(tmp_path, theta_list=[0.7500001, 0.75, 1.0])
    assert cli.main([command, "--config", str(cfg)]) == 2
    assert "tag" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag", [["--ns", "10"], ["--nphi", "7"]], ids=["ns", "nphi"])
def test_cli_grid_too_small_exit_code(tmp_path, flag):
    cfg = _tiny_config(tmp_path)
    assert cli.main(["branch", "--config", str(cfg), *flag]) == 2
    assert not (tmp_path / "out").exists()


def test_cli_analyze_missing_branch_exit_code(tmp_path):
    cfg = _tiny_config(tmp_path)
    assert cli.main(["analyze", "--config", str(cfg)]) == 4


def test_cli_flag_overrides(tmp_path):
    cfg = _tiny_config(tmp_path)
    out2 = tmp_path / "elsewhere"
    assert cli.main(["symmetric-curve", "--config", str(cfg),
                     "--out", str(out2), "--theta", "1.0"]) == 0
    assert (out2 / "sym_curve_1.000000.csv").exists()
    assert not (out2 / "sym_curve_0.714286.csv").exists()


@pytest.fixture(scope="module")
def factor_infos():
    """dpbtrf's `info` for each factor `cli_branch_run` builds."""
    return []


@pytest.fixture(scope="module")
def cli_branch_run(tmp_path_factory, factor_infos):
    """Exit code, output dir and config of one `ckn branch` run, plus the
    numbers of Cholesky solves and of factorizations, counted by wrapping
    the factor's solve and LAPACK's dpbtrf (whose `info` goes to
    `factor_infos`)."""
    tmp = tmp_path_factory.mktemp("clirun")
    cfg = _tiny_config(tmp, n_s=96, n_phi=12, eta=0.45)
    real = SolverCache.preconditioner
    real_dpbtrf = eigensolver.dpbtrf
    solves, factorizations = [], []

    def counting(cache, *args, **kwargs):
        solve = real(cache, *args, **kwargs)

        def counted(rhs):
            solves.append(1)
            return solve(rhs)

        return counted

    def counting_dpbtrf(*args, **kwargs):
        factorizations.append(1)
        cb, info = real_dpbtrf(*args, **kwargs)
        factor_infos.append(info)
        return cb, info

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SolverCache, "preconditioner", counting)
        mp.setattr(eigensolver, "dpbtrf", counting_dpbtrf)
        rc = cli.main(["branch", "--config", str(cfg)])
    return rc, tmp / "out", cfg, len(solves), len(factorizations)


def test_cli_branch_passes_tolerances(tmp_path, monkeypatch):
    # the config's tol and eigen_tol reach every fixed-point solve,
    # the start solve included
    cfg = _tiny_config(tmp_path, tol=3e-10, eigen_tol=5e-10)
    real = continuation.roothan_solve
    calls = []

    def recording(*args, **kwargs):
        calls.append((kwargs.get("tol"), kwargs.get("eigen_tol")))
        return real(*args, **kwargs)

    monkeypatch.setattr(continuation, "roothan_solve", recording)
    assert cli.main(["branch", "--config", str(cfg)]) == 0
    assert len(calls) > 1
    assert set(calls) == {(3e-10, 5e-10)}


def test_cli_branch_outputs(cli_branch_run):
    rc, out, cfg, _, _ = cli_branch_run
    assert rc == 0
    comments, header, rows = read_csv(out / "branch.csv")
    assert header[:2] == ["kappa", "mu"]
    assert "Lambda_0.714286" in header and "J_1.000000" in header
    assert header[-3:] == ["t", "asymmetry", "checkpoint"]
    # besides the theta columns, one column per BranchPoint field, in order
    assert [h for h in header if not h.startswith(("Lambda_", "J_"))] == [
        f.name for f in dataclasses.fields(BranchPoint)]
    # each theta's columns hold the values map_to_theta gives the branch read
    # back, and the scalar formula's for each row within a few ulps
    branch = cli._read_branch(out / "branch.csv", ProblemParams(5, 2.8, 1.0, "surface"))
    by_mu = np.argsort(branch.column("mu"))
    for theta, tag in ((0.714286, "0.714286"), (1.0, "1.000000")):
        curve = map_to_theta(branch, theta)
        lam, J = (np.array([r[header.index(f"{c}_{tag}")] for r in rows]) for c in ("Lambda", "J"))
        np.testing.assert_array_equal(lam[by_mu], curve.Lambda)
        np.testing.assert_array_equal(J[by_mu], curve.J)
        for k, pt in enumerate(branch.points):
            scalar = curve_values(theta, pt.mu, pt.X, pt.Y, pt.Z, 2.8)
            np.testing.assert_allclose((lam[k], J[k]), scalar, rtol=1e-14)
    kappas = [r[0] for r in rows]
    assert np.all(np.diff(kappas) > 0)
    manifest = json.loads((out / "manifest.json").read_text())
    assert "eta_halvings" in manifest["convergence"]
    assert manifest["config"]["p"] == 2.8
    timings = manifest["timings"]
    phases = [timings[f"{phase}_seconds"] for phase in ("initialize", "down", "up")]
    assert all(t > 0 for t in phases)
    assert sum(phases) <= timings["branch_seconds"]
    assert "doubling bracket" in manifest["provenance"]["seed_direction"]
    assert manifest["openblas_num_threads"] == ckn.BLAS_THREADS
    # checkpoints referenced by the CSV exist on disk
    refs = [r[header.index("checkpoint")] for r in rows]
    store = FieldStore(out / "checkpoints")
    u = store.load(refs[0], _config_grid(cfg))
    assert u.values.shape == (96, 12)


def test_cli_branch_certificates(cli_branch_run):
    # computed rows carry the residual of their stored field (on the even
    # half of the cylinder, where the walk solved it), the fixed
    # point's self-consistency gap and its work counters; the one other
    # row, the down walk's discrete terminal point, has no gap and no
    # counters
    rc, out, cfg, lu_solves, factorizations = cli_branch_run
    assert rc == 0
    grid = _config_grid(cfg)
    _, header, rows = read_csv(out / "branch.csv")
    i_mu, i_cp = header.index("mu"), header.index("checkpoint")
    i_res, i_gap = header.index("residual"), header.index("gap")
    i_it, i_eig = header.index("iterations"), header.index("eigen_iterations")
    i_lu = header.index("lu_solves")
    assert i_lu == i_eig + 1 and header[i_lu + 1] == "t"
    store = FieldStore(out / "checkpoints")
    computed = [r for r in rows if np.isfinite(r[i_gap])]
    assert len(computed) == len(rows) - 1 >= 1
    for row in computed:
        assert row[i_res] == eqmu_residual(grid.fold(store.load(row[i_cp], grid)), row[i_mu])
        assert row[i_gap] <= SELF_CONSISTENCY_TOL
        assert row[i_it] == int(row[i_it]) and 1 <= row[i_it] <= row[i_eig]
        assert row[i_lu] == int(row[i_lu]) and row[i_lu] >= 1
    # every solve belongs to some row or to a rejected step; this run
    # halves one step, at the continuity guard, and its reason counts the
    # rejected solve's Cholesky solves
    manifest = json.loads((out / "manifest.json").read_text())
    reasons = manifest["convergence"]["halving_reasons"]
    assert [r["reason"] for r in reasons] == ["continuity guard"]
    rejected = sum(r["lu_solves"] for r in reasons)
    assert rejected >= 1
    assert sum(row[i_lu] for row in computed) + rejected == lu_solves
    # the manifest reports the factorizations the run made
    assert manifest["convergence"]["factorizations"] == factorizations >= 1
    for row in rows:
        if not np.isfinite(row[i_gap]):
            assert row[i_res] == eqmu_residual(grid.fold(store.load(row[i_cp], grid)),
                                               row[i_mu])
            assert np.isnan(row[i_it]) and np.isnan(row[i_eig]) and np.isnan(row[i_lu])


def test_cli_branch_factors_at_a_positive_shift(cli_branch_run, factor_infos):
    # every solve of the walk starts warm, so the residual-bounded shift
    # lies below the lowest eigenvalue and no factor meets a non-positive
    # pivot: the shift-lowering fallback never runs
    rc, out, _, _, factorizations = cli_branch_run
    assert rc == 0
    assert len(factor_infos) >= 1 and not any(factor_infos)
    # so each fixed-point solve, a row's or a halved step's, builds one factor
    _, header, rows = read_csv(out / "branch.csv")
    i_it = header.index("iterations")
    convergence = json.loads((out / "manifest.json").read_text())["convergence"]
    solves = sum(np.isfinite(row[i_it]) for row in rows) + convergence["eta_halvings"]
    assert convergence["factorizations"] == factorizations == solves


def test_cli_analyze_outputs(cli_branch_run):
    rc, out, cfg, _, _ = cli_branch_run
    assert rc == 0
    assert cli.main(["analyze", "--config", str(cfg)]) == 0
    comments, header, rows = read_csv(out / "crossings.csv")
    assert header == ["theta", "Lambda1", "mu1_star", "mu1", "found", "ambiguous"]
    assert len(rows) == 2
    _, gheader, grows = read_csv(out / "gn.csv")
    assert gheader == ["Theta", "J_inf", "Lambda_GN"]
    assert grows[0][0] == pytest.approx(5.0 / 7.0, rel=1e-6)
    assert grows[0][1] > 0 and grows[0][2] > 0
    _, eheader, erows = read_csv(out / "envelope_1.000000.csv")
    assert eheader == ["Lambda", "J_min", "source"]
    # analyze writes no checkpoints: every branch.csv row still finds
    # its own field afterwards
    _, bheader, brows = read_csv(out / "branch.csv")
    i_cp, i_asym = bheader.index("checkpoint"), bheader.index("asymmetry")
    store, grid = FieldStore(out / "checkpoints"), _config_grid(cfg)
    for row in brows:
        u = store.load(row[i_cp], grid)
        assert asymmetry(u) == pytest.approx(row[i_asym], rel=1e-12, abs=1e-12)


def test_branch_csv_reads_back_bit_for_bit(tmp_path, monkeypatch):
    # the Branch that `ckn branch` wrote, read back from branch.csv, is the
    # in-memory one field for field (nan equal to nan)
    real, written = cli._write_branch, []

    def recording(path, config, branch):
        written.append(branch)
        real(path, config, branch)

    monkeypatch.setattr(cli, "_write_branch", recording)
    cfg = _tiny_config(tmp_path)
    assert cli.main(["branch", "--config", str(cfg)]) == 0
    (branch,) = written
    back = cli._read_branch(tmp_path / "out" / "branch.csv", branch.params)
    assert back.params == branch.params
    assert len(back.points) == len(branch.points) > 2
    for a, b in zip(back.points, branch.points):
        for f in dataclasses.fields(BranchPoint):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x == y or (np.isnan(x) and np.isnan(y)), (f.name, x, y)


def test_cli_analyze_theta_absent_from_branch(tmp_path):
    # analyze maps the branch's norms to any admissible theta, so a theta
    # that branch.csv has no columns for gives the crossing and envelope of
    # a run whose branch had it
    cfg = _tiny_config(tmp_path, p=2.78, theta_list=[0.714286], eta=0.7, kappa_stop=18.5)
    outputs = []
    for name, branch_theta in (("with", "0.714286"), ("without", "1.0")):
        out = tmp_path / name
        args = ["--config", str(cfg), "--out", str(out)]
        assert cli.main(["branch", *args, "--theta", branch_theta]) == 0
        assert cli.main(["analyze", *args]) == 0
        outputs.append([read_csv(out / f)[1:] for f in ("crossings.csv",
                                                        "envelope_0.714286.csv")])
    (with_crossings, with_envelope), (without_crossings, without_envelope) = outputs
    assert with_crossings == without_crossings
    assert with_crossings[1][0][4] == "true"
    assert with_envelope == without_envelope


def test_cli_analyze_rejects_branch_csv_without_norms(tmp_path, capsys):
    # a branch.csv written before the X, Y and Z columns is an i/o error,
    # raised before analyze writes anything
    cfg = _tiny_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    write_csv(out / "branch.csv", ["run_id: old"],
              ["kappa", "mu", "Lambda_0.714286", "Lambda_1.000000", "J_0.714286",
               "J_1.000000", "residual", "gap", "iterations", "eigen_iterations",
               "lu_solves", "t", "asymmetry", "checkpoint"],
              [(15.0, 5.0, 3.0, 5.0, 8.0, 9.0, 1e-12, 1e-11, 9, 40, 40, 0.8, 0.1, "cp_00000")])
    before = sorted(out.rglob("*"))
    assert cli.main(["analyze", "--config", str(cfg)]) == 4
    assert "no column X" in capsys.readouterr().err
    assert sorted(out.rglob("*")) == before


def test_cli_analyze_rejects_branch_from_other_grid(cli_branch_run):
    # analyze loads the branch's first field onto its own grid before it
    # writes anything, so a branch computed on another grid is an i/o error
    rc, out, cfg, _, _ = cli_branch_run
    assert rc == 0

    def snapshot():
        return {f: (f.stat().st_mtime_ns, f.read_bytes())
                for f in sorted(out.rglob("*")) if f.is_file()}

    before = snapshot()
    assert cli.main(["analyze", "--config", str(cfg), "--ns", "64"]) == 4
    assert snapshot() == before


def test_cli_svg_structure(cli_branch_run):
    rc, out, cfg, _, _ = cli_branch_run
    cli.main(["analyze", "--config", str(cfg)])
    for tag in ("0.714286", "1.000000"):
        path = out / f"diagram_{tag}.svg"
        tree = ET.parse(path)  # valid XML
        polys = [e for e in tree.iter() if e.tag.endswith("polyline")]
        assert len(polys) == 2
        dashed = [p for p in polys if p.get("stroke-dasharray")]
        assert len(dashed) == 1


def test_cli_gn_limit(tmp_path):
    cfg = _tiny_config(tmp_path)
    assert cli.main(["gn-limit", "--config", str(cfg)]) == 0
    _, header, rows = read_csv(tmp_path / "out" / "gn.csv")
    assert rows[0][1] == pytest.approx(7.7194, abs=2e-3)


def test_config_echo_in_outputs(tmp_path):
    cfg = _tiny_config(tmp_path)
    cli.main(["symmetric-curve", "--config", str(cfg)])
    comments, _, _ = read_csv(tmp_path / "out" / "sym_curve_1.000000.csv")
    assert any("cli-test" in c for c in comments)
    assert any("d=5 p=2.8" in c for c in comments)


def test_cli_solver_error_exit_code(tmp_path, monkeypatch):
    # below the stability threshold the start falls back to the symmetric
    # solution, which the branch command reports as a solver failure
    # and records the reason in the manifest, leaving no checkpoint
    monkeypatch.setattr(continuation, "MU0_FACTOR", 0.9)
    cfg = _tiny_config(tmp_path)
    assert cli.main(["branch", "--config", str(cfg)]) == 3
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "fell back to the symmetric solution" in manifest["stopped"]
    assert manifest["timings"]["initialize_seconds"] > 0
    assert not (out / "branch.csv").exists()
    assert list((out / "checkpoints").iterdir()) == []


def test_cli_branch_rejects_an_unresolved_grid(tmp_path, capsys, monkeypatch):
    # on 17x10 (h_s = 1) the soliton at the start level spans 1.12 cells:
    # a config error before any solve, with the reason in the manifest
    solves = []
    monkeypatch.setattr(continuation, "roothan_solve", lambda *a, **kw: solves.append(a))
    cfg = _tiny_config(tmp_path, theta_list=[0.72], n_s=17, n_phi=10, eta=0.7)
    assert cli.main(["branch", "--config", str(cfg)]) == 2
    assert "w/h_s = 1.12 cells of h_s = 1," in capsys.readouterr().err
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert "does not resolve the start level: at mu0 = 5 " in manifest["stopped"]
    assert solves == [] and list((out / "checkpoints").iterdir()) == []
    assert not (out / "branch.csv").exists()


def test_cli_default_thetas_are_the_admissible_ones(tmp_path, capsys, monkeypatch):
    # Theta(3.0, 5) = 0.833: a run at p = 3.0 that names no theta takes the
    # default thetas from 0.85 up, whether p comes from a flag or from the
    # config file, and its manifest records them; a theta below Theta(p)
    # that the run names is still a config error
    assert RunConfig().theta_list == [0.72, 0.75, 0.8, 0.85, 0.9, 0.95, 1.0]
    tags = ["0.850000", "0.900000", "0.950000", "1.000000"]
    for name, data, flags in [("flag", {}, ["--p", "3.0"]), ("file", {"p": 3.0}, [])]:
        cfg, out = tmp_path / f"{name}.json", tmp_path / name
        cfg.write_text(json.dumps({**data, "out": str(out)}))
        assert cli.main(["gn-limit", "--config", str(cfg), *flags]) == 0
        assert cli.main(["symmetric-curve", "--config", str(cfg), *flags]) == 0
        assert sorted(f.name for f in out.glob("sym_curve_*")) == [
            f"sym_curve_{t}.csv" for t in tags]
    # on 17x10 the branch stops before any solve, and its manifest is written
    solves = []
    monkeypatch.setattr(continuation, "roothan_solve", lambda *a, **kw: solves.append(a))
    cfg, out = tmp_path / "unresolved.json", tmp_path / "unresolved"
    cfg.write_text(json.dumps({"L": 8.0, "n_s": 17, "n_phi": 10, "eta": 0.7, "out": str(out)}))
    assert cli.main(["branch", "--config", str(cfg), "--p", "3.0"]) == 2
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["theta_list"] == [0.85, 0.9, 0.95, 1.0] and solves == []
    out = tmp_path / "explicit"
    assert cli.main(["branch", "--p", "3.0", "--theta", "0.72", "--out", str(out)]) == 2
    assert "theta must lie in" in capsys.readouterr().err
    assert not out.exists()


def test_cli_analyze_names_why_the_branch_stopped(tmp_path, capsys):
    # after a branch run that wrote no branch.csv, analyze reports the
    # manifest's reason, not only the missing file
    cfg = _tiny_config(tmp_path, theta_list=[0.72], n_s=17, n_phi=10, eta=0.7)
    assert cli.main(["branch", "--config", str(cfg)]) == 2
    capsys.readouterr()
    assert cli.main(["analyze", "--config", str(cfg)]) == 4
    err = capsys.readouterr().err
    assert "has no branch.csv: ckn branch stopped: the grid does not resolve" in err
    assert "w/h_s = 1.12" in err


def test_cli_branch_stall_keeps_partial_results(tmp_path, monkeypatch):
    # every solve above the initial point fails, so the up walk stalls
    real = continuation.roothan_solve
    seen = []

    def failing_up(kappa, *args, **kwargs):
        if seen and kappa > seen[0]:
            raise NonConvergenceError(f"forced failure at kappa = {kappa}")
        seen.append(kappa)
        return real(kappa, *args, **kwargs)

    monkeypatch.setattr(continuation, "roothan_solve", failing_up)
    cfg = _tiny_config(tmp_path)
    assert cli.main(["branch", "--config", str(cfg)]) == 3
    out = tmp_path / "out"
    _, header, rows = read_csv(out / "branch.csv")
    manifest = json.loads((out / "manifest.json").read_text())
    assert "stalled" in manifest["stopped"]
    assert manifest["convergence"]["points_up"] == 1
    # one reason per halving; the up walk halves until eta fell below eta/64
    reasons = manifest["convergence"]["halving_reasons"]
    assert len(reasons) == manifest["convergence"]["eta_halvings"]
    up = [r for r in reasons if r["direction"] == "up"]
    assert len(up) == 7
    assert all(r["reason"] == "NonConvergenceError" and r["kappa"] > seen[0] for r in up)
    assert [r["kappa"] for r in up] == sorted(r["kappa"] for r in up)[::-1]
    assert manifest["convergence"]["points_down"] == len(rows)
    kappas = [r[0] for r in rows]
    assert np.all(np.diff(kappas) > 0)
    assert kappas[-1] == pytest.approx(seen[0], rel=1e-12)
    store, grid = FieldStore(out / "checkpoints"), _config_grid(cfg)
    i_cp, i_asym = header.index("checkpoint"), header.index("asymmetry")
    for row in rows:
        assert asymmetry(store.load(row[i_cp], grid)) == pytest.approx(row[i_asym], abs=1e-12)


def test_cli_branch_point_cap_keeps_partial_results(tmp_path, monkeypatch):
    # a walk that reaches MAX_POINTS stops like a stalled one: it keeps its
    # points, records why it stopped and exits 3
    monkeypatch.setattr(continuation, "MAX_POINTS", 3)
    cfg = _tiny_config(tmp_path)
    assert cli.main(["branch", "--config", str(cfg)]) == 3
    out = tmp_path / "out"
    _, header, rows = read_csv(out / "branch.csv")
    manifest = json.loads((out / "manifest.json").read_text())
    assert "MAX_POINTS = 3" in manifest["stopped"]
    assert manifest["convergence"]["points_down"] == len(rows) == 3
    assert manifest["convergence"]["points_up"] == 0
    # the down walk was cut above the bifurcation level kappa_FS
    params = ProblemParams(5, 2.8, 1.0, "surface")
    kappa_fs = critical_value_sym(mu_FS(2.8, 5), params)
    assert rows[0][header.index("kappa")] > kappa_fs
    assert all(np.isfinite(r[header.index("gap")]) for r in rows)


def test_cli_branch_keeps_partial_results_when_the_down_walk_end_fails(tmp_path,
                                                                        monkeypatch):
    # the down walk's discrete end point fails: the points computed so far
    # still reach branch.csv and the manifest says why the run stopped
    def failing(kappa, *args):
        raise NonConvergenceError(f"forced failure at kappa = {kappa}")

    monkeypatch.setattr(continuation, "discrete_soliton", failing)
    cfg = _tiny_config(tmp_path)
    assert cli.main(["branch", "--config", str(cfg)]) == 3
    out = tmp_path / "out"
    _, header, rows = read_csv(out / "branch.csv")
    manifest = json.loads((out / "manifest.json").read_text())
    assert "end point failed: forced failure" in manifest["stopped"]
    assert manifest["convergence"]["points_down"] == len(rows) > 1
    assert manifest["convergence"]["points_up"] == 0
    assert all(np.isfinite(r[header.index("gap")]) for r in rows)
    assert len(list((out / "checkpoints").iterdir())) == len(rows)


def test_cli_analyze_fails_on_damaged_crossing_checkpoint(tmp_path, capsys):
    # p = 2.78 on 48x10 has one unambiguous crossing; the field written for
    # it comes from the branch checkpoint nearest mu1, and a damaged one is
    # an error, not a silently missing file
    cfg = _tiny_config(tmp_path, p=2.78, theta_list=[0.714286], eta=0.7, kappa_stop=18.5)
    assert cli.main(["branch", "--config", str(cfg)]) == 0
    assert cli.main(["analyze", "--config", str(cfg)]) == 0
    out = tmp_path / "out"
    assert (out / "crossing_field_mu1_0.714286.csv").exists()
    _, header, rows = read_csv(out / "crossings.csv")
    (crossing,) = rows
    assert crossing[header.index("found")] == "true"
    assert crossing[header.index("ambiguous")] == "false"
    mu1 = crossing[header.index("mu1")]
    _, bheader, brows = read_csv(out / "branch.csv")
    i_mu, i_cp = bheader.index("mu"), bheader.index("checkpoint")
    near = min(brows, key=lambda r: abs(r[i_mu] - mu1))
    path = out / "checkpoints" / f"{near[i_cp]}.ckn"
    raw = bytearray(path.read_bytes())
    raw[100] ^= 0xFF
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert cli.main(["analyze", "--config", str(cfg)]) == 4
    assert "checksum mismatch" in capsys.readouterr().err


def test_cli_import_leaves_out_scipy_optimize_and_sparse():
    # a fresh interpreter, so no other test's imports count
    code = ("import sys, ckn.cli; ckn.cli.build_parser(); print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.optimize', 'scipy.sparse'))))")
    src = str(Path(ckn.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("given, numpy_first, expected", [
    (None, False, "1"), ("2", False, "2"), (None, True, None), ("2", True, "2")])
def test_import_pins_openblas_threads_unless_set(given, numpy_first, expected, tmp_path):
    # a fresh interpreter; when it loads numpy before ckn, OpenBLAS has read
    # the variable already, so ckn leaves it alone and cannot tell its value
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    env["PYTHONPATH"] = str(Path(ckn.__file__).resolve().parents[1])
    manifest = tmp_path / "manifest.json"
    code = ("import os, sys\n"
            f"if {numpy_first}: import numpy\n"
            "from ckn import io\n"
            f"io.write_manifest({str(manifest)!r}, io.RunConfig(), {{}})\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == str(expected)
    assert json.loads(manifest.read_text())["openblas_num_threads"] == expected


def test_branch_and_analyze_run_and_record_versions_without_the_scipy_package(tmp_path):
    # a fresh interpreter: ckn takes its LAPACK routines straight from
    # scipy.linalg's _flapack, loads no other scipy module and no package
    # metadata, and the manifest reads scipy's version from scipy/version.py
    cfg = _tiny_config(tmp_path)
    code = ("import json, sys\n"
            "from ckn import cli\n"
            f"assert cli.main(['branch', '--config', {str(cfg)!r}]) == 0\n"
            f"assert cli.main(['analyze', '--config', {str(cfg)!r}]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('importlib.metadata' in sys.modules)\n"
            "import ckn, scipy\n"
            f"manifest = json.load(open({str(tmp_path / 'out' / 'manifest.json')!r}))\n"
            "print(manifest['versions'] == {'ckn': ckn.__version__, 'numpy': "
            "sys.modules['numpy'].__version__, 'scipy': scipy.__version__})")
    env = dict(os.environ, PYTHONPATH=str(Path(ckn.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-3:] == ["['scipy.linalg._flapack']", "False", "True"]


def test_cli_reproduce_figures_smoke(tmp_path):
    # 0.7142858 shares its tag with the critical theta round(Theta, 6)
    cfg = _tiny_config(tmp_path, theta_list=[0.7142858, 0.72, 1.0], n_s=48, n_phi=10,
                       eta=0.7, kappa_stop=18.5)
    rc = cli.main(["reproduce-figures", "--config", str(cfg)])
    assert rc == 0
    out = tmp_path / "out"
    scenarios = ("p2.8_theta_family", "p2.78_theta_critical", "p2.7_theta_critical")
    assert sorted(d.name for d in out.iterdir()) == sorted(scenarios)
    for scenario in scenarios:
        assert (out / scenario / "branch.csv").exists()
        assert (out / scenario / "crossings.csv").exists()
        svgs = list((out / scenario).glob("diagram_*.svg"))
        assert svgs
    # the family holds the near-critical thetas, so p = 2.8 is solved once
    family = {f.name for f in (out / "p2.8_theta_family").glob("diagram_*.svg")}
    assert family == {f"diagram_{t}.svg" for t in ("0.714286", "0.720000", "0.721300",
                                                    "0.728300", "1.000000")}


def test_cli_checkpoints_hold_the_full_cylinder(cli_branch_run):
    # the branch is solved on the even half of the cylinder, but every
    # checkpoint holds the config's full grid, exactly even in s
    rc, out, cfg, _, _ = cli_branch_run
    assert rc == 0
    config = RunConfig.load(cfg)
    files = sorted((out / "checkpoints").glob("cp_*.ckn"))
    assert files
    for path in files:
        raw = path.read_bytes()
        *_, n_s, n_phi = _HEADER.unpack_from(raw, len(MAGIC))
        assert (n_s, n_phi) == (config.n_s, config.n_phi)
        v = np.frombuffer(raw[len(MAGIC) + _HEADER.size:-4], "<f8").reshape(n_s, n_phi)
        np.testing.assert_array_equal(v, v[::-1])
