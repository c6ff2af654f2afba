"""Shared fixtures: the expensive branch runs are computed once per session."""

import pytest

from ckn.cli import MU0_FACTOR, SEED_EPS
from ckn.continuation import (
    continue_branch,
    initialize,
    merge_branches,
    symmetric_reference,
)
from ckn.eigensolver import SolverCache
from ckn.gn import radial_ground_state
from ckn.io import FieldStore
from ckn.model import ProblemParams, build_grid
from ckn.symmetric import mu_FS


def _run_branch(p, d, L, n_s, n_phi, tmp, eta_div=200, eta_up_factor=8.0,
                kappa_stop_factor=2.4):
    params = ProblemParams(d, p, 1.0, "surface")
    grid = build_grid(L, n_s, n_phi, params)
    store = FieldStore(tmp)
    cache = SolverCache()
    start, fp = initialize(MU0_FACTOR * mu_FS(p, d), SEED_EPS, grid, params, store, cache)
    eta = start.kappa / eta_div
    down = continue_branch(start, eta, "down", 0.0, grid, params, store,
                           start_result=fp, cache=cache)
    up = continue_branch(start, eta * eta_up_factor, "up",
                         kappa_stop_factor * start.kappa, grid, params, store,
                         start_result=fp, cache=cache)
    branch = merge_branches(down, up)
    return {
        "p": p, "d": d, "params": params, "grid": grid, "store": store,
        "cache": cache, "start": start, "start_result": fp, "eta": eta,
        "down": down, "up": up, "branch": branch,
    }


def _add_symmetric_reference(run):
    """The symmetric reference `ckn analyze` compares the branch against."""
    run["sym_branch"] = symmetric_reference(run["branch"], run["grid"], run["params"])
    return run


@pytest.fixture(scope="session")
def run_p28(tmp_path_factory):
    """Main d=5, p=2.8 branch used by several acceptance criteria."""
    tmp = tmp_path_factory.mktemp("branch_p28")
    return _run_branch(2.8, 5, L=6.0, n_s=280, n_phi=30, tmp=tmp)


@pytest.fixture(scope="session")
def run_p278(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("branch_p278")
    run = _run_branch(2.78, 5, L=8.0, n_s=240, n_phi=28, tmp=tmp,
                      eta_up_factor=8.0, kappa_stop_factor=2.6)
    return _add_symmetric_reference(run)


@pytest.fixture(scope="session")
def run_p27(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("branch_p27")
    run = _run_branch(2.7, 5, L=8.0, n_s=240, n_phi=28, tmp=tmp,
                      eta_up_factor=8.0, kappa_stop_factor=2.6)
    return _add_symmetric_reference(run)


@pytest.fixture(scope="session")
def gn_profile_p28():
    """Radial Gagliardo-Nirenberg ground state at p = 2.8, d = 5 (one solve)."""
    return radial_ground_state(2.8, 5)
