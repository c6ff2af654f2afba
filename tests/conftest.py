"""Shared fixtures: the expensive branch runs are computed once per session."""

import pytest

from ckn.continuation import MU0_FACTOR, Branch, compute_branch, symmetric_reference
from ckn.eigensolver import SolverCache
from ckn.gn import radial_ground_state
from ckn.io import FieldStore
from ckn.model import ProblemParams, build_grid
from ckn.symmetric import critical_value_sym, mu_FS


def _run_branch(p, d, L, n_s, n_phi, tmp, kappa_stop_factor=2.4):
    """The CLI's branch at its default eta, but walked up at 8 eta.

    eta_up is the up walk's first step and also the unit of its continuity
    guard: at 8 eta the three recipes take 18/20/18 up points and
    0.6-0.8 s a branch, at eta 135/151/135 and 1.7-2.0 s."""
    params = ProblemParams(d, p, 1.0, "surface")
    grid = build_grid(L, n_s, n_phi, params)
    store, cache = FieldStore(tmp), SolverCache()
    # the start's level, at which the driver's default eta is kappa0 / 200
    kappa0 = critical_value_sym(MU0_FACTOR * mu_FS(p, d), params)
    eta = kappa0 / 200
    branch = compute_branch(grid, params, store, eta=eta, eta_up=8.0 * eta,
                            kappa_stop=kappa_stop_factor * kappa0, cache=cache)
    # the down walk is the points up to the start; it ends on its lowest kappa
    down = branch.points[:branch.provenance["convergence"]["points_down"]]
    return {
        "p": p, "d": d, "params": params, "grid": grid, "store": store, "cache": cache,
        "start": down[-1], "branch": branch,
        "down": Branch(params, down, {"terminal_mu": down[0].mu,
                                      "terminal_asymmetry": down[0].asymmetry}),
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
    run = _run_branch(2.78, 5, L=8.0, n_s=240, n_phi=28, tmp=tmp, kappa_stop_factor=2.6)
    return _add_symmetric_reference(run)


@pytest.fixture(scope="session")
def run_p27(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("branch_p27")
    run = _run_branch(2.7, 5, L=8.0, n_s=240, n_phi=28, tmp=tmp, kappa_stop_factor=2.6)
    return _add_symmetric_reference(run)


@pytest.fixture(scope="session")
def gn_profile_p28():
    """Radial Gagliardo-Nirenberg ground state at p = 2.8, d = 5 (one solve)."""
    return radial_ground_state(2.8, 5)
