"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the report lines.
The heavy branch computations live in session fixtures (conftest.py) and
are shared between criteria.
"""

import numpy as np

from ckn.analysis import _pieces, detect_crossing, lambda_GN, map_to_theta
from ckn.continuation import asymmetry, initialize
from ckn.eigensolver import SolverCache, lowest_eigenpair, q_norm
from ckn.errors import SymmetricFallbackError
from ckn.fixedpoint import roothan_solve, self_potential
from ckn.gn import J_infinity, radial_ground_state
from ckn.io import FieldStore, load_field, save_field
from ckn.model import Field, ProblemParams, build_grid, evaluate_Q, theta_critical
from ckn.symmetric import critical_value_sym, mu_FS, soliton, soliton_norms

P, D = 2.8, 5
THETA_C = 5.0 / 7.0


def _report(name: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_formula_reproduction():
    ok_mu = abs(mu_FS(P, D) - 4.166666666666667) <= 1e-9
    ok_th = abs(theta_critical(P, D) - 0.7142857142857143) <= 1e-9
    rng = np.random.RandomState(12345)
    worst = 0.0
    mu = mu_FS(P, D)
    from ckn.analysis import lambda_FS

    for _ in range(100):
        theta = theta_critical(P, D) + rng.rand() * (1.0 - theta_critical(P, D))
        direct = lambda_FS(P, theta, D)
        via_t = theta * mu - (1.0 - theta) * mu * (P - 2.0) / (P + 2.0)
        worst = max(worst, abs(direct - via_t) / abs(via_t))
    _report("criterion 1: formula reproduction",
            ok_mu and ok_th and worst <= 1e-12,
            f"mu_FS ok={ok_mu}, Theta ok={ok_th}, Lambda_FS worst rel={worst:.2e}")


def test_criterion_2_fig1_anchor():
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, 400, 48, params)
    mu = mu_FS(P, D)
    u = soliton(mu, P).sample(g)
    q = evaluate_Q(u, mu, 1.0)
    _report("criterion 2: symmetric critical value anchor",
            abs(q - 15.65) <= 0.05, f"Q = {q:.4f} vs 15.65 +- 0.05")


def test_criterion_3_eigensolver_oracle():
    params = ProblemParams(D, P, 1.0, "probability")
    g = build_grid(10.0, 400, 48, params)
    cache = SolverCache()
    rels = []
    for mu in (2.0, mu_FS(P, D), 8.0):
        u = soliton(mu, P).sample(g)
        V = self_potential(u)
        kap = float(g.integrate(np.abs(u.values) ** P) ** ((P - 2.0) / P))
        res = lowest_eigenpair(kap, V, g, tol=1e-9, cache=cache)
        rels.append(abs(res.lam + mu) / mu)
    errs = []
    mu = mu_FS(P, D)
    for ns, nphi in [(101, 13), (201, 25), (401, 49)]:
        gg = build_grid(8.0, ns, nphi, params)
        uu = soliton(mu, P).sample(gg)
        kap = float(gg.integrate(np.abs(uu.values) ** P) ** ((P - 2.0) / P))
        rr = lowest_eigenpair(kap, self_potential(uu), gg, tol=1e-10)
        errs.append(abs(rr.lam + mu))
    order = min(np.log2(errs[i] / errs[i + 1]) for i in range(2))
    _report("criterion 3: eigensolver oracle",
            max(rels) <= 1e-3 and order >= 1.8,
            f"max rel err = {max(rels):.2e}, convergence order = {order:.2f}")


def test_criterion_4_monotone_fixed_point():
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, 400, 48, params)
    cache = SolverCache()
    mu = 2.0
    u = soliton(mu, P).sample(g)
    V0 = self_potential(u)
    kap = float(g.integrate(np.abs(u.values) ** P) ** ((P - 2.0) / P))
    flat = np.full(g.shape, 1.0)
    mixed = Field(g, 0.5 * V0.values + 0.5 * flat / q_norm(Field(g, flat)))
    V_start = Field(g, mixed.values / q_norm(mixed))
    fp = roothan_solve(kap, V_start, g, params, cache=cache)
    monotone = bool(np.all(np.diff(fp.lambda_history) <= 1e-12))
    ang = asymmetry(fp.u)
    _report("criterion 4: monotone fixed point, symmetric closure",
            fp.converged and monotone and ang <= 1e-8,
            f"{fp.iterations} iterations, monotone={monotone}, "
            f"angular variance = {ang:.2e}")


def test_criterion_5_symmetry_breaking_onset(run_p28):
    grid, params = run_p28["grid"], run_p28["params"]
    start, down = run_p28["start"], run_p28["down"]
    mufs = mu_FS(P, D)

    onset = start.asymmetry > 1e-3 and start.kappa < critical_value_sym(start.mu, params)

    try:
        initialize(0.9 * mufs, 0.05, grid, params,
                   FieldStore(str(run_p28["store"].dir) + "_fb"), run_p28["cache"])
        fell_back = False
    except SymmetricFallbackError:
        fell_back = True

    term_mu = down.provenance["terminal_mu"]
    term_ok = abs(term_mu / mufs - 1.0) <= 0.02
    term_asym_ok = down.provenance["terminal_asymmetry"] < 1e-4

    pts = sorted((q for q in down.points
                  if q.mu > mufs and 0.02 < q.asymmetry < 0.45),
                 key=lambda q: q.mu)[:5]
    x = np.log([q.mu - mufs for q in pts])
    y = np.log([q.asymmetry**2 for q in pts])
    slope = float(np.polyfit(x, y, 1)[0])
    pitchfork_ok = abs(slope - 1.0) <= 0.3

    _report("criterion 5: symmetry breaking onset",
            onset and fell_back and term_ok and term_asym_ok and pitchfork_ok,
            f"asym0 = {start.asymmetry:.3f}, fallback = {fell_back}, "
            f"terminal mu/mu_FS-1 = {term_mu / mufs - 1:+.4f}, "
            f"pitchfork exponent = {slope:.3f}")


def _lambda_shape(curve):
    mask = ~curve.symmetric
    lam = curve.Lambda[mask]
    dL = np.diff(lam)
    return dL


def test_criterion_6_regime_reproduction(run_p278, run_p27):
    # p = 2.78: Lambda^theta decreasing then increasing, with a crossing
    c278 = map_to_theta(run_p278["branch"], THETA_C)
    lam = c278.Lambda[~c278.symmetric]
    tol = 1e-7 * np.abs(lam).max()
    i_min = int(np.argmin(lam))
    down_then_up = (0 < i_min < len(lam) - 1
                    and bool(np.all(np.diff(lam[:i_min + 1]) <= tol))
                    and bool(np.all(np.diff(lam[i_min:]) >= -tol)))
    sym278 = map_to_theta(run_p278["sym_branch"], THETA_C)
    crossing = detect_crossing(sym278, c278)
    mufs278 = mu_FS(2.78, D)
    crossing_ok = (crossing is not None
                   and crossing.mu1_star < mufs278 < crossing.mu1)

    # p = 2.7: Lambda^theta monotone increasing, no crossing
    c27 = map_to_theta(run_p27["branch"], THETA_C)
    dL27 = _lambda_shape(c27)
    monotone27 = bool(np.all(dL27 >= -1e-7 * np.abs(c27.Lambda).max()))
    sym27 = map_to_theta(run_p27["sym_branch"], THETA_C)
    crossing27 = detect_crossing(sym27, c27)

    detail = (f"p=2.78 dip-then-rise={down_then_up}, "
              f"crossing={'none' if crossing is None else f'mu1*={crossing.mu1_star:.4f} mu1={crossing.mu1:.4f}'} "
              f"(mu_FS={mufs278:.4f}); p=2.7 monotone={monotone27}, "
              f"crossing={'none' if crossing27 is None else 'FOUND'}")
    _report("criterion 6: regime reproduction",
            down_then_up and crossing_ok and monotone27 and crossing27 is None,
            detail)


def test_criterion_7_gn_limit_consistency(run_p28):
    profile = radial_ground_state(P, D)
    rx, ry = profile.pohozaev_residuals()
    j_inf = J_infinity(P, D, "surface", profile)

    curve = map_to_theta(run_p28["branch"], THETA_C)
    mask = ~curve.symmetric
    k_last = int(np.argmax(curve.mu[mask]))
    j_last = curve.J[mask][k_last]
    mu_last = curve.mu[mask][k_last]
    gap = abs(j_last / j_inf - 1.0)

    lam_gn = lambda_GN(P, D, j_inf, "surface")
    theta = theta_critical(P, D)
    slope = theta - (1.0 - theta) * (P - 2.0) / (P + 2.0)
    # the symmetric level at Lambda_GN, with X + mu Y = Z (Pohozaev)
    _, Y, Z = soliton_norms(lam_gn / slope, P, D, "surface")
    j_sym = theta**theta * Z**theta * Y ** (1.0 - theta) / Z ** (2.0 / P)
    resid = abs(j_sym - j_inf)

    _report("criterion 7: GN limit consistency",
            max(rx, ry) <= 1e-5 and gap <= 0.05 and resid <= 1e-8,
            f"pohozaev = ({rx:.1e}, {ry:.1e}), J^Theta(mu={mu_last:.1f}) "
            f"vs J_inf gap = {gap:.3%}, Lambda_GN residual = {resid:.1e}")


def test_criterion_8_determinism(tmp_path):
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, 96, 12, params)
    rng = np.random.RandomState(0)
    u = Field(g, rng.rand(*g.shape))
    p1, p2 = tmp_path / "a.ckn", tmp_path / "b.ckn"
    save_field(p1, u)
    save_field(p2, load_field(p1, g))
    bitwise = p1.read_bytes() == p2.read_bytes()

    kappas = []
    for k in range(2):
        store = FieldStore(tmp_path / f"run{k}")
        cache = SolverCache()
        start, fp = initialize(1.2 * mu_FS(P, D), 0.05, g, params, store, cache)
        fp2 = roothan_solve(start.kappa - 0.3, fp.V, g, params,
                            warm_start=fp.u, cache=cache)
        kappas.append((start.kappa, fp2.mu, fp2.kappa))
    rerun = max(abs(a - b) / max(abs(a), 1e-30)
                for a, b in zip(kappas[0], kappas[1]))
    _report("criterion 8: determinism and persistence",
            bitwise and rerun <= 1e-8,
            f"checkpoint bitwise = {bitwise}, rerun max rel diff = {rerun:.1e}")


def test_coexistence_at_crossing(run_p278):
    """Figs. 4-5 substitute: the two optimizers at Lambda_1 share J but
    differ macroscopically in asymmetry."""
    curve = map_to_theta(run_p278["branch"], THETA_C)
    sym = map_to_theta(run_p278["sym_branch"], THETA_C)
    crossing = detect_crossing(sym, curve)
    assert crossing is not None

    def j_on(c, lam):
        """The lowest J over the monotone pieces of c defined at lam."""
        return min(np.interp(lam, L, J) for L, J, _ in _pieces(c) if L[0] <= lam <= L[-1])

    j_sym = j_on(sym, crossing.Lambda1)
    j_ns = j_on(curve.nonsymmetric(), crossing.Lambda1)
    jdiff = abs(j_sym - j_ns) / j_sym

    asyms = np.array([pt.asymmetry for pt in run_p278["branch"].points])
    mus = np.array([pt.mu for pt in run_p278["branch"].points])
    a_ns = float(np.interp(crossing.mu1, mus, asyms))
    gap = abs(a_ns - 0.0)

    _report("coexistence at the crossing",
            jdiff <= 1e-4 and gap >= 0.05,
            f"J rel gap = {jdiff:.2e}, asymmetry gap = {gap:.3f}")
