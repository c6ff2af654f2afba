import numpy as np
import pytest
import scipy.sparse as sp

from ckn import eigensolver
from ckn.errors import NormalizationError
from ckn.eigensolver import (
    SHIFT_GAP,
    SolverCache,
    _BandCholesky,
    lowest_eigenpair,
    q_norm,
)
from ckn.fixedpoint import eqmu_residual, self_potential
from ckn.model import Field, ProblemParams, build_grid, dirichlet_energy
from ckn.symmetric import mu_FS, soliton

P, D = 2.8, 5


def normalized_constant_potential(g):
    c = (1.0 / g.integrate(np.ones(g.shape))) ** ((g.p - 2.0) / g.p)
    return Field(g, np.full(g.shape, c))


@pytest.fixture(scope="module")
def grid400():
    params = ProblemParams(D, P, 1.0, "probability")
    return build_grid(10.0, 400, 48, params)


@pytest.fixture(scope="module")
def cache():
    return SolverCache()


def soliton_problem(g, mu):
    u = soliton(mu, g.p).sample(g)
    V = self_potential(u)
    kappa = float(g.integrate(np.abs(u.values) ** g.p) ** ((g.p - 2.0) / g.p))
    return kappa, V, u


def scaled(w):
    """The dof vector M^1/2 u of a field w, which B acts on."""
    return w.grid.restrict(w.values) * np.sqrt(w.grid.m)


def test_kappa_zero_dirichlet_mode(grid400):
    g = grid400
    res = lowest_eigenpair(0.0, normalized_constant_potential(g), g, tol=1e-9)
    assert res.lam == pytest.approx((np.pi / 20.0) ** 2, rel=0.02)
    assert res.residual <= 1e-9
    # lowest mode is angular-constant
    var = np.ptp(res.u.values[g.n_s // 2, 1:-1])
    assert var < 1e-8


@pytest.mark.parametrize("mu", [2.0, mu_FS(P, D), 8.0])
def test_soliton_potential_eigenvalue(grid400, cache, mu):
    g = grid400
    kappa, V, u = soliton_problem(g, mu)
    res = lowest_eigenpair(kappa, V, g, tol=1e-9, cache=cache)
    assert res.lam == pytest.approx(-mu, rel=1e-3)
    assert res.u.norm_sq() == pytest.approx(1.0, rel=1e-12)
    assert res.u.values.min() >= -1e-8 * res.u.values.max()


def test_monotone_in_kappa(grid400, cache):
    g = grid400
    kappa, V, u = soliton_problem(g, 2.0)
    r1 = lowest_eigenpair(kappa, V, g, cache=cache)
    r2 = lowest_eigenpair(1.5 * kappa, V, g, warm_start=r1.u, cache=cache)
    assert r2.lam <= r1.lam


def test_rayleigh_quotient_optimality(grid400, cache):
    g = grid400
    kappa, V, _ = soliton_problem(g, mu_FS(P, D))
    res = lowest_eigenpair(kappa, V, g, cache=cache)
    kv = kappa * g.restrict(V.values)
    rng = np.random.RandomState(0)
    for _ in range(20):
        v = rng.randn(kv.size)
        assert v @ g.matvec(v, kv) / (v @ v) >= res.lam - 1e-9


def test_grid_convergence_order(cache):
    params = ProblemParams(D, P, 1.0, "probability")
    mu = mu_FS(P, D)
    errs = []
    for ns, nphi in [(101, 13), (201, 25), (401, 49)]:
        g = build_grid(8.0, ns, nphi, params)
        kappa, V, _ = soliton_problem(g, mu)
        res = lowest_eigenpair(kappa, V, g, tol=1e-10)
        errs.append(abs(res.lam + mu))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_eigenfunction_symmetric_for_symmetric_potential(grid400, cache):
    g = grid400
    kappa, V, _ = soliton_problem(g, 2.0)
    res = lowest_eigenpair(kappa, V, g, cache=cache)
    from ckn.continuation import asymmetry

    assert asymmetry(res.u) <= 1e-8


def test_operator_self_adjoint(grid400):
    g = grid400
    kappa, V, _ = soliton_problem(g, 2.0)
    kv = kappa * g.restrict(V.values)
    rng = np.random.RandomState(1)
    worst = 0.0
    for _ in range(10):
        a, b = rng.randn(kv.size), rng.randn(kv.size)
        lhs = float(g.matvec(a, kv) @ b)
        rhs = float(a @ g.matvec(b, kv))
        worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
    assert worst <= 1e-10


def test_action_on_angular_constant_matches_1d():
    params = ProblemParams(D, P, 1.0, "probability")
    g = build_grid(8.0, 120, 16, params)
    gfun = np.sin(np.pi * (g.s + g.L) / (2 * g.L))
    u = Field(g, np.repeat(gfun[:, None], g.n_phi, axis=1))
    # M^-1 K u = M^-1/2 B M^1/2 u on the dofs
    act = (g.matvec(scaled(u), 0.0) / np.sqrt(g.m)).reshape(g.n_s - 2, g.n_phi - 2)
    # interior rows act exactly as the 1D second difference
    one_d = (-gfun[2:] + 2 * gfun[1:-1] - gfun[:-2]) / (g.s[1] - g.s[0]) ** 2
    for j in range(g.n_phi - 2):
        np.testing.assert_allclose(act[:, j], one_d, rtol=1e-10, atol=1e-13)


def test_first_harmonic_adds_d_minus_1():
    # Rayleigh quotient of g(s) cos(phi) equals t[g] + (d-1) with O(h^2) error
    params = ProblemParams(D, P, 1.0, "probability")
    errs = []
    for ns, nphi in [(101, 17), (201, 33), (401, 65)]:
        g = build_grid(8.0, ns, nphi, params)
        gfun = np.exp(-g.s**2)
        u = Field(g, gfun[:, None] * np.cos(g.phi)[None, :])
        X = dirichlet_energy(u)
        Y = g.integrate(u.values**2)
        # exact transverse quotient: (int g'^2 + (d-1) int g^2) / int g^2
        from scipy.integrate import quad

        num = quad(lambda s: 4 * s**2 * np.exp(-2 * s**2), -8, 8)[0]
        den = quad(lambda s: np.exp(-2 * s**2), -8, 8)[0]
        exact = num / den + (D - 1)
        errs.append(abs(X / Y - exact))
    assert errs[-1] <= errs[0] / 6.0
    assert errs[-1] < 5e-3


def test_potential_normalization_checked(grid400):
    g = grid400
    V = Field(g, np.full(g.shape, 1.0))
    assert abs(q_norm(V) - 1.0) > 1e-3
    with pytest.raises(NormalizationError):
        lowest_eigenpair(1.0, V, g)


def test_restrict_embed_roundtrip():
    params = ProblemParams(D, P, 1.0, "probability")
    g = build_grid(8.0, 32, 8, params)
    rng = np.random.RandomState(2)
    vec = rng.randn((g.n_s - 2) * (g.n_phi - 2))
    full = g.embed(vec)
    np.testing.assert_array_equal(g.restrict(full), vec)
    assert np.all(full[0] == 0) and np.all(full[-1] == 0)
    np.testing.assert_array_equal(full[:, 0], full[:, 1])


def dense_B(g):
    """The grid's mass-scaled interior stiffness, assembled from its diagonals."""
    diag, off_phi, off_s = g.B
    w = g.n_phi - 2
    return (np.diag(diag) + np.diag(off_phi, 1) + np.diag(off_phi, -1)
            + np.diag(off_s, w) + np.diag(off_s, -w))


def polarized_B(g):
    """B from the energy alone: K_ij = (E(e_i + e_j) - E(e_i) - E(e_j)) / 2 on
    the interior nodes, scaled by m^-1/2 on both sides."""
    nodes = [(i, j) for i in range(1, g.n_s - 1) for j in range(1, g.n_phi - 1)]

    def energy(*idx):
        v = np.zeros(g.shape)
        for ij in idx:
            v[ij] += 1.0
        return dirichlet_energy(Field(g, v))

    e = [energy(a) for a in nodes]
    K = np.diag(e)
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            K[a, b] = K[b, a] = 0.5 * (energy(nodes[a], nodes[b]) - e[a] - e[b])
    isq = 1.0 / np.sqrt(g.m)
    return isq[:, None] * K * isq[None, :]


@pytest.mark.parametrize("n_s, n_phi, folded", [
    pytest.param(48, 10, False, id="48-10"), pytest.param(16, 8, False, id="16-8"),
    pytest.param(48, 10, True, id="48-10-even"), pytest.param(33, 8, True, id="33-8-even")])
def test_band_storage_is_exact(n_s, n_phi, folded):
    # in s-major order the energy couples phi neighbours (offset 1) and s
    # neighbours (offset n_phi - 2) only, so the grid's three diagonals are
    # the whole operator, the band holds the shifted operator entry for
    # entry and its Cholesky factor reproduces it; on the folded grid too,
    # whose zero-weight mirror row is no dof
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, n_s, n_phi, params)
    if folded:
        g = g.even
    w = n_phi - 2
    B = dense_B(g)
    ref = polarized_B(g)
    assert np.abs(B - ref).max() <= 1e-12 * np.abs(ref).max()
    kappa, V, _ = soliton_problem(g, 2.0)
    kv = kappa * g.restrict(V.values)
    shift = np.linalg.eigvalsh(B - np.diag(kv))[0] - 1.0
    A = B - np.diag(kv + shift)
    upper = sp.dia_matrix((g.band(kv + shift), np.arange(w, -1, -1)), shape=A.shape).toarray()
    np.testing.assert_array_equal(upper, np.triu(A))
    y = np.random.RandomState(4).randn(kv.size)
    np.testing.assert_allclose(g.matvec(y, kv), (B - np.diag(kv)) @ y,
                               rtol=0, atol=1e-12 * np.abs(B).max())
    factor = SolverCache().preconditioner(g, kappa, kv, shift + SHIFT_GAP, 0.0).__self__
    U = sp.dia_matrix((factor.cb, np.arange(w, -1, -1)), shape=A.shape)
    assert factor.U.nnz == factor.L.nnz == U.nnz
    U = U.toarray()
    assert np.abs(U.T @ U - A).max() <= 1e-12 * np.abs(A).max()


@pytest.mark.parametrize("n_s, folded", [(16, False), (33, True)], ids=["16-8", "33-8-even"])
def test_eqmu_residual_matches_the_energy_polarized_operator(n_s, folded):
    # -Laplace u + mu u - u^(p-1) with -Laplace the dense operator the
    # energy alone defines, on a field zero on the first and last rows
    g = build_grid(8.0, n_s, 8, ProblemParams(D, P, 1.0, "surface"))
    v = np.random.default_rng(n_s).random(g.shape)
    v = v + v[::-1]
    v[[0, -1]] = 0.0
    u, mu = Field(g, v), 1.3
    if folded:
        g, u = g.even, g.fold(u)
    x, sq = g.restrict(u.values), np.sqrt(g.m)
    r = polarized_B(g) @ (sq * x) / sq + mu * x - x ** (P - 1.0)
    assert eqmu_residual(u, mu) == pytest.approx(np.sqrt(np.sum(g.m * r**2)), rel=1e-12)


@pytest.mark.parametrize("n_s", [48, 49])
def test_band_rayleigh_quotients_are_the_full_grid_s_on_even_fields(n_s):
    # on fields even in s the folded grid's operator is the full grid's, so
    # every Rayleigh quotient of the band agrees, and so does the ground state
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, n_s, 10, params)
    kappa, V, _ = soliton_problem(g, 2.0)
    rng = np.random.default_rng(n_s)
    for _ in range(3):
        v = rng.random(g.shape)
        u = Field(g, g.embed(g.restrict(v + v[::-1])))
        quotients = []
        for pot, w in ((V, u), (g.fold(V), g.fold(u))):
            y = scaled(w)
            quotients.append((y @ w.grid.matvec(y, kappa * w.grid.restrict(pot.values)))
                             / (y @ y))
        assert quotients[1] == pytest.approx(quotients[0], rel=1e-13)
    a, b = lowest_eigenpair(kappa, V, g), lowest_eigenpair(kappa, g.fold(V), g.even)
    assert b.lam == pytest.approx(a.lam, rel=1e-12)
    np.testing.assert_allclose(g.unfold(b.u).values, a.u.values, rtol=0, atol=1e-9)


def test_factor_is_positive_exactly_below_lowest_eigenvalue():
    # dpbtrf meets a non-positive leading minor exactly when the shifted
    # operator is not positive definite
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, 48, 10, params)
    kappa, V, _ = soliton_problem(g, 2.0)
    kv = kappa * g.restrict(V.values)
    lams = np.linalg.eigvalsh(dense_B(g) - np.diag(kv))
    for k in range(4):
        assert _BandCholesky(g.band(kv + (lams[k] + 1e-3))).info > 0
    assert _BandCholesky(g.band(kv + (lams[0] - 1e-3))).info == 0


@pytest.mark.parametrize("built", [False, True])
def test_indefinite_shift_refactors_once(monkeypatch, built):
    # a shift above the lowest eigenvalue leaves a non-positive leading
    # minor and is lowered with one more factorization, both counted; a
    # factor already built for the operator's grid and kappa is kept as it is
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, 48, 10, params)
    kappa, V, _ = soliton_problem(g, 2.0)
    lam1 = lowest_eigenpair(kappa, V, g).lam
    kv = kappa * g.restrict(V.values)
    cache = SolverCache()
    if built:
        cache.preconditioner(g, kappa, kv, lam1 - 1.0 + SHIFT_GAP, 0.0)
    calls = []
    real = eigensolver.dpbtrf

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "dpbtrf", counting)
    solve = cache.preconditioner(g, kappa, kv, lam1 + 0.5 + SHIFT_GAP, 0.0)
    assert len(calls) == (0 if built else 2)
    assert solve.__self__.info == 0
    assert cache.factorizations == (1 if built else 2)


def test_converges_from_start_near_tolerance(grid400, cache):
    # a start a few times tol from convergence, off by grid-scale noise: the
    # residual is then high-frequency, which the factor damps, so T r is far
    # smaller than r and only a drop threshold relative to its own norm
    # keeps it in the basis
    g = grid400
    tol = 1e-9
    kappa, V, _ = soliton_problem(g, mu_FS(P, D))
    exact = lowest_eigenpair(kappa, V, g, tol=1e-10, cache=cache)
    kv = kappa * g.restrict(V.values)
    noise = np.random.RandomState(3).randn(*g.shape)

    def start(eps):
        return Field(g, exact.u.values + eps * noise)

    def residual(eps):
        y = scaled(start(eps))
        y /= np.linalg.norm(y)
        Ay = g.matvec(y, kv)
        return float(np.linalg.norm(Ay - (y @ Ay) * y))

    eps = 1e-6 * 3.0 * tol / residual(1e-6)
    assert 2.0 * tol < residual(eps) < 4.0 * tol
    res = lowest_eigenpair(kappa, V, g, tol=tol, warm_start=start(eps), cache=cache)
    assert res.residual <= tol
    assert res.iterations <= 20
    assert res.lam == pytest.approx(exact.lam, abs=1e-12)


def test_shared_cache_factors_once_per_kappa():
    # every solve at one kappa shares the factor, whatever its potential; a
    # new kappa is a new operator family and gets a factor of its own
    params = ProblemParams(D, P, 1.0, "surface")
    g = build_grid(8.0, 48, 10, params)
    kappa, V, _ = soliton_problem(g, 2.0)
    _, W, _ = soliton_problem(g, 3.0)
    cache = SolverCache()
    lowest_eigenpair(kappa, V, g, cache=cache)
    lowest_eigenpair(kappa, W, g, cache=cache)
    assert cache.factorizations == 1
    lowest_eigenpair(1.5 * kappa, V, g, cache=cache)
    assert cache.factorizations == 2
