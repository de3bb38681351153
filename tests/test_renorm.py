"""Equilibria, the renormalisation map, its orbit and the interaction chain."""

import math

import numpy as np
import pytest

from hierfw import exact as X
from hierfw import params as P
from hierfw import renorm as R
from hierfw.diffusion import DiffusionFn, fisher_wright, grid_from_callable
from hierfw.forward import mckean_vlasov_mean

FW = fisher_wright(1.0)
QUARTIC = grid_from_callable(lambda x: (x * (1 - x)) ** 2)


def clustering_params(levels=9):
    fam = P.ExponentialFamily(K=2, e=1, c=0.25)
    return P.ModelParams.from_family(N=8, levels=levels, family=fam, g=FW,
                                     init=P.InitSpec.constant(0.5))


SMALL = R.EquilibriumBudget(n_replicas=64, burn=15, sample=40)
# 41 Chebyshev-like interior nodes plus the exact endpoints
CHEBYSHEV43 = np.concatenate(
    [[0.0], 0.5 * (1.0 - np.cos(np.pi * np.arange(1, 42) / 42)), [1.0]])


# ----------------------------------------------------------------------
# diffusion functions g = x(1-x) h
# ----------------------------------------------------------------------


def test_from_g_keeps_node_values_and_fisher_wright():
    # the given g at the nodes, and h = d for d x(1-x) on any grid, to the
    # rounding of one division
    rng = np.random.default_rng(0)
    for nodes in (np.linspace(0, 1, 7),
                  np.concatenate([[0.0], np.sort(rng.random(12)), [1.0]])):
        values = np.concatenate([[0.0], rng.random(len(nodes) - 2), [0.0]])
        g = DiffusionFn.from_g(nodes, values)
        assert np.allclose(g(nodes), values, rtol=1e-15, atol=0.0)
        for d in (0.5, 0.3):
            h = DiffusionFn.from_g(nodes, d * FW(nodes)).h
            assert np.all(np.abs(h - d) <= np.spacing(d))
            assert len(h) == len(nodes)


# ----------------------------------------------------------------------
# mv_equilibrium
# ----------------------------------------------------------------------


def test_zero_diffusion_degenerate():
    est = R.mv_equilibrium(1, 1, 1, 1, fisher_wright(0.0), 0.4, SMALL, seed=1)
    assert est.ex == pytest.approx(0.4, abs=1e-12)
    assert est.exx == pytest.approx(0.16, abs=1e-12)
    assert est.eyy == pytest.approx(0.16, abs=1e-12)
    assert est.fg == 0.0


def _reference_steps(integ, x, y, theta, n_steps):
    """Step by step R(h) D(h) D(h) R(h), h = dt/2: a step without noise."""
    E, K = integ.E, integ.K
    w_u = 1.0 / (1.0 + E * K)
    decay = math.exp(-integ.r_fast * integ.dt / 2.0)
    drift = math.exp(-E * integ.c * integ.dt / 2.0)

    def rotate(x, y):
        u = (x + E * K * y) * w_u
        delta = (x - y) * decay
        return u + E * K * w_u * delta, u - w_u * delta

    for _ in range(n_steps):
        x, y = rotate(x, y)
        x = theta + (x - theta) * drift
        x = theta + (x - theta) * drift
        x, y = rotate(x, y)
    return x, y


@pytest.mark.parametrize("n_steps", [1, 2, 7])
@pytest.mark.parametrize("theta,shape", [
    (0.3, (3, 4)),                                  # mv_equilibrium
    (np.array([[0.2], [0.5], [0.9]]), (3, 4)),      # _equilibria's column
    (np.linspace(0.1, 0.9, 5), (5,)),               # chain centre, (R,)
], ids=["scalar", "column", "centre"])
def test_fused_map_matches_reference_steps(theta, shape, n_steps):
    # without noise a run of steps is pre, mid ... mid, post
    integ = R._PairIntegrator(2.0, 0.7, 1.5, 0.8, fisher_wright(0.0), 0.05)
    rng = np.random.default_rng(0)
    x0 = rng.random(shape)
    y0 = rng.random(shape)
    x, y = x0.copy(), y0.copy()
    integ.advance(x, y, theta, n_steps, rng)
    x_ref, y_ref = _reference_steps(integ, x0, y0, theta, n_steps)
    assert np.max(np.abs(x - x_ref)) < 1e-13
    assert np.max(np.abs(y - y_ref)) < 1e-13


@pytest.mark.parametrize("K,e,c", [(2.0, 1.0, 1.0), (0.5, 3.0, 0.25)])
def test_noiseless_mean_field_drive_is_exact(K, e, c):
    # the mean-field colony without noise, stepped one at a time with theta
    # the closed-form mean at each step's midpoint: the rotations are exact
    # and the drift half-steps act where x equals theta, so the pair follows
    # the closed form to rounding while theta changes between steps
    integ = R._PairIntegrator(1.0, c, K, e, fisher_wright(0.0), 0.01)
    rng = np.random.default_rng(0)
    x, y = np.array([0.9]), np.array([0.2])
    for s in range(200):
        theta = mckean_vlasov_mean(K, e, 0.9, 0.2, (s + 0.5) * integ.dt)[0]
        integ.advance(x, y, float(theta), 1, rng)
        ex, ey = mckean_vlasov_mean(K, e, 0.9, 0.2, (s + 1) * integ.dt)
        assert abs(x[0] - ex) < 1e-12
        assert abs(y[0] - ey) < 1e-12


def test_total_steps_counts_every_replica_step():
    est = R.mv_equilibrium(1, 1, 1, 1, FW, 0.4, SMALL, seed=1)
    integ = R._PairIntegrator(1, 1, 1, 1, FW, SMALL.dt_factor)
    steps = integ.steps_for(SMALL.burn) + integ.steps_for(SMALL.sample)
    assert est.total_steps == steps * SMALL.n_replicas


@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_boundary_theta_degenerate(theta):
    est = R.mv_equilibrium(1, 1, 1, 1, FW, theta, SMALL, seed=2)
    assert est.ex == pytest.approx(theta, abs=1e-12)
    assert est.fg == pytest.approx(0.0, abs=1e-12)


@pytest.mark.slow
def test_fw_equilibrium_second_moment():
    # E = c = K = e = d = 1, theta = 1/2: A_0^0 = 1/3, (Fg)(1/2) = 3/16,
    # E[x^2] = 1/4 + (1/3)(3/16) = 0.3125
    budget = R.EquilibriumBudget(n_replicas=256, burn=20, sample=120)
    est = R.mv_equilibrium(1, 1, 1, 1, FW, 0.5, budget, seed=3)
    assert not est.flagged
    assert abs(est.exx - 0.3125) < 3 * est.se["exx"]
    assert abs(est.fg - 0.1875) < 3 * est.se["fg"] + 5e-4


@pytest.mark.slow
def test_moment_identities_off_corner():
    E_, c_, K_, e_, th = 4.0, 0.25, 0.25, 4.0, 0.7
    budget = R.EquilibriumBudget(n_replicas=256, burn=20, sample=120)
    est = R.mv_equilibrium(E_, c_, K_, e_, FW, th, budget, seed=4)
    den = (E_ * c_ + e_) + E_ * K_ * e_
    A00 = 0.5 * (E_ / c_) * (E_ * c_ + e_) / den
    B0 = 0.5 * E_ ** 2 / den
    assert abs(est.ex - th) < 3 * est.se["ex"]
    assert abs(est.ey - th) < 3 * est.se["ey"]
    assert abs(est.exy - est.eyy) < 3 * math.hypot(est.se["exy"], est.se["eyy"])
    assert abs(est.exx - th ** 2 - A00 * est.fg) < \
        3 * math.hypot(est.se["exx"], A00 * est.se["fg"]) + 1e-3
    assert abs(est.eyy - th ** 2 - (A00 - B0) * est.fg) < \
        3 * math.hypot(est.se["eyy"], (A00 - B0) * est.se["fg"]) + 1e-3


def test_estimate_sanity_bounds():
    for seed, (E_, c_, K_, e_, th) in enumerate(
            [(1, 1, 1, 1, 0.3), (0.25, 4, 1, 0.25, 0.5), (2, 0.5, 3, 1, 0.8)]):
        est = R.mv_equilibrium(E_, c_, K_, e_, FW, th, SMALL, seed=seed)
        for v in (est.ex, est.ey, est.exx, est.eyy, est.exy):
            assert 0.0 <= v <= 1.0
        assert est.exx >= est.ex ** 2 - 3 * est.se["exx"]


def test_short_budget_flags_nonstationarity():
    # window shorter than the variance ramp of the slow mode
    budget = R.EquilibriumBudget(n_replicas=256, burn=0.001, sample=0.05, stride=1)
    est = R.mv_equilibrium(1 / 32, 1 / 1024, 32, 1, FW, 0.5, budget, seed=6)
    assert est.flagged
    long_budget = R.EquilibriumBudget(n_replicas=256, burn=25, sample=80)
    est2 = R.mv_equilibrium(1 / 32, 1 / 1024, 32, 1, FW, 0.5, long_budget, seed=6)
    assert not est2.flagged


def test_theta_out_of_range_rejected():
    with pytest.raises(ValueError):
        R.mv_equilibrium(1, 1, 1, 1, FW, 1.3, SMALL, seed=0)


# ----------------------------------------------------------------------
# sample_F
# ----------------------------------------------------------------------


def test_F_of_zero_is_zero():
    grid = np.linspace(0, 1, 9)
    res = R.sample_F(fisher_wright(0.0), 1, 1, 1, 1, grid, SMALL, seed=7)
    assert np.allclose(res.fn(grid), 0.0, atol=1e-12)


def test_F_endpoints_exact_zero():
    grid = np.linspace(0, 1, 9)
    res = R.sample_F(FW, 1, 1, 1, 1, grid, SMALL, seed=8)
    assert res.fn(grid)[0] == 0.0
    assert res.fn(grid)[-1] == 0.0
    assert np.all(res.fn(grid) >= 0.0)


def test_F_grid_requires_endpoints():
    with pytest.raises(ValueError):
        R.sample_F(FW, 1, 1, 1, 1, np.linspace(0.1, 0.9, 5), SMALL, seed=9)


def test_F_grid_requires_an_interior_node():
    # on [0, 1] F would be evaluated nowhere
    grid = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="theta grid"):
        R.evaluate_F(FW, 1, 1, 1, 1, grid)
    with pytest.raises(ValueError, match="theta grid"):
        R.sample_F(FW, 1, 1, 1, 1, grid, SMALL, seed=9)


def test_F_grid_order_is_checked_before_any_evaluation(monkeypatch):
    # a grid out of order is refused before F is evaluated at any node
    def evaluated(*args):
        raise AssertionError("F evaluated on a grid out of order")

    monkeypatch.setattr(X, "exact_F", evaluated)
    monkeypatch.setattr(R, "_equilibria", evaluated)
    for grid in ([0.0, 0.6, 0.4, 1.0], [0.0, 0.5, 0.5, 1.0]):
        with pytest.raises(ValueError, match="theta grid must be strictly"):
            R.evaluate_F(FW, 1, 1, 1, 1, np.array(grid))
        with pytest.raises(ValueError, match="theta grid must be strictly"):
            R.sample_F(FW, 1, 1, 1, 1, np.array(grid), SMALL, seed=9)


@pytest.mark.slow
def test_F_on_fw_family_matches_recursion():
    # (F g_FW)(theta) = d/(1 + d A_0^0) theta(1-theta) per node within 3 SE
    mp = clustering_params()
    der = P.derive(mp)
    co = P.compute_A(mp, der, 2)
    grid = np.linspace(0, 1, 9)
    budget = R.EquilibriumBudget(n_replicas=192, burn=20, sample=100)
    res = R.sample_F(FW, float(der.E[0]), mp.c[0], mp.K[0], mp.e[0], grid,
                     budget, seed=10)
    d1 = R.fw_recursion_oracle(1.0, 1, co)[1]
    expect = d1 * FW(grid)
    for j in range(1, len(grid) - 1):
        assert abs(res.fn(grid)[j] - expect[j]) < 3 * res.se[j] + 5e-4


# ----------------------------------------------------------------------
# evaluate_F
# ----------------------------------------------------------------------

# r = E_l c_l / e_l = 8^-l in the clustering family: the Markov chain on
# 21/41 points serves level 0 (criterion 2's point E = c = K = e = 1), the
# chain on 41/81 points level 1, and the averaged law levels 2 to 8
CLUSTERING_METHODS = ["mca-21/41", "mca-41/81"] + ["averaged"] * 7


@pytest.mark.parametrize("grid", [np.linspace(0, 1, 21), CHEBYSHEV43],
                         ids=["uniform21", "chebyshev41"])
def test_exact_F_matches_fw_recursion(grid):
    # F (d_l g_FW) = d_{l+1} g_FW with level-l rates, to 5e-3 relative
    mp = clustering_params()
    der = P.derive(mp)
    co = P.compute_A(mp, der, 10)
    d_seq = R.fw_recursion_oracle(1.0, 9, co)
    interior = grid[1:-1]
    for lvl, method in enumerate(CLUSTERING_METHODS):
        E, c, K, e = float(der.E[lvl]), mp.c[lvl], mp.K[lvl], mp.e[lvl]
        assert X.exact_method(E, c, K, e) == method
        values = X.exact_F(fisher_wright(d_seq[lvl]), E, c, K, e, interior)
        rel = np.abs(values / (d_seq[lvl + 1] * FW(interior)) - 1.0)
        assert rel.max() <= 5e-3, (lvl, method, rel.max())


# the three seed-bank classes of the dichotomy, at N = 4
SEEDBANK_CLASSES = {
    "exp-power": P.ExponentialFamily(K=2.0, e=1.0, c=0.25),
    "exp-linear": P.ExponentialFamily(K=2.0, e=1.0, c=0.5),
    "poly-power": P.PolynomialFamily(alpha=0.5, beta=1.0, phi=0.0),
}


@pytest.mark.parametrize("name", sorted(SEEDBANK_CLASSES))
def test_no_seedbank_twin_orbit_is_exact(name):
    # the twin keeps the class's c_k with K = e = 1e-12; from g_FW the orbit
    # is (1 / (1 + A_n)) g_FW, so sup_distance (1 + A_n) = 1/4 at every n
    c = SEEDBANK_CLASSES[name].sequences(16)[0]
    tiny = (1e-12,) * 17
    mp = P.ModelParams(N=4, levels=16, c=tuple(c), e=tiny, K=tiny, g=FW)
    der = P.derive(mp)
    co = P.compute_A(mp, der, 17)
    orbit = R.iterate_F_scaled(FW, mp, der, co, 16, np.linspace(0, 1, 21))
    scaled = orbit.sup_distance * (1.0 + orbit.A)
    assert np.abs(scaled - 0.25).max() < 1e-3, scaled


@pytest.mark.parametrize("name", sorted(SEEDBANK_CLASSES))
def test_seedbank_levels_keep_their_evaluator(name):
    # the error rule moves only levels whose seed-bank is negligible: every
    # level of the three classes keeps the evaluator that r alone picks
    mp = P.ModelParams.from_family(N=4, levels=31,
                                   family=SEEDBANK_CLASSES[name], g=FW)
    der = P.derive(mp)
    for lvl in range(32):
        E, c, K, e = float(der.E[lvl]), mp.c[lvl], mp.K[lvl], mp.e[lvl]
        r = E * c / e
        by_r = ("averaged" if r < 1 / 32 else
                "mca-21/41" if r >= 1 else "mca-41/81")
        assert X.exact_method(E, c, K, e) == by_r, (lvl, r)


def _averaged_by_trapezoid(nodes, h, lam, theta, n=200_001):
    """The averaged law's E[g(u)] by the trapezoid rule on each half of [0,1],
    for g = x(1-x) h with h linear between the nodes.

    Near an edge the density behaves like tau^(gamma-1), tau the distance to
    the edge; tau = s^m / 2 with m >= 2/gamma makes the integrand regular in
    s.  Phi is accumulated in s from u = 1/2 on both halves.  Doubles hold
    tau down to 1e-300 only, which loses the mass of small gamma (for gamma
    = 0.002 a fifth of it lies below); the Beta test covers that regime.
    """
    s = np.linspace(0.0, 1.0, n)[1:]
    parts = []
    # each half in its distance tau from the edge: u = tau, resp. 1 - tau
    for dist, tau_nodes, tau_h in ((theta, nodes, h),
                                   (1.0 - theta, 1.0 - nodes[::-1], h[::-1])):
        m = max(4.0, 2.0 * tau_h[0] / (lam * dist))   # g'(edge) = h(edge)
        tau = 0.5 * s ** m
        jac = 0.5 * m * s ** (m - 1)              # |du/ds|
        g = tau * (1.0 - tau) * np.interp(tau, tau_nodes, tau_h)
        pos = g > 1e-300         # far below the mass for gamma >= 0.02
        g = np.where(pos, g, 1.0)
        f = np.where(pos, (dist - tau) / g * jac, 0.0)    # dPhi/ds
        tail = np.concatenate([np.cumsum((0.5 * (f[1:] + f[:-1]) * np.diff(s))
                                         [::-1])[::-1], [0.0]])
        parts.append((s, -tail, np.where(pos, jac, 0.0), g))
    top = max(p[1].max() for p in parts)
    z0 = z1 = 0.0
    for ss, phi, jac, g in parts:
        w = np.exp(lam * (phi - top)) * jac
        z0 += np.trapezoid(w / g, ss)
        z1 += np.trapezoid(w, ss)
    return z1 / z0


@pytest.mark.parametrize("lam", [0.5, 4.0, 60.0])
def test_averaged_grid_law_matches_quadrature(lam):
    nodes = np.linspace(0, 1, 11)
    for values in (0.7 * FW(nodes), (nodes * (1 - nodes)) ** 2):
        h = DiffusionFn.from_g(nodes, values).h
        for theta in (0.03, 0.5, 0.77):
            got = X._averaged_grid(nodes, h, lam, theta)
            ref = _averaged_by_trapezoid(nodes, h, lam, theta)
            assert got == pytest.approx(ref, rel=1e-6)


def test_averaged_law_of_fine_fw_table_is_beta():
    # a 4097-node table of d x(1-x) against the Beta closed form
    nodes = np.linspace(0, 1, 4097)
    h = DiffusionFn.from_g(nodes, 0.5 * FW(nodes)).h
    for lam, theta in ((0.05, 0.03), (0.3, 0.2), (8.0, 0.6)):
        got = X._averaged_grid(nodes, h, lam, theta)
        beta = X._averaged_mean_g(fisher_wright(0.5), lam, theta)
        assert got == pytest.approx(beta, rel=2e-3)


def test_exact_F_of_zero_is_zero():
    grid = np.linspace(0, 1, 9)
    for E, c, K, e in ((1, 1, 1, 1), (0.01, 0.25, 4, 1)):
        fn = R.evaluate_F(fisher_wright(0.0), E, c, K, e, grid)
        assert np.all(fn(grid) == 0.0)


def test_sample_F_keeps_flags_per_node():
    # replicas started at theta and sampled at once have not spread to their
    # equilibrium variance, so interior nodes are flagged; the endpoints are
    # pinned, never sampled, and never flagged.  Level 1 samples F of the
    # level-0 result, as one step of an orbit would.
    mp = clustering_params(levels=2)
    der = P.derive(mp)
    budget = R.EquilibriumBudget(n_replicas=64, burn=0.0, sample=0.01, stride=1)
    grid = np.linspace(0, 1, 5)
    g = FW
    nodes = []
    for lvl in (0, 1):
        res = R.sample_F(g, float(der.E[lvl]), mp.c[lvl], mp.K[lvl], mp.e[lvl],
                         grid, budget, seed=6)
        assert res.flags.shape == (5,)
        assert not res.flags[0] and not res.flags[-1]
        nodes.append(np.flatnonzero(res.flags).tolist())
        g = res.fn
    assert any(nodes)


@pytest.mark.slow
def test_exact_F_agrees_with_mc_on_quartic_orbit():
    # depth 1: F of the quartic at level 0; depth 2: F at level 1 of the grid
    # iterate.  Bound: 3 MC SE plus the exact side's 5e-3 relative error.
    mp = clustering_params()
    der = P.derive(mp)
    grid = np.linspace(0, 1, 11)
    budget = R.EquilibriumBudget(n_replicas=96, burn=15, sample=60)
    g = QUARTIC
    for lvl in (0, 1):
        rates = (float(der.E[lvl]), mp.c[lvl], mp.K[lvl], mp.e[lvl])
        exact = R.evaluate_F(g, *rates, grid)
        mc = R.sample_F(g, *rates, grid, budget, seed=60 + lvl)
        gap = np.abs(exact(grid) - mc.fn(grid))
        assert np.all(gap <= 3 * mc.se + 5e-3 * exact(grid)), lvl
        g = exact


# ----------------------------------------------------------------------
# FW recursion oracle
# ----------------------------------------------------------------------


def synthetic_coeffs(terms):
    terms = np.asarray(terms, dtype=float)
    return P.ClusteringCoefficients(
        terms=terms, A=np.concatenate([[0.0], np.cumsum(terms)]),
        asymptotic=P.AsymptoticClass("generic", None, None))


def test_fw_recursion_zero_fixed_point():
    co = synthetic_coeffs([1 / 3] * 5)
    assert np.all(R.fw_recursion_oracle(0.0, 5, co) == 0.0)


def test_fw_recursion_hand_values():
    # A_k^k = 1/3 at every level: d = 1 -> 3/4 -> 3/5
    co = synthetic_coeffs([1 / 3] * 3)
    d_seq = R.fw_recursion_oracle(1.0, 2, co)
    assert d_seq[1] == pytest.approx(0.75)
    assert d_seq[2] == pytest.approx(0.6)


def test_fw_recursion_scaled_orbit_limit():
    # growing A_n: A_n d_n = A_n / (1/d + A_n) -> 1
    terms = 2.0 ** np.arange(30)
    co = synthetic_coeffs(terms)
    d_seq = R.fw_recursion_oracle(0.7, 30, co)
    assert co.A[30] * d_seq[30] == pytest.approx(1.0, abs=1e-6)


# ----------------------------------------------------------------------
# orbit
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_orbit_fw_matches_oracle():
    mp = clustering_params()
    der = P.derive(mp)
    co = P.compute_A(mp, der, 6)
    d_seq = R.fw_recursion_oracle(1.0, 4, co)
    grid = np.linspace(0, 1, 11)
    orbit = R.iterate_F_scaled(FW, mp, der, co, 4, grid)
    assert np.array_equal(orbit.A, co.A[1:5])
    for n in range(1, 5):
        exact = co.A[n] * d_seq[n] * FW(grid)
        gaps = np.abs(co.A[n] * orbit.grids[n - 1](grid) - exact)
        assert np.all(gaps < 4e-3)


def test_exact_orbit_from_fw_stays_in_family():
    # F^(n) g_FW = d_n g_FW, so sup|A_n F^(n) g_FW - g_FW| (1 + A_n) = 1/4 at
    # every depth; on 21 uniform nodes the exact orbit keeps it to 0.005
    mp = clustering_params()
    der = P.derive(mp)
    co = P.compute_A(mp, der, 10)
    orbit = R.iterate_F_scaled(FW, mp, der, co, 8, np.linspace(0, 1, 21))
    scaled = orbit.sup_distance * (1.0 + orbit.A)
    assert np.all(np.abs(scaled - 0.25) <= 0.005), scaled


@pytest.mark.slow
def test_orbit_quartic_contracts():
    mp = clustering_params()
    der = P.derive(mp)
    co = P.compute_A(mp, der, 6)
    orbit = R.iterate_F_scaled(QUARTIC, mp, der, co, 4, np.linspace(0, 1, 11))
    assert np.all(np.diff(orbit.sup_distance) < 0)


def test_orbit_depth_guard():
    mp = clustering_params(levels=3)
    der = P.derive(mp)
    co = P.compute_A(mp, der, 4)
    with pytest.raises(ValueError):
        R.iterate_F_scaled(FW, mp, der, co, 6, np.linspace(0, 1, 21))


# ----------------------------------------------------------------------
# interaction chain
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_chain_moments_small_depth():
    mp = clustering_params()
    der = P.derive(mp)
    co = P.compute_A(mp, der, 4)
    orbit = R.iterate_F_scaled(QUARTIC, mp, der, co, 3, CHEBYSHEV43)
    g_orbit = [QUARTIC] + orbit.grids
    n_rep = 8000
    chain = R.sample_interaction_chain(
        2, mp, der, g_orbit, R.EquilibriumBudget(n_replicas=n_rep, burn=25),
        seed=14)
    means, variances = R.chain_moment_predictions(2, der, co, g_orbit[3])
    for l in range(3):
        se_m = chain[l].std(ddof=1) / math.sqrt(n_rep)
        assert abs(chain[l].mean() - means[l]) < 3 * se_m
        v = chain[l].var(ddof=1)
        se_v = np.var((chain[l] - chain[l].mean()) ** 2) ** 0.5 / math.sqrt(n_rep)
        assert abs(v - variances[l]) < 3 * se_v + 0.1 * variances[l]


def test_chain_requires_full_orbit():
    mp = clustering_params()
    der = P.derive(mp)
    with pytest.raises(ValueError):
        R.sample_interaction_chain(3, mp, der, [FW, FW], SMALL, seed=0)


# ----------------------------------------------------------------------
# volatility profile
# ----------------------------------------------------------------------


def test_profile_endpoint_is_one():
    mp = clustering_params()
    co = P.compute_A(mp, P.derive(mp), 8)
    f = R.volatility_profile(6, co)
    assert f[-1] == pytest.approx(1.0)
    assert np.all(np.diff(f) > 0)


def test_profile_no_seedbank_diffusive():
    # c_k = C: f^k(l) = (l+1)/(k+1)
    C = 2.0
    mp = P.ModelParams(N=4, levels=9, c=(C,) * 10, e=(1e-12,) * 10,
                       K=(1e-12,) * 10, g=FW)
    co = P.compute_A(mp, P.derive(mp), 10)
    k = 8
    f = R.volatility_profile(k, co)
    expect = (np.arange(k + 1) + 1.0) / (k + 1.0)
    assert np.allclose(f, expect, rtol=1e-8)
    assert R.classify_profile(co, k) == "diffusive"


def test_profile_exponential_fast():
    # Kc < 1: f^k(l) ~ (Kc)^{k-l}, concentrated at l = k
    mp = clustering_params(levels=14)
    co = P.compute_A(mp, P.derive(mp), 15)
    k = 12
    f = R.volatility_profile(k, co)
    Kc = 0.5
    approx = Kc ** (k - np.arange(k + 1))
    assert np.allclose(f[4:], approx[4:], rtol=0.3)
    assert R.classify_profile(co, k) == "fast"


def test_profile_slow_case():
    # c = K = 1: A_n ~ log n grows slower than any linear scale
    fam = P.ExponentialFamily(K=1.0, e=0.5, c=1.0)
    mp = P.ModelParams.from_family(N=8, levels=40, family=fam, g=FW)
    co = P.compute_A(mp, P.derive(mp), 41)
    assert R.classify_profile(co, 40) == "slow"


@pytest.mark.slow
def test_chain_concentrates_on_boundary_masses():
    # deep clustering chain: the single-colony law approaches
    # (1-theta) delta_0 + theta delta_1; finite depth leaves interior mass,
    # so the boundary fractions carry an explicit bias margin
    mp = clustering_params()
    der = P.derive(mp)
    co = P.compute_A(mp, der, 8)
    orbit = R.iterate_F_scaled(QUARTIC, mp, der, co, 7, np.linspace(0, 1, 17))
    g_orbit = [QUARTIC] + orbit.grids
    n_rep = 8000
    chain = R.sample_interaction_chain(
        6, mp, der, g_orbit, R.EquilibriumBudget(n_replicas=n_rep, burn=20),
        seed=42)
    theta = 0.5
    x0 = chain[0]
    hi = float(np.mean(x0 > 0.95))
    lo = float(np.mean(x0 < 0.05))
    se = math.sqrt(theta * (1 - theta) / n_rep)
    margin = 0.15  # finite-depth interior mass, measured ~0.11 at k = 6
    assert abs(hi - theta) < 3 * se + margin
    assert abs(lo - (1 - theta)) < 3 * se + margin
    assert hi + lo > 0.7
