"""Acceptance suite: one test per criterion, each printing a verdict line.

Statistical criteria run at fixed seeds with tolerances stated inline; the
closed-form anchors (moment identities, the Fisher-Wright recursion, the
rate-table asymptotics, the clustering truth table, exact dual moments) are
exact up to the quoted Monte Carlo errors.
"""

import json
import math
import time

import numpy as np
import pytest

from hierfw import cli, dual, forward, params, renorm
from hierfw.diffusion import fisher_wright, grid_from_callable
from hierfw.rng import stream

from conftest import estimator_arrays, renewal_sample, tail_fit

FW = fisher_wright(1.0)
QUARTIC = grid_from_callable(lambda x: (x * (1 - x)) ** 2)
GRID21 = np.linspace(0.0, 1.0, 21)


def verdict(num, ok, text):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def clustering_model(levels=9):
    fam = params.ExponentialFamily(K=2.0, e=1.0, c=0.25)
    return params.ModelParams.from_family(
        N=8, levels=levels, family=fam, g=FW,
        init=params.InitSpec.constant(0.5))


@pytest.fixture(scope="module")
def clustering_orbit():
    """Quartic-g orbit in the clustering configuration, depth 8, shared by
    the universality and interaction-chain criteria."""
    mp = clustering_model()
    der = params.derive(mp)
    co = params.compute_A(mp, der, 9)
    orbit = renorm.iterate_F_scaled(QUARTIC, mp, der, co, 8, GRID21)
    return mp, der, co, orbit


# ----------------------------------------------------------------------
# 1. moment relations across parameter corners
# ----------------------------------------------------------------------


def test_criterion_01_moment_relations():
    sets = [
        (1.0, 1.0, 1.0, 1.0, 0.5),
        (0.25, 4.0, 1.0, 0.25, 0.1),
        (1.0, 0.25, 4.0, 1.0, 0.9),
        (0.25, 1.0, 0.25, 4.0, 0.5),
        (1.0, 4.0, 4.0, 4.0, 0.1),
        (0.25, 0.25, 0.25, 0.25, 0.9),
    ]
    budget = renorm.EquilibriumBudget(n_replicas=256, burn=20, sample=120)
    worst = 0.0
    for i, (E_, c_, K_, e_, th) in enumerate(sets):
        t0 = time.monotonic()
        est = renorm.mv_equilibrium(E_, c_, K_, e_, FW, th, budget, seed=100 + i)
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        assert not est.flagged
        den = (E_ * c_ + e_) + E_ * K_ * e_
        A00 = 0.5 * (E_ / c_) * (E_ * c_ + e_) / den
        B0 = 0.5 * E_ ** 2 / den
        se = est.se
        checks = [
            (est.ex - th, se["ex"]),
            (est.ey - th, se["ey"]),
            (est.exy - est.eyy, math.hypot(se["exy"], se["eyy"])),
            (est.exx - th ** 2 - A00 * est.fg,
             math.hypot(se["exx"], A00 * se["fg"])),
            (est.eyy - th ** 2 - (A00 - B0) * est.fg,
             math.hypot(se["eyy"], (A00 - B0) * se["fg"])),
        ]
        for gap, sigma in checks:
            worst = max(worst, abs(gap) / max(3 * sigma, 1e-300))
            assert abs(gap) < 3 * sigma
    verdict(1, worst < 1.0,
            f"five equilibrium moment identities on 6 parameter sets "
            f"(worst gap {worst:.2f} of the 3-sigma budget)")


# ----------------------------------------------------------------------
# 2. Fisher-Wright closure of the renormalisation map
# ----------------------------------------------------------------------


def test_criterion_02_fw_closure():
    grid = np.linspace(0.0, 1.0, 9)
    budget = renorm.EquilibriumBudget(n_replicas=256, burn=20, sample=150,
                                      dt_factor=0.005)
    res = renorm.sample_F(FW, 1.0, 1.0, 1.0, 1.0, grid, budget, seed=200)
    A00 = 0.5 * (1.0 / 1.0) * 2.0 / 3.0
    d1 = 1.0 / (1.0 + A00)
    expect = d1 * FW(grid)
    ok = True
    for j in range(1, len(grid) - 1):
        ok &= abs(res.fn(grid)[j] - expect[j]) < 3 * res.se[j]
    mid = res.fn(0.5)
    j_mid = 4
    ok_mid = abs(mid - 3.0 / 16.0) < 3 * res.se[j_mid]
    verdict(2, ok and ok_mid,
            f"(F g_FW) = d/(1+d A_0^0) g_FW at 9 nodes; "
            f"(F g_FW)(1/2) = {mid:.5f} vs 3/16 = 0.1875")


# ----------------------------------------------------------------------
# 3. universality orbit
# ----------------------------------------------------------------------


def test_criterion_03_universality_orbit(clustering_orbit):
    _, _, _, orbit = clustering_orbit
    decreasing = bool(np.all(np.diff(orbit.sup_distance[:5]) < 0))
    final_ok = orbit.sup_distance[-1] < 0.05

    fam = params.ExponentialFamily(K=2.0, e=1.0, c=1.0)   # Kc = 2 > 1
    mpc = params.ModelParams.from_family(N=8, levels=7, family=fam, g=FW,
                                         init=params.InitSpec.constant(0.5))
    derc = params.derive(mpc)
    coc = params.compute_A(mpc, derc, 7)
    orbit_co = renorm.iterate_F_scaled(QUARTIC, mpc, derc, coc, 6, GRID21)
    plateau = bool(np.all(orbit_co.sup_distance[-3:] > 0.1))
    verdict(3, decreasing and final_ok and plateau,
            f"clustering orbit distances {np.round(orbit.sup_distance, 3)} "
            f"(strictly decreasing to {orbit.sup_distance[-1]:.3f} < 0.05); "
            f"coexistence plateau at {orbit_co.sup_distance[-1]:.3f} > 0.1")


# ----------------------------------------------------------------------
# 4. rate-table asymptotics of A_n
# ----------------------------------------------------------------------


def test_criterion_04_An_asymptotics():
    E = params.ExponentialFamily
    Po = params.PolynomialFamily
    # (family, n, band); logarithmic classes use n = 200 with the wide band
    cases = [
        ("exp c<Ke Kc<1", E(K=2, e=1, c=0.25), 30, (0.9, 1.1)),
        ("exp c<Ke Kc=1", E(K=2, e=1, c=0.5), 30, (0.9, 1.1)),
        ("exp c=Ke Kc<1", E(K=2, e=0.125, c=0.25), 30, (0.9, 1.1)),
        ("exp c=Ke Kc=1", E(K=2, e=0.25, c=0.5), 30, (0.9, 1.1)),
        ("exp c>Ke Kc<1", E(K=2, e=0.05, c=0.25), 30, (0.9, 1.1)),
        ("exp c>Ke Kc=1", E(K=2, e=0.05, c=0.5), 30, (0.9, 1.1)),
        ("exp K=1 c<1", E(K=1, e=1, c=0.5), 30, (0.9, 1.1)),
        ("exp K=1 c=1", E(K=1, e=1, c=1.0), 200, (0.8, 1.2)),
        ("poly -phi<a<1", Po(alpha=0.9, beta=1, phi=0.6, A=2, B=0.1), 30, (0.9, 1.1)),
        ("poly -phi=a<1", Po(alpha=0.4, beta=1, phi=-0.4, A=0.6, B=0.1), 200, (0.8, 1.2)),
        ("poly -phi<a=1", Po(alpha=1.0, beta=1, phi=0.0, A=1, B=0.1), 200, (0.8, 1.2)),
        ("poly -phi=a=1", Po(alpha=1.0, beta=1, phi=-1.0, A=0.4, B=0.1), 200, (0.8, 1.2)),
    ]
    t0 = time.monotonic()
    ratios = {}
    for name, fam, n, band in cases:
        mp = params.ModelParams.from_family(N=8, levels=n + 5, family=fam, g=FW)
        der = params.derive(mp)
        co = params.compute_A(mp, der, n + 1)
        ratio = co.A[n] / co.asymptotic.asymptote(n)
        ratios[name] = (ratio, band)
    elapsed = time.monotonic() - t0
    ok = all(lo <= r <= hi for r, (lo, hi) in ratios.values()) and elapsed < 1.0
    worst = max(abs(r - 1.0) for r, _ in ratios.values())
    verdict(4, ok,
            f"A_n / asymptote within band for all 12 rate-table cases "
            f"(worst deviation {worst:.3f}, {elapsed * 1e3:.0f} ms)")


# ----------------------------------------------------------------------
# 5. clustering verdict truth table and hazard agreement
# ----------------------------------------------------------------------


def test_criterion_05_verdict_truth_table():
    E = params.ExponentialFamily
    Po = params.PolynomialFamily
    C, X = params.CLUSTERS, params.COEXISTS
    # (family, N, expected verdict, hazard applies); boundary equalities
    # (-phi = alpha, Kc = 1, c = 1) included; N per exponential case chosen
    # large enough for the fixed-N integral to reflect the limit criterion
    grid = [
        (Po(alpha=0.5, beta=1, phi=0.3, B=0.1), 8, C, True),
        (Po(alpha=0.5, beta=1, phi=-0.5, B=0.1), 8, C, True),
        (Po(alpha=0.5, beta=1, phi=-2.0, B=0.1), 8, X, True),
        (Po(alpha=1.0, beta=1, phi=0.0, B=0.1), 8, C, True),
        (Po(alpha=1.0, beta=1, phi=-1.0, B=0.1), 8, C, True),
        (Po(alpha=1.0, beta=1, phi=-2.5, B=0.1), 8, X, True),
        (E(K=2, e=1, c=0.25), 64, C, True),
        (E(K=2, e=0.25, c=0.5), 8, C, True),       # Kc = 1, K^2 e = 1
        (E(K=2, e=1, c=1.0), 8, X, True),
        (E(K=1, e=1, c=0.5), 8, C, True),
        (E(K=1, e=1, c=1.0), 8, C, True),          # c = 1 boundary
        (E(K=1, e=1, c=2.0), 8, X, True),
        (Po(alpha=2.0, beta=0, phi=0.0), 8, C, False),   # rho < inf
        (Po(alpha=2.0, beta=0, phi=-2.0), 8, X, False),
        (E(K=0.5, e=1, c=1.0), 8, C, False),             # rho < inf, c = 1
        (E(K=0.5, e=1, c=2.0), 8, X, False),
    ]
    verdict_ok = hazard_ok = True
    n_hazard = 0
    for fam, N, expected, applies in grid:
        mp = params.ModelParams.from_family(N=N, levels=4, family=fam, g=FW)
        v = params.classify(mp).clustering
        verdict_ok &= (v == expected)
        if applies:
            n_hazard += 1
            h = params.hazard_diagnostic(mp)
            want = params.DIVERGENT if expected == C else params.CONVERGENT
            hazard_ok &= (h == want)
    verdict(5, verdict_ok and hazard_ok and n_hazard == 12,
            "verdict truth table exact on 16 cases incl. boundary equalities; "
            f"hazard integral agrees on the {n_hazard} infinite-seed-bank cases")


# ----------------------------------------------------------------------
# 6. moment duality forward vs dual
# ----------------------------------------------------------------------


def test_criterion_06_duality():
    t_start = time.monotonic()
    mp = params.ModelParams(N=2, levels=0, c=(1.0,), e=(1.0,), K=(1.0,),
                            g=FW, init=params.InitSpec.constant(0.5))
    z = forward.SystemState(np.array([0.9, 0.1]), np.array([[0.5, 0.5]]))
    ok = True
    lines = []
    for n_lineages in (1, 2):
        cfg = dual.DualConfig.actives(mp, {0: n_lineages})
        for t in (0.5, 1.0, 2.0):
            rep = dual.duality_estimate(mp, z, cfg, t, 100_000,
                                        seed=600 + n_lineages, dt=0.002)
            ok &= rep.passes()
            ok &= abs(rep.rhs - rep.exact_rhs) < 4 * rep.rhs_se
            lines.append(f"l={n_lineages},t={t}: gap={rep.gap:.4f}")
    elapsed = time.monotonic() - t_start
    ok &= elapsed < 120.0
    verdict(6, ok,
            f"|forward - dual| < 3 SE for 1- and 2-lineage duals at three "
            f"times, dual side matching the generator exponential "
            f"({elapsed:.0f} s)")


# ----------------------------------------------------------------------
# 7. forward means against the closed-form pair
# ----------------------------------------------------------------------


def test_criterion_07_mean_oracle():
    # the mean-field colony is the renormalisation pair at E = 1 with drift
    # centre E[x(t)]: drive the pair integrator with the closed-form mean at
    # each step's midpoint and compare its transient means with that form
    times = (0.5, 1.0, 2.0)
    theta_x, theta_y, n = 0.9, 0.2, 40_000
    ok = True
    for g in (FW, QUARTIC):
        integ = renorm._PairIntegrator(1.0, 1.0, 1.0, 1.0, g, 0.01)
        steps = {round(t / integ.dt): t for t in times}
        assert all(math.isclose(s * integ.dt, t) for s, t in steps.items())
        rng = stream(700, "mckean-vlasov")
        x, y = np.full(n, theta_x), np.full(n, theta_y)
        for s in range(max(steps)):
            theta = renorm.mckean_vlasov_mean(1.0, 1.0, theta_x, theta_y,
                                              (s + 0.5) * integ.dt)[0]
            integ.advance(x, y, float(theta), 1, rng)
            if s + 1 in steps:
                ex, ey = renorm.mckean_vlasov_mean(1.0, 1.0, theta_x,
                                                   theta_y, steps[s + 1])
                for z, exact in ((x, ex), (y, ey)):
                    se = z.std() / math.sqrt(n)
                    ok &= abs(z.mean() - exact) < 3 * se + 5e-4
    verdict(7, ok,
            "pair-integrator means of the mean-field colony match the closed "
            "form at three times for two diffusion functions (means "
            "g-independent)")


# ----------------------------------------------------------------------
# 8. finite-systems comparison bound and martingale property
# ----------------------------------------------------------------------


def test_criterion_08_finite_systems_bound():
    N, K_, e_ = 50, 1.0, 1.0
    mp = params.ModelParams(N=N, levels=0, c=(1.0,), e=(e_,), K=(K_,), g=FW,
                            init=None)
    init = params.InitSpec(theta_x=0.8, theta_y=(0.3,), law="deterministic")
    delta0 = 0.8 - 0.3
    times = (0.25, 0.5, 1.0, 1.5, 2.0)
    K_arr = np.array([K_])

    def obs(x, y):
        th_bar, th_x, th_y = estimator_arrays(x, y, K_arr, 1, N)
        return np.stack([np.abs(th_x - th_y[..., 0]), th_bar], axis=-1)

    mean0, se0, _ = forward.ensemble_reduce(mp, init, (0.0,), 2000, 800, obs,
                                            dt=0.005)
    mean, se, _ = forward.ensemble_reduce(mp, init, times, 2000, 800, obs,
                                          dt=0.005)
    rate = K_ * e_ + e_
    bound_ok = True
    for i, t in enumerate(times):
        bound = delta0 * math.exp(-rate * t) + math.sqrt(1.0 / (4 * N * rate))
        bound_ok &= mean[i, 0] < bound
    mart_ok = all(
        abs(mean[i, 1] - mean0[0, 1]) < 3 * math.hypot(se[i, 1], se0[0, 1])
        for i in range(len(times)))
    verdict(8, bound_ok and mart_ok,
            "E|active - dormant block gap| below the comparison bound at 5 "
            "times; block-mean estimator is time-constant within 3 SE")


# ----------------------------------------------------------------------
# 9. interaction-chain moments
# ----------------------------------------------------------------------


def test_criterion_09_interaction_chain(clustering_orbit):
    mp, der, co, orbit = clustering_orbit
    g_orbit = [QUARTIC] + orbit.grids
    n_rep = 20_000
    budget = renorm.EquilibriumBudget(n_replicas=n_rep, burn=25)
    chain = renorm.sample_interaction_chain(4, mp, der, g_orbit, budget,
                                            seed=900)
    means, variances = renorm.chain_moment_predictions(4, der, co, g_orbit[5])
    ok = True
    for l in range(5):
        x = chain[l]
        se_mean = x.std(ddof=1) / math.sqrt(n_rep)
        ok &= abs(x.mean() - means[l]) < 3 * se_mean
        v = x.var(ddof=1)
        centred = (x - x.mean()) ** 2
        se_var = centred.std(ddof=1) / math.sqrt(n_rep)
        ok &= abs(v - variances[l]) < 3 * se_var
    verdict(9, ok,
            "chain means equal the weighted start density and variances "
            "equal A_m^4 (F^(5) g) at every level within 3 SE")


# ----------------------------------------------------------------------
# 10. wake-up tail exponent
# ----------------------------------------------------------------------


def test_criterion_10_wakeup_tail():
    results = []
    ok = True
    for K_ in (2.0, 4.0):
        fam = params.ExponentialFamily(K=K_, e=1.0, c=0.25)
        mp = params.ModelParams.from_family(N=8, levels=15, family=fam, g=FW)
        gamma = params.classify(mp).gamma
        rs = renewal_sample(mp, 1_000_000, stream(1000 + int(K_), "tail"))
        fit = tail_fit(rs)
        ok &= fit.power_law_plausible and abs(fit.gamma - gamma) < 0.05
        results.append(f"K={K_}: {fit.gamma:.3f} vs {gamma:.3f}")
    verdict(10, ok,
            f"fitted tail exponent within 0.05 of log(N/Ke)/log(N/e) at 1e6 "
            f"samples ({'; '.join(results)})")


# ----------------------------------------------------------------------
# 11. byte-identical reproducibility of every subcommand
# ----------------------------------------------------------------------


SMALL_CFG = """\
model:
  N: 8
  levels: 3
  family: {kind: exponential, K: 2.0, e: 1.0, c: 0.25}
  g: {kind: fisher_wright, d: 1.0}
  d: 1.0
init: {theta_x: 0.6, theta_y: [0.4], law: deterministic}
run:
  horizon: 0.5
  times: [0.0, 0.5]
  replicas: 64
  depth: 2
  grid_size: 9
  burn: 10.0
  sample: 30.0
seed: 11
"""

TINY_DUAL_CFG = """\
model:
  N: 2
  levels: 0
  c: [1.0]
  e: [1.0]
  K: [1.0]
  g: {kind: fisher_wright, d: 1.0}
  d: 1.0
init: {theta_x: 0.7, theta_y: [0.4], law: deterministic}
dual:
  actives: {0: 2}
run:
  horizon: 1.0
  t: 0.5
  replicas: 2000
seed: 11
"""


def test_criterion_11_reproducibility(tmp_path):
    cfg_a = tmp_path / "cfg_a.yaml"
    cfg_a.write_text(SMALL_CFG)
    cfg_b = tmp_path / "cfg_b.yaml"
    cfg_b.write_text(TINY_DUAL_CFG)
    commands = [("classify", cfg_a), ("simulate-forward", cfg_a),
                ("simulate-dual", cfg_b), ("duality-check", cfg_b),
                ("renorm-orbit", cfg_a), ("interaction-chain", cfg_a),
                ("profile", cfg_a)]
    ok = True
    for command, cfg in commands:
        d1 = tmp_path / f"{command}-1"
        d2 = tmp_path / f"{command}-2"
        assert cli.main([command, "--config", str(cfg), "--out", str(d1),
                         "--quiet"]) == 0
        assert cli.main([command, "--config", str(cfg), "--out", str(d2),
                         "--quiet"]) == 0
        names1 = sorted(p.name for p in d1.iterdir())
        names2 = sorted(p.name for p in d2.iterdir())
        ok &= names1 == names2
        for name in names1:
            ok &= (d1 / name).read_bytes() == (d2 / name).read_bytes()
        m = json.loads((d1 / "manifest.json").read_text())
        ok &= set(m["files"]) == set(names1) - {"manifest.json"}
    verdict(11, ok,
            "all seven subcommands reproduce byte-identical outputs and "
            "manifests under identical (config, seed)")
