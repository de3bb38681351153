"""Derived constants, wake-up law, regime classification, A_n machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfw import params as P
from hierfw.diffusion import fisher_wright, grid_from_callable
from hierfw.rng import stream

from conftest import cli_csv, wakeup_sampler

FW = fisher_wright(1.0)


def exp_params(K, e, c, N=8, levels=12, init=None, g=FW):
    fam = P.ExponentialFamily(K=K, e=e, c=c)
    return P.ModelParams.from_family(N=N, levels=levels, family=fam, g=g,
                                     init=init or P.InitSpec.constant(0.5))


def poly_params(alpha, beta, phi, A=1.0, B=1.0, F=1.0, N=8, levels=12, init=None):
    fam = P.PolynomialFamily(alpha=alpha, beta=beta, phi=phi, A=A, B=B, F=F)
    return P.ModelParams.from_family(N=N, levels=levels, family=fam, g=FW,
                                     init=init or P.InitSpec.constant(0.5))


# ----------------------------------------------------------------------
# derive
# ----------------------------------------------------------------------


def test_E0_is_one():
    d = P.derive(exp_params(2, 1, 0.25))
    assert d.E[0] == 1.0


def test_E2_geometric_seedbank():
    # K_m = 2^m: E_k = (K-1)/(K^k + K - 2) -> E_2 = 1/4
    d = P.derive(exp_params(2, 1, 0.25))
    assert d.E[2] == pytest.approx(0.25, abs=1e-15)
    K = 2.0
    for k in range(6):
        assert d.E[k] == pytest.approx((K - 1) / (K ** k + K - 2), rel=1e-14)


@given(st.lists(st.floats(0.01, 5.0), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_E_identity_and_monotone(K_seq):
    K = np.asarray(K_seq)
    E = P.slowing_constants(K, len(K))
    partial = np.concatenate([[0.0], np.cumsum(K)])
    assert np.allclose(E * (1.0 + partial), 1.0, rtol=0, atol=1e-14)
    assert np.all(np.diff(E) < 0)


def test_theta_seq_symmetric_init():
    init = P.InitSpec(theta_x=0.3, theta_y=(0.3,))
    d = P.derive(exp_params(2, 1, 0.25, init=init))
    assert np.allclose(d.theta_seq, 0.3, atol=1e-15)


def test_theta_seq_formula():
    init = P.InitSpec(theta_x=0.9, theta_y=(0.1, 0.5))
    mp = exp_params(2, 1, 0.25, levels=3, init=init)
    d = P.derive(mp)
    K = np.asarray(mp.K)
    th_y = np.array([0.1, 0.5, 0.5, 0.5])
    for k in range(4):
        expect = (0.9 + np.sum(K[:k + 1] * th_y[:k + 1])) / (1 + np.sum(K[:k + 1]))
        assert d.theta_seq[k] == pytest.approx(expect, rel=1e-14)


def test_init_refused_by_the_library():
    # the rules the CLI's init block obeys, enforced where the start is built
    with pytest.raises(ValueError, match="theta_y lists 3 colours, the "
                                         "model has 1"):
        P.ModelParams(N=2, levels=0, c=(1.0,), e=(1.0,), K=(1.0,), g=FW,
                      init=P.InitSpec(0.5, (0.1, 0.9, 0.9)))
    for concentration in (0.0, -3.0, math.nan):
        with pytest.raises(ValueError, match="concentration must be positive"):
            P.InitSpec(0.5, (0.5,), law="beta", concentration=concentration)


def test_rho_chi():
    mp = exp_params(0.5, 1.0, 0.5)
    d = P.derive(mp)
    assert not d.rho_infinite
    assert d.rho == pytest.approx(2.0)          # 1/(1-K)
    # chi = sum (K e / N)^m = 1/(1 - 1/16) on the prefix
    assert d.chi == pytest.approx(16.0 / 15.0, rel=1e-9)


def test_growth_condition_violation():
    with pytest.raises(ValueError):
        exp_params(4, 4, 0.5, N=8)  # K e = 16 >= N^1? K_1 e_1 = 16 * ... violates


# ----------------------------------------------------------------------
# wake-up law
# ----------------------------------------------------------------------


def test_wakeup_tail_at_zero():
    mp = exp_params(2, 1, 0.25)
    d = P.derive(mp)
    assert P.wakeup_tail(0.0, mp, d)[0] == pytest.approx(1.0, rel=1e-12)


def test_wakeup_single_colour_exponential():
    mp = exp_params(1.0, 1.0, 0.5, levels=0)
    d = P.derive(mp)
    t = np.array([0.0, 0.5, 1.0, 2.0])
    assert np.allclose(P.wakeup_tail(t, mp, d), np.exp(-t), rtol=1e-12)


def test_wakeup_sampler_mean_rho_over_chi():
    # Ke/N chosen so every colour is abundantly sampled: the truncated-away
    # mean mass stays well under one standard error of 1e6 draws.
    mp = exp_params(0.5, 2.0, 0.5, N=4, levels=12)
    d = P.derive(mp)
    rng = stream(3, "wakeup")
    tau = wakeup_sampler(mp, d, rng, n=1_000_000)
    se = tau.std(ddof=1) / math.sqrt(len(tau))
    assert abs(tau.mean() - d.rho / d.chi) < 3 * se


def test_wakeup_tail_matches_samples():
    mp = exp_params(2, 1, 0.25, levels=8)
    d = P.derive(mp)
    rng = stream(4, "wakeup-tail")
    tau = wakeup_sampler(mp, d, rng, n=100_000)
    for t in (1.0, 10.0, 100.0):
        p = float(P.wakeup_tail(t, mp, d)[0])
        emp = np.mean(tau > t)
        se = math.sqrt(p * (1 - p) / len(tau))
        assert abs(emp - p) < 4 * se


# ----------------------------------------------------------------------
# regime classification
# ----------------------------------------------------------------------


def test_gamma_exponential():
    rep = P.classify(exp_params(2, 1, 0.25, N=4))
    assert rep.gamma == pytest.approx(math.log(2) / math.log(4))


def test_delta_zero_for_c_one():
    rep = P.classify(exp_params(2, 1, 1.0, N=4))
    assert rep.delta == pytest.approx(0.0, abs=1e-15)


def test_gamma_polynomial_is_one():
    rep = P.classify(poly_params(0.5, 1.0, 0.0))
    assert rep.gamma == 1.0
    rep2 = P.classify(poly_params(0.9, 2.0, -0.3, B=0.1))
    assert rep2.gamma == 1.0


def test_gamma_in_unit_interval_and_K1_exact():
    for K, e, N in [(2, 1, 8), (4, 1, 16), (1.5, 0.5, 8), (1, 0.7, 4), (1, 1, 8)]:
        rep = P.classify(exp_params(K, e, max(0.25, 1e-3), N=N))
        if rep.gamma is not None:
            assert 0 < rep.gamma <= 1
        if K == 1:
            assert rep.gamma == pytest.approx(1.0, abs=1e-14)


def test_generic_family_gives_partial_report():
    mp = P.ModelParams(N=4, levels=2, c=(1.0, 0.5, 0.25), e=(1.0, 1.0, 1.0),
                       K=(1.0, 2.0, 3.0), g=FW, init=P.InitSpec.constant(0.5))
    rep = P.classify(mp)
    assert rep.family_kind == "generic"
    assert rep.gamma is None and rep.delta is None
    assert rep.clustering is None and rep.criterion_used is None
    with pytest.raises(P.FamilyError):
        P.hazard_diagnostic(mp)


# ----------------------------------------------------------------------
# clustering verdict
# ----------------------------------------------------------------------


def test_verdict_polynomial_clusters():
    mp = poly_params(0.5, 1.0, 0.0)  # -phi = 0 <= alpha = 0.5 <= 1
    assert P.classify(mp).clustering == P.CLUSTERS


def test_verdict_exponential_coexists():
    mp = exp_params(2, 1, 1.0)  # Kc = 2 > 1
    assert P.classify(mp).clustering == P.COEXISTS


def test_verdict_finite_rho_strong_migration_clusters():
    mp = exp_params(0.5, 1.0, 0.5)  # rho < inf, c_k = c^k with c < 1
    rep = P.classify(mp)
    assert not rep.rho_infinite
    assert rep.clustering == P.CLUSTERS


def test_verdict_ignores_diffusion_function():
    # the verdict never reads g: same answer for FW, scaled FW and a grid g
    for g in (fisher_wright(1.0), fisher_wright(7.5),
              grid_from_callable(lambda x: (x * (1 - x)) ** 2)):
        fam = P.ExponentialFamily(K=2, e=1, c=0.25)
        mp = P.ModelParams.from_family(N=8, levels=8, family=fam, g=g)
        assert P.classify(mp).clustering == P.CLUSTERS


# ----------------------------------------------------------------------
# clustering coefficients
# ----------------------------------------------------------------------


def test_A1_exponential_example():
    mp = exp_params(2, 1, 0.25)
    co = P.compute_A(mp, P.derive(mp), 6)
    assert co.A[1] == pytest.approx(1.0 / 3.0, rel=1e-14)


def test_A_partial_sums_and_monotone():
    mp = exp_params(2, 1, 0.25)
    co = P.compute_A(mp, P.derive(mp), 10)
    assert np.all(np.diff(co.A) > 0)
    for n in range(1, 11):
        assert co.A[n] == pytest.approx(np.sum(co.terms[:n]), rel=1e-15)
        assert co.A_block(0, n - 1) == pytest.approx(co.A[n], rel=1e-15)


def test_no_seedbank_limit():
    # K, e -> 0: A_n -> (1/2) sum_{k<n} 1/c_k
    c = (1.0, 0.5, 2.0, 1.0)
    mp = P.ModelParams(N=4, levels=3, c=c, e=(1e-12,) * 4, K=(1e-12,) * 4, g=FW)
    co = P.compute_A(mp, P.derive(mp), 4)
    expect = 0.5 * np.cumsum(1.0 / np.asarray(c))
    assert np.allclose(co.A[1:], expect, rtol=1e-9)


def test_exp_power_asymptote():
    # K=2, e=1, c=1/4: A_n ~ (1/2) (Kc)^{-(n-1)}, within 5% by n=30
    mp = exp_params(2, 1, 0.25, levels=35)
    co = P.compute_A(mp, P.derive(mp), 31)
    asym = co.asymptotic
    assert asym.label == "exp-power"
    assert asym.constant == pytest.approx(0.5)
    assert co.A[30] / asym.asymptote(30) == pytest.approx(1.0, abs=0.05)


def test_cKe_constant_differs_from_stated_table_value():
    # For c = Ke the summand tends to (1/2)(K-1)(Kc)^{-k} K/(2K-1); the
    # rate-table line for this subcase carries (K-1)^2 instead of K(K-1),
    # off by exactly K/(K-1).  Pin the derivation-consistent constant.
    for K in (2.0, 3.0):
        e = 0.25 / K
        mp = exp_params(K, e, 0.25, levels=65)
        co = P.compute_A(mp, P.derive(mp), 61)
        assert co.A[60] / co.asymptotic.asymptote(60) == pytest.approx(1.0, rel=1e-6)
        stated = (K - 1) ** 2 / (2 * (2 * K - 1) * (1 - K * 0.25))
        assert co.asymptotic.constant / stated == pytest.approx(K / (K - 1), rel=1e-12)


def test_n_max_beyond_prefix_rejected():
    mp = exp_params(2, 1, 0.25, levels=4)
    with pytest.raises(ValueError):
        P.compute_A(mp, P.derive(mp), 7)


def test_coefficient_rows(tmp_path):
    # classify's coefficients.csv: A_n for n = 0 .. levels + 1, with the
    # family's asymptote from n = 2 on
    rows = cli_csv(tmp_path, "classify", """\
model:
  N: 8
  levels: 7
  family: {kind: exponential, K: 2.0, e: 1.0, c: 0.25}
""", "coefficients.csv")
    mp = exp_params(2, 1, 0.25, levels=7)
    co = P.compute_A(mp, P.derive(mp), 8)
    assert rows[0] == ["n", "A_n", "predicted_asymptote"]
    assert [int(r[0]) for r in rows[1:]] == list(range(9))
    assert [float(r[1]) for r in rows[1:]] == co.A.tolist()
    assert rows[1][2] == rows[2][2] == ""
    assert [float(r[2]) for r in rows[3:]] == \
        [co.asymptotic.asymptote(n) for n in range(2, 9)]


# ----------------------------------------------------------------------
# hazard diagnostic
# ----------------------------------------------------------------------


@pytest.mark.slow
def test_hazard_exponential_divergent_matches_verdict():
    # clustering family member; N chosen large enough that the fixed-N
    # integral criterion agrees with the N -> infinity verdict
    mp = exp_params(2, 1, 0.25, N=64, levels=4)
    assert P.classify(mp).clustering == P.CLUSTERS
    assert P.hazard_diagnostic(mp) == P.DIVERGENT


@pytest.mark.slow
def test_hazard_exponential_convergent_matches_verdict():
    mp = exp_params(2, 1, 1.0, N=8, levels=4)
    assert P.classify(mp).clustering == P.COEXISTS
    assert P.hazard_diagnostic(mp) == P.CONVERGENT


@pytest.mark.slow
def test_hazard_small_gamma_convergent():
    # gamma < 1/2: no clustering possible at fixed N, whatever the migration
    mp = exp_params(4, 1, 0.25, N=8, levels=4)
    assert P.classify(mp).gamma < 0.5
    assert P.hazard_diagnostic(mp) == P.CONVERGENT


def test_hazard_requires_infinite_seedbank():
    mp = exp_params(0.5, 1, 0.5)
    with pytest.raises(P.FamilyError):
        P.hazard_diagnostic(mp)
