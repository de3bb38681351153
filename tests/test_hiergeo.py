"""Geometry, migration kernel and time-t kernel checks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hierfw import hiergeo
from hierfw.hiergeo import (
    AccuracyError,
    HierAddress,
    KernelSpec,
    ParameterError,
    build_expansion,
    hier_distance,
    log_return_probability,
    migration_rate,
    outflow_rate,
    sample_migration_jump,
    self_landing_rate,
    total_jump_rate,
    transition_kernel,
)
from hierfw.rng import stream


def addr(digits, N):
    return HierAddress(tuple(digits), N, len(digits))


# ----------------------------------------------------------------------
# distance
# ----------------------------------------------------------------------


def test_distance_identity():
    a = HierAddress.origin(3, 4)
    assert hier_distance(a, a) == 0


def test_distance_fig2_example():
    # digits agree from level 2 on, differ at level 1: distance 2
    a = addr([0, 1, 2], 3)
    b = addr([0, 2, 2], 3)
    assert hier_distance(a, b) == 2


def test_distance_differs_at_top():
    a = addr([1, 0, 0], 3)
    b = addr([1, 0, 2], 3)
    assert hier_distance(a, b) == 3


def test_ultrametric_exhaustive_omega2_level3():
    pts = [HierAddress.from_index(i, 2, 3) for i in range(8)]
    for a, b, c in itertools.product(pts, repeat=3):
        assert hier_distance(a, b) <= max(hier_distance(a, c), hier_distance(c, b))


@given(st.integers(2, 5), st.data())
@settings(max_examples=50, deadline=None)
def test_ultrametric_random(N, data):
    trunc = data.draw(st.integers(1, 5))
    digs = st.tuples(*[st.integers(0, N - 1)] * trunc)
    a, b, c = (HierAddress(data.draw(digs), N, trunc) for _ in range(3))
    assert hier_distance(a, b) <= max(hier_distance(a, c), hier_distance(c, b))


def test_group_law_roundtrip():
    a = addr([1, 2, 0], 3)
    b = addr([2, 2, 1], 3)
    assert (a + b) - b == a
    assert hier_distance(a - a, HierAddress.origin(3, 3)) == 0


def test_incompatible_addresses_rejected():
    with pytest.raises(ParameterError):
        hier_distance(addr([0, 0], 2), addr([0, 0, 0], 2))
    with pytest.raises(ParameterError):
        hier_distance(addr([0, 0], 2), addr([0, 0], 3))


def test_index_roundtrip():
    for i in range(27):
        assert HierAddress.from_index(i, 3, 3).index() == i


# ----------------------------------------------------------------------
# migration kernel
# ----------------------------------------------------------------------


def test_rate_zero_on_diagonal():
    spec = KernelSpec(N=2, c=(1.0,) * 5)
    a = HierAddress.origin(2, 5)
    assert migration_rate(a, a, spec) == 0.0


def test_rate_distance_one_geometric_series():
    # N=2, c_k = 1: rate at distance 1 is sum_{k>=1} 2 * 4^{-k} = 2/3
    spec = KernelSpec(N=2, c=(1.0,) * 30)
    a = HierAddress.origin(2, 30)
    b = HierAddress((1,) + (0,) * 29, 2, 30)
    assert migration_rate(a, b, spec) == pytest.approx(2.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("N,c", [
    (2, (1.0,)), (2, (1.0, 0.5, 0.25)), (3, (0.5, 2.0)), (4, (1.0, 2.0, 4.0)),
])
def test_migration_matrix_equals_pairwise_rates(N, c):
    spec = KernelSpec(N=N, c=c)
    C = N ** len(c)
    addrs = [HierAddress.from_index(i, N, len(c)) for i in range(C)]
    pairwise = np.array([[migration_rate(a, b, spec) for b in addrs]
                         for a in addrs])
    assert np.array_equal(hiergeo.migration_matrix(spec), pairwise)


def test_total_jump_rate_geometric_series():
    # N=2, c_k = 1: sum_k c_{k-1} / N^{k-1} -> 2
    spec = KernelSpec(N=2, c=(1.0,) * 40)
    assert total_jump_rate(spec) == pytest.approx(2.0, rel=1e-11)


def test_outflow_plus_self_landing_is_total():
    # kernel mass bookkeeping, exact at finite truncation
    for N, c in [(2, (1.0, 1.0, 1.0)), (3, (0.5, 2.0, 1.5, 0.25)), (4, (1.0, 2.0, 4.0))]:
        spec = KernelSpec(N=N, c=c)
        assert outflow_rate(spec) + self_landing_rate(spec) == pytest.approx(
            total_jump_rate(spec), rel=1e-13
        )


def test_growth_condition_enforced():
    with pytest.raises(ParameterError):
        KernelSpec(N=2, c=(1.0, 8.0))  # c_1 = 8 >= 2^2
    with pytest.raises(ParameterError):
        KernelSpec(N=2, c=(1.0, -1.0, 1.0))


def test_single_level_jump_uniform_on_block():
    spec = KernelSpec(N=3, c=(1.0,))
    a = HierAddress.origin(3, 1)
    rng = stream(7, "jump")
    hits = np.zeros(3)
    for _ in range(3000):
        hits[sample_migration_jump(a, spec, rng).index()] += 1
    # uniform over the 3 members of B_1(a), including a itself
    assert stats.chisquare(hits).pvalue > 0.01


def test_level_two_probability_one_third():
    spec = KernelSpec(N=2, c=(1.0, 1.0))
    rates = spec.level_rates()
    assert rates[1] / rates.sum() == pytest.approx(1.0 / 3.0)


def test_jump_distribution_matches_kernel():
    # chi-square GOF of sampled non-self destinations against the exact
    # normalised kernel, 1e5 samples, 1% level
    spec = KernelSpec(N=2, c=(1.0, 0.5, 0.25))
    a = HierAddress.origin(2, 3)
    rng = stream(11, "jump-gof")
    counts = np.zeros(8)
    n_self = 0
    for _ in range(100_000):
        b = sample_migration_jump(a, spec, rng)
        if b == a:
            n_self += 1
        else:
            counts[b.index()] += 1
    rates = np.array(
        [migration_rate(a, HierAddress.from_index(i, 2, 3), spec) for i in range(8)]
    )
    expected = rates / rates.sum() * counts.sum()
    mask = expected > 0
    assert stats.chisquare(counts[mask], expected[mask]).pvalue > 0.01
    # self-landing frequency should match its rate share too
    p_self = self_landing_rate(spec) / total_jump_rate(spec)
    se = np.sqrt(p_self * (1 - p_self) / 100_000)
    assert abs(n_self / 100_000 - p_self) < 3 * se


# ----------------------------------------------------------------------
# time-t kernel
# ----------------------------------------------------------------------


def test_expansion_r_normalised():
    spec = KernelSpec(N=4, c=tuple(2.0 ** k for k in range(20)))
    exp_ = build_expansion(spec)
    assert exp_.r.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(exp_.h > 0)
    assert np.all(np.diff(exp_.h) <= 1e-15)  # non-increasing for c_k = c^k


def test_K_table():
    spec = KernelSpec(N=3, c=(1.0, 1.0))
    exp_ = build_expansion(spec)
    assert exp_.K_jk(0, 0) == 0
    assert exp_.K_jk(2, 2) == -1
    assert exp_.K_jk(2, 1) == 2


def test_kernel_t0_is_delta():
    spec = KernelSpec(N=3, c=(1.0,) * 30)
    exp_ = build_expansion(spec)
    assert transition_kernel(0.0, 0, exp_) == pytest.approx(1.0, abs=1e-10)
    for k in range(1, 5):
        assert transition_kernel(0.0, k, exp_) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("t", [0.0, 0.3, 2.0, 10.0])
def test_kernel_is_probability_distribution(t):
    # Sum over the distance classes of a 22-level ball, with the expansion
    # stored twice as deep so every queried value carries its j-tail.
    N = 3
    spec = KernelSpec(N=N, c=(1.0,) * 45)
    exp_ = build_expansion(spec)
    total = transition_kernel(t, 0, exp_)
    assert total > -1e-10
    for k in range(1, 23):
        p = transition_kernel(t, k, exp_)
        assert p > -1e-10
        total += p * (N ** k - N ** (k - 1))
    assert total == pytest.approx(1.0, abs=1e-8)


def test_truncation_accuracy_error():
    spec = KernelSpec(N=2, c=(1.0, 1.0))
    exp_ = build_expansion(spec)
    with pytest.raises(AccuracyError):
        transition_kernel(1.0, 0, exp_, tol=1e-12)


def test_return_probability_power_law_slope():
    # pure exponential c_k = c^k with N=4, c=2: a_t(0,0) ~ t^{-(1+delta)},
    # delta = log c / log(N/c) = 1; fitted slope within 5% around t = 1e4
    N, c = 4, 2.0
    spec = KernelSpec(N=N, c=tuple(c ** k for k in range(60)))
    exp_ = build_expansion(spec)
    log_t = np.log(np.logspace(3, 5, 41))
    log_a = log_return_probability(log_t, exp_)
    slope = np.polyfit(log_t, log_a, 1)[0]
    delta = np.log(c) / np.log(N / c)
    assert slope == pytest.approx(-(1 + delta), rel=0.05)


def test_log_return_probability_guard():
    spec = KernelSpec(N=4, c=(1.0,) * 10)
    exp_ = build_expansion(spec)
    with pytest.raises(AccuracyError):
        log_return_probability(np.log([1e30]), exp_)


def test_log_return_matches_direct_kernel():
    spec = KernelSpec(N=3, c=(1.0,) * 30)
    exp_ = build_expansion(spec)
    for t in [0.5, 3.0, 40.0]:
        direct = transition_kernel(t, 0, exp_)
        logged = float(np.exp(log_return_probability(np.log([t]), exp_)[0]))
        assert logged == pytest.approx(direct, rel=1e-10)


def test_kernel_table_rows():
    spec = KernelSpec(N=2, c=(1.0, 0.5))
    exp_ = build_expansion(spec)
    rows = hiergeo.kernel_table_rows(spec, exp_)
    assert rows[0][0] == 0 and rows[0][1] == 1.0
    assert len(rows) == 2


def test_degree_estimate_matches_closed_form():
    # pure exponential c_k = c^k: degree = log c / log(N/c)
    for N, c in [(4, 2.0), (8, 0.5), (8, 1.0)]:
        spec = KernelSpec(N=N, c=tuple(c ** k for k in range(40)))
        est = hiergeo.degree_estimate(build_expansion(spec))
        expect = np.log(c) / np.log(N / c)
        assert est == pytest.approx(expect, abs=0.02)


def test_degree_estimate_polynomial_critical():
    # c_k ~ k^-phi: critically recurrent, degree 0
    spec = KernelSpec(N=4, c=tuple(1.0 / max(k, 1) for k in range(60)))
    est = hiergeo.degree_estimate(build_expansion(spec))
    assert abs(est) < 0.03
