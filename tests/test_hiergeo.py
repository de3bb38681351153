"""Geometry, migration kernel and time-t kernel checks.

The hierarchical addresses, pair rates and jump sampler below are the
pairwise reference that ``hiergeo.migration_matrix`` is pinned against.
"""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from hierfw import forward, hiergeo
from hierfw.hiergeo import (
    AccuracyError,
    KernelExpansion,
    KernelSpec,
    ParameterError,
    build_expansion,
    log_return_probability,
    total_jump_rate,
)
from hierfw.rng import stream

from conftest import cli_csv


# ----------------------------------------------------------------------
# pairwise reference
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class HierAddress:
    """Point of the hierarchical group, truncated at ``truncation`` levels.

    ``digits[i]`` is the level-i coordinate; digits beyond the stored tuple
    are zero.  ``truncation`` is the number of stored levels, so the ambient
    block holds N**truncation addresses.
    """

    digits: tuple
    group_order: int
    truncation: int

    def __post_init__(self):
        if self.group_order < 2:
            raise ParameterError("group order must be >= 2")
        if len(self.digits) != self.truncation:
            raise ParameterError("digit count must equal truncation")
        if any(d < 0 or d >= self.group_order for d in self.digits):
            raise ParameterError("digits must lie in [0, N)")

    @classmethod
    def origin(cls, group_order: int, truncation: int) -> "HierAddress":
        return cls((0,) * truncation, group_order, truncation)

    @classmethod
    def from_index(cls, index: int, group_order: int, truncation: int) -> "HierAddress":
        digits = []
        for _ in range(truncation):
            index, d = divmod(index, group_order)
            digits.append(d)
        return cls(tuple(digits), group_order, truncation)

    def index(self) -> int:
        """Little-endian integer encoding; level-l blocks are contiguous."""
        idx = 0
        for d in reversed(self.digits):
            idx = idx * self.group_order + d
        return idx

    def __add__(self, other: "HierAddress") -> "HierAddress":
        _check_compatible(self, other)
        N = self.group_order
        return HierAddress(
            tuple((a + b) % N for a, b in zip(self.digits, other.digits)),
            N, self.truncation,
        )

    def __sub__(self, other: "HierAddress") -> "HierAddress":
        _check_compatible(self, other)
        N = self.group_order
        return HierAddress(
            tuple((a - b) % N for a, b in zip(self.digits, other.digits)),
            N, self.truncation,
        )


def _check_compatible(a: HierAddress, b: HierAddress):
    if a.group_order != b.group_order or a.truncation != b.truncation:
        raise ParameterError("addresses live on different truncated groups")


def hier_distance(a: HierAddress, b: HierAddress) -> int:
    """Lowest level k such that the digits of a - b vanish from k on."""
    _check_compatible(a, b)
    dist = 0
    for lvl in range(a.truncation):
        if a.digits[lvl] != b.digits[lvl]:
            dist = lvl + 1
    return dist


def _distance_rate(d: int, spec: KernelSpec) -> float:
    """sum_{k >= d} c_{k-1} / N^{2k-1}, summed in order of k."""
    return sum(spec.c[k - 1] / float(spec.N) ** (2 * k - 1)
               for k in range(max(d, 1), spec.truncation + 1))


def migration_rate(a: HierAddress, b: HierAddress, spec: KernelSpec) -> float:
    """Pair migration rate a(a, b); zero on the diagonal."""
    _check_compatible(a, b)
    if a.truncation != spec.truncation or a.group_order != spec.N:
        raise ParameterError("addresses incompatible with kernel spec")
    d = hier_distance(a, b)
    if d == 0:
        return 0.0
    return _distance_rate(d, spec)


def self_landing_rate(spec: KernelSpec) -> float:
    """Rate of jumps that land back on the starting colony."""
    return _distance_rate(1, spec) if spec.truncation else 0.0


def outflow_rate(spec: KernelSpec) -> float:
    """Off-diagonal kernel mass sum_{b != a} a(a, b) (finite truncation)."""
    N = spec.N
    total = 0.0
    for d in range(1, spec.truncation + 1):
        n_sites = N ** d - N ** (d - 1)
        total += n_sites * _distance_rate(d, spec)
    return total


def sample_migration_jump(a: HierAddress, spec: KernelSpec, rng) -> HierAddress:
    """One migration jump from ``a``: level k with probability proportional
    to c_{k-1}/N^{k-1}, then a uniform colony in the k-block around ``a``.

    The draw may land on ``a`` itself (a level-k jump does so with
    probability N^{-k}); such jumps are no-ops of the walk.
    """
    rates = spec.level_rates()
    k = int(rng.choice(spec.truncation, p=rates / rates.sum())) + 1
    digits = list(a.digits)
    for lvl in range(k):
        digits[lvl] = int(rng.integers(spec.N))
    return HierAddress(tuple(digits), spec.N, spec.truncation)


def degree_estimate(exp_: KernelExpansion, window: int = 10,
                    edge: int = 12) -> float:
    """Numeric degree of the walk from the eigen-rate decay.

    The moment integral of a_t(0,0) against t^zeta reduces to
    sum_j N^{-j} h_j^{-(1+zeta)} Gamma(1+zeta); its convergence boundary is
    delta = log N / log(lim h_j / h_{j+1}) - 1, estimated from ``window``
    levels ending ``edge`` levels before the truncation (the last rates lack
    their tail sums).  Positive: transient; negative: recurrent; near zero:
    critically recurrent.
    """
    if exp_.levels < window + edge + 1:
        raise ParameterError("expansion too shallow for a degree estimate")
    hi = exp_.levels - edge
    ratios = exp_.log_h[hi - window - 1:hi - 1] - exp_.log_h[hi - window:hi]
    return float(np.log(exp_.N) / np.mean(ratios) - 1.0)


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


@pytest.mark.parametrize("N,L", [(3, 6), (4, 5)])
@pytest.mark.parametrize("c", [2.0, 0.5])
def test_return_probability_matches_migration_generator(N, L, c):
    # The expansion's time t counts expected jumps, so it is the rate-matrix
    # walk at time t / q, q the off-diagonal exit rate; c scales every rate,
    # so q must absorb it.  The expansion drops the uniform mass N^-L.
    spec = KernelSpec(N=N, c=(c,) * L)
    exp_ = build_expansion(spec)
    Q = hiergeo.migration_matrix(spec)
    q = Q[0].sum()
    np.fill_diagonal(Q, -Q.sum(axis=1))
    start = np.zeros(len(Q))
    start[0] = 1.0
    for t in (0.1, 1.0, 10.0):
        expansion = np.exp(log_return_probability(np.log([t]), exp_)[0])
        generator = forward._generator_exp(Q, t / q, start)[0] - float(N) ** -L
        assert expansion == pytest.approx(generator, rel=1e-12, abs=0.0)
    with pytest.raises(AccuracyError):
        log_return_probability(np.log([100.0]), exp_)


def test_kernel_table_rows(tmp_path):
    # classify's kernel.csv: (level, c_k, r_k, h_k) per level of the kernel
    rows = cli_csv(tmp_path, "classify", """\
model:
  N: 2
  levels: 1
  c: [1.0, 0.5]
  e: [1.0, 1.0]
  K: [1.0, 1.0]
""", "kernel.csv")
    exp_ = build_expansion(KernelSpec(N=2, c=(1.0, 0.5)))
    assert rows == [["level", "c_k", "r_k", "h_k"]] + [
        [str(k), repr(c), repr(float(exp_.r[k])), repr(float(exp_.h[k]))]
        for k, c in enumerate((1.0, 0.5))]


def test_degree_estimate_matches_closed_form():
    # pure exponential c_k = c^k: degree = log c / log(N/c)
    for N, c in [(4, 2.0), (8, 0.5), (8, 1.0)]:
        spec = KernelSpec(N=N, c=tuple(c ** k for k in range(40)))
        est = degree_estimate(build_expansion(spec))
        expect = np.log(c) / np.log(N / c)
        assert est == pytest.approx(expect, abs=0.02)


def test_degree_estimate_polynomial_critical():
    # c_k ~ k^-phi: critically recurrent, degree 0
    spec = KernelSpec(N=4, c=tuple(1.0 / max(k, 1) for k in range(60)))
    est = degree_estimate(build_expansion(spec))
    assert abs(est) < 0.03
