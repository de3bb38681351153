"""Dual process: rates, Gillespie trajectories, duality, renewal tails."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import expm

from hierfw import dual as D
from hierfw import forward as F
from hierfw import hiergeo
from hierfw import params as P
from hierfw.diffusion import fisher_wright, grid_from_callable
from hierfw.rng import CHUNK, replica_chunks, stream

from conftest import renewal_sample, tail_fit


def two_colony(d=1.0):
    return P.ModelParams(N=2, levels=0, c=(1.0,), e=(1.0,), K=(1.0,),
                         g=fisher_wright(d),
                         init=P.InitSpec.constant(0.5))


def z_state():
    return F.SystemState(np.array([0.9, 0.1]), np.array([[0.5, 0.5]]))


# ----------------------------------------------------------------------
# rates
# ----------------------------------------------------------------------


def _state_index(states, counts):
    return next(i for i, s in enumerate(states) if np.array_equal(s, counts))


@pytest.mark.parametrize("N,levels", [(2, 0), (2, 1), (3, 1)])
def test_one_lineage_count_generator_is_lineage_generator(N, levels):
    mp = P.ModelParams(N=N, levels=levels, c=(1.0, 0.5)[:levels + 1],
                       e=(0.7, 0.3)[:levels + 1], K=(1.3, 2.0)[:levels + 1],
                       g=fisher_wright(2.0))
    Q = D.dual_generator(mp, D.enumerate_count_states(mp, 1))
    assert np.array_equal(Q, F.lineage_generator(mp))


def test_two_actives_coalesce_at_rate_d():
    mp = two_colony()
    states = D.enumerate_count_states(mp, 2)
    Q = D.dual_generator(mp, states)
    pair = D.DualConfig.actives(mp, {0: 2}).counts
    single = D.DualConfig.actives(mp, {0: 1}).counts
    rate = Q[_state_index(states, pair), _state_index(states, single)]
    assert rate == pytest.approx(1.0)


def test_single_dormant_only_wakes():
    mp = two_colony()
    counts = np.zeros((2, 2), dtype=int)
    counts[1, 0] = 1  # one 0-dormant lineage at colony 0
    states = D.enumerate_count_states(mp, 1)
    row = D.dual_generator(mp, states)[_state_index(states, counts)]
    assert np.count_nonzero(row > 0) == 1
    assert row.max() == pytest.approx(mp.exchange_rates()[0])


def test_empty_config_empty_table():
    mp = two_colony()
    cfg = D.DualConfig(np.zeros((2, 2), dtype=int))
    log, term = D.simulate_dual(cfg, mp, 5.0, stream(16, "empty"))
    assert log == []
    assert term.total == 0


def test_rate_table_matches_gillespie_clock():
    # the generator's exit rate equals the aggregated clock: actives, both
    # colours and an active pair at one colony
    mp = P.ModelParams(N=2, levels=1, c=(1.0, 0.5), e=(1.0, 0.5), K=(1.0, 2.0),
                       g=fisher_wright(2.0))
    counts = np.zeros((3, 4), dtype=int)
    counts[0] = [2, 0, 0, 0]
    counts[1] = [0, 1, 0, 0]
    counts[2] = [0, 0, 0, 1]
    states = D.enumerate_count_states(mp, 4)
    i = _state_index(states, counts)
    exit_rate = -D.dual_generator(mp, states)[i, i]
    ctx = D._DualContext(mp)
    m_act = counts[0]
    pairs = m_act * (m_act - 1) // 2
    clock = (m_act.sum() * (ctx.mig_rate + ctx.sleep_rate)
             + 2.0 * pairs.sum()
             + float(np.sum(counts[1:].sum(axis=1) * ctx.exch)))
    assert exit_rate == pytest.approx(clock, rel=1e-12)


def test_migration_target_matches_kernel():
    # chi-square GOF of the Gillespie dual's jump destinations from a
    # non-origin colony against the normalised migration-matrix row,
    # 1e5 samples, 1% level
    mp = P.ModelParams(N=2, levels=2, c=(1.0, 0.5, 0.25), e=(1.0,) * 3,
                       K=(1.0,) * 3, g=fisher_wright(1.0))
    ctx = D._DualContext(mp)
    rng = stream(17, "target-gof")
    counts = np.zeros(mp.n_colonies)
    for _ in range(100_000):
        counts[ctx.sample_target(5, rng)] += 1
    assert counts[5] == 0
    rates = hiergeo.migration_matrix(mp.kernel_spec())[5]
    mask = rates > 0
    expected = rates[mask] / rates.sum() * counts.sum()
    assert stats.chisquare(counts[mask], expected).pvalue > 0.01


# ----------------------------------------------------------------------
# Gillespie
# ----------------------------------------------------------------------


def test_total_count_never_increases():
    mp = two_colony()
    cfg = D.DualConfig.actives(mp, {0: 3, 1: 2})
    rng = stream(1, "count-monotone")
    log, term = D.simulate_dual(cfg, mp, 5.0, rng)
    running = cfg.counts.sum()
    for _, kind, _, _ in log:
        if kind == "coalesce":
            running -= 1
    assert term.total == running
    assert term.total <= cfg.total


def test_no_coalescence_at_d_zero():
    mp = two_colony(d=0.0)
    cfg = D.DualConfig.actives(mp, {0: 2})
    rng = stream(2, "no-coal")
    for _ in range(20):
        _, term = D.simulate_dual(cfg, mp, 3.0, rng)
        assert term.total == 2


def test_single_dormant_first_event_exponential():
    # KS test of first-event times against exponential(e_0 / N^0), 1% level
    mp = two_colony()
    counts = np.zeros((2, 2), dtype=int)
    counts[1, 0] = 1
    cfg = D.DualConfig(counts)
    rng = stream(3, "ks")
    waits = []
    for _ in range(3000):
        log, _ = D.simulate_dual(cfg, mp, 50.0, rng)
        waits.append(log[0][0])
    assert stats.kstest(waits, "expon", args=(0, 1.0)).pvalue > 0.01


def test_event_log_fields():
    mp = two_colony()
    cfg = D.DualConfig.actives(mp, {0: 2})
    log, _ = D.simulate_dual(cfg, mp, 2.0, stream(4, "log"))
    for t, kind, site, detail in log:
        assert kind in ("migrate", "coalesce", "sleep", "wake")
        assert 0 <= site < 2
        assert 0.0 < t <= 2.0


@pytest.mark.slow
def test_single_lineage_marginal_matches_semigroup():
    # empirical law of one lineage vs expm of the lineage generator, TV < 0.02
    mp = two_colony()
    cfg = D.DualConfig.actives(mp, {0: 1})
    p_exact = expm(F.lineage_generator(mp) * 1.5)[0]
    rng = stream(5, "marginal")
    n = 100_000
    counts = np.zeros(4)
    for _ in range(n):
        _, term = D.simulate_dual(cfg, mp, 1.5, rng)
        flat = np.concatenate([term.counts[0], term.counts[1]])
        counts[int(np.argmax(flat))] += 1
    tv = 0.5 * np.abs(counts / n - p_exact).sum()
    assert tv < 0.02


@pytest.mark.parametrize("placement", [{0: 2}, {0: 2, 1: 1}])
def test_gillespie_law_matches_count_chain(placement):
    # law of the terminal count state, with coalescence and several moving
    # lineages, vs (exp(Qt) 1_s)[start] on the count chain, within 4 SE
    mp = two_colony()
    cfg = D.DualConfig.actives(mp, placement)
    states = D.enumerate_count_states(mp, cfg.total)
    Q = D.dual_generator(mp, states)
    start = _state_index(states, cfg.counts)
    t, n = 0.7, 20_000
    rng = stream(11, "count-law", cfg.total)
    terminal = np.array([D.simulate_dual(cfg, mp, t, rng)[1].counts
                         for _ in range(n)])
    hits = (terminal[:, None] == states).all(axis=(2, 3))
    assert np.all(hits.sum(axis=1) == 1)
    p = np.array([F._generator_exp(Q, t, unit)[start]
                  for unit in np.identity(len(states))])
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(hits.mean(axis=0) - p) <= 4.0 * np.sqrt(p * (1 - p) / n))


@pytest.mark.parametrize("t", [0.0, 0.1, 1.0, 2.3, 50.0])
def test_generator_exp_matches_expm(t):
    # the oracles' uniformised action exp(Q t) v against scipy's Pade expm,
    # column by column, on two lineage generators and criterion 6's count
    # chain
    mp = two_colony()
    wide = P.ModelParams(N=3, levels=1, c=(1.0, 0.5), e=(0.7, 0.3),
                         K=(1.3, 2.0), g=fisher_wright(2.0))
    count_chain, _, _ = D._count_chain(mp, z_state(),
                                       D.DualConfig.actives(mp, {0: 2}))
    for Q in (F.lineage_generator(mp), F.lineage_generator(wide), count_chain):
        n = len(Q)
        E = np.column_stack([F._generator_exp(Q, t, unit)
                             for unit in np.identity(n)])
        assert np.abs(E - expm(Q * t)).max() <= 1e-13
        assert E.min() >= 0.0
        assert np.abs(F._generator_exp(Q, t, np.ones(n)) - 1.0).max() <= 1e-12
        if t == 0.0:
            assert np.array_equal(E, np.identity(n))


def test_generator_exp_refuses_negative_time():
    Q = F.lineage_generator(two_colony())
    with pytest.raises(ValueError, match="non-negative"):
        F._generator_exp(Q, -1.0, np.ones(len(Q)))


def _large_chain_model():
    # two actives on 16 colonies with two colours: 48 sites, 1,224 count
    # states, exit rate up to 512
    mp = P.ModelParams(N=4, levels=1, c=(0.05, 0.05), e=(256.0, 256.0),
                       K=(0.01, 0.01), g=fisher_wright(0.01))
    z = F.SystemState(np.linspace(0.05, 0.95, 16),
                      np.linspace(0.9, 0.1, 32).reshape(2, 16))
    return mp, z


def test_generator_exp_large_count_chain():
    # expm itself is ~1e-13 off on this chain
    mp, z = _large_chain_model()
    Q, _, H = D._count_chain(mp, z, D.DualConfig.actives(mp, {0: 2}))
    assert len(Q) == 1224
    E = expm(Q)
    for v in (H, np.ones(len(Q))):
        assert np.abs(F._generator_exp(Q, 1.0, v) - E @ v).max() <= 1e-12


def test_generator_exp_holds_no_copy_of_q():
    # each uniformisation term is v + Q v / lam, so the sum holds vectors
    # only; a dense P = I + Q / lam alone would be 1.0 Q.nbytes
    mp, z = _large_chain_model()
    Q, _, H = D._count_chain(mp, z, D.DualConfig.actives(mp, {0: 2}))
    tracemalloc.start()
    try:
        F._generator_exp(Q, 1.0, H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * Q.nbytes


# ----------------------------------------------------------------------
# duality
# ----------------------------------------------------------------------


def test_duality_function_zero_power_convention():
    z = F.SystemState(np.array([0.0, 0.5]), np.array([[0.0, 1.0]]))
    counts = np.zeros((2, 2), dtype=int)
    assert D.duality_function(z, counts) == 1.0
    counts[0, 1] = 2
    assert D.duality_function(z, counts) == pytest.approx(0.25)


def test_duality_t0_identity():
    mp = two_colony()
    z = z_state()
    cfg = D.DualConfig.actives(mp, {0: 2})
    h0 = D.duality_function(z, cfg.counts)
    assert D.exact_dual_moment(*D._count_chain(mp, z, cfg), 0.0) == \
        pytest.approx(h0, rel=1e-12)
    rep = D.duality_estimate(mp, z, cfg, 1e-9, 2000, seed=6, dt=1e-10)
    assert rep.lhs == pytest.approx(h0, abs=1e-6)
    assert rep.rhs == pytest.approx(h0, abs=1e-6)


def test_duality_constant_state_single_lineage():
    # z identically theta: E[x_xi(t)] = theta because the dual kernel is
    # stochastic, so both sides equal theta at every t
    mp = two_colony()
    theta = 0.37
    z = F.SystemState(np.full(2, theta), np.full((1, 2), theta))
    cfg = D.DualConfig.actives(mp, {1: 1})
    assert D.exact_dual_moment(*D._count_chain(mp, z, cfg), 2.3) == \
        pytest.approx(theta, rel=1e-12)


def test_duality_empty_configuration_refused(monkeypatch):
    def forward_ensemble(*args, **kwargs):
        raise AssertionError("forward ensemble ran for an empty dual")

    monkeypatch.setattr(D, "ensemble_reduce", forward_ensemble)
    mp = two_colony()
    with pytest.raises(ValueError, match="at least one lineage"):
        D.duality_estimate(mp, z_state(), D.DualConfig(np.zeros((2, 2), int)),
                           0.5, 100, seed=1)


def test_duality_estimate_builds_one_count_chain(monkeypatch):
    # the dual Monte Carlo and the exact dual moment share one chain
    calls = {"enumerate_count_states": 0, "dual_generator": 0}

    def counted(name):
        fn = getattr(D, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(D, name, counted(name))
    mp = two_colony()
    D.duality_estimate(mp, z_state(), D.DualConfig.actives(mp, {0: 2}), 0.5,
                       200, seed=3)
    assert calls == {"enumerate_count_states": 1, "dual_generator": 1}


def test_duality_estimate_memory_peak_on_large_count_chain():
    # on the 1,224-state chain, Q and the sampler's compact jump table peak
    # at ~1.2 Q.nbytes; each further dense copy of Q alive at once would add
    # 1.0
    mp, z = _large_chain_model()
    tracemalloc.start()
    try:
        D.duality_estimate(mp, z, D.DualConfig.actives(mp, {0: 2}), 1.0, 2000,
                           seed=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.0 * 1224 ** 2 * 8


def test_sample_dual_h_checks_arguments():
    mp = two_colony()
    chain = D._count_chain(mp, z_state(), D.DualConfig.actives(mp, {0: 2}))
    with pytest.raises(ValueError, match="n_replicas must be at least 1"):
        D._sample_dual_H(*chain, 1.0, 0, seed=0)
    with pytest.raises(ValueError, match="t must be non-negative"):
        D._sample_dual_H(*chain, -0.5, 100, seed=0)


def test_duality_non_fw_refused():
    g = grid_from_callable(lambda x: (x * (1 - x)) ** 2)
    mp = P.ModelParams(N=2, levels=0, c=(1.0,), e=(1.0,), K=(1.0,), g=g)
    with pytest.raises(D.DualityError):
        D.duality_estimate(mp, z_state(), D.DualConfig.actives(mp, {0: 2}),
                           1.0, 100, seed=0)


@pytest.mark.slow
def test_duality_two_colony_full():
    mp = two_colony()
    z = z_state()
    cfg = D.DualConfig.actives(mp, {0: 2})
    rep = D.duality_estimate(mp, z, cfg, 1.0, 50_000, seed=9, dt=0.002)
    assert rep.passes()
    # the dual Monte Carlo is an exact-law sampler: it must straddle the
    # generator-exponential value within its own noise
    assert abs(rep.rhs - rep.exact_rhs) < 4 * rep.rhs_se


def test_next_state_pick_clamped_to_last_positive_column():
    # state 0 jumps at rates 0.1, 0.3, 0.2 to states 1, 3, 4, never to 2;
    # its jump probabilities sum to 1 - 2^-52, below u, the largest double
    # rng.random() gives
    u = np.nextafter(1.0, 0.0)
    Q = np.zeros((5, 5))
    Q[0, [1, 3, 4]] = [0.1, 0.3, 0.2]
    Q[1, 0] = 1.0
    np.fill_diagonal(Q, -Q.sum(axis=1))
    assert np.cumsum(Q[0, [1, 3, 4]] / -Q[0, 0])[-1] < u   # unclamped: past
    cum, to = D._jump_table(Q)

    def pick(state, u):
        return to[state, (cum[state] < u).sum()]

    assert to[0].tolist() == [1, 3, 4]
    assert pick(0, u) == 4
    # where no clamp is needed the pick is the plain inverse CDF
    assert [pick(0, v) for v in (0.1, 0.5, 0.9)] == [1, 3, 4]
    # a row's last out-edge and its padding hold +inf
    assert np.isinf(cum[1]).all() and pick(1, u) == 0
    assert np.isinf(cum[2]).all()


def test_dual_generator_rows_sum_zero():
    mp = two_colony()
    states = D.enumerate_count_states(mp, 2)
    Q = D.dual_generator(mp, states)
    assert np.allclose(Q.sum(axis=1), 0.0, atol=1e-12)
    off = Q - np.diag(np.diag(Q))
    assert np.all(off >= 0)


# the count chain of hierfw 0.5.3 before its array form: a list of states
# indexed by a dict of byte strings, one loop over states, H state by state.
# Kept as the oracle for the array form, which must match it bit for bit.


def _reference_states(mp, n_max):
    n_sites = mp.n_colonies * (mp.levels + 2)
    shape = (mp.levels + 2, mp.n_colonies)
    return [np.bincount(combo, minlength=n_sites).reshape(shape)
            for n in range(1, n_max + 1)
            for combo in itertools.combinations_with_replacement(
                range(n_sites), n)]


def _reference_generator(params, states):
    d = params.g.d
    q = F.lineage_generator(params)
    np.fill_diagonal(q, 0.0)
    targets = [np.flatnonzero(row) for row in q]
    C = params.n_colonies
    index = {s.tobytes(): i for i, s in enumerate(states)}
    Q = np.zeros((len(states), len(states)))

    def add(i, new, rate):
        j = index.get(new.tobytes())
        if j is not None:
            Q[i, j] += rate

    for i, s in enumerate(states):
        flat = s.reshape(-1)
        for a in np.flatnonzero(flat):
            n = flat[a]
            new = flat.copy()
            new[a] -= 1
            if a < C and n >= 2:
                add(i, new, d * n * (n - 1) / 2.0)
            for b in targets[a]:
                new[b] += 1
                add(i, new, n * q[a, b])
                new[b] -= 1
    np.fill_diagonal(Q, Q.diagonal() - Q.sum(axis=1))
    return Q


def _reference_H(state, counts):
    return float(np.prod(state.x ** counts[0]) *
                 np.prod(state.y ** counts[1:]))


def _reference_forward_H(x, y, counts):
    vals = np.prod(x ** counts[0][None, :], axis=1)
    vals *= np.prod(y ** counts[1:][None, :, :], axis=(1, 2))
    return vals


_WIDE_N3 = P.ModelParams(N=3, levels=1, c=(1.0, 0.5), e=(0.7, 0.3),
                         K=(1.3, 2.0), g=fisher_wright(2.0))
_RATE_TABLE = P.ModelParams(N=2, levels=1, c=(1.0, 0.5), e=(1.0, 0.5),
                            K=(1.0, 2.0), g=fisher_wright(2.0))
_DEEP = P.ModelParams(N=2, levels=3, c=(1.0, 0.5, 0.25, 0.125),
                      e=(1.0, 0.5, 0.3, 0.2), K=(1.0, 2.0, 0.5, 1.5),
                      g=fisher_wright(1.5))


@pytest.mark.parametrize("mp,n,size", [
    (two_colony(), 1, 4), (two_colony(), 2, 14), (two_colony(), 3, 34),
    (two_colony(), 4, 69), (two_colony(d=0.0), 2, 14),
    (_WIDE_N3, 1, 27), (_WIDE_N3, 2, 405), (_WIDE_N3, 3, 4059),
    (_RATE_TABLE, 3, 454), (_large_chain_model()[0], 2, 1224),
    (_DEEP, 2, 3320),
])
def test_count_chain_equals_reference_bitwise(mp, n, size):
    # states in combinations-with-replacement order, and Q, start and H bit
    # for bit those of the loop-and-dict chain, from a random start of n
    # lineages and a random z
    reference = _reference_states(mp, n)
    states = D.enumerate_count_states(mp, n)
    assert states.shape == (size, mp.levels + 2, mp.n_colonies)
    assert np.array_equal(states, np.array(reference))
    rng = stream(n, "chain-oracle", size)
    z = F.SystemState(rng.random(mp.n_colonies),
                      rng.random((mp.levels + 1, mp.n_colonies)))
    top = [s for s in reference if s.sum() == n]
    cfg0 = D.DualConfig(top[int(rng.integers(len(top)))])
    Q, start, H = D._count_chain(mp, z, cfg0)
    index = {s.tobytes(): i for i, s in enumerate(reference)}
    assert start == index[cfg0.counts.tobytes()]
    assert np.array_equal(Q, _reference_generator(mp, reference))
    assert np.array_equal(H, [_reference_H(z, s) for s in reference])


def test_generator_on_a_shuffled_subset_equals_reference_bitwise():
    # jumps to states outside the set (here every coalescence down to two
    # lineages) are dropped, whatever order the states come in
    mp = _RATE_TABLE
    states = D.enumerate_count_states(mp, 3)
    subset = states[stream(3, "subset").permutation(len(states))]
    subset = subset[subset.sum(axis=(1, 2)) != 2]
    assert np.array_equal(D.dual_generator(mp, subset),
                          _reference_generator(mp, list(subset)))


def test_duality_function_forward_block_equals_reference_bitwise():
    # the one H on a (5120, 16) block of forward replicas
    mp, _ = _large_chain_model()
    rng = stream(5, "forward-H")
    x = rng.random((5120, 16))
    y = rng.random((5120, 2, 16))
    for counts in D.enumerate_count_states(mp, 2)[::97]:
        assert np.array_equal(D.duality_function(F.SystemState(x, y), counts),
                              _reference_forward_H(x, y, counts))


# the dual Monte Carlo of hierfw 0.5.5 before its compact jump table: a
# dense S x S table of cumulative jump probabilities, and a pick over whole
# rows clamped to each row's last positive column.  Kept as the reference
# for the compact table, which must give the same (mean, se) bit for bit.


def _reference_sample_dual_H(Q, start, H, t, n_replicas, seed):
    out_rate = -Q.diagonal()
    cumP = Q.copy()
    np.fill_diagonal(cumP, 0.0)
    cumP /= np.where(out_rate > 0, out_rate, 1.0)[:, None]
    last = len(cumP) - 1 - np.argmax(cumP[:, ::-1] > 0, axis=1)
    np.cumsum(cumP, axis=1, out=cumP)
    total = total_sq = 0.0
    for chunk, width in replica_chunks(n_replicas):
        rng = stream(seed, "dual-H", chunk)
        s_idx = np.full(CHUNK, start)
        t_now = np.zeros(CHUNK)
        alive = np.ones(CHUNK, dtype=bool)
        while np.any(alive):
            rates = out_rate[s_idx]
            movable = alive & (rates > 0)
            if not np.any(movable):
                break
            dt_draw = rng.exponential(1.0, size=CHUNK)
            u = rng.random(CHUNK)
            t_next = t_now + np.where(
                movable, dt_draw / np.maximum(rates, 1e-300), np.inf)
            jump = movable & (t_next < t)
            src = s_idx[jump]
            s_idx[jump] = np.minimum(
                (cumP[src] < u[jump, None]).sum(axis=1), last[src])
            t_now[jump] = t_next[jump]
            alive = jump
        vals = H[s_idx[:width]]
        total += vals.sum()
        total_sq += (vals ** 2).sum()
    mean, se = F._mean_se(total, total_sq, n_replicas)
    return float(mean), float(se)


def _three_chains():
    yield two_colony(), z_state()
    yield _large_chain_model()
    rng = stream(3, "deep-z")
    yield _DEEP, F.SystemState(rng.random(16), rng.random((4, 16)))


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_sample_dual_h_equals_dense_reference(t):
    for (mp, z), size in zip(_three_chains(), (14, 1224, 3320)):
        Q, start, H = D._count_chain(mp, z, D.DualConfig.actives(mp, {0: 2}))
        assert len(Q) == size
        assert D._sample_dual_H(Q, start, H, t, 4000, 11) == \
            _reference_sample_dual_H(Q, start, H, t, 4000, 11)


def test_sample_dual_h_memory_peak():
    # the dense reference peaks at ~1.9 Q.nbytes on this chain: its
    # cumulative table and its per-step row gathers; the compact table
    # holds one row per state of the largest out-degree
    mp, z = _large_chain_model()
    chain = D._count_chain(mp, z, D.DualConfig.actives(mp, {0: 2}))
    tracemalloc.start()
    try:
        D._sample_dual_H(*chain, 1.0, 4000, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * chain[0].nbytes


def test_count_state_enumeration_size():
    # 2 colonies x (A, D_0): 4 sites; totals 1 and 2 -> 4 + 10 states
    states = D.enumerate_count_states(two_colony(), 2)
    assert len(states) == 14


def _wide_model():
    # 256 colonies x (A, D_0..D_3): 1,280 sites, 821,120 states of <= 2
    return P.ModelParams(N=4, levels=3, c=(1.0,) * 4, e=(1.0,) * 4,
                         K=(1.0,) * 4, g=fisher_wright(1.0))


def test_count_state_guard_builds_no_state():
    mp = _wide_model()
    tracemalloc.start()
    try:
        with pytest.raises(F.SizeError):
            D.enumerate_count_states(mp, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_duality_estimate_sizes_dual_before_forward(monkeypatch):
    def forward_ensemble(*args, **kwargs):
        raise AssertionError("forward ensemble ran before the size check")

    monkeypatch.setattr(D, "ensemble_reduce", forward_ensemble)
    mp = _wide_model()
    z = F.SystemState(np.full(256, 0.5), np.full((4, 256), 0.5))
    with pytest.raises(F.SizeError):
        D.duality_estimate(mp, z, D.DualConfig.actives(mp, {0: 2}), 1.0,
                           100, seed=0)


# ----------------------------------------------------------------------
# renewal and tail fit
# ----------------------------------------------------------------------


def test_renewal_sigma_exponential_chi():
    mp = two_colony()
    der = P.derive(mp)
    rs = renewal_sample(mp, 50_000, stream(11, "renewal"))
    assert stats.kstest(rs.sigma, "expon", args=(0, 1.0 / der.chi)).pvalue > 0.01


def test_tail_fit_rejects_single_exponential():
    mp = P.ModelParams(N=4, levels=0, c=(1.0,), e=(1.0,), K=(1.0,),
                       g=fisher_wright(1.0))
    rs = renewal_sample(mp, 200_000, stream(12, "tail-exp"))
    assert not tail_fit(rs).power_law_plausible


def test_tail_fit_needs_enough_samples():
    mp = two_colony()
    rs = renewal_sample(mp, 1000, stream(13, "tail-small"))
    with pytest.raises(ValueError):
        tail_fit(rs)


@pytest.mark.slow
def test_tail_exponent_exponential_family():
    fam = P.ExponentialFamily(K=2.0, e=1.0, c=0.25)
    mp = P.ModelParams.from_family(N=8, levels=15, family=fam, g=fisher_wright(1.0))
    rep = P.classify(mp)
    rs = renewal_sample(mp, 1_000_000, stream(14, "tail-pow"))
    fit = tail_fit(rs)
    assert fit.power_law_plausible
    assert abs(fit.gamma - rep.gamma) < 0.05


@pytest.mark.slow
def test_tau_mean_matches_rho_over_chi():
    fam = P.ExponentialFamily(K=0.5, e=2.0, c=0.5)
    mp = P.ModelParams.from_family(N=4, levels=12, family=fam, g=fisher_wright(1.0))
    der = P.derive(mp)
    rs = renewal_sample(mp, 1_000_000, stream(15, "tau-mean"))
    se = rs.tau.std(ddof=1) / math.sqrt(len(rs.tau))
    assert abs(rs.tau.mean() - der.rho / der.chi) < 3 * se
