"""Forward simulator: fixed points, oracles, conservation, determinism."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hierfw import forward as F
from hierfw import params as P
from hierfw.diffusion import fisher_wright
from hierfw.rng import CHUNK, replica_chunks, stream

from conftest import cli_csv, estimator_arrays

FW = fisher_wright(1.0)


def small_params(N=2, levels=0, c=(1.0,), e=(1.0,), K=(1.0,), g=FW):
    return P.ModelParams(N=N, levels=levels, c=c, e=e, K=K, g=g,
                         init=P.InitSpec.constant(0.5))


def two_colony():
    return small_params()


# ----------------------------------------------------------------------
# step
# ----------------------------------------------------------------------


def step(state, dt, params, rng):
    """One step of the full system for a single replica."""
    ctx = F._StepContext(params, dt)
    x, y = state.x[None, :].copy(), state.y[None, :, :].copy()
    F._advance(x, y, 1, ctx, rng)
    return F.SystemState(x[0], y[0])


def test_constant_state_is_fixed_point_of_noiseless_drift():
    mp = small_params(g=fisher_wright(0.0))
    theta = 0.37
    state = F.SystemState(np.full(2, theta), np.full((1, 2), theta))
    out = step(state, 0.05, mp, stream(0, "fp"))
    assert np.array_equal(out.x, state.x)
    assert np.array_equal(out.y, state.y)


def test_zero_state_absorbing():
    mp = two_colony()
    state = F.SystemState(np.zeros(2), np.zeros((1, 2)))
    rng = stream(0, "absorb")
    for _ in range(50):
        state = step(state, 0.02, mp, rng)
    assert np.all(state.x == 0.0)
    assert np.all(state.y == 0.0)


def test_step_stability_rejection():
    mp = two_colony()
    state = F.SystemState(np.full(2, 0.5), np.full((1, 2), 0.5))
    with pytest.raises(F.StabilityError):
        step(state, 0.5, mp, stream(0, "unstable"))  # dt * rates > 1


def test_default_dt_respects_budget():
    mp = small_params(N=4, levels=1, c=(2.0, 1.0), e=(1.0, 0.5), K=(1.0, 2.0))
    dt = F.default_dt(mp)
    F._StepContext(mp, dt)  # must not raise


def test_exchange_conserves_weighted_mean_exactly():
    # with noise off, the matched exchange increments conserve
    # (x + sum K_m y_m) summed over colonies to machine precision
    mp = small_params(N=2, levels=1, c=(1.0, 0.5), e=(1.0, 2.0), K=(0.5, 1.5),
                      g=fisher_wright(0.0))
    rng = stream(1, "conserve")
    x = rng.random((1, 4))
    y = rng.random((1, 2, 4))
    K = np.asarray(mp.K)
    before = (x.sum() + np.sum(K[None, :, None] * y)) / (1 + K.sum())
    ctx = F._StepContext(mp, 0.05)
    F._advance(x, y, 200, ctx, rng)
    after = (x.sum() + np.sum(K[None, :, None] * y)) / (1 + K.sum())
    assert after == pytest.approx(before, abs=1e-12)


def test_exchange_keeps_y_in_unit_interval_without_a_clip():
    # y + f (x - y) stays in [0, 1] for x, y in [0, 1] and f in [0, 1]: the
    # step does not clip y.  Extreme values, and exchange rates giving f
    # tiny, 1 - 2^-53 and exactly 1.0; K ~ 0 keeps the stability budget.
    mp = small_params(N=2, levels=2, c=(1.0,) * 3, e=(1e-13, 7400.0, 4e4),
                      K=(1e-9,) * 3)
    ctx = F._StepContext(mp, 0.01)
    assert 0.0 < ctx.exch_f[0] < 1e-14
    assert ctx.exch_f[1] == 1.0 - 2.0 ** -53
    assert ctx.exch_f[2] == 1.0
    values = np.array([0.0, 2.0 ** -60, 0.5, 1.0 - 2.0 ** -53, 1.0])
    r = np.arange(25)
    x = np.repeat(values[r // 5, None], mp.n_colonies, axis=1)
    y = np.repeat(values[(r[:, None] + np.arange(3)) % 5][:, :, None],
                  mp.n_colonies, axis=2)
    rng = stream(9, "y-range")
    for _ in range(3):
        expected = np.clip(y + (x[:, None, :] - y) * ctx.exch_f[:, None],
                           0.0, 1.0)
        F._advance(x, y, 1, ctx, rng)
        assert np.array_equal(y, expected)
        assert y.min() >= 0.0 and y.max() <= 1.0


def _reference_advance(x, y, n_steps, ctx, rng):
    """The step kernel of hierfw 0.1: per-level broadcast block means and
    (M, C) exchange temporaries.  Kept as the reference for the fused one."""
    def block_means(a, level):
        runs = a.reshape(a.shape[:-1] + (-1, ctx.N ** level))
        means = runs.mean(axis=-1, keepdims=True)
        return np.broadcast_to(means, runs.shape).reshape(a.shape)

    clips = 0
    for _ in range(n_steps):
        drift = np.zeros_like(x)
        for l, rate in enumerate(ctx.level_rates, start=1):
            drift += rate * (block_means(x, l) - x)
        dy = (x[:, None, :] - y) * ctx.exch_f[None, :, None]
        exch_x = -np.sum(ctx.K[None, :, None] * dy, axis=1)
        raw = rng.bit_generator.random_raw(-(-x.size // 64))
        bits = np.unpackbits(raw.astype("<u8").view(np.uint8), count=x.size,
                             bitorder="little").reshape(x.shape)
        noise = np.sqrt(np.maximum(ctx.g(x), 0.0) * ctx.dt) * (2.0 * bits - 1.0)
        x += drift * ctx.dt + exch_x + noise
        y += dy
        clips += int(np.count_nonzero(x < 0.0) + np.count_nonzero(x > 1.0))
        np.clip(x, 0.0, 1.0, out=x)
        np.clip(y, 0.0, 1.0, out=y)
    return clips


def _drift_free_step(N, levels, width, rngs, x0=0.375):
    """x after one step from a state whose colonies and colours all equal
    the dyadic x0, so that block means equal x0 exactly and migration and
    exchange add exactly 0: the step moves x by its noise alone."""
    M = levels + 1
    mp = small_params(N=N, levels=levels, c=(1.0,) * M, e=(1.0,) * M,
                      K=(1.0,) * M, g=fisher_wright(2.0))
    ctx = F._StepContext(mp, F.default_dt(mp))
    x = np.full((width, mp.n_colonies), x0)
    y = np.full((width, M, mp.n_colonies), x0)
    assert F._advance(x, y, 1, ctx, *rngs) == 0
    assert np.all(y == x0)
    return x, float(np.sqrt(max(ctx.g(np.array(x0)), 0.0) * ctx.dt))


def test_advance_noise_is_a_sign_from_raw_bits():
    # every colony moves by exactly +-sqrt(g(x) dt), and the sign of entry k
    # of a generator's share is bit k of its raw words read little-endian
    x, size = _drift_free_step(2, 2, 3, [stream(4, "signs")])
    up, down = x == 0.375 + size, x == 0.375 - size
    assert np.all(up | down)
    raw = stream(4, "signs").bit_generator.random_raw(1)
    bits = np.unpackbits(raw.astype("<u8").view(np.uint8), count=x.size,
                         bitorder="little")
    assert np.array_equal(up.ravel(), bits == 1)


def test_advance_noise_signs_are_fair():
    # 2^17 signs from two generators' shares: the share of + signs lies
    # within 4.5 standard deviations of 1/2
    x, size = _drift_free_step(2, 5, 2 * CHUNK,
                               [stream(5, "fair", k) for k in range(2)])
    assert x.size == 1 << 17
    up = np.count_nonzero(x == 0.375 + size)
    assert up + np.count_nonzero(x == 0.375 - size) == x.size
    assert abs(up - x.size / 2) < 4.5 * math.sqrt(x.size) / 2


@pytest.mark.parametrize("N,levels,width", [(2, 1, 3), (3, 2, 2), (8, 2, 1)])
def test_advance_matches_reference_kernel(N, levels, width):
    M = levels + 1
    mp = small_params(N=N, levels=levels, c=tuple(0.5 + 0.3 * k for k in range(M)),
                      e=tuple(1.0 + k for k in range(M)),
                      K=tuple(0.5 * (k + 1) for k in range(M)))
    ctx = F._StepContext(mp, F.default_dt(mp))
    start = stream(N, "ref-state")
    x = 0.1 + 0.8 * start.random((width, mp.n_colonies))
    y = 0.1 + 0.8 * start.random((width, M, mp.n_colonies))
    xr, yr = x.copy(), y.copy()
    clips = F._advance(x, y, 1, ctx, stream(1, "ref-noise"))
    ref_clips = _reference_advance(xr, yr, 1, ctx, stream(1, "ref-noise"))
    assert clips == ref_clips
    assert np.max(np.abs(x - xr)) <= 1e-13
    assert np.max(np.abs(y - yr)) <= 1e-13


@pytest.mark.parametrize("N,levels,width,tile", [
    (3, 3, 1, 16),           # one 81-colony row in nine spans of 9
    (3, 2, 2 * CHUNK, 100),  # 3-row bands of 27 colonies; one straddles chunks
])
def test_advance_tiling_leaves_numbers_unchanged(monkeypatch, N, levels,
                                                 width, tile):
    # each tile unpacks its own signs, so tile shapes must not move a sign:
    # one row longer than a tile, and bands straddling two generators' rows
    M = levels + 1
    mp = small_params(N=N, levels=levels, c=(1.0,) * M, e=(1.0,) * M,
                      K=(1.0,) * M, g=fisher_wright(4.0))
    ctx = F._StepContext(mp, F.default_dt(mp))
    start = stream(N, "tiling-state")
    x = start.random((width, mp.n_colonies))
    y = start.random((width, M, mp.n_colonies))
    runs = []
    for tile_entries in (tile, x.size):        # the second is one tile
        monkeypatch.setattr(F, "_TILE", tile_entries)
        xt, yt = x.copy(), y.copy()
        rngs = [stream(3, "tiling", k) for k in range(max(1, width // CHUNK))]
        runs.append((F._advance(xt, yt, 3, ctx, *rngs), xt, yt))
    (clips, xt, yt), (one_clips, one_x, one_y) = runs
    assert clips > 0
    assert clips == one_clips
    assert np.array_equal(xt, one_x)
    assert np.array_equal(yt, one_y)


def test_advance_memory_peak_is_a_fraction_of_the_state():
    # the noise signs are unpacked one tile at a time, so two steps hold the
    # level means, the packed bits (x.nbytes / 64) and one tile's
    # temporaries (~0.38 x.nbytes), never a (W, C) noise array (1.0 x.nbytes)
    mp = small_params(N=16, levels=4, c=(1.0,) * 5, e=(1.0,) * 5, K=(1.0,) * 5)
    ctx = F._StepContext(mp, F.default_dt(mp))
    x = np.full((1, mp.n_colonies), 0.5)
    y = np.full((1, 5, mp.n_colonies), 0.5)
    rng = stream(0, "memory")
    tracemalloc.start()
    try:
        F._advance(x, y, 2, ctx, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mp.n_colonies == 1 << 20
    assert peak < 0.5 * x.nbytes


@pytest.mark.parametrize("N", [2, 3, 4, 8, 10, 16])
def test_tiles_are_whole_level_blocks(N):
    # a row longer than a tile splits into spans that tile every level
    # block at least a span long, and are as long as such spans can be
    top = 1
    while N ** top <= F._TILE:
        top += 1
    band, span = F._tile_shape(1, N ** (top + 1), N)
    assert band == 1
    assert N <= span <= F._TILE < span * N
    for level in range(1, top + 2):
        if N ** level >= span:
            assert N ** level % span == 0
    assert F._tile_shape(1, 8 ** 7, 8) == (1, 8 ** 5)
    assert F._tile_shape(1, 16 ** 5, 16) == (1, 16 ** 3 * 8)


@pytest.mark.parametrize("W,n,N", [(1, 3 ** 11, 3), (1, 8 ** 6, 8),
                                   (3, 16 ** 4, 16), (2 * CHUNK, 27, 3)])
def test_blocked_run_means_equal_whole_array_column_sums(W, n, N):
    a = stream(N, "run-means").random((W, n))
    runs = a.reshape(W, -1, N)
    whole = runs[:, :, 0].copy()
    for k in range(1, N):
        whole += runs[:, :, k]
    whole /= N
    assert np.array_equal(F._run_means(a, N), whole)


@pytest.mark.parametrize("N,levels", [(3, 3), (8, 2)])
def test_coarse_to_fine_drift_matches_direct_means(N, levels):
    rates = np.array([0.9, 0.4, 0.7, 0.2])[:levels + 1]
    x = stream(N, "drift").random((2, N ** (levels + 1)))
    direct = np.zeros_like(x)
    for l, rate in enumerate(rates, start=1):
        means = x.reshape(2, -1, N ** l).mean(axis=-1)
        direct += rate * (np.repeat(means, N ** l, axis=1) - x)
    tails = np.cumsum(rates[::-1])[::-1]
    m1, coarse = F._drift_levels(x, N, tails)
    drift = tails[0] * (np.repeat(m1, N, axis=1) - x) + np.repeat(coarse, N, axis=1)
    assert np.max(np.abs(drift - direct)) <= 1e-14


# ----------------------------------------------------------------------
# block averages and estimators
# ----------------------------------------------------------------------


def test_block_average_level0_is_colony():
    x, y = np.array([0.2, 0.6]), np.array([[0.1, 0.9]])
    _, bx, by = estimator_arrays(x, y, np.ones(1), 0, N=2)
    assert bx == 0.2
    assert by[0] == 0.1


def test_block_average_level1_mean():
    x, y = np.array([0.2, 0.6]), np.array([[0.1, 0.9]])
    _, bx, by = estimator_arrays(x, y, np.ones(1), 1, N=2)
    assert bx == pytest.approx(0.4)
    assert by[0] == pytest.approx(0.5)


def test_block_average_uniform_state():
    x, y = np.full(8, 0.33), np.full((2, 8), 0.7)
    for level in (0, 1, 2, 3):
        _, bx, by = estimator_arrays(x, y, np.ones(2), level, N=2)
        assert bx == pytest.approx(0.33)
        assert np.allclose(by, 0.7)


@given(st.integers(0, 2 ** 31 - 1))
@settings(max_examples=25, deadline=None)
def test_estimator_identity(seed_val):
    rng = stream(seed_val, "est-id")
    x = rng.random(8)
    y = rng.random((3, 8))
    K = rng.random(3) * 4 + 0.01
    for level in (0, 1, 2, 3):
        th_bar, th_x, th_y = estimator_arrays(x, y, K, level, N=2)
        Kl = K[:level]
        expect = (th_x + np.sum(Kl * th_y[:level])) / (1.0 + Kl.sum())
        assert th_bar == pytest.approx(expect, rel=1e-14)


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def test_simulate_replay_bit_identical():
    mp = small_params(N=2, levels=1, c=(1.0, 0.5), e=(1.0, 1.0), K=(1.0, 2.0))
    init = P.InitSpec(theta_x=0.5, theta_y=(0.3, 0.6), law="beta")
    plan = F.RecordPlan(times=(0.0, 0.5, 1.0), snapshots=True)
    rec1 = F.simulate(mp, init, 1.0, plan, seed=42)
    rec2 = F.simulate(mp, init, 1.0, plan, seed=42)
    assert np.array_equal(rec1.snapshots_x, rec2.snapshots_x)
    assert np.array_equal(rec1.snapshots_y, rec2.snapshots_y)
    assert np.array_equal(rec1.theta_bar, rec2.theta_bar)
    rec3 = F.simulate(mp, init, 1.0, plan, seed=43)
    assert not np.array_equal(rec1.snapshots_x, rec3.snapshots_x)


def test_simulate_estimator_identity_at_records():
    mp = small_params(N=2, levels=1, c=(1.0, 0.5), e=(1.0, 1.0), K=(1.0, 2.0))
    init = P.InitSpec(theta_x=0.9, theta_y=(0.2, 0.4), law="two-point")
    rec = F.simulate(mp, init, 1.0, F.RecordPlan(times=(0.5, 1.0)), seed=7)
    K = np.asarray(mp.K)
    for i in range(len(rec.times)):
        for j, l in enumerate(rec.levels):
            Kl = K[:int(l)]
            expect = (rec.theta_x[i, j] + np.sum(Kl * rec.theta_y[i, j, :int(l)])) \
                / (1.0 + Kl.sum())
            assert rec.theta_bar[i, j] == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("N,levels,tile,times", [
    (3, 3, 20, (0.0, 0.0, 0.3, 0.3)),       # 81 colonies in spans of 9
    (16, 1, 100, (0.0, 0.0, 0.3, 0.3)),     # 256 colonies in spans of 16 * 4
    (3, 3, 1 << 15, (0.0, 0.0, 0.3, 0.3)),  # one tile holds the row
    (3, 3, 20, (0.0,)),                      # no step precedes or follows
    (16, 1, 1 << 15, (0.0,)),
])
def test_simulate_records_match_direct_means(monkeypatch, N, levels, tile,
                                             times):
    # records take their block means from tile sums; the reference reads
    # them from the recorded state
    monkeypatch.setattr(F, "_TILE", tile)
    M = levels + 1
    mp = small_params(N=N, levels=levels, c=(1.0,) * M,
                      e=tuple(1.0 + k for k in range(M)),
                      K=tuple(0.5 * (k + 1) for k in range(M)))
    init = P.InitSpec(theta_x=0.6, theta_y=(0.2, 0.7), law="beta")
    rec = F.simulate(mp, init, times[-1],
                     F.RecordPlan(times=times, snapshots=True), seed=3)
    K = np.asarray(mp.K)
    for i in range(len(times)):
        for l in rec.levels:
            th_bar, th_x, th_y = estimator_arrays(
                rec.snapshots_x[i], rec.snapshots_y[i], K, int(l), N)
            np.testing.assert_allclose(rec.theta_bar[i, l], th_bar, rtol=1e-13)
            np.testing.assert_allclose(rec.theta_x[i, l], th_x, rtol=1e-13)
            np.testing.assert_allclose(rec.theta_y[i, l], th_y, rtol=1e-13)
    if len(times) > 1:
        # a repeated record time records the same state's means
        assert np.array_equal(rec.theta_y[0], rec.theta_y[1])
        assert np.array_equal(rec.theta_y[2], rec.theta_y[3])
        assert not np.array_equal(rec.theta_y[1], rec.theta_y[2])


def test_trajectory_csv_rows(tmp_path):
    # simulate-forward's trajectory.csv: per record time and level, the
    # block averages x, y0, then theta_bar, theta_x and theta_y0
    rows = cli_csv(tmp_path, "simulate-forward", """\
model: {N: 2, levels: 0, c: [1.0], e: [1.0], K: [1.0]}
init: {theta_x: 0.5, theta_y: [0.5]}
run: {horizon: 0.2, times: [0.0, 0.2]}
seed: 1
""", "trajectory.csv")
    rec = F.simulate(two_colony(), P.InitSpec.constant(0.5), 0.2,
                     F.RecordPlan(times=(0.0, 0.2)), seed=1)
    assert rows[0] == ["t", "level", "component", "value"]
    assert len(rows) == 1 + 2 * 2 * 5          # 2 times x levels 0, 1
    assert [r[2] for r in rows[1:6]] == ["x", "y0", "theta_bar", "theta_x",
                                         "theta_y0"]
    last = rows[-5:]
    assert last[0][:2] == [repr(float(rec.times[-1])), "1"]
    assert [float(r[3]) for r in last] == [
        rec.theta_x[-1, 1], rec.theta_y[-1, 1, 0], rec.theta_bar[-1, 1],
        rec.theta_x[-1, 1], rec.theta_y[-1, 1, 0]]


def test_snapshot_rows_addresses(tmp_path):
    # colony addresses are base-N digit strings, least-significant first
    rows = cli_csv(tmp_path, "simulate-forward", """\
model: {N: 3, levels: 1, c: [1.0, 1.0], e: [1.0, 1.0], K: [1.0, 1.0]}
init: {theta_x: 0.5, theta_y: [0.5]}
run: {horizon: 0.1, times: [0.1], snapshots: true}
""", "snapshots.csv")
    assert rows[0] == ["t", "address", "x", "y0", "y1"]
    assert [r[1] for r in rows[1:]] == [
        "00", "10", "20", "01", "11", "21", "02", "12", "22"]


def test_grand_mean_zero_drift_in_ensemble():
    # closed full system: the weighted population mean is a martingale
    mp = small_params(N=2, levels=1, c=(1.0, 0.5), e=(1.0, 1.0), K=(1.0, 2.0))
    init = P.InitSpec(theta_x=0.8, theta_y=(0.2, 0.5), law="beta")
    K = np.asarray(mp.K)

    def grand(x, y):
        th_bar, _, _ = estimator_arrays(x, y, K, mp.levels + 1, mp.N)
        return th_bar[:, None]

    mean, se, _ = F.ensemble_reduce(mp, init, (0.0, 1.0, 2.0), 4096, 11, grand,
                                    dt=0.02)
    assert abs(mean[1, 0] - mean[0, 0]) < 3 * math.hypot(se[1, 0], se[0, 0])
    assert abs(mean[2, 0] - mean[0, 0]) < 3 * math.hypot(se[2, 0], se[0, 0])


def _per_chunk_ensemble(params, init, times, n_replicas, seed, reducer, dt,
                        label="ensemble"):
    """ensemble_reduce as one chunk at a time: the reference for stacking."""
    ctx = F._StepContext(params, dt)
    steps_at = [int(round(t / dt)) for t in times]
    sums = sumsq = None
    clips = total_steps = 0
    for chunk, width in replica_chunks(n_replicas):
        rng = stream(seed, label, chunk)
        if isinstance(init, F.SystemState):
            x = np.tile(init.x[None, :], (CHUNK, 1))
            y = np.tile(init.y[None, :, :], (CHUNK, 1, 1))
        else:
            x, y = F.initial_arrays(params, init, rng, width=CHUNK)
        done = 0
        vals = []
        for target in steps_at:
            clips += F._advance(x, y, target - done, ctx, rng)
            done = target
            vals.append(np.asarray(reducer(x[:width], y[:width])))
        total_steps += done * CHUNK * params.n_colonies
        block = np.stack(vals)
        if sums is None:
            sums = block.sum(axis=1)
            sumsq = (block ** 2).sum(axis=1)
        else:
            sums += block.sum(axis=1)
            sumsq += (block ** 2).sum(axis=1)
    mean = sums / n_replicas
    se = np.sqrt(np.maximum(sumsq / n_replicas - mean ** 2, 0.0) / n_replicas)
    return mean, se, clips / max(total_steps, 1)


@pytest.mark.parametrize("start", ["state", "beta"])
def test_stacked_ensemble_equals_per_chunk_loop(start):
    mp = small_params(N=2, levels=1, c=(1.0, 0.5), e=(1.0, 1.0), K=(1.0, 2.0),
                      g=fisher_wright(4.0))
    n_replicas = 3 * CHUNK + 428          # the partial chunk shares a group
    chunk_bytes = CHUNK * mp.n_colonies * (mp.levels + 2) * 8
    assert 1 < F._GROUP_BYTES // chunk_bytes < 4   # more than one group
    if start == "state":
        init = F.SystemState(np.array([1.0, 0.2, 0.6, 0.0]),
                             np.array([[0.3, 0.3, 0.9, 0.1], [0.5, 0.0, 1.0, 0.4]]))
    else:
        init = P.InitSpec(theta_x=0.6, theta_y=(0.2, 0.7), law="beta")

    def obs(x, y):
        return np.concatenate([x, y[:, 1, :], x[:, :1] * y[:, 0, 2:3]], axis=1)

    args = (mp, init, (0.0, 0.1, 0.3), n_replicas, 9, obs)
    mean, se, clip = F.ensemble_reduce(*args, dt=0.02)
    ref_mean, ref_se, ref_clip = _per_chunk_ensemble(*args, dt=0.02)
    assert clip > 0                       # the clip count is exercised too
    assert np.array_equal(mean, ref_mean)
    assert np.array_equal(se, ref_se)
    assert clip == ref_clip


def test_ensemble_records_survive_a_view_reducer():
    # a reducer returning a view of x must not see later steps' states
    mp = two_colony()
    init = P.InitSpec(theta_x=0.5, theta_y=(0.5,), law="beta")

    def first_colony(x, y):
        return x[:, :1]

    mean, se, _ = F.ensemble_reduce(mp, init, (0.0, 1.0), 1024, 3,
                                    first_colony, dt=0.01)
    mean0, se0, _ = F.ensemble_reduce(mp, init, (0.0,), 1024, 3, first_colony,
                                      dt=0.01)
    assert np.array_equal(mean[:1], mean0)
    assert np.array_equal(se[:1], se0)


# ----------------------------------------------------------------------
# first-moment oracle
# ----------------------------------------------------------------------


def test_oracle_constant_state_invariant():
    mp = small_params(N=2, levels=1, c=(1.0, 0.5), e=(1.0, 1.0), K=(1.0, 2.0))
    state = F.SystemState(np.full(4, 0.42), np.full((2, 4), 0.42))
    out = F.first_moment_oracle(mp, state, 1.7)
    assert np.allclose(out.x, 0.42, atol=1e-12)
    assert np.allclose(out.y, 0.42, atol=1e-12)


def test_oracle_time_zero_identity():
    mp = two_colony()
    rng = stream(5, "oracle0")
    state = F.SystemState(rng.random(2), rng.random((1, 2)))
    out = F.first_moment_oracle(mp, state, 0.0)
    assert np.allclose(out.x, state.x, atol=1e-13)
    assert np.allclose(out.y, state.y, atol=1e-13)


def test_oracle_rows_stochastic():
    from hierfw.forward import lineage_generator
    mp = small_params(N=2, levels=1, c=(1.0, 0.5), e=(1.0, 1.0), K=(1.0, 2.0))
    Q = lineage_generator(mp)
    assert np.allclose(Q.sum(axis=1), 0.0, atol=1e-13)
    off_diag = Q - np.diag(np.diag(Q))
    assert np.all(off_diag >= 0)


def test_oracle_size_guard():
    mp = small_params(N=10, levels=3, c=(1.0,) * 4, e=(1.0,) * 4, K=(1.0,) * 4)
    state = F.SystemState(np.zeros(10 ** 4), np.zeros((4, 10 ** 4)))
    with pytest.raises(F.SizeError):
        F.first_moment_oracle(mp, state, 1.0)


@pytest.mark.slow
def test_forward_means_match_oracle_two_colony():
    # x = (1, 0), y = (0, 0): ensemble means vs exact semigroup at t = 1
    mp = two_colony()
    state = F.SystemState(np.array([1.0, 0.0]), np.array([[0.0, 0.0]]))
    exact = F.first_moment_oracle(mp, state, 1.0)

    def obs(x, y):
        return np.concatenate([x, y[:, 0, :]], axis=1)

    mean, se, _ = F.ensemble_reduce(mp, state, (1.0,), 40_000, 23, obs, dt=0.002)
    target = np.concatenate([exact.x, exact.y[0]])
    for q in range(4):
        assert abs(mean[0, q] - target[q]) < 3 * se[0, q] + 2e-3


# ----------------------------------------------------------------------
# McKean-Vlasov
# ----------------------------------------------------------------------


def test_mckean_vlasov_mean_formula():
    # t = 0 gives the initial means; t -> infinity gives theta
    ex0, ey0 = F.mckean_vlasov_mean(2.0, 1.0, 0.9, 0.3, 0.0)
    assert ex0 == pytest.approx(0.9)
    assert ey0 == pytest.approx(0.3)
    exi, eyi = F.mckean_vlasov_mean(2.0, 1.0, 0.9, 0.3, 1e9)
    theta = (0.9 + 2.0 * 0.3) / 3.0
    assert exi == pytest.approx(theta)
    assert eyi == pytest.approx(theta)


def test_heavy_clipping_flags_run():
    # noise-dominated step near the stability bound clips far above 1%
    mp = small_params(N=2, levels=0, c=(0.01,), e=(0.01,), K=(1.0,),
                      g=fisher_wright(8.0))
    init = P.InitSpec.constant(0.5)
    rec = F.simulate(mp, init, 2.0, F.RecordPlan(times=(2.0,)), seed=3,
                     dt=0.12)
    assert rec.clip_fraction > 0.01
    assert rec.flagged
