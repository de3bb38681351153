"""Forward simulation of the interacting diffusions with layered seed-banks.

Each colony carries an active frequency x and dormant frequencies y_m.  The
active component drifts toward its block averages (one term per hierarchical
level), exchanges with each seed-bank colour, and diffuses with sqrt(g(x))
noise; dormant components relax linearly toward the active one.

Discretisation: the simplified weak Euler scheme (Kloeden & Platen,
Numerical Solution of SDEs, 14.1): Euler-Maruyama drift for migration, and
a noise increment sqrt(g(x) dt) xi with xi a fair +-1 sign in place of an
N(0,1) draw.  It has weak order 1, like Euler-Maruyama, and since
E xi = E xi^3 = 0 and E xi^2 = 1 a step without a clip gives every
polynomial of degree <= 3 in the state the same expectation as the Gaussian
step (for Fisher-Wright g); only the fourth moment of xi differs (1, not 3).
The exchange terms use matched increments  dy_m = (x - y_m) f_m,
dx += sum K_m (y_m - x) f_m  with f_m = 1 - exp(-e_m N^-m dt), which
integrates the dormant relaxation exactly over the step and conserves the
weighted population mean exactly in discrete time, removing the stiffness of
fast colours.  x is clipped to [0,1] after each step; clip events are
counted and a run whose clip frequency exceeds 1% is flagged.  y_m needs no
clip: for x, y_m and f_m in [0,1], y_m + f_m (x - y_m) rounds into [0,1].

Colonies are indexed little-endian by their digit strings, so the level-l
blocks are contiguous slices of length N^l and block averages are reshaped
means.  The migration drift is computed coarse to fine: level-l means are
built from level-(l-1) means, and the drift, rewritten as
sum_l R_l (m_l - m_{l-1}) with tail rates R_l = sum_{k>=l} c_{k-1}/N^{k-1},
is accumulated from the top level down at each level's own resolution, so
only the level-1 means read the colony array.  A step then visits the
(W, C) replica-by-colony array in cache-sized tiles, in row-major order: a
tile is a band of whole rows when a row is short, else a span of N^k d
colonies of one row (d a divisor of N), so that every level block at least
a span long is a whole number of tiles.  Each step draws the signs of all
entries as packed raw generator bits (W C / 8 bytes), and each tile unpacks
its own into a reused buffer just before it uses them and updates one
dormant colour at a time, so neither a (W, C) noise array nor an (M, C)
temporary is allocated.

A trajectory record takes its block means from per-tile sums of x and y_m,
which the step's tile pass adds up while a tile is in cache: levels at least
a tile long are sums of whole tiles, and shorter ones are read from the
first N^l colonies.  So no record rereads the state beyond one tile.

Replicas are vectorised in fixed-width chunks; replica r always draws from
the stream keyed by (seed, labels, r // CHUNK) at row r % CHUNK.
``ensemble_reduce`` advances groups of chunks as one stacked array, each
chunk's rows drawing from its own stream in row-major order, so neither
grouping nor tiling changes any replica's numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import hiergeo, rng as rngmod
from .params import InitSpec, ModelParams


class StabilityError(RuntimeError):
    """Step size exceeds the stability bound of the scheme."""


class SizeError(ValueError):
    """State space too large for exact generator computations."""


# A step visits colonies in tiles of at most this many state entries per
# array (rows of more than this many colonies are split into spans of whole
# level blocks; see _tile_shape), so that a tile's x, y_m, noise signs and
# increments stay in cache for the step, and so do the sums a record takes.
_TILE = 1 << 15
# ensemble_reduce stacks as many replica chunks as keep a group's (x, y)
# state within this many bytes (always at least one chunk).
_GROUP_BYTES = 256 * 1024


# ----------------------------------------------------------------------
# State containers
# ----------------------------------------------------------------------


@dataclass
class SystemState:
    """Configuration of the truncated system: x (C,), y (M, C)."""

    x: np.ndarray
    y: np.ndarray


def initial_arrays(params: ModelParams, init: InitSpec, rng,
                   width: int = 1) -> tuple:
    """Draw ``width`` i.i.d. replicas of the initial configuration."""
    C = params.n_colonies
    M = params.levels + 1

    def draw(theta):
        if init.law == "deterministic":
            return theta
        if init.law == "beta":
            conc = init.concentration
            return rng.beta(max(theta * conc, 1e-12),
                            max((1 - theta) * conc, 1e-12), size=(width, C))
        return (rng.random((width, C)) < theta).astype(float)  # two-point

    # x, then each colour of y, drawn in that order and filled in place, so
    # a deterministic law allocates no (width, C) temporary
    x, y = np.empty((width, C)), np.empty((width, M, C))
    x[:] = draw(init.theta_x)
    for m, theta in enumerate(init.theta_y_full(M)):
        y[:, m, :] = draw(theta)
    return x, y


def initial_state(params: ModelParams, init: InitSpec, rng) -> SystemState:
    x, y = initial_arrays(params, init, rng, width=1)
    return SystemState(x[0], y[0])


# ----------------------------------------------------------------------
# One step of the scheme
# ----------------------------------------------------------------------


class _StepContext:
    """Precomputed rates and reshape geometry for the vectorised step; dt
    defaults to ``default_dt(params)``."""

    def __init__(self, params: ModelParams, dt: Optional[float] = None):
        if dt is None:
            dt = default_dt(params)
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.dt = dt
        self.N = params.N
        spec = params.kernel_spec()
        self.level_rates = spec.level_rates()          # c_{l-1} / N^{l-1}
        self.K = np.asarray(params.K, dtype=float)
        total = _total_rate(params)
        if dt * total > 1.0:
            raise StabilityError(
                f"dt * total rate = {dt * total:.3g} > 1; reduce dt below "
                f"{1.0 / total:.3g}"
            )
        self.exch_f = 1.0 - np.exp(-params.exchange_rates() * dt)
        # R_l dt with R_l = sum_{k>=l} level_rates[k-1]; see _drift_levels
        self.drift_tails = np.cumsum(self.level_rates[::-1])[::-1] * dt
        self.g = params.g


def _total_rate(params: ModelParams) -> float:
    """Stability budget's total rate: migration total + chi + Lip(g)."""
    chi = float(np.sum(params.sleep_rates()))
    return (hiergeo.total_jump_rate(params.kernel_spec()) + chi
            + params.g.lipschitz_bound)


def default_dt(params: ModelParams) -> float:
    """dt with dt * _total_rate(params) = 0.1."""
    return 0.1 / _total_rate(params)


def _tile_shape(W: int, C: int, N: int) -> tuple:
    """(band, span) of the tiles of a (W, C) array: rows per tile, colonies
    per tile.

    A row of at most ``_TILE`` entries is one span, and a band holds as many
    whole rows as fit.  A longer row is split into spans of N^k d colonies,
    k the largest power and d the largest divisor of N with N^k d <= _TILE
    (never less than N), so every level-l block with N^l >= span is a whole
    number of spans.
    """
    if C <= _TILE:
        return _TILE // C, C
    power = 1
    while power * N <= _TILE:
        power *= N
    d = max(d for d in range(1, N + 1) if N % d == 0 and power * d <= _TILE)
    return 1, max(N, power * d)


def _run_means(a: np.ndarray, N: int) -> np.ndarray:
    """Means of consecutive runs of N entries along the rows of a (W, n) array.

    Summed one column of the runs at a time, which is as fast as a reduction
    for large arrays and far faster when the runs are short and many, and
    one tile at a time, so that the N column passes find the tile in cache.
    """
    W, n = a.shape
    band, span = _tile_shape(W, n, N)
    means = np.empty((W, n // N))
    for top in range(0, W, band):
        for lo in range(0, n, span):
            runs = a[top:top + band, lo:lo + span].reshape(-1, span // N, N)
            total = means[top:top + band, lo // N:(lo + span) // N]
            np.copyto(total, runs[:, :, 0])
            for k in range(1, N):
                total += runs[:, :, k]
            total /= N
    return means


def _drift_levels(x: np.ndarray, N: int, tails: np.ndarray) -> tuple:
    """Level-1 means of x and the coarse part of the migration drift.

    x has shape (W, C).  With m_0 = x, m_l the level-l block means and
    ``tails[l-1]`` = R_l, the drift sum_l r_l (m_l - x) telescopes to
    sum_l R_l (m_l - m_{l-1}).  Each m_l is the mean of N level-(l-1) means,
    and the terms l >= 2 are summed from the top level down at the
    resolution of level l-1.  Returns m_1 and that sum, both (W, C / N); the
    drift at colony resolution is R_1 (m_1 - x) plus the sum, each
    broadcast over its level-1 block.
    """
    W = x.shape[0]
    means = [_run_means(x, N)]
    for _ in tails[1:]:
        means.append(_run_means(means[-1], N))
    coarse = np.zeros((W, 1))
    for R, mean, finer in zip(tails[:0:-1], means[:0:-1], means[-2::-1]):
        term = (mean[:, :, None] - finer.reshape(W, -1, N)) * R
        term += coarse[:, :, None]
        coarse = term.reshape(W, -1)
    return means[0], coarse


def _advance(x: np.ndarray, y: np.ndarray, n_steps: int, ctx: _StepContext,
             *rngs, before: Optional[np.ndarray] = None,
             after: Optional[np.ndarray] = None) -> int:
    """Advance (x, y) in place by n_steps; returns the number of clip events.

    x has shape (W, C) and y (W, M, C).  The rows are split evenly among
    ``rngs``: at every step generator i draws the noise signs of the i-th
    share of rows, in row-major order, as ceil(rows C / 64) words of
    ``random_raw``, read as little-endian bytes whose bit k (low bit first)
    is the sign of the share's k-th entry, 1 for +1 and 0 for -1.  The
    tiles are those of ``_tile_shape`` and visit x in row-major order; a
    tile unpacks its signs just before it uses them, part by part from the
    bits of each share it covers, into one reused buffer of at most
    ``_TILE`` entries: the step holds W C / 8 bytes of packed bits and no
    (W, C) noise array.

    ``before`` and ``after``, when given, are (tiles, M + 1) arrays that
    receive each tile's sums of x and of each y_m: ``before`` of the state
    the call starts from (taken in the first step, before the tile's
    update), ``after`` of the state it ends at (taken in the last step).
    """
    W, C = x.shape
    N, dt, R1 = ctx.N, ctx.dt, ctx.drift_tails[0]
    coarse_levels = len(ctx.drift_tails) > 1     # else the coarse drift is 0
    rows = W // len(rngs)
    words = -(-rows * C // 64)          # 64 signs per raw word, per share
    band, span = _tile_shape(W, C, N)
    noise = np.empty(band * span)
    tiles = [(top, lo) for top in range(0, W, band)
             for lo in range(0, C, span)]
    clips = 0
    for step in range(n_steps):
        first = before if step == 0 else None
        last = after if step == n_steps - 1 else None
        m1, coarse = _drift_levels(x, N, ctx.drift_tails)
        packed = [rng.bit_generator.random_raw(words)
                  .astype("<u8", copy=False).view(np.uint8) for rng in rngs]
        for t, (top, lo) in enumerate(tiles):
            band_rows = slice(top, top + band)
            xt = x[band_rows, lo:lo + span]
            b = xt.shape[0]
            if first is not None:
                first[t, 0] = np.add.reduce(xt, axis=None)
            signs = noise[:xt.size].reshape(xt.shape)
            # the tile's rows of each generator's share, in order
            for i in range(top // rows, (top + b - 1) // rows + 1):
                first_row = max(top, i * rows)
                part = signs[first_row - top:min(top + b, (i + 1) * rows) - top]
                start = (first_row - i * rows) * C + lo
                skip = start % 8
                bits = np.unpackbits(packed[i][start // 8:],
                                     count=skip + part.size, bitorder="little")
                np.multiply(bits[skip:].reshape(part.shape), 2.0, out=part)
                part -= 1.0
            blocks = slice(lo // N, (lo + span) // N)
            inc = m1[band_rows, blocks, None] - xt.reshape(b, -1, N)
            inc *= R1
            if coarse_levels:
                inc += coarse[band_rows, blocks, None]
            inc = inc.reshape(b, -1)
            dy = ctx.g(xt)
            np.maximum(dy, 0.0, out=dy)
            dy *= dt
            np.sqrt(dy, out=dy)
            dy *= signs
            inc += dy
            for m, (f, K) in enumerate(zip(ctx.exch_f, ctx.K)):
                ym = y[band_rows, m, lo:lo + span]
                if first is not None:
                    first[t, m + 1] = np.add.reduce(ym, axis=None)
                np.subtract(xt, ym, out=dy)
                dy *= f
                ym += dy
                if last is not None:
                    last[t, m + 1] = np.add.reduce(ym, axis=None)
                dy *= K
                inc -= dy
            xt += inc
            if xt.min() < 0.0 or xt.max() > 1.0:
                clips += int(np.count_nonzero(xt < 0.0)
                             + np.count_nonzero(xt > 1.0))
                np.clip(xt, 0.0, 1.0, out=xt)
            if last is not None:
                last[t, 0] = np.add.reduce(xt, axis=None)
    return clips


def _tile_sums(x: np.ndarray, y: np.ndarray, span: int) -> np.ndarray:
    """Each span's sums of x and of each y_m of a one-row state: the sums
    ``_advance`` takes, for a state that no step visits."""
    starts = range(0, x.shape[1], span)
    sums = np.empty((len(starts), y.shape[1] + 1))
    for t, lo in enumerate(starts):
        sums[t, 0] = np.add.reduce(x[0, lo:lo + span])
        sums[t, 1:] = np.add.reduce(y[0, :, lo:lo + span], axis=-1)
    return sums


# ----------------------------------------------------------------------
# Trajectory recording
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RecordPlan:
    times: Sequence[float]
    snapshots: bool = False


@dataclass
class TrajectoryRecord:
    times: np.ndarray                 # actual (step-aligned) record times
    levels: np.ndarray
    theta_bar: np.ndarray             # (T, L)
    theta_x: np.ndarray               # (T, L)
    theta_y: np.ndarray               # (T, L, M)
    clip_fraction: float
    flagged: bool
    snapshots_x: Optional[np.ndarray] = None   # (T, C)
    snapshots_y: Optional[np.ndarray] = None   # (T, M, C)


def simulate(params: ModelParams, init: InitSpec, horizon: float,
             plan: RecordPlan, seed: int,
             dt: Optional[float] = None) -> TrajectoryRecord:
    """Single-replica trajectory, deterministic given seed."""
    ctx = _StepContext(params, dt)
    dt = ctx.dt
    rng = rngmod.stream(seed, "forward", 0)
    x, y = initial_arrays(params, init, rng, width=1)
    K = np.asarray(params.K, dtype=float)
    steps_at = _record_steps(plan.times, dt)
    if any(s * dt > horizon * (1 + 1e-9) + dt for s in steps_at):
        raise ValueError("record times must lie in [0, horizon]")
    N, M, C = params.N, params.levels + 1, params.n_colonies
    T, L = len(steps_at), M + 1      # levels 0 .. M; level M is the whole system
    theta_bar, theta_x = np.empty((T, L)), np.empty((T, L))
    theta_y = np.empty((T, L, M))
    snapshots_x = np.empty((T, C)) if plan.snapshots else None
    snapshots_y = np.empty((T, M, C)) if plan.snapshots else None
    # a level at least a tile long is read from the tile sums of the record's
    # state, which the step's tile pass takes; a shorter one from the state
    span = _tile_shape(1, C, N)[1]
    short = [l for l in range(L) if N ** l < span]
    at_start = np.empty((C // span, M + 1))    # tile sums of the state at step 0
    sums = at_start
    record_sums = []
    clips = 0
    done = 0
    for i, target in enumerate(steps_at):
        if target > done:
            # records at step 0, if any, take the first step's sums before it
            before = at_start if i and not done else None
            sums = np.empty_like(at_start)
            clips += _advance(x, y, target - done, ctx, rng, before=before,
                              after=sums)
            done = target
        record_sums.append(sums)
        for l in short:
            theta_x[i, l] = x[0, :N ** l].mean()
            theta_y[i, l] = y[0, :, :N ** l].mean(axis=-1)
        if plan.snapshots:
            snapshots_x[i] = x[0]
            snapshots_y[i] = y[0]
    if not done:                 # no step followed the records at step 0
        at_start[:] = _tile_sums(x, y, span)
    for l in range(len(short), L):
        width = N ** l
        for i, sums in enumerate(record_sums):
            means = sums[:width // span].sum(axis=0) / width
            theta_x[i, l], theta_y[i, l] = means[0], means[1:]
    for l in range(L):
        Kl = K[:l]
        weighted = theta_x[:, l] + np.sum(Kl * theta_y[:, l, :l], axis=-1)
        theta_bar[:, l] = weighted / (1.0 + Kl.sum())
    clip_fraction = clips / (max(done, 1) * C)
    return TrajectoryRecord(
        times=np.asarray(steps_at, dtype=float) * dt, levels=np.arange(L),
        theta_bar=theta_bar, theta_x=theta_x, theta_y=theta_y,
        clip_fraction=clip_fraction, flagged=clip_fraction > 0.01,
        snapshots_x=snapshots_x, snapshots_y=snapshots_y)


# ----------------------------------------------------------------------
# Ensembles
# ----------------------------------------------------------------------


def _record_steps(times: Sequence[float], dt: float) -> list:
    """Step index of each record time; times must be >= 0 and non-decreasing."""
    if any(t < 0 for t in times):
        raise ValueError("record times must be non-negative")
    for t in times:
        # beyond 2^53 steps, s * dt no longer tells consecutive steps apart
        if not float(t) / dt < 2.0 ** 53:
            raise ValueError(f"record time {t:g} / dt = {dt:g} overflows "
                             f"2^53 steps")
    steps = [int(round(t / dt)) for t in times]
    if sorted(steps) != steps:
        raise ValueError("record times must be non-decreasing")
    return steps


def _mean_se(sums, sumsq, n_replicas: int) -> tuple:
    """Replica mean and its standard error from sums of values and squares."""
    mean = sums / n_replicas
    var = np.maximum(sumsq / n_replicas - mean ** 2, 0.0)
    return mean, np.sqrt(var / n_replicas)


def ensemble_reduce(params: ModelParams, init, times: Sequence[float],
                    n_replicas: int, seed: int, reducer: Callable,
                    dt: Optional[float] = None,
                    label: str = "ensemble") -> tuple:
    """Monte Carlo means and standard errors of per-replica observables.

    ``reducer(x, y)`` maps state arrays of shape (w, C) and (w, M, C) to a
    (w, Q) observable block.  ``init`` is an InitSpec (i.i.d. replicas) or a
    SystemState (every replica starts from that exact configuration).
    Returns (means, ses, clip_fraction) with means and ses shaped (T, Q).
    """
    if n_replicas < 1:
        raise ValueError("n_replicas must be at least 1")
    ctx = _StepContext(params, dt)
    steps_at = _record_steps(times, ctx.dt)
    C, M, CHUNK = params.n_colonies, params.levels + 1, rngmod.CHUNK
    per_group = max(1, _GROUP_BYTES // (CHUNK * C * (M + 1) * 8))
    chunks = list(rngmod.replica_chunks(n_replicas))
    sums, sumsq = [0.0] * len(steps_at), [0.0] * len(steps_at)
    clips = 0
    total_steps = 0
    for first in range(0, len(chunks), per_group):
        group = chunks[first:first + per_group]
        rngs = [rngmod.stream(seed, label, chunk) for chunk, _ in group]
        rows = len(group) * CHUNK
        if isinstance(init, SystemState):
            x = np.tile(init.x[None, :], (rows, 1))
            y = np.tile(init.y[None, :, :], (rows, 1, 1))
        else:
            x, y = np.empty((rows, C)), np.empty((rows, M, C))
            for i, rng in enumerate(rngs):
                part = slice(i * CHUNK, (i + 1) * CHUNK)
                x[part], y[part] = initial_arrays(params, init, rng, width=CHUNK)
        done = 0
        for i, target in enumerate(steps_at):
            clips += _advance(x, y, target - done, ctx, *rngs)
            done = target
            vals = np.asarray(reducer(x, y))
            # summed chunk by chunk, leaving out a partial chunk's padding rows
            for k, (_, width) in enumerate(group):
                part = vals[k * CHUNK:k * CHUNK + width]
                sums[i] += part.sum(axis=0)
                sumsq[i] += (part ** 2).sum(axis=0)
        total_steps += done * rows * C
    mean, se = _mean_se(np.array(sums), np.array(sumsq), n_replicas)
    return mean, se, clips / max(total_steps, 1)


# ----------------------------------------------------------------------
# Exact first moments via the single-lineage kernel
# ----------------------------------------------------------------------


def lineage_generator(params: ModelParams) -> np.ndarray:
    """Generator of one dual lineage on states (colony, role).

    Role 0 is active; role m+1 is m-dormant.  Active lineages migrate with
    the truncated kernel and fall asleep into colour m at rate K_m e_m N^-m;
    m-dormant lineages wake at rate e_m N^-m.  State index = role * C + colony.
    """
    C, M = params.n_colonies, params.levels + 1
    n_states = C * (M + 1)
    if n_states > 10_000:
        raise SizeError(f"state space of size {n_states} exceeds 10^4")
    Q = np.zeros((n_states, n_states))
    Q[:C, :C] = hiergeo.migration_matrix(params.kernel_spec())
    sleep, wake = params.sleep_rates(), params.exchange_rates()
    active = np.arange(C)
    for m in range(M):
        Q[active, (m + 1) * C + active] = sleep[m]
        Q[(m + 1) * C + active, active] = wake[m]
    np.fill_diagonal(Q, Q.diagonal() - Q.sum(axis=1))
    return Q


def _generator_exp(Q: np.ndarray, t: float, v: np.ndarray) -> np.ndarray:
    """exp(Q t) v for a CTMC generator Q, by uniformisation.

    With lam the largest exit rate, P = I + Q / lam is stochastic and
    exp(Q t) v = sum_k e^(-u) u^k / k! P^k v with u = lam t.  Each power is
    applied as P v = v + Q v / lam, so P itself is never formed.  Each Poisson
    weight is taken from its logarithm, so none underflows before it is
    negligible, and the sum stops at k = u + 10 sqrt(u) + 20, beyond which
    the Poisson tail is below 1e-20.  For v >= 0 every term is non-negative,
    so no cancellation occurs.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    v = np.array(v, dtype=float)
    lam = float(np.max(-Q.diagonal(), initial=0.0))
    u = lam * t
    if u == 0.0:
        return v
    out = np.zeros_like(v)
    for k in range(math.floor(u + 10.0 * math.sqrt(u)) + 20):
        if k:
            v = v + (Q @ v) / lam
        out += math.exp(k * math.log(u) - u - math.lgamma(k + 1)) * v
    return out


def first_moment_oracle(params: ModelParams, state: SystemState,
                        t: float) -> SystemState:
    """Exact per-site expectations E[z_(xi,R)(t)] by generator exponentiation.

    The first moments of the system follow the linear flow of the single
    dual lineage, so exp(Q t) z0, the action of the exponential on the
    flattened state computed by ``_generator_exp``, is an exact oracle for
    forward ensemble means.
    """
    C, M = params.n_colonies, params.levels + 1
    Q = lineage_generator(params)
    z0 = np.concatenate([state.x, state.y.reshape(M * C)])
    zt = _generator_exp(Q, t, z0)
    return SystemState(zt[:C], zt[C:].reshape(M, C))


# ----------------------------------------------------------------------
# McKean-Vlasov single colony: closed-form means
# ----------------------------------------------------------------------


def mckean_vlasov_mean(K: float, e: float, theta_x: float, theta_y: float,
                       t) -> tuple:
    """Closed-form component means of the single-colony mean-field limit.

    E[x(t)] = theta + K/(1+K) (theta_x - theta_y) exp(-(K+1) e t), and
    E[y(t)] = theta -  1/(1+K) (theta_x - theta_y) exp(-(K+1) e t), with
    theta = (theta_x + K theta_y) / (1 + K).  Independent of g.  The colony
    is the renormalisation pair at E = 1 with drift centre E[x(t)], so this
    is the transient oracle of ``renorm._PairIntegrator``.
    """
    t = np.asarray(t, dtype=float)
    theta = (theta_x + K * theta_y) / (1.0 + K)
    gap = (theta_x - theta_y) * np.exp(-(K + 1.0) * e * t)
    return theta + K / (1.0 + K) * gap, theta - 1.0 / (1.0 + K) * gap
