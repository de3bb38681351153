"""Block-counting dual: exact simulation and moment-duality checks.

The dual of the system with Fisher-Wright resampling is a collection of
lineages on (colony, role) sites, role A (active) or D_m (m-dormant).  Active
lineages migrate with the reversed kernel (symmetric here), fall asleep into
colour m at rate K_m e_m N^-m, coalesce pairwise at rate d when active at
the same colony; m-dormant lineages wake at rate e_m N^-m.  Since the duality
function only depends on occupation counts, the dual is simulated as a CTMC
on count configurations, one (S, M + 1, C) array, rather than labelled
partitions.  Its generator is built, one site at a time for all states, from
the single-lineage generator ``lineage_generator``: each of the n lineages on
a site moves by its rates, and each active pair at a colony coalesces at
rate d.

The moment duality  E_z[ H(z(t), l) ] = E_l[ H(z, L(t)) ]  with H(z, l) =
prod_sites z^l, one ``duality_function`` for replicas and count states, is
checked Monte Carlo against Monte Carlo. On small systems exp(Q t) H, the
action of the exponential of the count-CTMC generator Q on the vector of H
values by uniformisation (``_generator_exp``), cross-checks the dual side.
Both dual sides run on one count chain (Q, start state, H), built once per
check.  On the single-lineage generator the same sum gives the forward
system's exact first moments (``first_moment_oracle``).  ``count_sites``
caps every dense chain at 5000 states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import hiergeo, rng as rngmod
from .forward import SystemState, _mean_se, ensemble_reduce
from .params import ModelParams


class DualityError(ValueError):
    """Duality requested outside the Fisher-Wright class."""


class SizeError(ValueError):
    """State space too large for exact generator computations."""


# ----------------------------------------------------------------------
# Configurations
# ----------------------------------------------------------------------


@dataclass
class DualConfig:
    """Occupation counts: counts[0] active, counts[m+1] m-dormant, per colony."""

    counts: np.ndarray  # (M+1, C) non-negative ints

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=int)
        if np.any(counts < 0):
            raise ValueError("lineage counts must be non-negative")
        object.__setattr__(self, "counts", counts)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def actives(cls, params: ModelParams, placement: dict) -> "DualConfig":
        """Active lineages only: {colony_index: count}."""
        counts = np.zeros((params.levels + 2, params.n_colonies), dtype=int)
        for colony, n in placement.items():
            counts[0, colony] = n
        return cls(counts)


# ----------------------------------------------------------------------
# Exact Gillespie simulation
# ----------------------------------------------------------------------


class _DualContext:
    """Aggregated per-lineage rates with lazy migration-target sampling."""

    def __init__(self, params: ModelParams):
        self.N = params.N
        level_rates = params.kernel_spec().level_rates()
        # per-level rate of jumps that actually move: c_{l-1}/N^{l-1} (1 - N^-l)
        self.move_level_rates = (level_rates * (
            1.0 - float(self.N) ** -np.arange(1.0, params.levels + 2))).tolist()
        self.mig_rate = sum(self.move_level_rates)
        self.exch = params.exchange_rates()
        self.sleep_rates = params.sleep_rates().tolist()
        self.sleep_rate = sum(self.sleep_rates)

    def sample_target(self, site: int, rng) -> int:
        """Destination of one migration jump, conditioned on moving.

        Level l is drawn with probability proportional to its moving rate,
        then a uniform colony of the level-l block other than the source.
        """
        level = _pick(self.move_level_rates, rng.random()) + 1
        width = self.N ** level
        base = (site // width) * width
        offset = int(rng.integers(width - 1))
        if offset >= site - base:
            offset += 1
        return base + offset


def simulate_dual(cfg0: DualConfig, params: ModelParams, horizon: float,
                  rng):
    """Exact Gillespie trajectory of the block-counting process.

    Returns (event_log, terminal DualConfig); the log rows are
    (time, kind, site, detail) with detail the colour for sleep/wake and the
    destination colony for migrate.  The rate totals are kept up to date
    event by event and sites are picked from per-role lists of lineages, so
    an event costs O(lineages) whatever the number of colonies.
    """
    d = params.g.d
    if d is None:
        raise DualityError("coalescence needs a Fisher-Wright rate d")
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    ctx = _DualContext(params)
    counts = cfg0.counts.copy()
    # lineages[role] holds one site per lineage: role 0 active, m+1 m-dormant
    roles, sites = np.nonzero(counts)
    lineages = [[] for _ in counts]
    for role, site, n in zip(roles.tolist(), sites.tolist(),
                             counts[roles, sites].tolist()):
        lineages[role] += [site] * n
    active = lineages[0]
    # active pairs sharing a colony, sum of n (n - 1) / 2 over colonies
    pairs = int((counts[0] * (counts[0] - 1)).sum()) // 2

    def leave(role, k):
        """Remove lineage k of ``role`` (swapped with the last) and return
        its site."""
        nonlocal pairs
        lin = lineages[role]
        lin[k], lin[-1] = lin[-1], lin[k]
        site = lin.pop()
        counts[role, site] -= 1
        if role == 0:
            pairs -= int(counts[0, site])
        return site

    def arrive(role, site):
        nonlocal pairs
        if role == 0:
            pairs += int(counts[0, site])
        counts[role, site] += 1
        lineages[role].append(site)

    t = 0.0
    log = []
    while True:
        n_act = len(active)
        rates = [n_act * ctx.mig_rate, d * pairs, n_act * ctx.sleep_rate]
        rates += [len(lin) * r for lin, r in zip(lineages[1:], ctx.exch)]
        total = sum(rates)
        if total <= 0.0:
            break
        t += rng.exponential(1.0 / total)
        if t >= horizon:
            t = horizon
            break
        kind = _pick(rates, rng.random())
        if kind == 0:
            site = leave(0, int(rng.integers(n_act)))
            target = ctx.sample_target(site, rng)
            arrive(0, target)
            event = (t, "migrate", site, target)
        elif kind == 1:
            occupied = sorted(set(active))
            n_at = [int(counts[0, s]) for s in occupied]
            site = occupied[_pick([n * (n - 1) for n in n_at], rng.random())]
            leave(0, active.index(site))
            event = (t, "coalesce", site, -1)
        elif kind == 2:
            site = leave(0, int(rng.integers(n_act)))
            colour = _pick(ctx.sleep_rates, rng.random())
            arrive(colour + 1, site)
            event = (t, "sleep", site, colour)
        else:
            colour = kind - 3
            site = leave(colour + 1, int(rng.integers(len(lineages[colour + 1]))))
            arrive(0, site)
            event = (t, "wake", site, colour)
        log.append(event)
    return log, DualConfig(counts)


def _pick(weights, u: float) -> int:
    """Index i with probability weights[i] / sum(weights), by inverse CDF
    at u in [0, 1); a u that rounding carries past the total picks the last
    index of positive weight."""
    x = u * sum(weights)
    last = 0
    for i, w in enumerate(weights):
        if w > 0:
            last = i
            x -= w
            if x < 0:
                return i
    return last


# ----------------------------------------------------------------------
# Count-state enumeration and exact dual law
# ----------------------------------------------------------------------


def count_sites(params: ModelParams, n_max: int) -> int:
    """The C (M + 1) sites of the count states; SizeError, counted without
    building any state, when over 5000 states hold 1 to n_max lineages."""
    n_sites = params.n_colonies * (params.levels + 2)
    size = 0
    for n in range(1, n_max + 1):
        # n lineages on n_sites sites: C(n_sites + n - 1, n) configurations
        size += math.comb(n_sites + n - 1, n)
        if size > 5000:
            raise SizeError("count-state space exceeds 5000")
    return n_sites


def enumerate_count_states(params: ModelParams, n_max: int) -> np.ndarray:
    """All occupation-count configurations with 1 <= total <= n_max, as one
    (S, M + 1, C) int array: by total, then in the
    ``itertools.combinations_with_replacement`` order of the lineages'
    sites.  SizeError, before any is built, beyond 5000 of them."""
    n_sites = count_sites(params, n_max)
    states = [np.zeros((0, n_sites), dtype=np.intp)]
    for n in range(1, n_max + 1):
        sites = np.fromiter(itertools.chain.from_iterable(
            itertools.combinations_with_replacement(range(n_sites), n)),
            dtype=np.intp).reshape(-1, n, 1)  # a state's lineages per row
        states.append((sites == np.arange(n_sites)).sum(axis=1))
    return np.concatenate(states).reshape(
        -1, params.levels + 2, params.n_colonies)


def lineage_generator(params: ModelParams) -> np.ndarray:
    """Generator of one dual lineage on the sites role * C + colony.

    Role 0 is active; role m+1 is m-dormant.  Active lineages migrate with
    the truncated kernel and fall asleep into colour m at rate K_m e_m N^-m;
    m-dormant lineages wake at rate e_m N^-m.  SizeError, from
    ``count_sites``, beyond 5000 sites.
    """
    C = params.n_colonies
    n_sites = count_sites(params, 1)
    Q = np.zeros((n_sites, n_sites))
    Q[:C, :C] = hiergeo.migration_matrix(params.kernel_spec())
    sleep, wake = params.sleep_rates(), params.exchange_rates()
    active = np.arange(C)
    for m in range(params.levels + 1):
        Q[active, (m + 1) * C + active] = sleep[m]
        Q[(m + 1) * C + active, active] = wake[m]
    np.fill_diagonal(Q, Q.diagonal() - Q.sum(axis=1))
    return Q


def dual_generator(params: ModelParams, states: np.ndarray) -> np.ndarray:
    """CTMC generator of the block-counting process on enumerated states.

    With q the single-lineage generator on sites role * C + colony, a site a
    holding n lineages sends one to site b at rate n q(a, b), and n active
    lineages at one colony lose one to coalescence at rate d n (n - 1) / 2.
    Jumps out of site a are built for all states at once, their targets found
    by binary search on sorted byte keys; those outside ``states`` are dropped.
    """
    d = params.g.d
    if d is None:
        raise DualityError("coalescence needs a Fisher-Wright rate d")
    q = lineage_generator(params)
    np.fill_diagonal(q, 0.0)
    flat = np.ascontiguousarray(states).reshape(len(states), -1)
    keys = flat.view(np.dtype((np.void, flat.strides[0]))).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    Q = np.zeros((len(states), len(states)))
    for a in range(flat.shape[1]):
        i = np.flatnonzero(flat[:, a])
        n = flat[i, a]
        b = np.flatnonzero(q[a])
        # one lineage leaves a: for b, or at an active site by coalescence
        coal = int(a < params.n_colonies)
        moves = np.zeros((coal + len(b), flat.shape[1]), dtype=flat.dtype)
        moves[coal + np.arange(len(b)), b] = 1
        moves[:, a] -= 1
        rates = np.column_stack([d * n * (n - 1) / 2.0] * coal
                                + [n[:, None] * q[a, b]]).ravel()
        new = (flat[i, None] + moves).reshape(-1, flat.shape[1])
        new = new.view(keys.dtype).ravel()
        j = order[np.minimum(np.searchsorted(sorted_keys, new), len(Q) - 1)]
        hit = (keys[j] == new) & (rates > 0)    # rate 0: n = 1, no pair
        Q[np.repeat(i, len(moves))[hit], j[hit]] = rates[hit]
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


def duality_function(state: SystemState, counts: np.ndarray):
    """H(z, l) = prod_colonies x^{l_A} prod_m y_m^{l_{D_m}}  (0^0 = 1).

    Broadcast over the leading axes of the state (replicas: x (..., C) and
    y (..., M, C)) or of the counts (states: (..., M + 1, C))."""
    return (np.prod(state.x ** counts[..., 0, :], axis=-1)
            * np.prod(state.y ** counts[..., 1:, :], axis=(-2, -1)))


def _count_chain(params: ModelParams, z: SystemState,
                 cfg0: DualConfig) -> tuple:
    """(Q, start index, H(z, .)) on all states of at most cfg0.total
    lineages: the one chain both dual sides of ``duality_estimate`` share."""
    if cfg0.total < 1:
        raise ValueError("the dual needs at least one lineage")
    states = enumerate_count_states(params, cfg0.total)
    (start,) = np.flatnonzero((states == cfg0.counts).all(axis=(1, 2)))
    return (dual_generator(params, states), int(start),
            duality_function(z, states))


def exact_dual_moment(Q: np.ndarray, start: int, H: np.ndarray,
                      t: float) -> float:
    """E[H(z, L(t))] = (exp(Q t) H)[start] on the count chain (Q, start, H)
    that the dual Monte Carlo also runs.  ``_generator_exp`` computes the
    action on H; a negative t raises ValueError."""
    return float(_generator_exp(Q, t, H)[start])


def _jump_table(Q: np.ndarray) -> tuple:
    """(cum, to): each state's cumulative jump probabilities and target
    states, over its out-edges in column order, padded to the largest
    out-degree.  Each row's last out-edge and the padding hold +inf, so an
    inverse-CDF pick ``(cum[s] < u).sum()`` lands on an out-edge even where
    the cumulative sum rounds below u."""
    rows, cols = np.nonzero(Q)
    off = rows != cols
    rows, cols = rows[off], cols[off]
    degree = np.bincount(rows, minlength=len(Q))
    slot = np.arange(len(rows)) - (np.cumsum(degree) - degree)[rows]
    cum = np.zeros((len(Q), max(degree.max(initial=0), 1)))
    to = np.zeros(cum.shape, dtype=np.intp)
    cum[rows, slot] = Q[rows, cols] / -Q.diagonal()[rows]
    to[rows, slot] = cols
    np.cumsum(cum, axis=1, out=cum)
    cum[np.arange(cum.shape[1]) >= degree[:, None] - 1] = np.inf
    return cum, to


def _sample_dual_H(Q: np.ndarray, start: int, H: np.ndarray, t: float,
                   n_replicas: int, seed: int) -> tuple:
    """Monte Carlo of E[H(z, L(t))], vectorised over replicas: an exact-law
    sampler of the jump chain of the count chain (Q, start, H) that the exact
    moment also uses, through the compact ``_jump_table`` of Q."""
    if n_replicas < 1:
        raise ValueError("n_replicas must be at least 1")
    if t < 0:
        raise ValueError("t must be non-negative")
    out_rate = -Q.diagonal()
    cum, to = _jump_table(Q)
    total = 0.0
    total_sq = 0.0
    for chunk, width in rngmod.replica_chunks(n_replicas):
        rng = rngmod.stream(seed, "dual-H", chunk)
        s_idx = np.full(rngmod.CHUNK, start)
        t_now = np.zeros(rngmod.CHUNK)
        alive = np.ones(rngmod.CHUNK, dtype=bool)
        while np.any(alive):
            rates = out_rate[s_idx]
            movable = alive & (rates > 0)
            if not np.any(movable):
                break
            dt_draw = rng.exponential(1.0, size=rngmod.CHUNK)
            u = rng.random(rngmod.CHUNK)
            t_next = t_now + np.where(movable, dt_draw / np.maximum(rates, 1e-300),
                                      np.inf)
            jump = movable & (t_next < t)
            src = s_idx[jump]
            s_idx[jump] = to[src, (cum[src] < u[jump, None]).sum(axis=1)]
            t_now[jump] = t_next[jump]
            alive = jump
        vals = H[s_idx[:width]]
        total += vals.sum()
        total_sq += (vals ** 2).sum()
    mean, se = _mean_se(total, total_sq, n_replicas)
    return float(mean), float(se)


# ----------------------------------------------------------------------
# Duality estimate
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DualityReport:
    lhs: float
    lhs_se: float
    rhs: float
    rhs_se: float
    exact_rhs: float
    t: float
    replicas: int

    @property
    def gap(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def combined_se(self) -> float:
        return math.hypot(self.lhs_se, self.rhs_se)

    def passes(self) -> bool:
        """The two sides agree within 3 combined standard errors."""
        return self.gap <= 3.0 * self.combined_se + 1e-12

    def as_dict(self) -> dict:
        return {**asdict(self), "gap": self.gap,
                "combined_se": self.combined_se, "pass_3se": self.passes()}


def duality_estimate(params: ModelParams, z: SystemState, cfg0: DualConfig,
                     t: float, n_replicas: int, seed: int,
                     dt: Optional[float] = None) -> DualityReport:
    """Both sides of the moment duality with standard errors.

    lhs: forward Monte Carlo of H(z(t), l) started from the deterministic
    configuration z.  rhs (dual Monte Carlo) and exact_rhs (exp(Q t) H) of
    H(z, L(t)) from l share one count chain, built before the forward
    ensemble.  Only for Fisher-Wright resampling; a count space too large
    for the chain raises SizeError before any replica is allocated.
    """
    if not params.g.is_fisher_wright:
        raise DualityError("moment duality holds for g = d * x(1-x) only; "
                           "got a tabulated g")
    chain = _count_chain(params, z, cfg0)
    mean, se, _ = ensemble_reduce(
        params, z, (t,), n_replicas, seed,
        lambda x, y: duality_function(SystemState(x, y), cfg0.counts)[:, None],
        dt=dt, label="duality-forward")
    rhs, rhs_se = _sample_dual_H(*chain, t, n_replicas, seed)
    exact = exact_dual_moment(*chain, t)
    return DualityReport(lhs=float(mean[0, 0]), lhs_se=float(se[0, 0]),
                         rhs=rhs, rhs_se=rhs_se, exact_rhs=exact,
                         t=t, replicas=n_replicas)
