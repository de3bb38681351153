"""Renormalisation analysis: effective equilibria, the map F and its orbit.

The level-l effective process is the pair

    dx = E_l [ c_l (theta - x) dt + sqrt(g_l(x)) dw + K_l e_l (y - x) dt ],
    dy = e_l (x - y) dt,

whose unique equilibrium Gamma_theta defines the renormalisation map
(F g)(theta) = E^{Gamma_theta}[ g(x) ].  Iterating F with level-n rates and
scaling by the clustering coefficients A_n drives any admissible g to the
Fisher-Wright function x(1-x) in the clustering regime.

Sampling scheme: the exchange part of the pair is a linear rotation with the
weighted mean u = (x + EK y)/(1+EK) conserved and the difference decaying at
rate EKe + e; both it and the drift decay toward theta are applied exactly,
and the noise enters as a mean-preserving moment-matched Beta kick.  The step
size then only needs to resolve the slow relaxation rate Ec/(1+EK) and the
noise scale, so deep levels (where the time scales separate exponentially)
cost the same as level 0, and the boundary-singular equilibria of the
clustering regime keep their correct boundary behaviour.

Sampled equilibrium moments are long-run time averages over independent
replicas (with a split-half stationarity check); the interaction chain keeps
each replica's state after its burn-in.  Stepped with theta = E[x(t)] at
E = 1, the integrator runs the mean-field colony's transient, whose
closed-form means ``mckean_vlasov_mean`` are its exact oracle.

The map F itself is computed without sampling (``evaluate_F``, see
``hierfw.exact``): where r = E c / e >= 1/32 and EK is not near 0, by a
Richardson-extrapolated upwind Markov chain on an (x, y) grid; elsewhere, by
the averaged one-dimensional law of the weighted mean u, whose speed-measure
density is explicit.  The orbit ``iterate_F_scaled`` composes it.  ``sample_F``
samples the equilibria as above and stays the independent per-level
cross-check.  Either way F g is stored by its node values as g = x(1-x) h
(``DiffusionFn.from_g``), so the Fisher-Wright orbit stays in its family on
any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng as rngmod
from .diffusion import DiffusionFn, fisher_wright
from .params import ClusteringCoefficients, DerivedParams, ModelParams


@dataclass(frozen=True)
class EquilibriumBudget:
    """Simulation effort for one equilibrium, in slow-relaxation-time units."""

    n_replicas: int
    burn: float = 20.0
    sample: float = 80.0
    dt_factor: float = 0.01
    stride: int = 4

    def __post_init__(self):
        if self.n_replicas < 1:
            raise ValueError("n_replicas must be at least 1")
        if not self.burn >= 0:
            raise ValueError(f"burn must be non-negative, found {self.burn}")
        if not self.sample > 0:
            raise ValueError(f"sample must be positive, found {self.sample}")
        if not self.dt_factor > 0:
            raise ValueError("dt_factor must be positive")
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, found {self.stride}")


@dataclass
class EquilibriumEstimate:
    ex: float
    ey: float
    exx: float
    eyy: float
    exy: float
    fg: float                  # E[g(x)] = (F g)(theta)
    se: dict                   # standard errors keyed like the fields
    flagged: bool
    total_steps: int


class _PairIntegrator:
    """Vectorised split-step scheme for a batch of effective pairs.

    Strang composition R(h) D(h) N(dt) D(h) R(h) with h = dt/2: the exchange
    rotation R (weighted mean conserved, difference decaying at EKe + e) and
    the drift decay D toward theta are applied exactly; only the noise kick N
    is stochastic.  The symmetric ordering removes the O(dt) equilibrium
    bias of the plain Euler splitting.  R and D are linear in the deviations
    (x - theta, y - theta), so the half-steps between two kicks compose to
    one 2x2 matrix: ``pre`` = D R before the first kick, ``mid`` = D R R D
    between kicks and ``post`` = R D after the last.
    """

    def __init__(self, E, c, K, e, g, dt_factor):
        self.E, self.c, self.K, self.e, self.g = E, c, K, e, g
        self.r_fast = E * K * e + e
        self.r_slow = E * c / (1.0 + E * K)
        # noise scale max(h) >= 4 max(g), d for Fisher-Wright: robust against
        # Monte Carlo jitter in tabulated iterates, unlike a Lipschitz bound
        kick_rate = E * E * max(float(np.max(g.h)), 1e-12) / (1.0 + E * K) ** 2
        # resolve the slow relaxation and the noise, and keep the per-step
        # variance injection moderate so the splitting of drift against
        # noise stays accurate
        self.dt = min(dt_factor / max(self.r_slow, kick_rate),
                      0.15 ** 2 / kick_rate)
        decay = math.exp(-self.r_fast * self.dt / 2.0)
        w_u = 1.0 / (1.0 + E * K)
        rot = np.array([[w_u * (1.0 + E * K * decay), w_u * E * K * (1.0 - decay)],
                        [w_u * (1.0 - decay), w_u * (E * K + decay)]])
        drift = np.diag([math.exp(-E * c * self.dt / 2.0), 1.0])
        self.pre = (drift @ rot).tolist()
        self.mid = (drift @ rot @ rot @ drift).tolist()
        self.post = (rot @ drift).tolist()

    def steps_for(self, relax_times: float) -> int:
        return max(int(math.ceil(relax_times / max(self.r_slow, 1e-300) / self.dt)), 1)

    def _noise_kick(self, x, rng):
        """Mean-preserving Beta redraw with variance E^2 g(x) dt.

        A Gaussian kick of that size misresolves the boundary-singular
        equilibrium densities of the clustering regime (and its clipping
        biases E[g] upward); the matched Beta transition keeps the state in
        [0,1] with the correct boundary behaviour at any step size.  Every
        element takes one draw; elements without variance keep their value.
        """
        v = self.g(x)
        np.maximum(v, 0.0, out=v)
        v *= self.E * self.E * self.dt
        span = x * (1.0 - x)
        np.minimum(v, 0.25 * span, out=v)
        live = v > 0.0
        np.maximum(v, 1e-300, out=v)
        ratio = np.divide(span, v, out=span)
        ratio -= 1.0
        a = x * ratio
        b = ratio - a
        np.maximum(a, 1e-12, out=a)
        np.maximum(b, 1e-12, out=b)
        np.copyto(x, rng.beta(a, b), where=live)

    @staticmethod
    def _map(m, dx, dy):
        """(dx, dy) <- m (dx, dy) in place, on deviations from theta."""
        t = dx * m[1][0]
        dx *= m[0][0]
        dx += dy * m[0][1]
        dy *= m[1][1]
        dy += t

    def advance(self, x, y, theta, n_steps, rng):
        """In-place advance; theta is a scalar or an array broadcast over x."""
        if n_steps < 1:
            return
        x -= theta
        y -= theta
        self._map(self.pre, x, y)
        for step in range(n_steps):
            x += theta
            self._noise_kick(x, rng)
            x -= theta
            self._map(self.mid if step < n_steps - 1 else self.post, x, y)
        x += theta
        y += theta


def mckean_vlasov_mean(K: float, e: float, theta_x: float, theta_y: float,
                       t) -> tuple:
    """Closed-form component means of the single-colony mean-field limit.

    E[x(t)] = theta + K/(1+K) (theta_x - theta_y) exp(-(K+1) e t), and
    E[y(t)] = theta -  1/(1+K) (theta_x - theta_y) exp(-(K+1) e t), with
    theta = (theta_x + K theta_y) / (1 + K).  Independent of g.  The colony
    is the pair at E = 1 with drift centre E[x(t)], so this is the transient
    oracle of ``_PairIntegrator``.
    """
    t = np.asarray(t, dtype=float)
    theta = (theta_x + K * theta_y) / (1.0 + K)
    gap = (theta_x - theta_y) * np.exp(-(K + 1.0) * e * t)
    return theta + K / (1.0 + K) * gap, theta - 1.0 / (1.0 + K) * gap


def mv_equilibrium(E: float, c: float, K: float, e: float, g: DiffusionFn,
                   theta: float, budget: EquilibriumBudget,
                   seed: int) -> EquilibriumEstimate:
    """Equilibrium moments of the effective pair with drift centre theta.

    Long-run time averages over independent replicas; the estimate is
    flagged when a split-half comparison of the sampling window rejects
    stationarity at 4 combined standard errors.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError("theta must lie in [0,1]")
    rng = rngmod.stream(seed, "mv", "theta", f"{theta:.17g}")
    return _equilibria(E, c, K, e, g, np.array([theta], dtype=float),
                       budget, rng)[0]


def _equilibria(E, c, K, e, g, thetas: np.ndarray, budget: EquilibriumBudget,
                rng) -> list:
    """Sampler behind ``mv_equilibrium`` and ``sample_F``: burn-in, then time
    averages of R replicas per drift centre, advanced together as (n, R)
    arrays."""
    integ = _PairIntegrator(E, c, K, e, g, budget.dt_factor)
    R = budget.n_replicas
    theta_col = thetas[:, None]
    x = np.repeat(theta_col, R, axis=1)
    y = x.copy()
    n_burn = integ.steps_for(budget.burn)
    integ.advance(x, y, theta_col, n_burn, rng)
    n_sample = integ.steps_for(budget.sample)
    acc = np.zeros((6,) + x.shape)
    acc_half = np.zeros((2,) + x.shape)
    half_counts = [0, 0]
    n_rec = 0
    for s in range(0, n_sample, budget.stride):
        n_adv = min(budget.stride, n_sample - s)
        integ.advance(x, y, theta_col, n_adv, rng)
        acc[0] += x
        acc[1] += y
        acc[2] += x * x
        acc[3] += y * y
        acc[4] += x * y
        acc[5] += integ.g(x)
        n_rec += 1
        h = 0 if s < n_sample // 2 else 1
        acc_half[h] += x * x
        half_counts[h] += 1
    means = acc / n_rec                      # per-replica time averages
    grand = means.mean(axis=2)
    se = means.std(axis=2, ddof=1) / math.sqrt(R)
    diff = (acc_half[1] / max(half_counts[1], 1)
            - acc_half[0] / max(half_counts[0], 1))
    gap = np.abs(diff.mean(axis=1))
    gap_se = diff.std(axis=1, ddof=1) / math.sqrt(R)
    keys = ("ex", "ey", "exx", "eyy", "exy", "fg")
    return [EquilibriumEstimate(
        **dict(zip(keys, map(float, grand[:, i]))),
        se={k: float(v) for k, v in zip(keys, se[:, i])},
        flagged=bool(gap[i] > 4.0 * gap_se[i] + 1e-12),
        total_steps=(n_burn + n_sample) * R) for i in range(len(thetas))]


# ----------------------------------------------------------------------
# The renormalisation map
# ----------------------------------------------------------------------

@dataclass
class FGrid:
    """Sampled evaluation of F g on a grid, with per-node standard errors and
    stationarity flags."""

    fn: DiffusionFn
    se: np.ndarray
    flags: np.ndarray


def _on_grid(theta_grid, interior_F) -> tuple:
    """Check a theta grid, before any evaluation, and evaluate F g on it.

    ``interior_F(nodes)`` returns per-node arrays at the interior nodes, F g
    first.  Each is pinned to zero (False for flags) at the endpoints: the
    equilibrium at theta in {0,1} is degenerate at the boundary where g
    vanishes.  F g is clipped at zero, since Monte Carlo noise or the
    Richardson step may leave slightly negative estimates of a non-negative
    quantity, and returned as a DiffusionFn, so the result is again an
    admissible diffusion function.
    """
    grid = np.asarray(theta_grid, dtype=float)
    if grid.size < 3 or grid[0] != 0.0 or grid[-1] != 1.0:
        raise ValueError("theta grid must include the endpoints 0 and 1 "
                         "and at least one interior node")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("theta grid must be strictly increasing")

    def pinned(values):
        values = np.asarray(values)
        full = np.zeros(grid.size, values.dtype)
        full[1:-1] = values
        return full

    fg, *rest = map(pinned, interior_F(grid[1:-1]))
    return (DiffusionFn.from_g(grid, np.maximum(fg, 0.0)), *rest)


def evaluate_F(g: DiffusionFn, E: float, c: float, K: float, e: float,
               theta_grid: np.ndarray) -> DiffusionFn:
    """(F g)(theta) = E^{Gamma_theta}[g(x)] at each grid node, computed by
    ``exact.exact_F`` without sampling."""
    from .exact import exact_F     # only processes that use it compile it
    return _on_grid(theta_grid,
                    lambda nodes: (exact_F(g, E, c, K, e, nodes),))[0]


def sample_F(g: DiffusionFn, E: float, c: float, K: float, e: float,
             theta_grid: np.ndarray, budget: EquilibriumBudget,
             seed: int) -> FGrid:
    """F g at each grid node by sampling the equilibria with ``budget``: the
    Monte Carlo cross-check of ``evaluate_F``, one level at a time."""
    def moments(nodes):
        rng = rngmod.stream(seed, "F", "grid", *[f"{t:.17g}" for t in nodes])
        ests = _equilibria(E, c, K, e, g, nodes, budget, rng)
        return ([m.fg for m in ests], [m.se["fg"] for m in ests],
                [m.flagged for m in ests])

    return FGrid(*_on_grid(theta_grid, moments))


def fw_recursion_oracle(d: float, levels: int,
                        coefficients: ClusteringCoefficients) -> np.ndarray:
    """Exact orbit of the Fisher-Wright family: rates d_n with F^(n) (d g_FW)
    = d_n g_FW, obeying d_{n+1} = d_n / (1 + d_n A_n^n), i.e.
    1/d_n = 1/d + A_0^{n-1}."""
    out = np.empty(levels + 1)
    out[0] = d
    for n in range(levels):
        a = coefficients.terms[n]
        out[n + 1] = out[n] / (1.0 + out[n] * a)
    return out


# ----------------------------------------------------------------------
# Orbit of F with universality scaling
# ----------------------------------------------------------------------


@dataclass
class OrbitReport:
    levels: np.ndarray            # 1 .. n_levels
    A: np.ndarray                 # A_n per level
    theta_grid: np.ndarray
    sup_distance: np.ndarray      # sup-node |A_n F^(n) g - g_FW|
    grids: list                   # F^(n) g as DiffusionFn per level


def iterate_F_scaled(g: DiffusionFn, params: ModelParams,
                     derived: DerivedParams, coefficients: ClusteringCoefficients,
                     n_levels: int, theta_grid: np.ndarray) -> OrbitReport:
    """Compute F^(n) g with level-n rates and report A_n F^(n) g vs g_FW."""
    if n_levels < 1:
        raise ValueError("orbit depth must be at least 1")
    if n_levels > params.levels + 1:
        raise ValueError("orbit depth exceeds stored coefficient range")
    grid = np.asarray(theta_grid, dtype=float)
    fw_ref = fisher_wright()(grid)
    current = g
    sups, grids = [], []
    for n in range(1, n_levels + 1):
        lvl = n - 1
        current = evaluate_F(current, float(derived.E[lvl]), params.c[lvl],
                             params.K[lvl], params.e[lvl], grid)
        vals = coefficients.A[n] * current(grid)
        sups.append(float(np.max(np.abs(vals - fw_ref))))
        grids.append(current)
    return OrbitReport(
        levels=np.arange(1, n_levels + 1), A=coefficients.A[1:n_levels + 1],
        theta_grid=grid, sup_distance=np.asarray(sups), grids=grids,
    )


# ----------------------------------------------------------------------
# Interaction chain
# ----------------------------------------------------------------------


def sample_interaction_chain(k: int, params: ModelParams,
                             derived: DerivedParams, g_orbit: Sequence[DiffusionFn],
                             budget: EquilibriumBudget, seed: int) -> np.ndarray:
    """Descend the interaction chain M^k_{-l} from vartheta_k with
    ``budget.n_replicas`` replicas; returns their (k + 1, R) active values.

    Row l is the draw at the step from -(l+1) to -l: the level-l pair, centred
    at the current active value, runs ``budget.burn`` slow-relaxation times
    from there, and each replica's x_l centres the next level down.
    """
    if len(g_orbit) < k + 1:
        raise ValueError("g_orbit must provide F^(l) g for l = 0..k")
    centre = np.full(budget.n_replicas, float(derived.theta_seq[k]))
    xs = np.empty((k + 1, budget.n_replicas))
    for l in range(k, -1, -1):
        integ = _PairIntegrator(float(derived.E[l]), params.c[l], params.K[l],
                                params.e[l], g_orbit[l], budget.dt_factor)
        rng = rngmod.stream(seed, "chain", k, l)
        x = centre.copy()
        y = centre.copy()
        integ.advance(x, y, centre, integ.steps_for(budget.burn), rng)
        xs[l] = centre = x
    return xs


def chain_moment_predictions(k: int, derived: DerivedParams,
                             coefficients: ClusteringCoefficients,
                             g_top: DiffusionFn) -> tuple:
    """Predicted chain means and variances per level.

    The active value at level -m has mean vartheta_k and variance
    A_m^k (F^(k+1) g)(vartheta_k); g_top must be F^(k+1) g.
    """
    theta = float(derived.theta_seq[k])
    top = float(g_top(theta))
    means = np.full(k + 1, theta)
    variances = np.array([coefficients.A_block(m, k) * top for m in range(k + 1)])
    return means, variances


# ----------------------------------------------------------------------
# Volatility profile
# ----------------------------------------------------------------------


def volatility_profile(k: int, coefficients: ClusteringCoefficients) -> np.ndarray:
    """f^k(l) = A_0^l / A_0^k for l = 0..k (inclusive block sums)."""
    if k < 0:
        raise ValueError("profile depth must be non-negative")
    A0 = np.array([coefficients.A_block(0, l) for l in range(k + 1)])
    return A0 / A0[-1]


def classify_profile(coefficients: ClusteringCoefficients, k: int) -> str:
    """Fast / diffusive / slow clustering from the crossing levels of f^k.

    Tracks the smallest level where the profile reaches epsilon, for
    epsilon = 1/4 and 1/2 and a range of depths k' <= k.  A crossing that
    stays within O(1) of k' (slope one, epsilon shifting only the intercept)
    is fast clustering; a crossing at a proportional level kappa(epsilon) k'
    is diffusive; a crossing at o(k') is slow.
    """
    if k < 2:
        raise ValueError("profile classification needs depth >= 2")
    depths = np.arange(min(max(2, k // 2), k - 1), k + 1)
    slopes = []
    for eps in (0.25, 0.5):
        crossings = []
        for kk in depths:
            f = volatility_profile(int(kk), coefficients)
            crossings.append(int(np.argmax(f >= eps)))
        centred = depths - depths.mean()
        slope = float(np.dot(centred, np.asarray(crossings, dtype=float)
                             - np.mean(crossings)) / np.dot(centred, centred))
        slopes.append(slope)
    s = float(np.mean(slopes))
    if s > 0.85:
        return "fast"
    if s < 0.15:
        return "slow"
    return "diffusive"
