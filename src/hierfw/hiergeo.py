"""Geometry of the truncated hierarchical group and its random-walk kernels.

Colonies live on the hierarchical group of order N truncated at T levels and
are indexed little-endian by their digit strings, so level-k blocks are
contiguous runs of N^k indices.  The distance of two colonies is the lowest
level above which all their digits agree (an ultrametric).

Migration jumps pick a block radius k at rate c_{k-1} / N^{k-1} and then a
uniform colony inside that block, which gives the pair rate

    a(xi, eta) = sum_{k >= d(xi, eta)} c_{k-1} / N^{2k-1},   xi != eta.

Note that a level-k jump lands back on the starting colony with probability
N^{-k}; the total jump-initiation rate sum_k c_{k-1}/N^{k-1} therefore splits
into the off-diagonal kernel mass plus a self-landing mass.

The time-t return probability of the walk is evaluated through its
eigen-expansion (distance-distribution weights r_j, eigen-rates h_j); the
expansion is the one for the rate-normalised walk, so h_j-time is measured
in units of one expected jump.  Constants and slope fits built on top of it
are unaffected by that time change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """Mismatched or invalid geometric parameters."""


class AccuracyError(RuntimeError):
    """Requested evaluation exceeds what the stored truncation supports."""


# ----------------------------------------------------------------------
# Migration kernel
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelSpec:
    """Migration coefficients c_0, ..., c_{T-1} on a truncation-T group.

    Level-k jumps (k = 1..T) occur at rate c_{k-1} / N^{k-1}.  The growth
    condition limsup (1/k) log c_k < log N is enforced on the stored prefix,
    which keeps the total jump rate finite as the truncation grows.
    """

    N: int
    c: tuple

    def __post_init__(self):
        if self.N < 2:
            raise ParameterError("group order must be >= 2")
        if any(ck <= 0 for ck in self.c):
            raise ParameterError("migration coefficients must be positive")
        # c_k < N^{k+1} on the prefix: a violation means the stored sequence
        # already breaks the growth condition, not just its tail.
        logN = np.log(self.N)
        for k, ck in enumerate(self.c):
            if np.log(ck) >= (k + 1) * logN:
                raise ParameterError(
                    f"c_{k} = {ck} violates the growth condition for N = {self.N}"
                )

    @property
    def truncation(self) -> int:
        """Number of levels T, one per stored c_k."""
        return len(self.c)

    def level_rates(self) -> np.ndarray:
        """Jump-initiation rate per level: c_{k-1} / N^{k-1}, k = 1..T."""
        k = np.arange(1, self.truncation + 1)
        return np.asarray(self.c) / float(self.N) ** (k - 1)


def _distance_rate(d: int, spec: KernelSpec) -> float:
    ks = np.arange(max(d, 1), spec.truncation + 1)
    return float(np.sum(np.asarray(spec.c)[ks - 1] / float(spec.N) ** (2 * ks - 1)))


def migration_matrix(spec: KernelSpec) -> np.ndarray:
    """Pair rates a(i, j) between all N^T colonies, by little-endian index.

    The distance of indices i and j is the number of levels k < T at which
    their level-k blocks i // N^k and j // N^k differ.
    """
    N, T = spec.N, spec.truncation
    index = np.arange(N ** T)
    dist = np.zeros((index.size, index.size), dtype=int)
    for k in range(T):
        block = index // N ** k
        dist += block[:, None] != block[None, :]
    rates = [0.0] + [_distance_rate(d, spec) for d in range(1, T + 1)]
    return np.asarray(rates)[dist]


def total_jump_rate(spec: KernelSpec) -> float:
    """Total jump-initiation rate sum_k c_{k-1} / N^{k-1}.

    Equals the off-diagonal kernel mass plus the self-landing mass; it is
    what 'total migration rate per individual' refers to.
    """
    return float(np.sum(spec.level_rates()))


# ----------------------------------------------------------------------
# Eigen-expansion of the time-t kernel
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KernelExpansion:
    """Distance distribution r_j and eigen-rates h_j.

    r_j is the probability that a jump of the rate-normalised walk covers
    hierarchical distance exactly j (j = 1..levels); h_j are the associated
    eigen-rates, non-increasing for the regular coefficient families.  The
    time-t kernel at distance k is

        a_t(0, eta) = sum_{j >= max(k,1)} K_jk exp(-h_j t) / N^j,

    with K_jk = -1 for j = k > 0 and N-1 for j > k (K_00 = 0).
    """

    N: int
    r: np.ndarray
    h: np.ndarray
    log_h: np.ndarray

    @property
    def levels(self) -> int:
        return len(self.r)


def build_expansion(spec: KernelSpec) -> KernelExpansion:
    """Eigen-expansion of the walk defined by ``spec``.

    Worked in log space: for deep truncations the unnormalised weights span
    hundreds of orders of magnitude.
    """
    from scipy.special import logsumexp  # scipy.special loads on first use
    N, L = spec.N, spec.truncation
    logN = np.log(N)
    logc = np.log(np.asarray(spec.c, dtype=float))
    # log u_j = log[(N-1) sum_{i>=0} c_{j+i-1} N^{-(j+2i)}],  j = 1..L
    log_u = np.empty(L)
    for j in range(1, L + 1):
        i = np.arange(0, L - j + 1)
        terms = logc[j + i - 1] - (j + 2 * i) * logN
        log_u[j - 1] = np.log(N - 1) + logsumexp(terms)
    r = np.exp(log_u - logsumexp(log_u))
    # h_j = N/(N-1) r_j + sum_{i>j} r_i
    tail = np.concatenate([np.cumsum(r[::-1])[::-1][1:], [0.0]])
    h = N / (N - 1) * r + tail
    return KernelExpansion(N=N, r=r, h=h, log_h=np.log(h))


def log_return_probability(log_t: np.ndarray,
                           exp_: KernelExpansion) -> np.ndarray:
    """log a_t(0,0) on a grid of log-times, safely for astronomically large t.

    t counts expected jumps: it is time t / q of the walk with pair rates
    ``migration_matrix(spec)``, q the off-diagonal exit rate of colony 0,
    whose return probability is this a_t(0,0) plus the uniform mass N^-L of
    the truncated group.  All distance-0 terms are positive, so the
    log-sum-exp is exact.  Raises AccuracyError if the deepest stored
    eigen-rate is not yet frozen (h_L * t > 0.1) at the largest requested
    time, since then the truncated expansion is missing decaying mass it
    cannot represent.
    """
    from scipy.special import logsumexp  # scipy.special loads on first use
    log_t = np.atleast_1d(np.asarray(log_t, dtype=float))
    N, L = exp_.N, exp_.levels
    if np.exp(exp_.log_h[-1] + log_t.max()) > 0.1:
        raise AccuracyError(
            "truncation too small for requested horizon: deepest eigen-rate "
            f"h_{L} = {exp_.h[-1]:.3e} is active at t_max"
        )
    j = np.arange(1, L + 1, dtype=float)
    # term_j(t) = log(N-1) - h_j t - j log N
    ht = np.exp(exp_.log_h[None, :] + log_t[:, None])  # h_j * t, safe products
    terms = np.log(N - 1) - ht - j[None, :] * np.log(N)
    return logsumexp(terms, axis=1)

