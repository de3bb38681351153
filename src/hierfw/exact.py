"""Deterministic equilibria of the effective pair: F g without sampling.

(F g)(theta) = E^{Gamma_theta}[g(x)] is the mean of g under the stationary
law of the level pair (see ``renorm``).  Where the exchange is not much
faster than the slow relaxation (r = E c / e >= 1/32) and EK is not near 0,
the pair is replaced by an upwind Markov chain on a uniform (x, y) grid
(Kushner & Dupuis,
*Numerical Methods for Stochastic Control Problems in Continuous Time*),
whose stationary law is solved by block elimination over x-slices on two
grids, h and h/2, and combined by the Richardson step 2 F_{h/2} - F_h.  The
drift centres of a theta grid are eliminated together, in groups within a
byte budget: each x-slice is one stacked solve over the group's centres,
and a centre's value is bitwise the same in any group.
Where r < 1/32 (x and y lock together) or EK is near 0 (y barely acts on
x), the weighted mean u = (x + EK y)/(1+EK) diffuses alone (averaging;
Pavliotis & Stuart, *Multiscale Methods*); F g is then the mean of g under
u's speed-measure density: a Beta law for Fisher-Wright g, else integrated
by panels graded toward g's zeros, where the density is power-law singular.

``renorm.evaluate_F`` imports this module on first use: the processes that
never evaluate F exactly do not pay for compiling it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .diffusion import DiffusionFn

# Branch rule in r = E c / e, the slow relaxation rate of x against the
# exchange rate.  The averaged law's relative error in the Fisher-Wright rate
# is about r EK / (1 + EK + r) < r, while the chain's upwind numerical
# diffusion along y, of size h e |x - y|, grows against the true noise E^2 g
# as r falls; the finer pair of grids holds it down for r < 1.  The averaged
# law also serves where its error is below the chain's own, ~1e-3: so a
# level without seed-bank (K -> 0), where that law is exact, never runs it.
_AVERAGED_BELOW = 1.0 / 32.0
_AVERAGED_ERROR_BELOW = 1e-3
_FINE_BELOW = 1.0
_CHAIN_GRIDS = {"mca-21/41": (21, 41), "mca-41/81": (41, 81)}
# The chain's drift centres are eliminated in groups whose stacked
# (nodes, n, n + 2) right-hand side fits in this many bytes (always at least
# one node): enough to amortise a solve's call overhead on the 21/41 grids,
# little enough that exact_F on 19 centres peaks below 1 MiB on either pair.
_STACK_BYTES = 128 * 1024


def exact_method(E: float, c: float, K: float, e: float) -> str:
    """The deterministic evaluator serving rates (E, c, K, e): the Markov
    chain on 21/41 or 41/81 points per axis, or the averaged 1-D law."""
    r = E * c / e
    if (r < _AVERAGED_BELOW
            or r * E * K / (1.0 + E * K + r) < _AVERAGED_ERROR_BELOW):
        return "averaged"
    return "mca-21/41" if r >= _FINE_BELOW else "mca-41/81"


def exact_F(g: DiffusionFn, E: float, c: float, K: float, e: float,
            thetas: np.ndarray) -> np.ndarray:
    """(F g)(theta) at interior drift centres, without sampling."""
    method = exact_method(E, c, K, e)
    if method == "averaged":
        lam = 2.0 * c * (1.0 + E * K) / E
        return np.array([_averaged_mean_g(g, lam, t) for t in thetas])
    coarse, fine = _CHAIN_GRIDS[method]
    return (2.0 * _mca_mean_g(g, E, c, K, e, thetas, fine)
            - _mca_mean_g(g, E, c, K, e, thetas, coarse))


def _mca_mean_g(g: DiffusionFn, E, c, K, e, thetas, n) -> np.ndarray:
    """E[g(x)] under the stationary law of the upwind Markov-chain
    approximation of the pair on n x n uniform grid points, at each drift
    centre theta of ``thetas``.

    x moves one cell at rate (E^2 g/2 + h b_x^{+/-}) / h^2 with the drift
    b_x = E [c (theta - x) + K e (y - x)], and y one cell toward x at rate
    e |x - y| / h.  Since g vanishes at 0 and 1 no rate leaves the square.
    The balance equations M pi = b of pi, one block per x-slice, are block
    tridiagonal with tridiagonal diagonal blocks and diagonal couplings; the
    state p nearest (theta, theta) is pinned to pi_p = 1 in place of its
    balance equation, so b is the unit vector at p.  Only two sums of pi are
    needed, f^T pi = (M^-T f)_p for f = g(x) and f = 1, so the transposed
    system is solved for those two right-hand sides, eliminating x-slices
    with dense Schur complements from both edges toward the slice of p: no
    back-substitution.

    The drift centres are taken in order of p, in groups of as many as keep
    one stacked (group, n, n + 2) right-hand side within ``_STACK_BYTES``.
    A group's two sweeps run over x-slices, each slice one stacked solve for
    the centres still eliminating it: those with p above the slice, a suffix
    of the group, in the sweep from x = 0, and those with p below it, a
    prefix, in the sweep from x = 1.  Every matrix and right-hand side is
    built elementwise as it would be for its centre alone, and the stacked
    solve factors each matrix apart, so a centre's value does not depend on
    the group it falls in.
    """
    h = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    gx = np.maximum(g(x), 0.0)
    thetas = np.asarray(thetas, dtype=float)
    result = np.zeros(thetas.size)
    if not np.any(gx > 0.0):
        return result
    half_var = (0.5 * E * E / h ** 2) * gx
    push = K * e * (x[None, :] - x[:, None])      # b_x / E - c (theta - x)
    by = (e / h) * (x[:, None] - x[None, :])
    y_up, y_down = np.maximum(by, 0.0), np.maximum(-by, 0.0)

    def rates(i, pull, pin):
        """Rates up ((i, j) -> (i+1, j)), down ((i, j) -> (i-1, j)) and out
        of x-slice i, a row per centre, for pull = c (theta - x) and pinned
        y-index pin per centre; i is one slice or one per centre."""
        bx = E * (pull[np.arange(len(pin)), i][:, None] + push[i])
        hv = np.reshape(half_var[i], (-1, 1))
        up = hv + np.maximum(bx, 0.0) / h
        down = hv + np.maximum(-bx, 0.0) / h
        out = up + down + y_up[i] + y_down[i]
        # the pinned row of M takes no flow in from the neighbouring x-slices
        k = pin == i + 1
        up[k, pin[k]] = 0.0
        k = pin == i - 1
        down[k, pin[k]] = 0.0
        return up, down, out

    def diagonal(i, out, D):
        """Write into D the diagonal blocks of M^T at x-slice i, a block per
        row of out."""
        D.fill(0.0)
        flat = D.reshape(len(D), n * n)
        flat[:, ::n + 1] -= out
        flat[:, 1::n + 1] += y_up[i, :-1]
        flat[:, n::n + 1] += y_down[i, 1:]
        return D

    def schur_step(i, out, into, back, T, R, A, B):
        """Eliminate x-slice i in place: T and R enter as the Schur blocks
        and right-hand sides that the slices before i leave on it, and leave
        as those it leaves on its neighbour.  The slice moves to the
        neighbour at rates into and back at rates back; M^T couples it to
        the neighbour through diag(into) and the neighbour to it through
        diag(back).  A and B are work space, B zero but on its diagonal and
        in its last two columns."""
        A, B = diagonal(i, out, A[:len(T)]), B[:len(T)]
        A -= T
        B.reshape(len(B), -1)[:, ::n + 3] = into
        np.subtract(gx[i], R[..., 0], out=B[..., n])
        np.subtract(1.0, R[..., 1], out=B[..., n + 1])
        X = np.linalg.solve(A, B)
        np.multiply(back[..., None], X[..., :n], out=T)
        np.multiply(back[..., None], X[..., n:], out=R)

    def sweep(step, pull, pin, D, C):
        """Subtract from each centre's pinned block D and right-hand sides C
        the Schur block and right-hand sides that eliminating x-slices in
        order, from x = 0 (step 1) or x = 1 (step -1) up to its pinned
        slice, leaves there."""
        m = len(pin)
        T, R = np.zeros((m, n, n)), np.zeros((m, n, 2))
        # work space reused by every slice: fresh (m, n, n) arrays at each
        # slice made the 41/81 pair slower than one centre at a time
        A, B = np.empty((m, n, n)), np.zeros((m, n, n + 2))
        slices = range(pin[-1]) if step == 1 else range(n - 1, pin[0], -1)
        side = int(step == -1)          # into is up from x = 0, down from 1
        after = rates(slices[0], pull, pin) if slices else None
        for i in slices:
            now, after = after, rates(i + step, pull, pin)
            # the centres still eliminating: pin > i, a suffix, or pin < i
            k = (slice(np.searchsorted(pin, i, "right"), m) if step == 1
                 else slice(0, np.searchsorted(pin, i, "left")))
            schur_step(i, now[2][k], now[side][k], after[1 - side][k],
                       T[k], R[k], A, B)
        D -= T
        C -= R

    pins = np.rint(thetas / h).astype(int)
    order = np.argsort(pins, kind="stable")
    size = max(1, _STACK_BYTES // (8 * n * (n + 2)))
    for first in range(0, order.size, size):
        nodes = order[first:first + size]
        pin, rows = pins[nodes], np.arange(nodes.size)
        pull = c * (thetas[nodes][:, None] - x)
        D = diagonal(pin, rates(pin, pull, pin)[2],
                     np.empty((nodes.size, n, n)))
        D[rows, :, pin] = 0.0
        D[rows, pin, pin] = 1.0
        C = np.ones((nodes.size, n, 2))
        C[..., 0] = gx[pin][:, None]
        sweep(1, pull, pin, D, C)
        sweep(-1, pull, pin, D, C)
        w = np.linalg.solve(D, C)[rows, pin]
        result[nodes] = w[:, 0] / w[:, 1]
    return result


def _averaged_mean_g(g: DiffusionFn, lam: float, theta: float) -> float:
    """E[g(u)] under the stationary density of the averaged diffusion
    du = E c (theta - u)/(1+EK) dt + E sqrt(g(u))/(1+EK) dW, i.e. the speed
    density p(u) ~ exp(lam Phi(u)) / g(u) with Phi' = (theta - u)/g and
    lam = 2 c (1+EK)/E."""
    if g.is_fisher_wright:   # p is Beta(s theta, s (1-theta)), s = lam/d
        return g.d * theta * (1.0 - theta) * lam / (lam + g.d)
    return _averaged_grid(g.nodes, g.h, lam, theta)


def _log_integral(alpha, p, q, h_p, h_q):
    """int_p^q dt / (t h) = ln(q h_p / (p h_q)) / alpha, p, q > 0, for h > 0
    linear with h(0) = alpha; through log1p while alpha is small, since
    q h_p - p h_q = alpha (q - p), so the limit alpha -> 0 is exact."""
    z = alpha * (q - p) / (p * h_q)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = np.log(q * h_p / (p * h_q)) / alpha
        near = (q - p) / (p * h_q) * np.where(z == 0.0, 1.0, np.log1p(z) / z)
    return np.where(np.abs(z) < 0.5, near, far)


@functools.cache
def _gauss_legendre():
    """The 10-point Gauss-Legendre rule on [-1, 1], read-only.

    Computed on first use, not at import: leggauss's eigensolver costs a
    process that only runs the chain another ~0.7 MiB of peak RSS.
    """
    rule = np.polynomial.legendre.leggauss(10)
    for a in rule:
        a.setflags(write=False)
    return rule


def _averaged_grid(nodes, h, lam, theta) -> float:
    """_averaged_mean_g for g = x(1-x) h, h linear between the nodes: the
    sides of theta by ``_half_law``, the right one on the mirror image
    x -> 1 - x, which maps Phi onto itself."""
    if np.interp(theta, nodes, h) <= 0.0:
        return 0.0                      # the law is the point mass at theta
    z1, z0 = (np.concatenate(a) for a in zip(
        _half_law(nodes, h, lam, theta),
        _half_law(1.0 - nodes[::-1], h[::-1], lam, 1.0 - theta)))
    top1, top0 = z1.max(), z0.max()
    return float(math.exp(top1 - top0) * np.exp(z1 - top1).sum()
                 / np.exp(z0 - top0).sum())


def _half_law(nodes, h, lam, theta) -> tuple:
    """Log-weights of int g p and int p over [z, theta], z the zero of g
    nearest below theta, for p = exp(lam Phi) / g with Phi(theta) = 0.

    Where h is a line, Phi' = theta/(t h) - (1-theta)/((1-t) h) integrates in
    closed form.  The gaps between z, the nodes and theta take Gauss-Legendre
    panels, enough to resolve lam Phi, the peak and the distance to a zero of
    g.  Next to z, p ~ tau^(a-1) in tau = t - z, a = lam (theta - z) / g'(z):
    the panels shrink geometrically to tau_c = w 4^-20, w the first gap, and
    below tau_c p integrates as the power law, to p(tau_c) tau_c / a.  Points
    lie at t = t0 + tau from a gap's left end t0, keeping tau = t - z and h
    near a zero of h precise; Phi is taken from the gap's right end.
    """
    zero = (h <= 0.0) | (nodes == 0.0) | (nodes == 1.0)
    z = int(np.flatnonzero(zero & (nodes < theta))[-1])
    far = nodes[np.flatnonzero(zero & (nodes > theta))[0]]
    ends = np.append(nodes[z:][nodes[z:] < theta], theta)    # gap ends, z first
    h_ends = np.interp(ends, nodes, h)
    slope = np.diff(h) / np.diff(nodes)                # the line of h
    seg = np.searchsorted(nodes, 0.5 * (ends[1:] + ends[:-1])) - 1
    alpha0 = (h[:-1] - nodes[:-1] * slope)[seg]        # per gap, at 0
    alpha1 = (h[:-1] + (1.0 - nodes[:-1]) * slope)[seg]    # and at 1
    slope = slope[seg]
    k = len(ends) - 1
    geo = (ends[1] - ends[0]) * 4.0 ** np.arange(-20, 1)    # the edge panels
    gap = np.append(np.zeros(len(geo) - 1, int), np.arange(1, k))  # per piece
    lo = np.append(geo[:-1], np.zeros(k - 1))
    hi = np.append(geo[1:], np.diff(ends)[1:])
    lam_phi = np.zeros(k + 1)

    def at(gap, tau):
        """lam Phi and g at t = ends[gap] + tau."""
        u, v, j = ends[gap] + tau, (1.0 - ends[gap]) - tau, gap + 1
        h_t = h_ends[gap] + slope[gap] * tau
        phi = (theta * _log_integral(alpha0[gap], ends[j], u, h_ends[j], h_t)
               + (1.0 - theta) * _log_integral(alpha1[gap], 1.0 - ends[j], v,
                                               h_ends[j], h_t))
        return lam_phi[j] + lam * phi, u * v * h_t

    # lam Phi at the gaps' left ends, summed over the gaps up to theta
    lam_phi[1:k] = np.cumsum(at(np.arange(1, k), 0.0)[0][::-1])[::-1]
    (phi_lo, phi_hi), (g_lo, g_hi) = at(gap, np.array([lo, hi]))
    t0 = ends[gap]
    panels = 1 + np.minimum(255.0, np.abs(phi_hi - phi_lo) / 4.0 + (hi - lo)
                            * (np.sqrt(lam / np.minimum(g_lo, g_hi)) + 1.0
                               / np.minimum(t0 + lo - ends[0], far - t0 - hi))
                            ).astype(int)
    i = np.repeat(np.arange(len(gap)), panels)
    first = np.repeat(np.cumsum(panels) - panels, panels)
    width = ((hi - lo) / panels)[i]
    mid = lo[i] + (np.arange(len(i)) - first + 0.5) * width
    gl_nodes, gl_weights = _gauss_legendre()
    lam_phi_t, g_t = at(gap[i][:, None],
                        mid[:, None] + 0.5 * width[:, None] * gl_nodes)
    log_w = (np.log(0.5 * width[:, None] * gl_weights) + lam_phi_t).ravel()
    log_z1, log_z0 = [log_w], [log_w - np.log(g_t).ravel()]
    x = ends[0]
    dg = (1.0 - 2.0 * x) * h_ends[0] + x * (1.0 - x) * slope[0]    # g'(z)
    if dg > 0.0:                        # the power-law tail below tau_c
        a = lam * (theta - x) / dg
        log_tau = math.log(lo[0]) + phi_lo[0]
        log_z1.append([log_tau - math.log(a + 1.0)])
        log_z0.append([log_tau - math.log(g_lo[0]) - math.log(a)])
    return np.concatenate(log_z1), np.concatenate(log_z0)
