"""Deterministic equilibria of the effective pair: F g without sampling.

(F g)(theta) = E^{Gamma_theta}[g(x)] is the mean of g under the stationary
law of the level pair (see ``renorm``).  Where the exchange is not much
faster than the slow relaxation (r = E c / e >= 1/32) the pair is replaced
by an upwind Markov chain on a uniform (x, y) grid (Kushner & Dupuis,
*Numerical Methods for Stochastic Control Problems in Continuous Time*),
whose stationary law is solved by block elimination over x-slices on two
grids, h and h/2, and combined by the Richardson step 2 F_{h/2} - F_h.
Where r < 1/32, x and y lock together and the weighted mean
u = (x + EK y)/(1+EK) diffuses alone (averaging; Pavliotis & Stuart,
*Multiscale Methods*); F g is then the mean of g under u's speed-measure
density: a Beta law for Fisher-Wright g, integrated segment by segment for
a grid g.

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
# as r falls; the finer pair of grids holds it down for r < 1.
_AVERAGED_BELOW = 1.0 / 32.0
_FINE_BELOW = 1.0
_CHAIN_GRIDS = {"mca-21/41": (21, 41), "mca-41/81": (41, 81)}


def exact_method(E: float, c: float, e: float) -> str:
    """The deterministic evaluator serving rates (E, c, e): the Markov chain
    on 21/41 or 41/81 points per axis, or the averaged 1-D law."""
    r = E * c / e
    if r < _AVERAGED_BELOW:
        return "averaged"
    return "mca-21/41" if r >= _FINE_BELOW else "mca-41/81"


def exact_F(g: DiffusionFn, E: float, c: float, K: float, e: float,
            thetas: np.ndarray) -> np.ndarray:
    """(F g)(theta) at interior drift centres, without sampling."""
    method = exact_method(E, c, e)
    if method == "averaged":
        lam = 2.0 * c * (1.0 + E * K) / E
        return np.array([_averaged_mean_g(g, lam, t) for t in thetas])
    coarse, fine = _CHAIN_GRIDS[method]
    return np.array([2.0 * _mca_mean_g(g, E, c, K, e, t, fine)
                     - _mca_mean_g(g, E, c, K, e, t, coarse) for t in thetas])


def _mca_mean_g(g: DiffusionFn, E, c, K, e, theta, n) -> float:
    """E[g(x)] under the stationary law of the upwind Markov-chain
    approximation of the pair on n x n uniform grid points.

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
    back-substitution, and one n x n block held at a time.
    """
    h = 1.0 / (n - 1)
    x = np.linspace(0.0, 1.0, n)
    gx = np.maximum(g(x), 0.0)
    if not np.any(gx > 0.0):
        return 0.0
    bx = E * (c * (theta - x)[:, None] + K * e * (x[None, :] - x[:, None]))
    half_var = (0.5 * E * E / h ** 2) * gx[:, None]
    up = half_var + np.maximum(bx, 0.0) / h            # (i, j) -> (i+1, j)
    down = half_var + np.maximum(-bx, 0.0) / h         # (i, j) -> (i-1, j)
    by = (e / h) * (x[:, None] - x[None, :])
    y_up, y_down = np.maximum(by, 0.0), np.maximum(-by, 0.0)
    out = up + down + y_up + y_down
    pin = int(round(theta / h))
    # the pinned row of M takes no flow in from the neighbouring x-slices
    if pin > 0:
        up[pin - 1, pin] = 0.0
    if pin < n - 1:
        down[pin + 1, pin] = 0.0

    def block(i):
        """Diagonal block i of M^T and its right-hand sides [g(x_i), 1]."""
        D = np.diag(-out[i]) + np.diag(y_up[i, :-1], 1) + np.diag(y_down[i, 1:], -1)
        if i == pin:
            D[:, pin] = 0.0
            D[pin, pin] = 1.0
        return D, np.column_stack([np.full(n, gx[i]), np.ones(n)])

    def eliminate(slices, step, into, back):
        """Schur block and right-hand sides that eliminating ``slices`` in
        order leaves on the pinned slice.  Slice i moves to its neighbour
        i + step at rates into[i] and back at rates back[i + step]; M^T couples
        slice i to the neighbour through diag(into[i]) and the neighbour to i
        through diag(back[i + step])."""
        T, R = np.zeros((n, n)), np.zeros((n, 2))
        for i in slices:
            D, C = block(i)
            X = np.linalg.solve(D - T, np.column_stack([np.diag(into[i]), C - R]))
            lower = back[i + step][:, None]
            T, R = lower * X[:, :n], lower * X[:, n:]
        return T, R

    T_lo, R_lo = eliminate(range(pin), 1, up, down)
    T_hi, R_hi = eliminate(range(n - 1, pin, -1), -1, down, up)
    D, C = block(pin)
    w = np.linalg.solve(D - T_lo - T_hi, C - R_lo - R_hi)[pin]
    return float(w[0] / w[1])


def _averaged_mean_g(g: DiffusionFn, lam: float, theta: float) -> float:
    """E[g(u)] under the stationary density of the averaged diffusion
    du = E c (theta - u)/(1+EK) dt + E sqrt(g(u))/(1+EK) dW, i.e. the speed
    density p(u) ~ exp(lam Phi(u)) / g(u) with Phi' = (theta - u)/g and
    lam = 2 c (1+EK)/E."""
    if g.is_fisher_wright:
        # p is Beta(s theta, s (1-theta)) with s = lam/d
        if g.d == 0.0:
            return 0.0
        s = lam / g.d
        return g.d * theta * (1.0 - theta) * s / (s + 1.0)
    return _averaged_grid(g.grid.nodes, g.grid.values, lam, theta)


def _phi_step(p, q, g_p, g_q, theta):
    """Phi(q) - Phi(p) = int_p^q (theta - t)/g(t) dt for g linear on [p, q]
    with g_p > 0 and g_q > 0, stable as the slope vanishes."""
    delta = q - p
    rho = g_q / g_p - 1.0
    small = np.abs(rho) < 1e-4
    safe = np.where(small, 1.0, rho)
    log1p = np.log1p(safe)
    h1 = np.where(small, 1.0 - rho / 2.0 + rho * rho / 3.0, log1p / safe)
    h2 = np.where(small, -0.5 + rho / 3.0 - rho * rho / 4.0,
                  (log1p - safe) / (safe * safe))
    return (delta * delta / g_p) * h2 + (theta - p) * (delta / g_p) * h1


def _log_kummer1(b, x):
    """log M(1, b, x) for b > 1, x >= 0."""
    # scipy.special loads on first use
    from scipy.special import gammainc, gammaln, hyp1f1
    if x < b:
        return math.log(hyp1f1(1.0, b, x))
    return (math.log(b - 1.0) + x + (1.0 - b) * math.log(x) + gammaln(b - 1.0)
            + math.log(gammainc(b - 1.0, x)))


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


def _averaged_grid(nodes, vals, lam, theta) -> float:
    """_averaged_mean_g for piecewise-linear g.

    The density lives on the run of nodes with g > 0 around theta, bounded by
    two zeros of g.  Phi is summed in closed form node to node.  On the two
    edge segments g is proportional to the distance tau from the zero, so
    p ~ tau^(gamma-1) exp(-kappa tau) there, integrated exactly through
    Kummer's function; interior segments are smooth and take Gauss-Legendre
    panels, enough of them to resolve lam Phi.
    """
    from scipy.special import logsumexp  # scipy.special loads on first use
    k = min(max(int(np.searchsorted(nodes, theta, side="right")) - 1, 0),
            len(nodes) - 2)
    g_theta = float(np.interp(theta, nodes, vals))
    if g_theta <= 0.0:
        return 0.0                      # the law is the point mass at theta
    zero = vals <= 0.0
    left = int(np.flatnonzero(zero[:k + 1])[-1])
    right = k + 1 + int(np.flatnonzero(zero[k + 1:])[0])
    inner = np.arange(left + 1, right)  # nodes with g > 0
    psi = np.empty(len(nodes))
    for side in (inner[inner > k], inner[inner <= k][::-1]):
        if len(side) == 0:
            continue
        prev_t = np.concatenate([[theta], nodes[side[:-1]]])
        prev_g = np.concatenate([[g_theta], vals[side[:-1]]])
        steps = _phi_step(prev_t, nodes[side], prev_g, vals[side], theta)
        psi[side] = lam * np.cumsum(steps)
    gl_nodes, gl_weights = _gauss_legendre()
    log_z0, log_z1 = [], []             # log int p, log int g p per piece
    for edge, p in ((left, left + 1), (right, right - 1)):
        depth = abs(nodes[p] - nodes[edge])
        slope = vals[p] / depth
        gam = lam * abs(theta - nodes[edge]) / slope
        kd = lam * depth / slope
        log_z0.append(psi[p] + _log_kummer1(gam + 1.0, kd)
                      - math.log(slope * gam))
        log_z1.append(psi[p] + math.log(depth) + _log_kummer1(gam + 2.0, kd)
                      - math.log(gam + 1.0))
    for a in inner[:-1]:
        b = a + 1
        g_lo = min(vals[a], vals[b])
        width = nodes[b] - nodes[a]
        panels = 1 + int(min(255.0, abs(psi[b] - psi[a]) / 4.0
                             + width * math.sqrt(lam / g_lo)))
        edges = np.linspace(nodes[a], nodes[b], panels + 1)
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        t = (0.5 * (edges[1:] + edges[:-1]))[:, None] + half * gl_nodes
        g_t = vals[a] + (vals[b] - vals[a]) * (t - nodes[a]) / width
        psi_t = psi[a] + lam * _phi_step(nodes[a], t, vals[a], g_t, theta)
        log_w = np.log(half * gl_weights)
        log_z1.append(logsumexp(psi_t + log_w))
        log_z0.append(logsumexp(psi_t + log_w - np.log(g_t)))
    return float(math.exp(logsumexp(log_z1) - logsumexp(log_z0)))
