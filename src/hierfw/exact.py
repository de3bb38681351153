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
density: a Beta law for Fisher-Wright g, else integrated by panels graded
toward the zeros of g, where the density has a power-law singularity.

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
