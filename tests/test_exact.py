"""The Markov-chain evaluator of exact F against its one-centre elimination.

``exact._mca_mean_g`` eliminates the x-slices of a group of drift centres by
stacked solves.  Each centre's matrices and right-hand sides are built
elementwise as for that centre alone, so its value must equal, bit for bit,
that of the elimination below, which solves for one centre at a time.
"""

import tracemalloc

import numpy as np
import pytest

from hierfw import exact as X
from hierfw.diffusion import fisher_wright, grid_from_callable

FW = fisher_wright(1.0)
QUARTIC = grid_from_callable(lambda x: (x * (1 - x)) ** 2)
# rates (E, c, K, e) served by each pair of chain grids
RATES = {"mca-21/41": (1.0, 1.0, 1.0, 1.0), "mca-41/81": (1.0, 0.25, 2.0, 1.0)}
# shuffled; near 0 and 1 (pins 0 and n - 1), and 0.3, 0.31 share a pin on
# the 21 and 41 grids, 0.004 and 0.013 on the 21 grid
THETAS = np.array([0.5, 0.996, 0.31, 0.004, 0.77, 0.3, 0.013])


def one_centre_mean_g(g, E, c, K, e, theta, n) -> float:
    """E[g(x)] under the chain's stationary law for one drift centre, by
    the block elimination of ``exact._mca_mean_g`` one centre at a time."""
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
    if pin > 0:
        up[pin - 1, pin] = 0.0
    if pin < n - 1:
        down[pin + 1, pin] = 0.0

    def diagonal(i):
        D = np.diag(-out[i]) + np.diag(y_up[i, :-1], 1) + np.diag(y_down[i, 1:], -1)
        if i == pin:
            D[:, pin] = 0.0
            D[pin, pin] = 1.0
        return D, np.column_stack([np.full(n, gx[i]), np.ones(n)])

    def schur(slices, step, into, back):
        T, R = np.zeros((n, n)), np.zeros((n, 2))
        for i in slices:
            D, C = diagonal(i)
            Y = np.linalg.solve(D - T, np.column_stack([np.diag(into[i]), C - R]))
            lower = back[i + step][:, None]
            T, R = lower * Y[:, :n], lower * Y[:, n:]
        return T, R

    T_lo, R_lo = schur(range(pin), 1, up, down)
    T_hi, R_hi = schur(range(n - 1, pin, -1), -1, down, up)
    D, C = diagonal(pin)
    w = np.linalg.solve(D - T_lo - T_hi, C - R_lo - R_hi)[pin]
    return float(w[0] / w[1])


def one_centre_F(g, E, c, K, e, thetas) -> np.ndarray:
    coarse, fine = X._CHAIN_GRIDS[X.exact_method(E, c, K, e)]
    return np.array([2.0 * one_centre_mean_g(g, E, c, K, e, t, fine)
                     - one_centre_mean_g(g, E, c, K, e, t, coarse)
                     for t in thetas])


@pytest.mark.parametrize("method", sorted(RATES))
@pytest.mark.parametrize("g", [FW, QUARTIC], ids=["fw", "quartic"])
def test_stacked_elimination_equals_one_centre_elimination(monkeypatch, g,
                                                           method):
    rates = RATES[method]
    assert X.exact_method(*rates) == method
    expect = one_centre_F(g, *rates, THETAS)
    # one centre per group; groups of 3, 3 and 1 at n = 41; the default
    for budget in (1, 3 * 8 * 41 * 43, X._STACK_BYTES):
        monkeypatch.setattr(X, "_STACK_BYTES", budget)
        got = X.exact_F(g, *rates, THETAS)
        assert np.array_equal(got, expect), (budget, got - expect)


@pytest.mark.parametrize("method", sorted(RATES))
def test_value_does_not_depend_on_the_other_centres(method):
    rates = RATES[method]
    together = X.exact_F(FW, *rates, THETAS)
    for k in range(THETAS.size):
        assert together[k] == X.exact_F(FW, *rates, THETAS[k:k + 1])[0]


@pytest.mark.parametrize("method", sorted(RATES))
def test_memory_peak_stays_below_one_mebibyte(method):
    # groups within the stacking budget hold the peak near that of one
    # centre at a time; all 19 centres in one group peak at 1.5-5 MiB
    rates = RATES[method]
    thetas = np.linspace(0.0, 1.0, 21)[1:-1]
    X.exact_F(FW, *rates, thetas[:2])
    tracemalloc.start()
    try:
        X.exact_F(FW, *rates, thetas)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
