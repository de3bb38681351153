import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running statistical checks")


def estimator_arrays(x: np.ndarray, y: np.ndarray, K: np.ndarray,
                     level: int, N: int) -> tuple:
    """(theta_bar, theta_x, theta_y) over the level-l block around 0, read
    directly from the colony arrays: the reference for ``forward.simulate``'s
    records, which take their block means from tile sums.

    theta_bar^{(l)} weights the active block mean with the colour means of
    colours m < l:  (theta_x + sum_{m<l} K_m theta_{y_m}) / (1 + sum_{m<l} K_m).
    """
    width = N ** level
    th_x = x[..., :width].mean(axis=-1)
    th_y = y[..., :width].mean(axis=-1)        # (..., M)
    Kl = K[:level]
    th_bar = (th_x + np.sum(Kl * th_y[..., :level], axis=-1)) / (1.0 + Kl.sum())
    return th_bar, th_x, th_y
