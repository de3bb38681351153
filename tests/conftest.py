import math
from dataclasses import dataclass

import numpy as np
import pytest

from hierfw import cli
from hierfw.params import derive


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running statistical checks")


def cli_csv(tmp_path, command: str, config: str, name: str) -> list:
    """The lines of output ``name`` of ``hierfw command`` run on the YAML
    text ``config``, less comments and split at commas; the header first."""
    path, out = tmp_path / "cfg.yaml", tmp_path / "out"
    path.write_text(config)
    assert cli.main([command, "--config", str(path), "--out", str(out),
                     "--quiet"]) == 0
    return [line.split(",") for line in (out / name).read_text().splitlines()
            if not line.startswith("#")]


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


def wakeup_sampler(params, derived, rng, n: int = 1) -> np.ndarray:
    """n draws of the wake-up time tau, whose exact tail is
    ``params.wakeup_tail``.

    Colour m is chosen with probability K_m e_m N^-m / chi, then the duration
    is exponential with rate e_m / N^m.
    """
    rates = params.exchange_rates()
    w = params.sleep_rates() / derived.chi
    colours = rng.choice(len(w), size=n, p=w / w.sum())
    return rng.exponential(1.0 / rates[colours])


@dataclass(frozen=True)
class RenewalSample:
    sigma: np.ndarray  # active durations, i.i.d. exponential(chi)
    tau: np.ndarray    # dormant durations, the colour mixture


def renewal_sample(params, n: int, rng) -> RenewalSample:
    """n activity/dormancy cycles of one dual lineage."""
    derived = derive(params)
    sigma = rng.exponential(1.0 / derived.chi, size=n)
    tau = wakeup_sampler(params, derived, rng, n=n)
    return RenewalSample(sigma=sigma, tau=tau)


@dataclass(frozen=True)
class TailFit:
    gamma: float
    power_law_plausible: bool


def tail_fit(sample: RenewalSample) -> TailFit:
    """Hill estimate of the tail exponent of P(tau > t).

    Uses the top 1% of the order statistics.  The estimate is recomputed at
    k/4; a strong drift between the two marks the sample as inconsistent
    with a power tail (e.g. a single exponential colour).
    """
    tau = np.sort(np.asarray(sample.tau, dtype=float))
    n = len(tau)
    if n < 10_000:
        raise ValueError("tail fit needs at least 1e4 samples")
    k = max(int(n * 0.01), 100)
    logs = np.log(tau[-k:])
    gamma_k = 1.0 / float(np.mean(logs - math.log(tau[-k - 1])))
    k4 = k // 4
    logs4 = np.log(tau[-k4:])
    gamma_k4 = 1.0 / float(np.mean(logs4 - math.log(tau[-k4 - 1])))
    drift = abs(math.log(gamma_k4 / gamma_k))
    # a genuine power tail gives a k-stable Hill estimate (drift ~ 0.05 at
    # these sample sizes); an exponential tail drifts by ~ log(1 + log4 / log(n/k))
    return TailFit(gamma=gamma_k, power_law_plausible=drift < 0.15)
