"""Output checks for the benchmark workloads, independent of hierfw's code.

Every check reads the files a run wrote and the workload's config, and
returns its worst gap: the largest ratio of an observed error to the error
it allows (below 1 when the check passes; 0 for checks that are exact).  A
failed check raises ``CheckError``.  Nothing here imports hierfw, so a
defect in the package cannot hide itself in the oracle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path


class CheckError(Exception):
    pass


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _rows(path: Path):
    """Data rows of a CSV written by hierfw (comment lines start with '#')."""
    with open(path) as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))


def _sequences(model: dict, n: int):
    """(c, e, K) of the exponential family c_k = c^k, e_k = e^k, K_k = K^k."""
    fam = model.get("family", {})
    _require(fam.get("kind") == "exponential",
             "checks only know the exponential family")
    return ([float(fam[k]) ** m for m in range(n)] for k in ("c", "e", "K"))


def manifest_files(outdir: Path) -> dict:
    """The manifest's sha256 per file, after checking it against the files."""
    manifest = json.loads((outdir / "manifest.json").read_text())
    files = manifest["files"]
    present = {p.name for p in outdir.iterdir()} - {"manifest.json"}
    _require(set(files) == present,
             f"manifest lists {sorted(files)}, directory holds {sorted(present)}")
    for name, digest in files.items():
        actual = hashlib.sha256((outdir / name).read_bytes()).hexdigest()
        _require(actual == digest, f"sha256 of {name} differs from the manifest")
    return manifest


# Largest |Z| of any standard normal the forward run draws: a run draws at
# most ~1e8 normals, and P(|Z| > 8) ~ 1.2e-15 each.
Z_MAX = 8.0


def check_forward(cfg: dict, outdir: Path) -> float:
    """The weighted grand mean of simulate-forward is conserved.

    theta_bar = (xbar + sum_m K_m ybar_m) / (1 + sum K) over all C colonies.
    Exchange moves x and y_m by matched increments and migration drift sums
    to zero over the colonies, so per step theta_bar changes only by
    (a) the noise mean  sum_i sqrt(g(x_i) dt) Z_i / C, variance at most
        d dt / (4 C) for g = d x(1-x), hence at most d t / (4 C) up to time t;
    (b) the clip corrections.  With the default step, the deterministic part
        of a step is a convex move of weight w <= 0.1, so a state x leaves
        [0,1] only when sqrt(d x dt)|Z| > 0.9 x, and then by at most
        max_x (sqrt(d x dt)|Z| - 0.9 x) = d dt Z^2 / 3.6.  Over the run this
        sums to at most clip_fraction * horizon * d * Z_MAX^2 / 3.6.
    Both are divided by 1 + sum K.  The check allows 6 noise SDs plus (b).
    """
    model, run = cfg["model"], cfg.get("run", {})
    _require("dt" not in run, "the clip bound assumes the default dt")
    levels = int(model["levels"])
    C = int(model["N"]) ** (levels + 1)
    _, _, K = _sequences(model, levels + 1)
    d = float(model["g"]["d"])
    summary = json.loads((outdir / "summary.json").read_text())
    _require(summary["flagged"] is False, "forward run is flagged")
    horizon = float(summary["horizon"])
    clip_term = summary["clip_fraction"] * horizon * d * Z_MAX ** 2 / 3.6
    series = [(float(r["t"]), float(r["value"]))
              for r in _rows(outdir / "trajectory.csv")
              if r["component"] == "theta_bar" and int(r["level"]) == levels + 1]
    _require(len(series) >= 2, "trajectory lacks the full-system theta_bar")
    _require(series[0][1] == summary["grand_mean_first"]
             and series[-1][1] == summary["grand_mean_last"],
             "summary grand means differ from the trajectory")
    start = series[0][1]
    gap = 0.0
    for t, value in series:
        allowed = (6.0 * math.sqrt(d * t / (4.0 * C)) + clip_term) / (1.0 + sum(K))
        allowed += 1e-10                       # rounding of the C-term means
        gap = max(gap, abs(value - start) / allowed)
    _require(gap < 1.0, f"grand mean drifted by {gap:.3g} x its bound")
    return gap


def check_duality(cfg: dict, outdir: Path) -> float:
    """Forward and dual agree within 3 SE; the dual MC matches its exact law."""
    rep = json.loads((outdir / "duality.json").read_text())
    _require(rep["pass_3se"] is True, "forward and dual differ by > 3 SE")
    _require(rep["exact_rhs"] is not None, "no exact dual moment")
    gap_fd = abs(rep["lhs"] - rep["rhs"]) / (3.0 * rep["combined_se"])
    gap_exact = abs(rep["rhs"] - rep["exact_rhs"]) / (5.0 * rep["rhs_se"])
    _require(gap_fd <= 1.0, "|lhs - rhs| exceeds 3 combined SE")
    _require(gap_exact < 1.0, "|rhs - exact_rhs| exceeds 5 rhs SE")
    return max(gap_fd, gap_exact)


ORBIT_TOL = 0.01


def fw_orbit_rates(cfg: dict, depth: int) -> list:
    """d_0..d_depth of F^(n)(d g_FW) = d_n g_FW: d_{n+1} = d_n / (1 + d_n a_n),
    a_n = (1/2)(E_n/c_n)(E_n c_n + e_n) / ((E_n c_n + e_n) + E_n K_n e_n),
    E_n = 1 / (1 + sum_{m<n} K_m)."""
    model = cfg["model"]
    c, e, K = _sequences(model, int(model["levels"]) + 1)
    rates = [float(model["g"]["d"])]
    for n in range(depth):
        E = 1.0 / (1.0 + sum(K[:n]))
        a = 0.5 * (E / c[n]) * (E * c[n] + e[n]) / ((E * c[n] + e[n]) + E * K[n] * e[n])
        rates.append(rates[-1] / (1.0 + rates[-1] * a))
    return rates


def check_orbit(cfg: dict, outdir: Path) -> float:
    """Each F^(n) g on the grid lies within ORBIT_TOL of d_n x(1-x)."""
    depth = int(cfg["run"]["depth"])
    rates = fw_orbit_rates(cfg, depth)
    gap = 0.0
    for n in range(1, depth + 1):
        rows = _rows(outdir / f"fgrid_level{n}.csv")
        _require(len(rows) == int(cfg["run"]["grid_size"]),
                 f"level {n} grid has {len(rows)} nodes")
        for r in rows:
            theta, value = float(r["theta"]), float(r["value"])
            err = abs(value - rates[n] * theta * (1.0 - theta))
            gap = max(gap, err / ORBIT_TOL)
    _require(gap < 1.0, f"orbit deviates from the FW recursion by {gap * ORBIT_TOL:.3g}")
    return gap


def check_dual(cfg: dict, outdir: Path) -> float:
    """The event log replays from the initial counts to the terminal counts."""
    summary = json.loads((outdir / "summary.json").read_text())
    events = _rows(outdir / "events.csv")
    _require(summary["n_events"] == len(events),
             f"n_events {summary['n_events']} != {len(events)} CSV rows")
    _require(summary["terminal_total"] <= summary["initial_total"],
             "lineages were created")
    model = cfg["model"]
    levels, C = int(model["levels"]), int(model["N"]) ** (int(model["levels"]) + 1)
    counts = [[0] * C for _ in range(levels + 2)]
    for site, n in cfg["dual"]["actives"].items():
        counts[0][int(site)] = int(n)
    _require(sum(map(sum, counts)) == summary["initial_total"],
             "initial total differs from the config")
    horizon, last = float(cfg["run"]["horizon"]), 0.0
    for r in events:
        t, site, detail = float(r["t"]), int(r["site"]), int(r["colour"])
        _require(last <= t < horizon, f"event time {t} out of order")
        last = t
        kind = r["event"]
        if kind == "migrate":
            moves = [(0, site, -1), (0, detail, 1)]
        elif kind == "coalesce":
            moves = [(0, site, -1)]
        elif kind == "sleep":
            moves = [(0, site, -1), (detail + 1, site, 1)]
        elif kind == "wake":
            moves = [(detail + 1, site, -1), (0, site, 1)]
        else:
            raise CheckError(f"unknown event {kind!r}")
        for role, s, delta in moves:
            counts[role][s] += delta
            _require(counts[role][s] >= 0, f"negative count after {kind} at t={t}")
    _require(counts == summary["terminal_counts"],
             "replayed events do not reach the terminal counts")
    _require(sum(map(sum, counts)) == summary["terminal_total"],
             "terminal total differs from the terminal counts")
    return 0.0


CHECKS = {
    "simulate-forward": check_forward,
    "duality-check": check_duality,
    "renorm-orbit": check_orbit,
    "simulate-dual": check_dual,
}


def check_output(command: str, cfg: dict, outdir: Path) -> tuple:
    """(worst gap, manifest) of one run; raises CheckError on a bad output."""
    manifest = manifest_files(outdir)
    return CHECKS[command](cfg, outdir), manifest
