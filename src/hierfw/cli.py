"""Batch experiment runner.

Subcommands: classify, simulate-forward, simulate-dual, duality-check,
renorm-orbit, interaction-chain, profile.  Each reads a YAML config, writes
CSV outputs plus one JSON summary into the output directory, and finishes by
writing a manifest with the config hash, seed, package version and a checksum
per output file.  The manifest is written last: a directory without one holds
the debris of a failed run.  Identical (config, seed) pairs reproduce every
output byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__, dual, forward, hiergeo, params, renorm
from .diffusion import DiffusionFn, GridFunction, fisher_wright


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------

_MODEL_KEYS = {"N", "levels", "family", "c", "e", "K", "g", "d"}
_INIT_KEYS = {"theta_x", "theta_y", "law", "concentration", "theta_limit"}
_RUN_KEYS = {"dt", "horizon", "times", "replicas", "burn", "sample",
             "grid_size", "depth", "snapshots", "dt_factor", "t"}
_DUAL_KEYS = {"actives", "dormants"}
_TOP_KEYS = {"model", "init", "run", "dual", "seed", "out"}


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def load_config(path) -> tuple:
    """Parse and validate a YAML experiment config; returns (dict, raw bytes)."""
    raw = Path(path).read_bytes()
    cfg = yaml.safe_load(raw)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    _check_keys(cfg, _TOP_KEYS, "config")
    if "model" not in cfg:
        raise ConfigError("config needs a model block")
    _check_keys(cfg["model"], _MODEL_KEYS, "model")
    _check_keys(cfg.get("init", {}), _INIT_KEYS, "init")
    _check_keys(cfg.get("run", {}), _RUN_KEYS, "run")
    _check_keys(cfg.get("dual", {}), _DUAL_KEYS, "dual")
    return cfg, raw


def _build_g(spec) -> DiffusionFn:
    if spec is None:
        return fisher_wright(1.0)
    kind = spec.get("kind", "fisher_wright")
    if kind == "fisher_wright":
        return fisher_wright(float(spec.get("d", 1.0)))
    if kind == "grid":
        return DiffusionFn(kind="grid", grid=GridFunction(
            np.asarray(spec["nodes"], dtype=float),
            np.asarray(spec["values"], dtype=float)))
    raise ConfigError(f"unknown diffusion kind {kind!r}")


def _build_family(spec):
    kind = spec.get("kind")
    if kind == "exponential":
        return params.ExponentialFamily(K=float(spec["K"]), e=float(spec["e"]),
                                        c=float(spec["c"]))
    if kind == "polynomial":
        return params.PolynomialFamily(
            alpha=float(spec["alpha"]), beta=float(spec["beta"]),
            phi=float(spec["phi"]), A=float(spec.get("A", 1.0)),
            B=float(spec.get("B", 1.0)), F=float(spec.get("F", 1.0)))
    raise ConfigError(f"unknown family kind {kind!r}")


def build_model(cfg: dict) -> params.ModelParams:
    m = cfg["model"]
    init_cfg = cfg.get("init")
    init = None
    if init_cfg:
        theta_y = init_cfg.get("theta_y", [init_cfg["theta_x"]])
        if not isinstance(theta_y, (list, tuple)):
            theta_y = [theta_y]
        init = params.InitSpec(
            theta_x=float(init_cfg["theta_x"]),
            theta_y=tuple(float(t) for t in theta_y),
            law=init_cfg.get("law", "deterministic"),
            concentration=float(init_cfg.get("concentration", 2.0)),
            theta_limit=init_cfg.get("theta_limit"),
        )
    g = _build_g(m.get("g"))
    d = m.get("d")
    common = dict(N=int(m["N"]), levels=int(m["levels"]), g=g,
                  d=None if d is None else float(d), init=init)
    try:
        if "family" in m:
            fam = _build_family(m["family"])
            return params.ModelParams.from_family(family=fam, **common)
        return params.ModelParams(
            c=tuple(float(v) for v in m["c"]),
            e=tuple(float(v) for v in m["e"]),
            K=tuple(float(v) for v in m["K"]), **common)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid model block: {exc}") from exc


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header: str, rows, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=_json_default) + "\n")


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serialisable: {type(obj)}")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(outdir: Path, raw_config: bytes, seed: int, files):
    manifest = {
        "config_sha256": hashlib.sha256(raw_config).hexdigest(),
        "seed": int(seed),
        "version": __version__,
        "files": {f.name: sha256_file(f) for f in files},
    }
    write_json(outdir / "manifest.json", manifest)


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------


def _run_block(cfg) -> dict:
    return cfg.get("run", {})


def cmd_classify(cfg, raw, seed, outdir, args) -> dict:
    mp = build_model(cfg)
    report = params.classify(mp)
    derived = params.derive(mp)
    coeffs = params.compute_A(mp, derived, mp.levels + 1)
    files = []
    write_json(outdir / "regime_report.json", report.as_dict())
    files.append(outdir / "regime_report.json")
    (outdir / "regime_report.txt").write_text(report.as_text())
    files.append(outdir / "regime_report.txt")
    rows = params.coefficient_rows(coeffs, range(mp.levels + 2))
    write_csv(outdir / "coefficients.csv", "n,A_n,predicted_asymptote", rows,
              comments=[f"asymptotic_class = {coeffs.asymptotic.label}"])
    files.append(outdir / "coefficients.csv")
    spec = mp.kernel_spec()
    expansion = hiergeo.build_expansion(spec)
    write_csv(outdir / "kernel.csv", "level,c_k,r_k,h_k",
              hiergeo.kernel_table_rows(spec, expansion))
    files.append(outdir / "kernel.csv")
    write_manifest(outdir, raw, seed, files)
    return {"clustering": report.clustering, "gamma": report.gamma}


def cmd_simulate_forward(cfg, raw, seed, outdir, args) -> dict:
    mp = build_model(cfg)
    if mp.init is None:
        raise ConfigError("simulate-forward needs an init block")
    run = _run_block(cfg)
    horizon = float(run.get("horizon", 1.0))
    times = run.get("times") or list(np.linspace(0.0, horizon, 11))
    plan = forward.RecordPlan(times=[float(t) for t in times],
                              snapshots=bool(run.get("snapshots", False)))
    rec = forward.simulate(mp, mp.init, horizon, plan, seed=seed,
                           dt=run.get("dt"))
    files = []
    write_csv(outdir / "trajectory.csv", "t,level,component,value",
              rec.csv_rows())
    files.append(outdir / "trajectory.csv")
    if plan.snapshots:
        M = mp.levels + 1
        header = "t,address,x," + ",".join(f"y{m}" for m in range(M))
        write_csv(outdir / "snapshots.csv", header, rec.snapshot_rows(mp.N))
        files.append(outdir / "snapshots.csv")
    summary = {
        "horizon": horizon, "clip_fraction": rec.clip_fraction,
        "flagged": rec.flagged,
        "grand_mean_first": float(rec.grand_mean[0]),
        "grand_mean_last": float(rec.grand_mean[-1]),
    }
    write_json(outdir / "summary.json", summary)
    files.append(outdir / "summary.json")
    write_manifest(outdir, raw, seed, files)
    return summary


def _dual_config(cfg, mp) -> dual.DualConfig:
    block = cfg.get("dual", {})
    counts = np.zeros((mp.levels + 2, mp.n_colonies), dtype=int)
    for site, n in (block.get("actives") or {}).items():
        counts[0, int(site)] = int(n)
    for key, n in (block.get("dormants") or {}).items():
        colour, site = (int(v) for v in str(key).split(":"))
        counts[colour + 1, site] = int(n)
    if counts.sum() == 0:
        counts[0, 0] = 2
    return dual.DualConfig(counts)


def cmd_simulate_dual(cfg, raw, seed, outdir, args) -> dict:
    mp = build_model(cfg)
    run = _run_block(cfg)
    horizon = float(run.get("horizon", 1.0))
    cfg0 = _dual_config(cfg, mp)
    from .rng import stream
    log, terminal = dual.simulate_dual(cfg0, mp, horizon, stream(seed, "dual-cli"))
    files = []
    write_csv(outdir / "events.csv", "t,event,site,colour", log)
    files.append(outdir / "events.csv")
    summary = {
        "horizon": horizon, "initial_total": cfg0.total,
        "terminal_total": terminal.total, "n_events": len(log),
        "terminal_counts": terminal.counts.tolist(),
    }
    write_json(outdir / "summary.json", summary)
    files.append(outdir / "summary.json")
    write_manifest(outdir, raw, seed, files)
    return summary


def cmd_duality_check(cfg, raw, seed, outdir, args) -> dict:
    mp = build_model(cfg)
    if mp.init is None:
        raise ConfigError("duality-check needs an init block")
    run = _run_block(cfg)
    t = float(run.get("t", 1.0))
    n_replicas = int(args.replicas or run.get("replicas", 10_000))
    cfg0 = _dual_config(cfg, mp)
    from .rng import stream
    z = forward.initial_state(mp, mp.init, stream(seed, "duality-z"))
    report = dual.duality_estimate(mp, z, cfg0, t, n_replicas, seed,
                                   dt=run.get("dt"))
    files = []
    write_json(outdir / "duality.json", report.as_dict())
    files.append(outdir / "duality.json")
    (outdir / "duality.txt").write_text(report.as_text())
    files.append(outdir / "duality.txt")
    write_manifest(outdir, raw, seed, files)
    return report.as_dict()


def _budget(run, args) -> renorm.EquilibriumBudget:
    return renorm.EquilibriumBudget(
        n_replicas=int(args.replicas or run.get("replicas", 96)),
        burn=float(run.get("burn", 20.0)),
        sample=float(run.get("sample", 80.0)),
        dt_factor=float(run.get("dt_factor", 0.01)),
    )


def cmd_renorm_orbit(cfg, raw, seed, outdir, args) -> dict:
    mp = build_model(cfg)
    run = _run_block(cfg)
    depth = int(run.get("depth", 5))
    derived = params.derive(mp)
    coeffs = params.compute_A(mp, derived, min(mp.levels + 1, depth + 1))
    grid_size = int(run.get("grid_size", 21))
    grid = np.linspace(0.0, 1.0, grid_size)
    orbit = renorm.iterate_F_scaled(mp.g, mp, derived, coeffs, depth,
                                    _budget(run, args), seed, theta_grid=grid)
    files = []
    write_csv(outdir / "orbit.csv", "level,A_n,sup_distance", orbit.csv_rows())
    files.append(outdir / "orbit.csv")
    for i, level in enumerate(orbit.levels):
        fn = outdir / f"fgrid_level{int(level)}.csv"
        rows = list(zip(orbit.theta_grid, orbit.grids[i].grid.values))
        write_csv(fn, "theta,value", rows,
                  comments=[f"level = {int(level)}",
                            f"A_n = {_fmt(orbit.A[i])}"])
        files.append(fn)
    summary = {"depth": depth, "flagged": orbit.flagged,
               "sup_distance": orbit.sup_distance.tolist(),
               "A": orbit.A.tolist()}
    write_json(outdir / "summary.json", summary)
    files.append(outdir / "summary.json")
    write_manifest(outdir, raw, seed, files)
    return summary


def cmd_interaction_chain(cfg, raw, seed, outdir, args) -> dict:
    mp = build_model(cfg)
    if mp.init is None:
        raise ConfigError("interaction-chain needs an init block")
    run = _run_block(cfg)
    depth = int(run.get("depth", 4))
    n_replicas = int(args.replicas or run.get("replicas", 10_000))
    derived = params.derive(mp)
    coeffs = params.compute_A(mp, derived, depth + 2)
    budget = _budget(run, args)
    orbit = renorm.iterate_F_scaled(mp.g, mp, derived, coeffs, depth + 1,
                                    budget, seed)
    g_orbit = [mp.g] + orbit.grids
    chain = renorm.sample_interaction_chain(depth, mp, derived, g_orbit,
                                            n_replicas, budget, seed)
    means, variances = renorm.chain_moment_predictions(depth, derived, coeffs,
                                                       g_orbit[depth + 1])
    rows = []
    for l in range(depth + 1):
        rows.append((l, float(chain.x[l].mean()), float(chain.x[l].var(ddof=1)),
                     float(means[l]), float(variances[l]),
                     float(chain.x[l].std(ddof=1) / np.sqrt(n_replicas))))
    files = []
    write_csv(outdir / "chain.csv",
              "level,mean_x,var_x,predicted_mean,predicted_var,se_mean", rows)
    files.append(outdir / "chain.csv")
    summary = {"depth": depth, "replicas": n_replicas,
               "theta_start": chain.theta_start}
    write_json(outdir / "summary.json", summary)
    files.append(outdir / "summary.json")
    write_manifest(outdir, raw, seed, files)
    return summary


def cmd_profile(cfg, raw, seed, outdir, args) -> dict:
    mp = build_model(cfg)
    run = _run_block(cfg)
    depth = int(run.get("depth", mp.levels))
    derived = params.derive(mp)
    coeffs = params.compute_A(mp, derived, depth + 1)
    values = renorm.volatility_profile(depth, coeffs)
    label = renorm.classify_profile(coeffs, depth)
    files = []
    write_csv(outdir / "profile.csv", "l,f_value",
              list(enumerate(values)))
    files.append(outdir / "profile.csv")
    summary = {"depth": depth, "classification": label}
    write_json(outdir / "summary.json", summary)
    files.append(outdir / "summary.json")
    write_manifest(outdir, raw, seed, files)
    return summary


_COMMANDS = {
    "classify": cmd_classify,
    "simulate-forward": cmd_simulate_forward,
    "simulate-dual": cmd_simulate_dual,
    "duality-check": cmd_duality_check,
    "renorm-orbit": cmd_renorm_orbit,
    "interaction-chain": cmd_interaction_chain,
    "profile": cmd_profile,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hierfw",
        description="hierarchical Fisher-Wright with seed-bank: experiment runner")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="overrides the seed in the config")
    parser.add_argument("--out", default=None,
                        help="output directory (default: config 'out' or ./out)")
    parser.add_argument("--replicas", type=int, default=None)
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg, raw = load_config(args.config)
        seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
        outdir = Path(args.out or cfg.get("out", "out"))
        outdir.mkdir(parents=True, exist_ok=True)
        # an earlier run's manifest would vouch for this run's debris
        (outdir / "manifest.json").unlink(missing_ok=True)
        summary = _COMMANDS[args.command](cfg, raw, seed, outdir, args)
    except (ConfigError, ValueError, KeyError, FileNotFoundError,
            forward.StabilityError, hiergeo.AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        for key, val in sorted(summary.items()):
            print(f"{key} = {val}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
