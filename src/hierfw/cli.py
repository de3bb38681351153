"""Batch experiment runner.

Subcommands: classify, simulate-forward, simulate-dual, duality-check,
renorm-orbit, interaction-chain, profile.  ``main`` reads the YAML config
and converts and checks it once (model, typed run block, dual lineages); a
malformed config exits 1 with a one-line error.  Each subcommand writes CSV
outputs plus one JSON summary into the output directory and returns the
paths it wrote.  ``main`` alone then writes the manifest, after every output
file, with the config hash, seed, the hierfw, python, numpy and scipy
versions and a checksum per output file: a directory without one holds the
debris of a failed run.  Identical (config, seed) pairs reproduce every
output byte for byte under the same hierfw and numpy versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__, dual, forward, hiergeo, params, renorm
from .diffusion import DiffusionFn, fisher_wright
from .rng import stream


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------

_MODEL_KEYS = {"N", "levels", "family", "c", "e", "K", "g", "d"}
_INIT_KEYS = {f.name for f in fields(params.InitSpec)}
_DUAL_KEYS = {"actives", "dormants"}
_TOP_KEYS = {"model", "init", "run", "dual", "seed", "out"}


def _number(value) -> float:
    """A finite number.  A string reads as float() reads it, which covers
    the exponent forms (1e-3) that PyYAML leaves as strings; a bool raises."""
    if isinstance(value, bool):
        raise TypeError(f"expected a number, found {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, found {value!r}")
    return number


def _integer(value) -> int:
    """An integral number; a bool, a fraction, inf or nan raises."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    number = _number(value)
    if not number.is_integer():
        raise ValueError(f"expected an integer, found {value!r}")
    return int(number)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, found {value!r}")
    return value


def _floats(values) -> list:
    if not isinstance(values, list):
        raise TypeError("expected a list")
    return [_number(v) for v in values]


# the type each run value is read as; a null value reads as absent
_RUN_TYPES = {"dt": _number, "horizon": _number, "t": _number,
              "burn": _number, "sample": _number, "dt_factor": _number,
              "times": _floats, "replicas": _integer, "grid_size": _integer,
              "depth": _integer, "snapshots": _flag}


def _mapping(value, where: str) -> dict:
    """A config block; null reads as empty."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a mapping")
    return value


def _read(convert, value, where: str):
    """convert(value); a value it cannot read raises ConfigError."""
    try:
        return convert(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read {where} = {value!r}") from exc


def _check_keys(block: dict, allowed: set, where: str):
    unknown = set(block) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


class _ConfigLoader(yaml.SafeLoader):
    """SafeLoader that refuses a key repeated within one mapping, which
    safe_load would merge silently (the last value wins).  Keys merged in
    with ``<<`` are no repeat: the mapping's own keys override them."""

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key, _ in node.value:
            if (not isinstance(key, yaml.ScalarNode)
                    or key.tag == "tag:yaml.org,2002:merge"):
                continue
            if (key.tag, key.value) in seen:
                raise ConfigError(
                    f"config repeats the key {key.value!r} in one mapping "
                    f"(line {key.start_mark.line + 1})")
            seen.add((key.tag, key.value))
        return node


def load_config(path) -> tuple:
    """Parse and validate a YAML experiment config; returns (dict, raw bytes).

    The model, init, run and dual blocks of the returned dict are mappings.
    """
    raw = Path(path).read_bytes()
    try:
        cfg = yaml.load(raw, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping")
    _check_keys(cfg, _TOP_KEYS, "config")
    if "model" not in cfg:
        raise ConfigError("config needs a model block")
    for key, allowed in (("model", _MODEL_KEYS), ("init", _INIT_KEYS),
                         ("run", set(_RUN_TYPES)), ("dual", _DUAL_KEYS)):
        cfg[key] = _mapping(cfg.get(key), key)
        _check_keys(cfg[key], allowed, key)
    return cfg, raw


def _build_g(spec) -> DiffusionFn:
    spec = _mapping(spec, "model.g")
    kind = spec.get("kind", "fisher_wright")
    if kind == "fisher_wright":
        _check_keys(spec, {"kind", "d"}, "model.g")
        return fisher_wright(**{key: _number(spec[key])
                                for key in spec.keys() - {"kind"}})
    if kind == "grid":
        _check_keys(spec, {"kind", "nodes", "values"}, "model.g")
        return DiffusionFn.from_g(_floats(spec["nodes"]),
                                  _floats(spec["values"]))
    raise ConfigError(f"unknown diffusion kind {kind!r}")


_FAMILIES = {"exponential": params.ExponentialFamily,
             "polynomial": params.PolynomialFamily}


def _build_family(spec):
    """The family the block names, from the fields it gives."""
    spec = _mapping(spec, "model.family")
    family = _FAMILIES.get(spec.get("kind"))
    if family is None:
        raise ConfigError(f"unknown family kind {spec.get('kind')!r}")
    _check_keys(spec, {f.name for f in fields(family)} | {"kind"},
                "model.family")
    return family(**{key: _number(spec[key]) for key in spec.keys() - {"kind"}})


def _build_init(spec: dict) -> params.InitSpec:
    """InitSpec from the keys the block gives; theta_y defaults to
    [theta_x], and a single number reads as a one-entry list."""
    values = {key: value if key == "law" else _number(value)
              for key, value in spec.items() if key != "theta_y"}
    theta_y = spec.get("theta_y", [spec["theta_x"]])
    values["theta_y"] = tuple(
        _floats(theta_y if isinstance(theta_y, list) else [theta_y]))
    return params.InitSpec(**values)


def build_model(cfg: dict) -> params.ModelParams:
    """ModelParams from the model and init blocks.

    A missing, unreadable or invalid value raises ConfigError.
    """
    m, init_cfg = cfg["model"], cfg.get("init")
    block = "init"                      # the block an error is reported in
    try:
        init = _build_init(init_cfg) if init_cfg else None
        block = "model"
        g = _build_g(m.get("g"))
        if m.get("d") is not None and _number(m["d"]) != g.d:
            # the dual coalesces at g's own rate; model.d only restates it
            found = f"g.d = {g.d}" if g.is_fisher_wright else "a grid g"
            raise ConfigError(f"model.d = {m['d']} must equal the rate d of "
                              f"a Fisher-Wright g, found {found}")
        common = dict(N=_integer(m["N"]), levels=_integer(m["levels"]), g=g,
                      init=init)
        if "family" in m:
            prefixes = sorted(m.keys() & {"c", "e", "K"})
            if prefixes:
                raise ConfigError(f"model.family excludes the prefixes c, e "
                                  f"and K, found {prefixes}")
            fam = _build_family(m["family"])
            mp = params.ModelParams.from_family(family=fam, **common)
        else:
            mp = params.ModelParams(
                c=tuple(_floats(m["c"])), e=tuple(_floats(m["e"])),
                K=tuple(_floats(m["K"])), **common)
    except KeyError as exc:
        raise ConfigError(f"missing config key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {block} block: {exc}") from exc
    return mp


def _lineages(block: dict, mp: params.ModelParams) -> dict:
    """Dual-block lineage counts keyed by (row, colony): row 0 holds the
    active lineages, row m+1 the m-dormant ones (keys "m:colony").  Each
    place may be named by one key only."""
    actives = _mapping(block.get("actives"), "dual.actives")
    dormants = _mapping(block.get("dormants"), "dual.dormants")
    counts = {}

    def put(row, site, n):
        if (row, site) in counts:      # e.g. actives 0 and "0"
            raise ValueError(f"two keys name row {row}, colony {site}")
        counts[row, site] = _integer(n)

    try:
        for site, n in actives.items():
            put(0, _integer(site), n)
        for key, n in dormants.items():
            colour, site = (_integer(v) for v in str(key).split(":"))
            if not 0 <= colour <= mp.levels:
                raise ValueError(f"colour {colour} outside 0..{mp.levels}")
            put(colour + 1, site, n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid dual block: {exc}") from exc
    for _, site in counts:
        if not 0 <= site < mp.n_colonies:
            raise ConfigError(f"invalid dual block: site {site} outside "
                              f"0..{mp.n_colonies - 1}")
    return counts


@dataclass(frozen=True)
class Job:
    """One parsed invocation: what every subcommand reads."""

    model: params.ModelParams
    run: dict                  # run block, each value read as its type
    lineages: dict             # see _lineages
    seed: int
    outdir: Path


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_text(path: Path, text: str) -> Path:
    path.write_text(text)
    return path


def _key_values(pairs) -> str:
    """One ``key = value`` line per pair: the .txt reports and the summary
    printed after a run."""
    return "".join(f"{key} = {value}\n" for key, value in pairs)


def write_csv(path: Path, header: str, rows, comments=()) -> Path:
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return _write_text(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload: dict) -> Path:
    return _write_text(path, json.dumps(payload, sort_keys=True, indent=2,
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
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "files": {f.name: sha256_file(f) for f in files},
    }
    write_json(outdir / "manifest.json", manifest)


# ----------------------------------------------------------------------
# Subcommands: each takes a Job and returns (summary, files written)
# ----------------------------------------------------------------------


def cmd_classify(job: Job) -> tuple:
    mp, out = job.model, job.outdir
    report = asdict(params.classify(mp))
    derived = params.derive(mp)
    coeffs = params.compute_A(mp, derived, mp.levels + 1)
    predict = coeffs.asymptotic.asymptote
    rows = [(n, float(coeffs.A[n]),
             predict(n) if predict is not None and n >= 2 else "")
            for n in range(mp.levels + 2)]
    spec = mp.kernel_spec()
    expansion = hiergeo.build_expansion(spec)
    files = [
        write_json(out / "regime_report.json", report),
        _write_text(out / "regime_report.txt", _key_values(report.items())),
        write_csv(out / "coefficients.csv", "n,A_n,predicted_asymptote", rows,
                  comments=[f"asymptotic_class = {coeffs.asymptotic.label}"]),
        write_csv(out / "kernel.csv", "level,c_k,r_k,h_k",
                  [(k, spec.c[k], float(expansion.r[k]), float(expansion.h[k]))
                   for k in range(spec.truncation)]),
    ]
    return {"clustering": report["clustering"], "gamma": report["gamma"]}, files


def cmd_simulate_forward(job: Job) -> tuple:
    mp, run, out = job.model, job.run, job.outdir
    if mp.init is None:
        raise ConfigError("simulate-forward needs an init block")
    horizon = run.get("horizon", 1.0)
    times = run.get("times")
    if times is None:
        times = np.linspace(0.0, horizon, 11).tolist()
    elif not times:
        raise ConfigError("run.times must name at least one record time")
    plan = forward.RecordPlan(times=times,
                              snapshots=run.get("snapshots", False))
    rec = forward.simulate(mp, mp.init, horizon, plan, seed=job.seed,
                           dt=run.get("dt"))
    # one row per time, level and component; the x and y<m> rows are the
    # block averages, which are the component means theta_x and theta_y<m>
    ys = [f"y{m}" for m in range(mp.levels + 1)]
    names = ["x", *ys, "theta_bar", "theta_x", *(f"theta_{y}" for y in ys)]
    x, bar = rec.theta_x[..., None], rec.theta_bar[..., None]
    values = np.concatenate([x, rec.theta_y, bar, x, rec.theta_y], axis=-1)
    files = [write_csv(out / "trajectory.csv", "t,level,component,value", [
        (t, level, name, value) for t, block in zip(rec.times, values)
        for level, row in zip(rec.levels.tolist(), block)
        for name, value in zip(names, row)])]
    if plan.snapshots:
        # addresses are base-N digit strings, least-significant digit first
        digits = (np.arange(mp.n_colonies)[:, None]
                  // mp.N ** np.arange(mp.levels + 1) % mp.N)
        addresses = ["".join(map(str, row)) for row in digits.tolist()]
        files.append(write_csv(out / "snapshots.csv", ",".join(
            ["t", "address", "x", *ys]), [
            (t, address, rec.snapshots_x[i, c], *rec.snapshots_y[i, :, c])
            for i, t in enumerate(rec.times)
            for c, address in enumerate(addresses)]))
    summary = {
        "horizon": horizon, "clip_fraction": rec.clip_fraction,
        "flagged": rec.flagged,
        "grand_mean_first": float(rec.theta_bar[0, -1]),
        "grand_mean_last": float(rec.theta_bar[-1, -1]),
    }
    return summary, files + [write_json(out / "summary.json", summary)]


def _dual_config(job: Job) -> dual.DualConfig:
    counts = np.zeros((job.model.levels + 2, job.model.n_colonies), dtype=int)
    for place, n in job.lineages.items():
        counts[place] = n
    if counts.sum() == 0:
        counts[0, 0] = 2
    return dual.DualConfig(counts)


def cmd_simulate_dual(job: Job) -> tuple:
    horizon = job.run.get("horizon", 1.0)
    cfg0 = _dual_config(job)
    log, terminal = dual.simulate_dual(cfg0, job.model, horizon,
                                       stream(job.seed, "dual-cli"))
    summary = {
        "horizon": horizon, "initial_total": cfg0.total,
        "terminal_total": terminal.total, "n_events": len(log),
        "terminal_counts": terminal.counts.tolist(),
    }
    return summary, [
        write_csv(job.outdir / "events.csv", "t,event,site,colour", log),
        write_json(job.outdir / "summary.json", summary)]


def cmd_duality_check(job: Job) -> tuple:
    mp, run = job.model, job.run
    if mp.init is None:
        raise ConfigError("duality-check needs an init block")
    cfg0 = _dual_config(job)
    dual.count_sites(mp, cfg0.total)    # size the dual before z is drawn
    z = forward.initial_state(mp, mp.init, stream(job.seed, "duality-z"))
    report = dual.duality_estimate(mp, z, cfg0, run.get("t", 1.0),
                                   _budget(run).n_replicas, job.seed,
                                   dt=run.get("dt"))
    summary = report.as_dict()
    return summary, [
        write_json(job.outdir / "duality.json", summary),
        _write_text(job.outdir / "duality.txt", _key_values(summary.items()))]


def _budget(run: dict) -> renorm.EquilibriumBudget:
    """The sampling budget; its n_replicas also sizes duality-check."""
    return renorm.EquilibriumBudget(
        n_replicas=run.get("replicas", 10_000),
        **{key: run[key] for key in ("burn", "sample", "dt_factor")
           if key in run})


def _depth(job: Job, name: str, default: int, low: int, shift: int) -> int:
    """``run.depth`` (default ``default``), checked against the range
    low <= depth <= model.levels + shift, which must not be empty."""
    levels, depth = job.model.levels, job.run.get("depth", default)
    if levels + shift < low:
        raise ConfigError(f"{name} depth needs model.levels >= {low - shift}"
                          f", found {levels}")
    if not low <= depth <= levels + shift:
        bound = "model.levels" + {1: " + 1", 0: "", -1: " - 1"}[shift]
        raise ConfigError(f"{name} depth must satisfy {low} <= run.depth <= "
                          f"{bound} = {levels + shift}, found {depth}")
    return depth


def _theta_grid(run: dict) -> np.ndarray:
    """The orbit's theta grid: ``run.grid_size`` uniform nodes on [0, 1]."""
    return np.linspace(0.0, 1.0, max(run.get("grid_size", 21), 0))


def cmd_renorm_orbit(job: Job) -> tuple:
    mp, run, out = job.model, job.run, job.outdir
    depth = _depth(job, "orbit", 5, 1, 1)
    derived = params.derive(mp)
    coeffs = params.compute_A(mp, derived, min(mp.levels + 1, depth + 1))
    _budget(run)      # the exact orbit samples nothing; the budget is checked
    orbit = renorm.iterate_F_scaled(mp.g, mp, derived, coeffs, depth,
                                    _theta_grid(run))
    files = [write_csv(out / "orbit.csv", "level,A_n,sup_distance",
                       zip(orbit.levels.tolist(), orbit.A.tolist(),
                           orbit.sup_distance.tolist()))]
    for i, level in enumerate(orbit.levels):
        rows = list(zip(orbit.theta_grid, orbit.grids[i](orbit.theta_grid)))
        files.append(write_csv(out / f"fgrid_level{int(level)}.csv",
                               "theta,value", rows,
                               comments=[f"level = {int(level)}",
                                         f"A_n = {_fmt(orbit.A[i])}"]))
    summary = {"depth": depth, "sup_distance": orbit.sup_distance.tolist(),
               "A": orbit.A.tolist()}
    return summary, files + [write_json(out / "summary.json", summary)]


def cmd_interaction_chain(job: Job) -> tuple:
    mp, run = job.model, job.run
    if mp.init is None:
        raise ConfigError("interaction-chain needs an init block")
    budget = _budget(run)
    if budget.n_replicas < 2:
        raise ConfigError("interaction-chain needs run.replicas >= 2 for "
                          "its variances")
    depth = _depth(job, "interaction-chain", 4, 0, -1)
    derived = params.derive(mp)
    coeffs = params.compute_A(mp, derived, depth + 2)
    orbit = renorm.iterate_F_scaled(mp.g, mp, derived, coeffs, depth + 1,
                                    _theta_grid(run))
    g_orbit = [mp.g] + orbit.grids
    chain = renorm.sample_interaction_chain(depth, mp, derived, g_orbit,
                                            budget, job.seed)
    means, variances = renorm.chain_moment_predictions(depth, derived, coeffs,
                                                       g_orbit[depth + 1])
    rows = [(l, float(x.mean()), float(x.var(ddof=1)), float(means[l]),
             float(variances[l]),
             float(x.std(ddof=1) / np.sqrt(budget.n_replicas)))
            for l, x in enumerate(chain)]
    summary = {"depth": depth, "replicas": budget.n_replicas,
               "theta_start": float(derived.theta_seq[depth])}
    return summary, [
        write_csv(job.outdir / "chain.csv",
                  "level,mean_x,var_x,predicted_mean,predicted_var,se_mean",
                  rows),
        write_json(job.outdir / "summary.json", summary)]


def cmd_profile(job: Job) -> tuple:
    depth = _depth(job, "profile", job.model.levels, 2, 0)
    coeffs = params.compute_A(job.model, params.derive(job.model), depth + 1)
    values = renorm.volatility_profile(depth, coeffs)
    summary = {"depth": depth,
               "classification": renorm.classify_profile(coeffs, depth)}
    return summary, [
        write_csv(job.outdir / "profile.csv", "l,f_value",
                  list(enumerate(values))),
        write_json(job.outdir / "summary.json", summary)]


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
    parser.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        cfg, raw = load_config(args.config)
        outdir = _read(Path, args.out or cfg.get("out", "out"), "out")
        outdir.mkdir(parents=True, exist_ok=True)
        # an earlier run's manifest would vouch for this run's debris
        (outdir / "manifest.json").unlink(missing_ok=True)
        seed = (args.seed if args.seed is not None
                else _read(_integer, cfg.get("seed", 0), "seed"))
        mp = build_model(cfg)
        run = {key: _read(_RUN_TYPES[key], value, f"run.{key}")
               for key, value in cfg["run"].items() if value is not None}
        job = Job(mp, run, _lineages(cfg["dual"], mp), seed, outdir)
        summary, files = _COMMANDS[args.command](job)
        write_manifest(outdir, raw, seed, files)
    except (ConfigError, ValueError, KeyError, OSError, MemoryError,
            forward.StabilityError, hiergeo.AccuracyError) as exc:
        # a bare MemoryError() has no text; its class name stands in
        text = " ".join(str(exc).split()) or type(exc).__name__
        print("error: " + text, file=sys.stderr)
        return 1
    if not args.quiet:
        sys.stdout.write(_key_values(sorted(summary.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
