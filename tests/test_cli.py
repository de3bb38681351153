"""CLI subcommands: wiring, validation, reproducibility."""

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import string
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import hierfw
from hierfw import cli, hiergeo


CLUSTERING_CFG = """\
model:
  N: 8
  levels: 6
  family:
    kind: exponential
    K: 2.0
    e: 1.0
    c: 0.25
  g:
    kind: fisher_wright
    d: 1.0
  d: 1.0
init:
  theta_x: 0.5
  theta_y: [0.5]
  law: deterministic
run:
  horizon: 1.0
  times: [0.0, 0.5, 1.0]
seed: 42
"""

TWO_COLONY_CFG = """\
model:
  N: 2
  levels: 0
  c: [1.0]
  e: [1.0]
  K: [1.0]
  g:
    kind: fisher_wright
    d: 1.0
  d: 1.0
init:
  theta_x: 0.7
  theta_y: [0.4]
  law: deterministic
dual:
  actives: {0: 2}
run:
  t: 1.0
  replicas: 4000
  dt: 0.005
seed: 7
"""


# a run block small enough for the renormalisation subcommands to take ~1 s
CHEAP_RENORM_CFG = CLUSTERING_CFG.replace(
    "run:\n  horizon: 1.0\n  times: [0.0, 0.5, 1.0]",
    "run:\n  depth: 1\n  grid_size: 5\n  replicas: 8\n  burn: 1.0\n  sample: 2.0")


def write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return p


def run(args):
    return cli.main([str(a) for a in args])


def test_classify_clustering_family(tmp_path):
    cfg = write_cfg(tmp_path, CLUSTERING_CFG)
    out = tmp_path / "o"
    assert run(["classify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "regime_report.json").read_text())
    assert report["clustering"] == "clusters"
    # gamma = log(N/Ke)/log(N/e) = log 4 / log 8
    assert report["gamma"] == pytest.approx(math.log(4) / math.log(8))
    assert (out / "manifest.json").exists()
    assert (out / "coefficients.csv").exists()


def test_classify_finite_seedbank_at_e_equal_to_N(tmp_path):
    # K < 1 is a finite seed-bank, which reports no gamma: its
    # log(N/e) = 0 must not be computed
    text = CLUSTERING_CFG.replace("K: 2.0\n    e: 1.0", "K: 0.5\n    e: 8.0")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert run(["classify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "regime_report.json").read_text())
    assert report["rho_infinite"] is False and report["gamma"] is None


def test_classify_polynomial_finite_rho(tmp_path):
    text = CLUSTERING_CFG.replace(
        """  family:
    kind: exponential
    K: 2.0
    e: 1.0
    c: 0.25""",
        """  family:
    kind: polynomial
    alpha: 2.0
    beta: 0.0
    phi: 0.0""")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert run(["classify", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "regime_report.json").read_text())
    assert report["rho_infinite"] is False
    assert report["clustering"] == "clusters"       # c_k ~ 1: sum 1/c_k diverges
    assert report["criterion_used"] == "finite-rho migration sum"


def test_malformed_config_no_outputs(tmp_path):
    bad = TWO_COLONY_CFG.replace("K: [1.0]", "K: [0.0]")
    cfg = write_cfg(tmp_path, bad)
    out = tmp_path / "o"
    assert run(["classify", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert not (out / "manifest.json").exists()
    assert not (out / "regime_report.json").exists()


def test_unknown_keys_rejected(tmp_path):
    cfg = write_cfg(tmp_path, CLUSTERING_CFG + "\nbogus: 3\n")
    assert run(["classify", "--config", cfg, "--out", tmp_path / "o",
                "--quiet"]) == 1


def test_duality_check(tmp_path):
    cfg = write_cfg(tmp_path, TWO_COLONY_CFG)
    out = tmp_path / "o"
    assert run(["duality-check", "--config", cfg, "--out", out, "--quiet"]) == 0
    report = json.loads((out / "duality.json").read_text())
    assert report["pass_3se"] is True
    assert abs(report["rhs"] - report["exact_rhs"]) < 5 * report["rhs_se"]


def test_duality_check_sizes_dual_before_drawing_z(tmp_path, capsys,
                                                   monkeypatch):
    # 256 colonies x (A, D_0..D_3): 1,280 sites, far over 5000 states of
    # <= 2 lineages; the start configuration z is never drawn
    def initial_state(*args, **kwargs):
        raise AssertionError("z drawn before the count space was sized")

    monkeypatch.setattr(hierfw.forward, "initial_state", initial_state)
    wide = TWO_COLONY_CFG.replace(
        "N: 2\n  levels: 0\n  c: [1.0]\n  e: [1.0]\n  K: [1.0]",
        "N: 4\n  levels: 3\n  c: [1.0, 1.0, 1.0, 1.0]\n"
        "  e: [1.0, 1.0, 1.0, 1.0]\n  K: [1.0, 1.0, 1.0, 1.0]").replace(
        "theta_y: [0.4]", "theta_y: [0.4, 0.4, 0.4, 0.4]")
    cfg = write_cfg(tmp_path, wide)
    out = tmp_path / "o"
    assert run(["duality-check", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert capsys.readouterr().err == "error: count-state space exceeds 5000\n"
    assert not (out / "manifest.json").exists()


def test_simulate_dual_events(tmp_path):
    cfg = write_cfg(tmp_path, TWO_COLONY_CFG)
    out = tmp_path / "o"
    assert run(["simulate-dual", "--config", cfg, "--out", out, "--quiet"]) == 0
    lines = (out / "events.csv").read_text().strip().splitlines()
    assert lines[0] == "t,event,site,colour"
    summary = json.loads((out / "summary.json").read_text())
    assert summary["terminal_total"] <= summary["initial_total"]


def test_profile_runs(tmp_path):
    cfg = write_cfg(tmp_path, CLUSTERING_CFG)
    out = tmp_path / "o"
    assert run(["profile", "--config", cfg, "--out", out, "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["classification"] == "fast"


@pytest.mark.slow
def test_renorm_orbit_matches_oracle(tmp_path):
    text = CLUSTERING_CFG.replace(
        "run:\n  horizon: 1.0\n  times: [0.0, 0.5, 1.0]",
        "run:\n  depth: 2\n  grid_size: 9")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert run(["renorm-orbit", "--config", cfg, "--out", out, "--quiet"]) == 0
    from hierfw import params as P
    from hierfw import renorm as R
    from hierfw.diffusion import fisher_wright
    mp = cli.build_model(cli.load_config(cfg)[0])
    der = P.derive(mp)
    co = P.compute_A(mp, der, 3)
    d_seq = R.fw_recursion_oracle(1.0, 2, co)
    for level in (1, 2):
        lines = (out / f"fgrid_level{level}.csv").read_text().splitlines()
        rows = [ln.split(",") for ln in lines if not ln.startswith("#")][1:]
        theta = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        expect = d_seq[level] * fisher_wright()(theta)
        assert np.max(np.abs(vals - expect)) < 0.01


def test_renorm_orbit_summary_keys(tmp_path):
    text = CHEAP_RENORM_CFG.replace("depth: 1", "depth: 2")
    out = tmp_path / "o"
    assert run(["renorm-orbit", "--config", write_cfg(tmp_path, text),
                "--out", out, "--quiet"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    # the orbit is computed without sampling: no stationarity flags
    assert sorted(summary) == ["A", "depth", "sup_distance"]
    assert len(summary["A"]) == len(summary["sup_distance"]) == 2


@pytest.mark.parametrize("command,cfg_text", [
    ("classify", CLUSTERING_CFG),
    ("simulate-forward", CLUSTERING_CFG),
    ("simulate-dual", TWO_COLONY_CFG),
], ids=["classify-CLUSTERING_CFG", "simulate-forward-CLUSTERING_CFG",
        "simulate-dual-TWO_COLONY_CFG"])
def test_reproducible_byte_identical(tmp_path, command, cfg_text):
    cfg = write_cfg(tmp_path, cfg_text)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run([command, "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert run([command, "--config", cfg, "--out", out2, "--quiet"]) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["files"] == m2["files"]


def test_seed_flag_changes_outputs(tmp_path):
    cfg = write_cfg(tmp_path, TWO_COLONY_CFG)
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(["simulate-dual", "--config", cfg, "--out", out1, "--quiet"]) == 0
    assert run(["simulate-dual", "--config", cfg, "--out", out2, "--quiet",
                "--seed", "123"]) == 0
    assert (out1 / "events.csv").read_bytes() != (out2 / "events.csv").read_bytes()


def test_midrun_failure_leaves_no_manifest(tmp_path):
    # duality on a non-Fisher-Wright g is refused after the model builds;
    # the output directory must not end up with a manifest
    text = TWO_COLONY_CFG.replace(
        """  g:
    kind: fisher_wright
    d: 1.0
  d: 1.0""",
        """  g:
    kind: grid
    nodes: [0.0, 0.5, 1.0]
    values: [0.0, 0.1, 0.0]""")
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "o"
    assert run(["duality-check", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert not (out / "manifest.json").exists()
    # a failed rerun into an earlier run's directory drops its manifest
    good = write_cfg(tmp_path, TWO_COLONY_CFG, name="good.yaml")
    assert run(["simulate-dual", "--config", good, "--out", out, "--quiet"]) == 0
    assert (out / "manifest.json").exists()
    assert run(["duality-check", "--config", cfg, "--out", out, "--quiet"]) == 1
    assert not (out / "manifest.json").exists()


_RUN = "t: 1.0\n  replicas: 4000\n  dt: 0.005"     # TWO_COLONY_CFG's run block
# an N = 3 model of two levels (27 colonies), with the two-colony run block
_THREE_LEVEL = TWO_COLONY_CFG.replace(
    "N: 2\n  levels: 0\n  c: [1.0]\n  e: [1.0]\n  K: [1.0]",
    "N: 3\n  levels: 2\n  c: [1.0, 1.0, 1.0]\n  e: [1.0, 1.0, 1.0]\n"
    "  K: [1.0, 1.0, 1.0]")
# g peaks at 1e300, so the default dt is ~2.5e-302: ~4e301 steps to t = 1
_STEEP_G = TWO_COLONY_CFG.replace(
    "g:\n    kind: fisher_wright\n    d: 1.0\n  d: 1.0",
    "g: {kind: grid, nodes: [0, 0.5, 1], values: [0, 1e300, 0]}").replace(
    _RUN, "horizon: 1.0")

# two colours and a theta_limit, which is no key: a colour theta_y does not
# list starts at its last entry
_HEAD = TWO_COLONY_CFG[:TWO_COLONY_CFG.index("  law:")]
THETA_LIMIT_EDIT = (_HEAD, _HEAD.replace("levels: 0", "levels: 1")
                    .replace("[1.0]", "[1.0, 1.0]") + "  theta_limit: 5\n")


@pytest.mark.parametrize("command,edit,message", [
    ("simulate-forward", ("dt: 0.005", "dt: 0"), "dt must be positive"),
    ("duality-check", ("dt: 0.005", "dt: 0"), "dt must be positive"),
    ("duality-check", ("replicas: 4000", "replicas: 0"), "n_replicas"),
    ("simulate-forward", ("dt: 0.005", "dt: 0.9"), "dt * total rate"),
    ("simulate-forward", ("dt: 0.005", "dt: abc"), "run.dt"),
    ("duality-check", ("dt: 0.005", "dt: abc"), "run.dt"),
    ("simulate-forward", ("dt: 0.005", "horizon: [1]"), "run.horizon"),
    ("simulate-dual", ("dt: 0.005", "horizon: [1]"), "run.horizon"),
    ("classify", ("c: [1.0]", "c: 1.0"), "invalid model block"),
    ("classify", ("init:\n  theta_x: 0.7\n  theta_y: [0.4]\n  law: deterministic",
                  "init: 5"), "init must be a mapping"),
    ("classify", ("g:\n    kind: fisher_wright\n    d: 1.0", "g: 3"),
     "model.g must be a mapping"),
    ("simulate-dual", ("actives: {0: 2}", "actives: {9: 2}"), "site 9"),
    ("classify", ("N: 2", "N: 1"), "group order must be >= 2"),
    ("renorm-orbit", ("dt: 0.005", "depth: 1\n  grid_size: 0"), "theta grid"),
    ("renorm-orbit", ("dt: 0.005", "depth: 1\n  dt_factor: 0"), "dt_factor"),
    ("renorm-orbit", ("replicas: 4000", "replicas: 0\n  depth: 1"), "n_replicas"),
    ("profile", ("dt: 0.005", "depth: -1"), "profile depth"),
    ("duality-check", ("t: 1.0", "t: -1"), "record times must be non-negative"),
    ("simulate-dual", ("dt: 0.005", "horizon: -1"), "horizon must be non-negative"),
    ("renorm-orbit", ("dt: 0.005", "depth: -1"), "orbit depth"),
    ("renorm-orbit", ("dt: 0.005", "depth: 0"), "orbit depth"),
    ("interaction-chain", ("dt: 0.005", "depth: -1"),
     "interaction-chain depth needs model.levels >= 1, found 0"),
    ("classify", ("\n  d: 1.0\n", "\n  d: 0.05\n"), "model.d = 0.05"),
    ("classify", ("kind: fisher_wright\n    d: 1.0",
                  "kind: grid\n    nodes: [0.0, 0.5, 1.0]\n    values: [0.0, 0.1, 0.0]"),
     "model.d = 1.0"),
    ("classify", ("theta_y: [0.4]", "theta_y: []"), "theta_y needs"),
    ("classify", ("g:\n    kind: fisher_wright\n    d: 1.0\n  d: 1.0",
                  "g: {kind: grid, nodes: [], values: []}"), "two nodes"),
    ("simulate-forward", THETA_LIMIT_EDIT,
     "unknown keys in init: ['theta_limit']"),
    ("simulate-forward", ("law: deterministic",
                          "law: deterministic\n  theta_limit: abc"),
     "unknown keys in init: ['theta_limit']"),
    # numbers are read strictly: integral where counted, finite everywhere
    ("simulate-dual", ("dt: 0.005", "horizon: .inf"), "run.horizon"),
    ("simulate-dual", ("dt: 0.005", "horizon: .nan"), "run.horizon"),
    ("duality-check", ("t: 1.0", "t: .inf"), "run.t"),
    ("duality-check", ("replicas: 4000", "replicas: .inf"), "run.replicas"),
    ("interaction-chain", ("dt: 0.005", "burn: .inf"), "run.burn"),
    ("classify", ("N: 2", "N: .inf"), "invalid model block"),
    ("classify", ("seed: 7", "seed: .inf"), "seed"),
    ("simulate-dual", ("actives: {0: 2}", "actives: {0: .inf}"),
     "invalid dual block"),
    ("simulate-forward", ("dt: 0.005", "dt: 0.005\n  snapshots: 'false'"),
     "run.snapshots"),
    ("duality-check", ("replicas: 4000", "replicas: true"), "run.replicas"),
    ("classify", ("N: 2", "N: 2.7"), "invalid model block"),
    ("classify", ("levels: 0", "levels: 0.9"), "invalid model block"),
    # the orbit of interaction-chain is computed on run.grid_size nodes too
    ("interaction-chain", (TWO_COLONY_CFG, CHEAP_RENORM_CFG.replace(
        "grid_size: 5", "grid_size: 0")), "theta grid"),
    # the keys of model.g and model.family are checked per kind
    ("simulate-forward", ("d: 1.0\n  d: 1.0", "D: 2.0\n  d: 1.0"),
     "unknown keys in model.g: ['D']"),
    ("classify", (TWO_COLONY_CFG, CLUSTERING_CFG.replace(
        "c: 0.25", "c: 0.25\n    alpha: 7")),
     "unknown keys in model.family: ['alpha']"),
    # a variance needs two replicas; a grid without interior node has no F
    ("interaction-chain", (TWO_COLONY_CFG, CHEAP_RENORM_CFG.replace(
        "replicas: 8", "replicas: 1")), "run.replicas >= 2"),
    ("renorm-orbit", (TWO_COLONY_CFG, CHEAP_RENORM_CFG.replace(
        "grid_size: 5", "grid_size: 2")), "theta grid"),
    # a model too shallow for any depth is named by model.levels, a depth
    # beyond the stored coefficients by its config key
    ("interaction-chain", ("dt: 0.005", "depth: 1"),
     "interaction-chain depth needs model.levels >= 1, found 0"),
    ("profile", ("dt: 0.005", "depth: 1"),
     "profile depth needs model.levels >= 2, found 0"),
    ("renorm-orbit", ("dt: 0.005", "depth: 2"),
     "orbit depth must satisfy 1 <= run.depth <= model.levels + 1 = 1, found 2"),
    ("renorm-orbit", ("dt: 0.005", "depth: 0"),
     "orbit depth must satisfy 1 <= run.depth <= model.levels + 1 = 1, found 0"),
    # a one-level model has no profile depth
    ("profile", (_HEAD, _HEAD.replace("levels: 0", "levels: 1")
                 .replace("[1.0]", "[1.0, 1.0]")),
     "profile depth needs model.levels >= 2, found 1"),
    # the default depth, 4, is too deep for a one-level model
    ("interaction-chain", (_HEAD, _HEAD.replace("levels: 0", "levels: 1")
                           .replace("[1.0]", "[1.0, 1.0]")),
     "interaction-chain depth must satisfy 0 <= run.depth <= model.levels - 1 "
     "= 0, found 4"),
    # t / dt overflows: one line, not an OverflowError traceback; the first
    # record time to overflow in simulate-forward is the second of 11, 1e307
    ("simulate-forward", ("dt: 0.005", "dt: 0.005\n  horizon: 1e308"),
     "record time 1e+307 / dt = 0.005 overflows"),
    ("duality-check", ("t: 1.0\n  replicas: 4000", "t: 1e308\n  replicas: 10"),
     "record time 1e+308 / dt = 0.005 overflows"),
    # no colours: the model is refused before any subcommand indexes them
    ("simulate-forward", ("levels: 0\n  c: [1.0]\n  e: [1.0]\n  K: [1.0]",
                          "levels: -1\n  c: []\n  e: []\n  K: []"),
     "levels must be >= 0, found -1"),
    ("classify", (TWO_COLONY_CFG, CLUSTERING_CFG.replace("levels: 6",
                                                         "levels: -1")),
     "levels must be >= 0, found -1"),
    # the exponential family's growth conditions c < N and K e < N
    ("classify", (TWO_COLONY_CFG, CLUSTERING_CFG.replace("c: 0.25", "c: 8")),
     "the exponential family needs c < N = 8 and K e < N"),
    ("classify", (TWO_COLONY_CFG, CLUSTERING_CFG.replace(
        "K: 2.0\n    e: 1.0", "K: 1.0\n    e: 8.0")),
     "the exponential family needs c < N = 8 and K e < N"),
    # a dual-block place is named once; a second key would overwrite it
    ("simulate-dual", ("actives: {0: 2}", "actives: {0: 1, '0': 1}"),
     "invalid dual block: two keys name row 0, colony 0"),
    ("simulate-dual", ("actives: {0: 2}",
                       "actives: {0: 2}\n  dormants: {'0:1': 1, '0:01': 2}"),
     "invalid dual block: two keys name row 1, colony 1"),
    ("simulate-dual", ("actives: {0: 2}", "actives: {0: -1}"),
     "lineage counts must be non-negative"),
    # a sampling budget runs forward in time
    ("interaction-chain", (TWO_COLONY_CFG, CHEAP_RENORM_CFG.replace(
        "burn: 1.0", "burn: -5.0")), "burn must be non-negative, found -5.0"),
    ("interaction-chain", (TWO_COLONY_CFG, CHEAP_RENORM_CFG.replace(
        "sample: 2.0", "sample: -3")), "sample must be positive, found -3.0"),
    # 2^53 steps or more would run without end; s * dt no longer tells
    # consecutive steps apart there
    ("simulate-forward", (TWO_COLONY_CFG, _THREE_LEVEL.replace(
        _RUN, "horizon: 1e300")),
     "record time 1e+299 / dt = 0.0257143 overflows 2^53 steps"),
    ("simulate-forward", (TWO_COLONY_CFG, _THREE_LEVEL.replace(
        _RUN, "horizon: 1.0\n  dt: 1e-300")),
     "record time 0.1 / dt = 1e-300 overflows 2^53 steps"),
    ("simulate-forward", (TWO_COLONY_CFG, _STEEP_G),
     "record time 0.1 / dt = 2.5e-302 overflows 2^53 steps"),
    ("duality-check", ("dt: 0.005", "dt: 1e-300"),
     "record time 1 / dt = 1e-300 overflows 2^53 steps"),
    # a key repeated within one mapping is refused, not merged
    ("simulate-forward", (_RUN, "horizon: 1.0\n  horizon: 0.5\n  dt: 0.005"),
     "config repeats the key 'horizon' in one mapping (line 19)"),
    ("simulate-dual", ("actives: {0: 2}", "actives: {0: 1, 0: 2}"),
     "config repeats the key '0' in one mapping (line 16)"),
    ("classify", ("seed: 7", "seed: 7\nrun: {t: 0.5}"),
     "config repeats the key 'run' in one mapping (line 22)"),
    # an empty list of record times is not the default one
    ("simulate-forward", ("dt: 0.005", "dt: 0.005\n  times: []"),
     "run.times must name at least one record time"),
    # a colour the model does not have would be dropped silently
    ("simulate-forward", ("theta_y: [0.4]", "theta_y: [0.1, 0.9, 0.9]"),
     "invalid model block: init.theta_y lists 3 colours, the model has 1"),
    # a family would drop explicit prefixes silently
    ("classify", ("c: [1.0]\n  e: [1.0]\n  K: [1.0]",
                  "family: {kind: exponential, K: 1.0, e: 1.0, c: 0.5}\n"
                  "  c: [1.5]"),
     "invalid model block: model.family excludes the prefixes c, e and K, "
     "found ['c']"),
    # a Beta law needs positive parameters
    ("simulate-forward", ("law: deterministic",
                          "law: beta\n  concentration: -3.0"),
     "invalid init block: concentration must be positive, found -3.0"),
    # a dual block that names places holding no lineage gets no default
    ("simulate-dual", ("actives: {0: 2}", "actives: {1: 0}"),
     "invalid dual block: every named count is 0"),
    ("duality-check", ("actives: {0: 2}", "actives: {1: 0}"),
     "invalid dual block: every named count is 0"),
    ("simulate-dual", ("actives: {0: 2}", "dormants: {'0:1': 0}"),
     "invalid dual block: every named count is 0"),
])
def test_bad_run_values_exit_one(tmp_path, capsys, command, edit, message):
    cfg = write_cfg(tmp_path, TWO_COLONY_CFG.replace(*edit))
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out, "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    assert not (out / "manifest.json").exists()


def test_readme_config_grammar(tmp_path):
    # the README's config block is a config that builds, and it names every
    # key the CLI accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```yaml\n", 1)[1].split("```", 1)[0]
    cfg, _ = cli.load_config(write_cfg(tmp_path, block))
    mp = cli.build_model(cfg)
    for key, value in cfg["run"].items():
        cli._read(cli._RUN_TYPES[key], value, key)
    cli._lineages(cfg["dual"], mp)
    for keys in (cli._TOP_KEYS, cli._MODEL_KEYS, cli._INIT_KEYS,
                 cli._RUN_TYPES, cli._DUAL_KEYS):
        for key in keys:
            assert re.search(rf"(?<![\w.]){key}:", block), key


def test_merged_keys_yield_to_the_mappings_own(tmp_path):
    # YAML's merge rule: a key merged in with << is overridden, not repeated
    text = TWO_COLONY_CFG.replace(
        _RUN, "<<: {t: 0.5, replicas: 10}\n  t: 1.0\n  replicas: 4000\n"
        "  dt: 0.005")
    cfg, _ = cli.load_config(write_cfg(tmp_path, text))
    assert cfg["run"] == {"t": 1.0, "replicas": 4000, "dt": 0.005}


def test_overflowing_h_is_one_line_without_a_warning(tmp_path, capsys):
    # g(0.5) = 1e308 is finite, but h = g / (x(1-x)) = 4e308 is not
    text = TWO_COLONY_CFG.replace(
        "g:\n    kind: fisher_wright\n    d: 1.0",
        "g: {kind: grid, nodes: [0, 0.5, 1], values: [0, 1e308, 0]}")
    cfg = write_cfg(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["classify", "--config", cfg, "--out", tmp_path / "o",
                    "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: invalid model block: grid values overflow h = g / (x(1-x))\n")


def test_exponent_strings_read_as_numbers(tmp_path):
    # PyYAML leaves 5e-3 a string; it must run as dt = 0.005 does
    outs = []
    for i, dt in enumerate(("0.005", "5e-3")):
        cfg = write_cfg(tmp_path, TWO_COLONY_CFG.replace("dt: 0.005", f"dt: {dt}"),
                        name=f"cfg{i}.yaml")
        outs.append(tmp_path / f"o{i}")
        assert run(["simulate-forward", "--config", cfg, "--out", outs[-1],
                    "--quiet"]) == 0
    assert ((outs[0] / "trajectory.csv").read_bytes()
            == (outs[1] / "trajectory.csv").read_bytes())


def test_version_matches_pyproject():
    # pyproject.toml states no version of its own: setuptools reads
    # hierfw.__version__, as a pip install does
    from setuptools.config.pyprojecttoml import read_configuration
    with warnings.catch_warnings():  # older setuptools: [tool.setuptools] beta
        warnings.simplefilter("ignore")
        config = read_configuration(
            Path(__file__).parents[1] / "pyproject.toml", expand=True)
    assert config["project"]["version"] == hierfw.__version__


# runs each (command, config, out) triple of argv in one process, then prints
# the scipy.linalg and scipy.special modules that process has loaded
_IMPORT_PROBE = """\
import json, sys
from hierfw import cli
for command, cfg, out in zip(*[iter(sys.argv[1:])] * 3):
    assert cli.main([command, "--config", cfg, "--out", out, "--quiet"]) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy.linalg", "scipy.special")))))
"""


@pytest.mark.parametrize("runs,loads", [
    # the forward engine and a chain-only orbit (levels 0 and 1) call no scipy
    ([("simulate-forward", TWO_COLONY_CFG), ("renorm-orbit", CHEAP_RENORM_CFG)],
     set()),
    # the exact oracles exponentiate by uniformisation, without scipy.linalg
    ([("duality-check", TWO_COLONY_CFG.replace("replicas: 4000", "replicas: 200")),
      ("simulate-forward", TWO_COLONY_CFG)], set()),
    ([("classify", CLUSTERING_CFG)], {"scipy.special"}),
])
def test_scipy_submodules_load_on_first_use(tmp_path, runs, loads):
    argv = []
    for i, (command, text) in enumerate(runs):
        argv += [command, write_cfg(tmp_path, text, name=f"cfg{i}.yaml"),
                 tmp_path / f"o{i}"]
    src = str(Path(hierfw.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *map(str, argv)],
                          capture_output=True, text=True, env=env, check=True)
    loaded = set(json.loads(proc.stdout))
    assert loads <= loaded
    if not loads:
        assert not loaded, loaded


def test_accuracy_error_exits_one(tmp_path, capsys, monkeypatch):
    def too_short(job):
        raise hiergeo.AccuracyError("truncation too small for requested horizon")

    monkeypatch.setitem(cli._COMMANDS, "profile", too_short)
    cfg = write_cfg(tmp_path, CLUSTERING_CFG)
    assert run(["profile", "--config", cfg, "--out", tmp_path / "o",
                "--quiet"]) == 1
    err = capsys.readouterr().err
    assert err == "error: truncation too small for requested horizon\n"


@pytest.mark.parametrize("error,line", [
    (MemoryError(), "error: MemoryError\n"),
    (MemoryError("Unable to allocate 16.0 GiB for an array with shape "
                 "(1024, 2097152) and data type float64"),
     "error: Unable to allocate 16.0 GiB for an array with shape "
     "(1024, 2097152) and data type float64\n"),
])
def test_memory_error_exits_one(tmp_path, capsys, monkeypatch, error, line):
    # an allocation that fails mid-run prints one non-empty error line and
    # leaves no manifest, also where an earlier run left one
    cfg = write_cfg(tmp_path, TWO_COLONY_CFG)
    out = tmp_path / "o"
    assert run(["simulate-forward", "--config", cfg, "--out", out,
                "--quiet"]) == 0

    def exhausted(job):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "simulate-forward", exhausted)
    assert run(["simulate-forward", "--config", cfg, "--out", out,
                "--quiet"]) == 1
    assert capsys.readouterr().err == line
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command,cfg_text", [
    ("classify", CLUSTERING_CFG),
    ("profile", CLUSTERING_CFG),
    ("simulate-forward", TWO_COLONY_CFG.replace("dt: 0.005",
                                                "dt: 0.005\n  snapshots: true")),
    ("simulate-dual", TWO_COLONY_CFG),
    ("duality-check", TWO_COLONY_CFG.replace("replicas: 4000", "replicas: 200")),
    ("renorm-orbit", CHEAP_RENORM_CFG),
    ("interaction-chain", CHEAP_RENORM_CFG),
], ids=lambda v: v if v in cli._COMMANDS else "cfg")
def test_manifest_lists_every_output(tmp_path, command, cfg_text):
    cfg = write_cfg(tmp_path, cfg_text)
    out = tmp_path / "o"
    assert run([command, "--config", cfg, "--out", out, "--quiet"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    written = sorted(p.name for p in out.iterdir())
    assert sorted([*manifest["files"], "manifest.json"]) == written
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest
    assert manifest["config_sha256"] == hashlib.sha256(
        cfg.read_bytes()).hexdigest()
    # output bytes depend on numpy's generators, so the run names its libraries
    assert manifest["version"] == hierfw.__version__
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["scipy"] == scipy.__version__


def _leaves(node, path=()):
    """Paths to the scalar values of a parsed YAML tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, path + (i,))
    else:
        yield path


# cheap configs for the fuzz test: each leaf of each is replaced in turn
ORBIT_FUZZ_CFG = """\
model:
  N: 4
  levels: 1
  family: {kind: exponential, K: 2.0, e: 1.0, c: 0.25}
  g: {kind: fisher_wright, d: 1.0}
run: {depth: 1, grid_size: 5, replicas: 8, burn: 1.0, sample: 2.0}
seed: 3
"""
PROFILE_FUZZ_CFG = """\
model:
  N: 4
  levels: 4
  family: {kind: exponential, K: 2.0, e: 1.0, c: 0.25}
  g: {kind: fisher_wright, d: 1.0}
run: {depth: 4}
"""
_TWO_COLONY_MODEL = TWO_COLONY_CFG[:TWO_COLONY_CFG.index("init:")]
FORWARD_FUZZ_CFG = _TWO_COLONY_MODEL + """\
init: {theta_x: 0.7, theta_y: [0.4]}
run: {horizon: 0.1, dt: 0.01, times: [0.0, 0.1]}
"""
DUALITY_FUZZ_CFG = _TWO_COLONY_MODEL + """\
init: {theta_x: 0.7, theta_y: [0.4]}
dual: {actives: {0: 2}}
run: {t: 0.1, replicas: 100, dt: 0.05}
"""
# E c / e < 1/32 keeps the orbit on the closed-form averaged law, also when
# one of c, e is replaced, and dt_factor 1 keeps the default burn-in short
CHAIN_FUZZ_CFG = """\
model:
  N: 4
  levels: 1
  c: [0.05, 0.05]
  e: [256.0, 256.0]
  K: [0.01, 0.01]
  g: {kind: fisher_wright, d: 0.01}
init: {theta_x: 0.5, theta_y: [0.5]}
run: {depth: 0, replicas: 8, burn: 0.01, dt_factor: 1.0}
"""
FUZZ_CASES = [(command, text, leaf)
              for command, text in [
                  ("classify", TWO_COLONY_CFG),
                  ("simulate-dual", TWO_COLONY_CFG),
                  ("renorm-orbit", ORBIT_FUZZ_CFG),
                  ("profile", PROFILE_FUZZ_CFG),
                  ("simulate-forward", FORWARD_FUZZ_CFG),
                  ("duality-check", DUALITY_FUZZ_CFG),
                  ("interaction-chain", CHAIN_FUZZ_CFG)]
              for leaf in _leaves(yaml.safe_load(text))]
TWO_COLONY_CASES = 2 * len(list(_leaves(yaml.safe_load(TWO_COLONY_CFG))))


# 150 examples over the classify and simulate-dual cases, as many per case
# over the others
@settings(max_examples=150 * len(FUZZ_CASES) // TWO_COLONY_CASES,
          deadline=None)
@given(case=st.sampled_from(FUZZ_CASES),
       value=st.one_of(st.text(string.ascii_letters, max_size=6),
                       st.sampled_from([[], {}, None, -1, 0, float("inf"),
                                        float("nan"), True, 2.5])))
def test_malformed_leaf_exits_cleanly(case, value):
    command, text, leaf = case
    cfg = yaml.safe_load(text)
    node = cfg
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.yaml", Path(tmp) / "o"
        path.write_text(yaml.safe_dump(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run([command, "--config", path, "--out", out, "--quiet"])
        assert code in (0, 1)
        assert (out / "manifest.json").exists() == (code == 0)
        if code == 1:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
