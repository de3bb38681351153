"""Each output check accepts a real run and rejects a perturbed one.

    python3 -m pytest perfbench/test_checks.py

Runs each workload's subcommand on a scaled-down copy of its config, checks
the output, then perturbs one value (re-hashing the manifest, so that the
perturbation must be caught by the workload's own check) and checks again.
"""

import copy
import hashlib
import json
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from hierfw import cli, params, renorm  # noqa: E402

from checks import CheckError, check_output, fw_orbit_rates  # noqa: E402


def _workload(name, **overrides):
    cfg = yaml.safe_load((HERE / "workloads" / f"{name}.yaml").read_text())
    cfg = copy.deepcopy(cfg)
    for block, values in overrides.items():
        cfg.setdefault(block, {}).update(values)
    return cfg


def _run(tmp_path, command, cfg, seed=3):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--seed", str(seed),
                     "--out", str(out), "--quiet"]) == 0
    return out


def _rehash(outdir):
    path = outdir / "manifest.json"
    manifest = json.loads(path.read_text())
    for name in manifest["files"]:
        data = (outdir / name).read_bytes()
        manifest["files"][name] = hashlib.sha256(data).hexdigest()
    path.write_text(json.dumps(manifest))


def _edit_json(outdir, name, **changes):
    path = outdir / name
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))
    _rehash(outdir)


def _edit_lines(outdir, name, edit):
    path = outdir / name
    lines = path.read_text().splitlines()
    path.write_text("\n".join(edit(lines)) + "\n")
    _rehash(outdir)


def _rejects(command, cfg, outdir):
    with pytest.raises(CheckError):
        check_output(command, cfg, outdir)


@pytest.fixture
def forward_run(tmp_path):
    cfg = _workload("forward-2m", model={"N": 4, "levels": 2})
    return cfg, _run(tmp_path, "simulate-forward", cfg)


def test_forward_accepts_run(forward_run):
    gap, _ = check_output("simulate-forward", *forward_run)
    assert 0.0 < gap < 1.0


def test_forward_rejects_drifting_grand_mean(forward_run):
    cfg, out = forward_run
    summary = json.loads((out / "summary.json").read_text())
    last = summary["grand_mean_last"]
    shifted = last + 0.2

    def edit(lines):
        return [line.replace(repr(last), repr(shifted))
                if ",theta_bar," in line else line for line in lines]

    _edit_lines(out, "trajectory.csv", edit)
    _edit_json(out, "summary.json", grand_mean_last=shifted)
    _rejects("simulate-forward", cfg, out)


def test_forward_rejects_flagged_run(forward_run):
    cfg, out = forward_run
    _edit_json(out, "summary.json", flagged=True)
    _rejects("simulate-forward", cfg, out)


def test_manifest_mismatch_is_rejected(forward_run):
    cfg, out = forward_run
    path = out / "trajectory.csv"
    path.write_text(path.read_text() + "\n")
    _rejects("simulate-forward", cfg, out)


@pytest.fixture
def duality_run(tmp_path):
    cfg = _workload("duality-2colony", run={"replicas": 4000})
    return cfg, _run(tmp_path, "duality-check", cfg)


def test_duality_accepts_run(duality_run):
    gap, _ = check_output("duality-check", *duality_run)
    assert 0.0 < gap < 1.0


def test_duality_rejects_dual_far_from_exact(duality_run):
    cfg, out = duality_run
    rep = json.loads((out / "duality.json").read_text())
    _edit_json(out, "duality.json", rhs=rep["exact_rhs"] + 6 * rep["rhs_se"])
    _rejects("duality-check", cfg, out)


def test_duality_rejects_failed_3se(duality_run):
    cfg, out = duality_run
    _edit_json(out, "duality.json", pass_3se=False)
    _rejects("duality-check", cfg, out)


@pytest.fixture
def orbit_run(tmp_path):
    cfg = _workload("orbit-clustering", run={"depth": 1, "grid_size": 11})
    return cfg, _run(tmp_path, "renorm-orbit", cfg)


def test_orbit_accepts_run(orbit_run):
    gap, _ = check_output("renorm-orbit", *orbit_run)
    assert 0.0 < gap < 1.0


def test_orbit_rejects_node_off_the_recursion(orbit_run):
    cfg, out = orbit_run

    def edit(lines):
        theta, value = lines[-2].split(",")
        return lines[:-2] + [f"{theta},{float(value) + 0.02!r}", lines[-1]]

    _edit_lines(out, "fgrid_level1.csv", edit)
    _rejects("renorm-orbit", cfg, out)


def test_orbit_oracle_matches_package_recursion():
    cfg = _workload("orbit-clustering")
    mp = cli.build_model(cfg)
    coeffs = params.compute_A(mp, params.derive(mp), mp.levels + 1)
    expected = renorm.fw_recursion_oracle(1.0, mp.levels, coeffs)
    assert fw_orbit_rates(cfg, mp.levels) == pytest.approx(expected, rel=1e-12)


@pytest.fixture
def dual_run(tmp_path):
    cfg = _workload("dual-gillespie", run={"horizon": 200.0})
    return cfg, _run(tmp_path, "simulate-dual", cfg)


def test_dual_accepts_run(dual_run):
    assert check_output("simulate-dual", *dual_run)[0] == 0.0


def test_dual_rejects_missing_event(dual_run):
    cfg, out = dual_run
    _edit_lines(out, "events.csv", lambda lines: lines[:-1])
    _rejects("simulate-dual", cfg, out)


def test_dual_rejects_log_not_replaying(dual_run):
    cfg, out = dual_run

    def edit(lines):
        t, kind, site, colour = lines[1].split(",")
        return [lines[0], f"{t},{kind},{(int(site) + 1) % 256},{colour}"] + lines[2:]

    _edit_lines(out, "events.csv", edit)
    _rejects("simulate-dual", cfg, out)


def test_dual_rejects_created_lineages(dual_run):
    cfg, out = dual_run
    summary = json.loads((out / "summary.json").read_text())
    _edit_json(out, "summary.json",
               terminal_total=summary["initial_total"] + 1)
    _rejects("simulate-dual", cfg, out)
