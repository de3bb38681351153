"""Write the next BENCH_<n>.json: benchmark medians, per-layer costs, tier-1 time.

    python scripts/bench.py [--checkout PATH] [--seed N] [--seconds S]
                            [--tier1 0|1]

For each workload listed in BENCHMARK.json, runs ``perfbench/run.py`` of the
measured checkout (default: this one) once with ``--trace 0`` (end-to-end
medians: run_s, setup_s, peak_rss_mib) and once with ``--trace 1``
(per-layer unit costs), then times the tier-1 suite of that checkout
(``python -m pytest -q`` with ``src`` on PYTHONPATH).  The result goes to
BENCH_<n>.json at the root of this repository, n one above the highest
existing file, together with run.py's environment record (library versions,
CPU count, src line count and digest), the checkout's hierfw version and, per
metric, the ratio to the same metric in BENCH_<n-1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _perfbench(checkout: Path, workload: str, seed: int, seconds: float,
               trace: int) -> dict:
    """run.py's final JSON line plus its environment record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} --trace {trace} gave no result: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), {})
    return {"env": env, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def _tier1(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"]
                                 if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=checkout, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    counts = {kind: int(n) for n, kind in
              re.findall(r"(\d+) (passed|failed|error|skipped)", tail[0])}
    return {"wall_s": wall, "exit": proc.returncode, "summary": tail[0],
            **counts}


def _diff(current: dict, previous: dict) -> dict:
    """current / previous per numeric metric present in both."""
    out = {}
    for key, value in current.items():
        old = previous.get(key)
        if isinstance(value, dict) and isinstance(old, dict):
            sub = _diff(value, old)
            if sub:
                out[key] = sub
        elif (isinstance(value, (int, float)) and isinstance(old, (int, float))
              and not isinstance(value, bool)):
            out[key] = {"previous": old, "current": value,
                        "ratio": value / old if old else None}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="root of the checkout to measure")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--tier1", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()
    version = re.search(r'__version__ = "([^"]+)"',
                        (checkout / "src/hierfw/__init__.py").read_text())[1]
    workloads, env = {}, {}
    for workload in spec["workloads"]:
        name = workload["name"]
        runs = {f"trace{t}": _perfbench(checkout, name, args.seed,
                                        args.seconds, t) for t in (0, 1)}
        env = runs["trace0"].pop("env") or env
        runs["trace1"].pop("env")
        workloads[name] = runs
        print(f"{name}: " + ", ".join(
            f"{k} {v:.4g}" for k, v in runs["trace0"]["metrics"].items()),
            flush=True)
    record = {
        "hierfw": version, "seed": args.seed, "seconds": args.seconds,
        "platform": platform.platform(), "env": env, "workloads": workloads,
        "tier1": _tier1(checkout) if args.tier1 else None,
    }
    existing = sorted(int(m[1]) for p in ROOT.glob("BENCH_*.json")
                      if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)))
    n = existing[-1] + 1 if existing else 1
    if existing:
        previous = json.loads((ROOT / f"BENCH_{n - 1}.json").read_text())
        record["diff"] = {"against": f"BENCH_{n - 1}.json",
                          "workloads": _diff(workloads, previous["workloads"]),
                          "tier1": _diff(record["tier1"] or {},
                                         previous.get("tier1") or {}),
                          "env": _diff(env, previous.get("env", {}))}
    path = ROOT / f"BENCH_{n}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0 if all(r["correct"] for w in workloads.values()
                    for r in w.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
