"""Print every end-to-end metric of every workload, with fail_frac.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace 0|1]

Runs ``run.py`` once per workload listed in BENCHMARK.json (one after the
other, from the checkout root) and prints one row per metric.  Exits 1 if
any run failed its checks.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    status = 0
    print(f"{'workload':18s} {'metric':28s} {'median':>14s} unit")
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name:18s} no result: {proc.stderr.strip()[-500:]}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:18s} {metric:28s} {m['value']:14.6g} {m['unit']}")
        fail_frac = result["failed"] / result["attempted"]
        print(f"{name:18s} {'fail_frac':28s} {fail_frac:14.6g} 1 "
              f"({result['failed']} of {result['attempted']} runs)")
        status |= proc.returncode != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
