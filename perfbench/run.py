"""hierfw benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload is one ``hierfw`` subcommand
on a fixed config from ``perfbench/workloads``; ``--seed`` is passed to the
CLI and nothing else, so the same seed gives the same inputs and outputs.
Runs are fresh child processes (``child.py``), one at a time, started while
one more call still fits in ``--seconds``.  With --trace 0 a child repeats its
call for up to CHILD_S seconds; each call is a sample.  Every call's outputs
are checked against an independent oracle (``checks.py``) and its manifest
hashes must equal the first call's, since all calls share the seed.

--trace 0 reports the end-to-end metrics of untraced runs, each the median
over its samples: ``run_s`` (time in ``cli.main``, up to the manifest) per
call, ``setup_s`` (launch to a built model) per child and ``peak_rss_mib``
(ru_maxrss after a child's first call).  On a shared host the CPU throughput
a process gets swings by up to 1.7x for seconds to minutes at a time, so a
run takes the median of many ~1 s calls spread over its whole window.
--trace 1 alternates untraced and traced children of one call each and
reports per-layer metrics (see ``tracing.py``); the traced children's spans
are kept in ``.perfbench_out``.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
The exit code is 0 only when every run passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import yaml

from checks import CheckError, check_output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (subcommand, config).  Why each exists is in perfbench/README.md.
WORKLOADS = {
    "forward-2m": ("simulate-forward", "forward-2m.yaml"),
    "duality-2colony": ("duality-check", "duality-2colony.yaml"),
    "orbit-clustering": ("renorm-orbit", "orbit-clustering.yaml"),
    "dual-gillespie": ("simulate-dual", "dual-gillespie.yaml"),
}

SETUP_SAMPLES = 9        # set-up times per run, topped up by set-up-only runs
MIN_RUNS = 2             # full runs per invocation, whatever --seconds says
CHILD_S = 5.0            # longest span of repeated calls in one child
DEADLINE_S = 170.0       # whole invocation; each child is killed past it


def _median(values):
    return statistics.median(values) if values else 0.0


def _stat(values, unit):
    """(median, unit, sample count) of one metric."""
    return _median(values), unit, len(values)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.command, config = WORKLOADS[workload]
        self.config = HERE / "workloads" / config
        self.cfg = yaml.safe_load(self.config.read_text())
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = time.perf_counter()
        self.out = ROOT / ".perfbench_out"
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.tag = f"{workload}-seed{seed}-trace{int(trace)}"
        self.env = dict(os.environ)
        self.nproc = len(os.sched_getaffinity(0))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            cur = self.env.get(var, "")
            n = min(int(cur), self.nproc) if cur.isdigit() else self.nproc
            self.env[var] = str(max(n, 1))
        self.runs = []
        self.first_manifest = None

    def _spawn(self, index, traced=False, setup_only=False, until=None) -> dict:
        """Run one child to completion; returns its record, ok or not."""
        cdir = self.work / f"run{index}"
        cdir.mkdir(parents=True)
        rec = {"index": index, "traced": traced, "setup_only": setup_only,
               "ok": False}
        result, outdir = cdir / "result.json", cdir / "out"
        spans = self.out / f"spans-{self.tag}-run{index}.json"
        options = (["--spans", str(spans)] if traced else []) + (
            ["--setup-only"] if setup_only else []) + (
            ["--until", repr(until)] if until is not None else [])
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        with open(cdir / "stdout", "wb") as so, open(cdir / "stderr", "wb") as se:
            argv = [sys.executable, str(HERE / "child.py"), str(ROOT),
                    repr(time.perf_counter()), str(result), self.command,
                    str(self.config), str(self.seed), str(outdir), *options]
            proc = subprocess.Popen(argv, stdout=so, stderr=se, env=self.env,
                                    cwd=ROOT)
            try:
                status, usage = self._wait(proc, remaining)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
        rec["exit"] = status
        if status != 0:
            tail = (cdir / "stderr").read_text(errors="replace")[-2000:]
            rec["error"] = f"exit {status}: {tail.strip()}"
            return rec
        rec.update(json.loads(result.read_text()))
        rec.update(cpu_s=usage.ru_utime + usage.ru_stime,
                   sys_s=usage.ru_stime, minor_faults=usage.ru_minflt)
        if Path(rec["hierfw"]).resolve().parents[1] != ROOT / "src":
            rec["error"] = f"imported hierfw from {rec['hierfw']}"
            return rec
        if traced:
            rec["spans"] = str(spans.relative_to(ROOT))
        gaps = []
        for call in range(len(rec["calls"])):
            try:
                gap, manifest = check_output(self.command, self.cfg,
                                             outdir / f"call{call}")
            except (CheckError, OSError, ValueError, KeyError) as exc:
                rec["error"] = f"call {call}: check failed: {exc}"
                return rec
            if self.first_manifest is None:
                self.first_manifest = manifest
            elif manifest != self.first_manifest:
                rec["error"] = (f"call {call}: outputs differ from the first "
                                "run with this seed")
                return rec
            gaps.append(gap)
        if gaps:
            rec["gap"] = max(gaps)
        rec["ok"] = True
        return rec

    @staticmethod
    def _wait(proc, timeout):
        """Reap the child with its resource usage; kill it past ``timeout``."""
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return proc.returncode, usage
            if time.perf_counter() > deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                return "timeout", usage
            time.sleep(0.02)

    def _run(self, **kind):
        rec = self._spawn(len(self.runs), **kind)
        self.runs.append(rec)
        shutil.rmtree(self.work / f"run{rec['index']}")
        state = "ok" if rec["ok"] else f"FAILED {rec['error']}"
        times = " ".join([f"setup_s={rec['setup_s']:.4f}"] * ("setup_s" in rec)
                         + [f"run_s={c['run_s']:.4f}" for c in rec.get("calls", [])])
        label = "traced" if kind.get("traced") else (
            "setup" if kind.get("setup_only") else "run")
        print(f"{label} {rec['index']}: {times} {state}", flush=True)
        return rec

    def measure(self):
        self.out.mkdir(exist_ok=True)
        # warm the bytecode and file caches; users do not pay that per run
        warm = self._spawn("warm", setup_only=True)
        shutil.rmtree(self.work / "runwarm")
        if not warm["ok"]:
            raise RuntimeError(f"warm-up run failed: {warm['error']}")
        # With --trace 0 a child repeats its call for up to CHILD_S; with
        # --trace 1 each makes one call, so its rusage and spans are one call's.
        # A child starts only if a single call can end within --seconds,
        # judged by the costliest so far, so an invocation does not overshoot.
        end = time.perf_counter() + self.seconds
        full, longest = 0, 0.0
        while full < MIN_RUNS or time.perf_counter() + longest < end:
            start = time.perf_counter()
            until = None if self.trace else min(end, start + CHILD_S)
            rec = self._run(traced=self.trace and full % 2 == 1, until=until)
            calls = [c["run_s"] for c in rec.get("calls", [])]
            one_call = time.perf_counter() - start - sum(calls) + max(calls,
                                                                    default=0)
            longest = max(longest, one_call)
            full += 1
        if not self.trace:
            for _ in range(SETUP_SAMPLES - len(self.runs)):
                self._run(setup_only=True)

    def metrics(self) -> dict:
        ok = [r for r in self.runs if r["ok"]]
        plain = [r for r in ok if not r["setup_only"] and not r["traced"]]
        if not self.trace:
            return {
                "run_s": _stat([c["run_s"] for r in plain
                                for c in r["calls"]], "s"),
                "setup_s": _stat([r["setup_s"] for r in ok], "s"),
                "peak_rss_mib": _stat([r["maxrss_mib"] for r in plain], "MiB"),
            }
        from tracing import UNITS, layer_metrics
        traced = [r for r in ok if r["traced"]]
        layers = [layer_metrics(json.loads((ROOT / r["spans"]).read_text()))
                  for r in traced]
        out = {name: _stat([m[name] for m in layers], unit)
               for name, unit in UNITS.items()}
        traced_run = _median([r["calls"][0]["run_s"] for r in traced])
        plain_run = _median([r["calls"][0]["run_s"] for r in plain])
        gaps = [r["gap"] for r in ok if "gap" in r]
        out.update({
            "proc.cpu_s": _stat([r["cpu_s"] for r in plain], "s"),
            "proc.sys_s": _stat([r["sys_s"] for r in plain], "s"),
            "proc.minor_faults": _stat([r["minor_faults"] for r in plain],
                                       "count"),
            "cli.bytes_written": _stat([r["calls"][0]["bytes_written"]
                                        for r in traced], "bytes"),
            "cli.files_written": _stat([r["calls"][0]["files_written"]
                                        for r in traced], "count"),
            "trace.overhead_frac": (traced_run / plain_run - 1.0
                                    if plain_run else 0.0, "1", len(traced)),
            "check.worst_gap": (max(gaps, default=0.0), "1", len(gaps)),
        })
        return out

    def environment(self) -> dict:
        first = next((r for r in self.runs if r["ok"]), {})
        src = sorted((ROOT / "src").rglob("*.py"))
        digest = hashlib.sha256()
        for path in src:
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
        commit = None
        if (ROOT / ".git").exists():
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True)
            commit = git.stdout.strip() or None
        return {
            "python": first.get("python"), "numpy": first.get("numpy"),
            "scipy": first.get("scipy"), "nproc": self.nproc,
            "blas_threads": {k: self.env[k] for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": sum(len(p.read_text().splitlines()) for p in src),
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hierfw" / "cli.py").is_file():
        print(f"error: no hierfw sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    try:
        bench.measure()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    metrics = bench.metrics()
    failed = sum(not r["ok"] for r in bench.runs)
    env = bench.environment()
    (bench.out / f"record-{bench.tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "env": env,
         "runs": bench.runs, "metrics": metrics}, indent=1))
    print("env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':28s} {'median':>14s} {'n':>3s} unit")
    for name, (value, unit, n) in metrics.items():
        print(f"{name:28s} {value:14.6g} {n:3d} {unit}")
    print(f"{'fail_frac':28s} {failed / len(bench.runs):14.6g} 1  "
          f"({failed} of {len(bench.runs)} runs)")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(bench.runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
