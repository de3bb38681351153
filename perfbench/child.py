"""One measured hierfw process: set up, run one subcommand, report timings.

Started by ``run.py`` as a fresh interpreter, so that ``setup_s`` covers the
whole launch: interpreter start, the imports of ``hierfw.cli`` (numpy,
scipy.linalg, yaml), ``cli.load_config`` and ``cli.build_model``.  Each
call's ``run_s`` is the time spent in ``cli.main`` for the subcommand, which
returns once the manifest is written.  Call ``i`` writes to ``OUT/call<i>``.
There is one call, or with ``--until`` as many as can end before that
``time.perf_counter()`` instant, judged by the longest call so far.
``maxrss_mib`` is the peak resident set after the first call, as a process
making a single call would have it.  Usage (all paths inside the checkout):

    python3 perfbench/child.py ROOT LAUNCH_T RESULT_JSON COMMAND CONFIG SEED OUT
        [--spans SPANS_JSON] [--setup-only] [--until T]
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("root", type=Path)
    parser.add_argument("launch", type=float,
                        help="time.perf_counter() of the parent at launch")
    parser.add_argument("result", type=Path)
    parser.add_argument("command")
    parser.add_argument("config")
    parser.add_argument("seed")
    parser.add_argument("out")
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--until", type=float, default=None)
    args = parser.parse_args()

    sys.path.insert(0, str(args.root / "src"))
    import numpy
    import scipy

    from hierfw import cli

    tracer = None
    if args.spans is not None:
        from tracing import Tracer
        tracer = Tracer()
        tracer.instrument()
    cfg, _ = cli.load_config(args.config)
    cli.build_model(cfg)
    setup_s = time.perf_counter() - args.launch
    record = {"setup_s": setup_s, "hierfw": cli.__file__,
              "python": sys.version.split()[0], "numpy": numpy.__version__,
              "scipy": scipy.__version__}
    code = 0
    calls, longest = [], 0.0
    while not args.setup_only:
        out = Path(args.out) / f"call{len(calls)}"
        t0 = time.perf_counter()
        code = cli.main([args.command, "--config", args.config,
                         "--seed", args.seed, "--out", str(out), "--quiet"])
        t1 = time.perf_counter()
        written = [p for p in out.iterdir() if p.is_file()] if out.is_dir() else []
        calls.append({"run_s": t1 - t0, "files_written": len(written),
                      "bytes_written": sum(p.stat().st_size for p in written)})
        if len(calls) == 1:
            usage = resource.getrusage(resource.RUSAGE_SELF)
            record["maxrss_mib"] = usage.ru_maxrss / 1024.0
        longest = max(longest, t1 - t0)
        if code != 0 or args.until is None or t1 + longest > args.until:
            break
    record["calls"] = calls
    if tracer is not None:
        tracer.dump(args.spans)
    args.result.write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
