"""Digests of the CLI's outputs, for comparing two checkouts byte for byte.

    python scripts/output_digests.py ROOT > digests.txt
    python scripts/output_digests.py --compare OLD.txt NEW.txt

Runs the seven subcommands in process through ``hierfw.cli.main`` of
ROOT/src, with ``--seed 5``, on every ``*_CFG`` config of
ROOT/tests/test_cli.py (loaded by path) and every
ROOT/perfbench/workloads/*.yaml, less the pairs in ``SKIP``, which need
several GB.  Each run writes into a fresh temporary directory.  One line per
run: config, command, exit code, the sha256 of stderr and of each output
file, and the manifest less its ``version``.  Two checkouts give the same
outputs when their lines agree; ``--compare`` prints each (config, command)
pair that both digest files hold with differing lines, and exits 1 if there
is one.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

COMMANDS = ("classify", "simulate-forward", "simulate-dual", "duality-check",
            "renorm-orbit", "interaction-chain", "profile")
# pairs that need several GB of memory
SKIP = {("forward-2m", "simulate-dual"), ("forward-2m", "duality-check"),
        ("forward-2m", "interaction-chain"),
        ("orbit-clustering", "simulate-forward"),
        ("orbit-clustering", "simulate-dual"),
        ("orbit-clustering", "duality-check"),
        ("orbit-clustering", "interaction-chain")}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def configs(root: Path) -> list:
    """(name, YAML text) of each test config, then of each workload."""
    spec = importlib.util.spec_from_file_location(
        "output_digests_test_cli", root / "tests" / "test_cli.py")
    tests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tests)
    found = [(name, text) for name, text in vars(tests).items()
             if name.endswith("_CFG") and isinstance(text, str)]
    found += [(path.stem, path.read_text()) for path in
              sorted((root / "perfbench" / "workloads").glob("*.yaml"))]
    return found


def digest(cli, name: str, text: str, command: str, tmp: Path) -> str:
    """One run's line: exit code, stderr, each output file and the manifest."""
    work = tmp / f"{name}.{command}"
    work.mkdir()
    config, out = work / "config.yaml", work / "out"
    config.write_text(text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main([command, "--config", str(config), "--seed", "5",
                             "--out", str(out), "--quiet"])
        except Exception as exc:      # a traceback is an outcome too
            code = f"raised {type(exc).__name__}"
    fields = [name, command, f"exit={code}",
              f"stderr={_sha(err.getvalue().encode())}"]
    manifest = {}
    if out.is_dir():
        for path in sorted(out.iterdir()):
            if path.name == "manifest.json":
                manifest = json.loads(path.read_text())
                manifest.pop("version", None)
            else:
                fields.append(f"{path.name}={_sha(path.read_bytes())}")
    fields.append("manifest=" + json.dumps(manifest, sort_keys=True))
    return " ".join(fields)


def compare(old: list, new: list) -> list:
    """(config, command) pairs present in both lists of digest lines whose
    lines differ."""
    def by_pair(lines):
        return {tuple(line.split()[:2]): line for line in lines}
    old, new = by_pair(old), by_pair(new)
    return sorted(pair for pair in old.keys() & new.keys()
                  if old[pair] != new[pair])


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) == 3 and args[0] == "--compare":
        old, new = (Path(a).read_text().splitlines() for a in args[1:])
        differing = compare(old, new)
        for config, command in differing:
            print(f"outputs differ: {config} {command}")
        return 1 if differing else 0
    if len(args) != 1:
        print("usage: python scripts/output_digests.py ROOT | "
              "--compare OLD.txt NEW.txt", file=sys.stderr)
        return 2
    root = Path(args[0]).resolve()
    sys.path.insert(0, str(root / "src"))
    from hierfw import cli
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in configs(root):
            for command in COMMANDS:
                if (name, command) not in SKIP:
                    print(digest(cli, name, text, command, Path(tmp)),
                          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
