"""Regenerates the bundle and dataset digests of one workload and seed.

    python3 perfbench/digests.py --workload mem-cli --seed 1
    python3 perfbench/digests.py --workload mem-cli --seed 1 --rev HEAD~1

Runs the workload's set-up and one round, untimed and unchecked, and
prints a JSON object mapping each bundle, dataset and evaluate table to
its sha256: the same digests ``run.py`` prints.  Without ``--rev`` it
uses this checkout's ``src/``; with ``--rev`` it extracts ``src/`` of
that git revision with ``git archive`` into ``perfbench/out/`` and runs
there, so two commits can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import tarfile
from pathlib import Path

from run import OUT, ROOT, WORKLOADS, import_nicperf, make_workload


def digests(workload: str, seed: int, src: Path) -> dict:
    import_nicperf(src)
    work = OUT / f"digests-{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(workload, seed, work)
        wl.setup()
        wl.prepare()
        wl.run_round()
        return wl.digests()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def at_revision(rev: str, argv: list[str]) -> int:
    """Re-runs this command against ``src/`` of git revision ``rev``."""
    tree = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                          check=True, capture_output=True).stdout
    dest = OUT / f"rev-{os.getpid()}"
    dest.mkdir(parents=True, exist_ok=True)
    try:
        with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
            tar.extractall(dest, filter="data")
        return subprocess.run([sys.executable, __file__, *argv, "--src", str(dest / "src")],
                              check=False).returncode
    finally:
        shutil.rmtree(dest, ignore_errors=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rev", help="git revision whose src/ to use")
    p.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.rev:
        return at_revision(args.rev, ["--workload", args.workload, "--seed", str(args.seed)])
    print(json.dumps(digests(args.workload, args.seed, args.src), indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
