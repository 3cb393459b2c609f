"""Record the reference outputs that ``checks.py`` compares against.

    python3 perfbench/record_reference.py [--seed 1] [workload ...]

Runs one untraced repetition of each workload and copies its CSVs to
``perfbench/reference/<workload>/seed-<seed>/``.  Re-record only when a
change to livefetch is meant to change its outputs, and say so in the change.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
import time

import run
from workloads import NAMES, reference_dir


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", help=f"any of {', '.join(NAMES)}")
    args = parser.parse_args()
    unknown = sorted(set(args.workloads) - set(NAMES))
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    os.environ.update(run.THREAD_ENV)
    os.makedirs(run.WORK_DIR, exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=run.WORK_DIR)
    try:
        for workload in args.workloads or NAMES:
            result = run.repetition(workload, args.seed, False, False,
                                    time.monotonic() + run.RUN_LIMIT_S, work_dir)
            dest = reference_dir(workload, args.seed)
            shutil.rmtree(dest, ignore_errors=True)
            os.makedirs(dest)
            for name in sorted(os.listdir(result["out_dir"])):
                shutil.copy(os.path.join(result["out_dir"], name), dest)
            print(f"{workload}: {len(os.listdir(dest))} files -> {dest}")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
