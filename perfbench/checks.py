"""Output checks that need no second program.

Every CSV a workload writes must round-trip exactly through
``sweep.load_rows``/``sweep.emit_csv``, hold only finite numbers, and carry
decibel columns equal to ``to_db`` of their linear columns.  Its rows must
have the shape of the recorded reference (same files, sweep points, policies
and trial counts, which do not depend on the seed).  Where a reference was
recorded for the run's seed, the values are compared with it as well.
"""

from __future__ import annotations

import hashlib
import io
import math
import os

from livefetch.model import to_db
from livefetch.sweep import emit_csv, load_rows

from workloads import REFERENCE_DIR, reference_dir

# A row whose values move by more than this against the reference fails.
# Smaller moves (summation order) only show in output_max_rel_dev.
REF_RTOL = 1e-9


def _shape_dir(workload: str):
    root = os.path.join(REFERENCE_DIR, workload)
    seeds = sorted(os.listdir(root)) if os.path.isdir(root) else []
    return os.path.join(root, seeds[0]) if seeds else None


def _rel_dev(value: float, ref: float) -> float:
    if value == ref:
        return 0.0
    return abs(value - ref) / abs(ref) if ref != 0.0 else math.inf


def _row_ok(row) -> bool:
    numbers = (row.param_value, row.mean_energy, row.mean_energy_db, row.stderr,
               row.gain, row.gain_db)
    if not all(math.isfinite(x) for x in numbers):
        return False
    try:
        return (row.gain_db == to_db(row.gain)
                and row.mean_energy_db == to_db(row.mean_energy))
    except ValueError:  # non-positive energy or gain
        return False


def check_outputs(paths: list, workload: str, seed: int, compare: bool) -> dict:
    """Check one workload's CSVs; ``compare`` enables the reference checks."""
    rows_seen = failed = 0
    max_dev = None
    problems = []
    shape = _shape_dir(workload) if compare else None
    ref_dir = reference_dir(workload, seed) if compare else None
    if ref_dir is not None and not os.path.isdir(ref_dir):
        ref_dir = None
    if ref_dir is not None:
        max_dev = 0.0
    if shape is not None:
        expected = sorted(os.listdir(shape))
        got = sorted(os.path.basename(p) for p in paths)
        if got != expected:
            problems.append(f"output files {got} differ from reference {expected}")
            failed += 1
            rows_seen += 1
    for path in paths:
        name = os.path.basename(path)
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
        rows = load_rows(io.StringIO(text))
        echo = io.StringIO()
        emit_csv(rows, echo)
        file_ok = echo.getvalue() == text
        if not file_ok:
            problems.append(f"{name}: does not round-trip through load_rows")
        ref_rows = None
        if shape is not None and os.path.exists(os.path.join(shape, name)):
            shape_rows = load_rows(os.path.join(shape, name))
            keys = [(r.param, r.param_value, r.policy, r.trials) for r in rows]
            if keys != [(r.param, r.param_value, r.policy, r.trials) for r in shape_rows]:
                problems.append(f"{name}: sweep points, policies or trials differ "
                                "from the reference")
                file_ok = False
            elif ref_dir is not None:
                ref_rows = load_rows(os.path.join(ref_dir, name))
        for index, row in enumerate(rows):
            ok = file_ok and _row_ok(row)
            if ref_rows is not None:
                ref = ref_rows[index]
                dev = max(_rel_dev(row.mean_energy, ref.mean_energy),
                          _rel_dev(row.stderr, ref.stderr),
                          _rel_dev(row.gain, ref.gain))
                max_dev = max(max_dev, dev)
                ok = ok and dev <= REF_RTOL
            if not ok:
                problems.append(f"{name} row {index + 1}: {row}")
            rows_seen += 1
            failed += not ok
    return {"rows": rows_seen, "failed": failed, "max_rel_dev": max_dev,
            "problems": problems[:10], "sha256": file_hashes(paths)}


def file_hashes(paths: list) -> dict:
    hashes = {}
    for path in paths:
        with open(path, "rb") as handle:
            hashes[os.path.basename(path)] = hashlib.sha256(handle.read()).hexdigest()
    return hashes
