"""Set-up of a benchmark process: imports, BLAS warm-up and one tiny case.

``run.py`` calls ``set_up`` before it measures, and times whole set-ups by
running this file as a fresh process, which prints ``ready <t>`` with the
``time.monotonic()`` reading at which it became ready.  Usage:
``python3 benchmarks/probe.py <workload>``.
"""

import sys
import tempfile
import time
from pathlib import Path

import cases

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".bench_out"


def set_up(workload: cases.Workload):
    """Import the package from the checkout and run one warm-up case.

    Returns (hestonstab, hestonstab.cli, numpy).
    """
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import hestonstab
    from hestonstab import cli

    np.ones((64, 64)) @ np.ones((64, 64))
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        _, calls = cases.run_case(cli, cases.warmup_case(workload), Path(tmp), time.perf_counter)
    failed = [c for c in calls if c.code != 0]
    if failed:
        raise RuntimeError(f"warm-up case failed: {failed[0].argv} -> {failed[0].code} {failed[0].error}")
    return hestonstab, cli, np


if __name__ == "__main__":
    set_up(cases.WORKLOADS[sys.argv[1]])
    print(f"ready {time.monotonic()!r}", flush=True)
