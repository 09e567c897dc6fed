"""Benchmark of the hestonstab command line, end to end or traced per layer.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sweep-small --seed 1 --seconds 30 --trace 0

One process runs the workload as a closed loop, one case at a time; each
case calls ``hestonstab.cli.main`` in process (see ``cases.py``).  Cases come
in rounds: every case of the workload once, in an order drawn from the seed.
The run measures whole rounds and starts another only while the rounds so
far leave room for it within ``--seconds``, so every run of a workload
measures the same set of cases.  Every case's output is checked after its
timing stops.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one round
untraced, then the same round with spans recorded around every public
function of the package, and prints the per-layer metrics, the tracing
overhead, and the spans as JSON lines under ``.bench_out/``.  The last line
of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import cases
import probe
import spans
from probe import ROOT, SCRATCH

# One BLAS thread: with two, one case repeated varies about three times as much.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "cases_per_s": "1/s",
    "case_p50_s": "s",
    "case_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Loop:
    """Outcome of the cases a run made."""

    times: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    rounds: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def passed(self) -> int:
        return self.attempted - len(self.failures)

    def cases_per_s(self) -> float:
        return self.passed / sum(self.times)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int, help="time budget of the measured rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_round(cli, kernels, round_cases, scratch: Path, loop: Loop, tracer=None) -> None:
    """Run and check each case; only the CLI calls are timed."""
    for case in round_cases:
        workdir = Path(tempfile.mkdtemp(dir=scratch))
        if tracer is not None:
            tracer.case = loop.attempted
        elapsed, calls = cases.run_case(cli, case, workdir, time.perf_counter)
        if tracer is not None:
            tracer.case = None
        loop.times.append(elapsed)
        problems = cases.gate(case, calls, kernels)
        if problems:
            loop.failures.append((case, problems))
        shutil.rmtree(workdir)
    loop.rounds += 1


def run_rounds(cli, kernels, workload, rng, scratch: Path, seconds: float) -> Loop:
    """Whole rounds, while the mean round so far fits in the time left."""
    loop = Loop()
    start = time.perf_counter()
    while True:
        run_round(cli, kernels, cases.draw_round(workload, rng), scratch, loop)
        elapsed = time.perf_counter() - start
        if elapsed * (loop.rounds + 1) / loop.rounds > seconds:
            return loop


def tail(times) -> tuple:
    """The highest percentile with TAIL_BEYOND samples beyond it, and the rule used.

    Below 21 samples that percentile would lie under the median, so the
    maximum stands in for it.
    """
    xs = sorted(times)
    n = len(xs)
    k = n - TAIL_BEYOND  # 1-based rank of the percentile's sample
    if k >= (n + 1) / 2:
        return xs[k - 1], f"p{100 * k / n:.1f}, {n - k} of {n} samples beyond"
    return xs[-1], f"maximum: with {n} samples no percentile at or above p50 has {TAIL_BEYOND} beyond"


def measure_setup(workload) -> list:
    """Seconds from process start to ready, for SETUP_SAMPLES fresh processes."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("probe.py")), workload.name],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        if proc.returncode != 0 or not out.startswith("ready "):
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-500:]}")
        samples.append(float(out.split()[1]) - start)
    return samples


def environment(seed: int, np) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
    }


def end_to_end(loop: Loop, setup_samples) -> dict:
    tail_value, tail_rule = tail(loop.times)
    setup = statistics.median(setup_samples)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    values = {
        "cases_per_s": (loop.cases_per_s(),
                        f"{loop.passed} cases passed in {sum(loop.times):.3f} s of case time, "
                        f"{loop.rounds} round(s)"),
        "case_p50_s": (statistics.median(loop.times), f"n={loop.attempted}"),
        "case_tail_s": (tail_value, tail_rule),
        "setup_s": (setup, f"median of {len(setup_samples)} fresh processes: "
                           + ", ".join(f"{s:.3f}" for s in setup_samples)),
        "peak_rss_mb": (peak_mb, "ru_maxrss of the measuring process"),
    }
    print("case_times_s " + " ".join(f"{t:.3f}" for t in loop.times))
    for name, (value, note) in values.items():
        print(f"{name} {value!r} {END_TO_END_UNITS[name]} ({note})")
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, (v, _) in values.items()}


def traced(cli, kernels, workload, rng, scratch: Path, trace_path: Path) -> tuple:
    """Untraced round, then the same round traced; returns (loops, metrics)."""
    round_cases = cases.draw_round(workload, rng)
    plain = Loop()
    run_round(cli, kernels, round_cases, scratch, plain)
    tracer = spans.Tracer(time.perf_counter)
    tracer.install()
    try:
        loop = Loop()
        run_round(cli, kernels, round_cases, scratch, loop, tracer)
    finally:
        tracer.uninstall()
    tracer.write_jsonl(trace_path)
    metrics = spans.per_layer_metrics(tracer.spans, loop.attempted)
    metrics[spans.OVERHEAD] = loop.cases_per_s() - plain.cases_per_s()
    print(f"tracing overhead: traced {loop.cases_per_s()!r} - untraced {plain.cases_per_s()!r} "
          f"cases/s over the same {loop.attempted} cases")
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {spans.unit(name)}")
    return [plain, loop], {name: {"value": v, "unit": spans.unit(name)} for name, v in metrics.items()}


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the workload and return the result object.

    The BLAS thread settings must be in the environment before this runs:
    ``probe.set_up`` imports numpy.
    """
    setup_samples = [] if trace else measure_setup(workload)
    hs, cli, np = probe.set_up(workload)
    print("env " + json.dumps(environment(seed, np)))
    kernels = cases.Kernels(hs, np)
    rng = random.Random(seed)
    run_dir = SCRATCH / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        if trace:
            trace_path = SCRATCH / f"trace-{workload.name}-seed{seed}.jsonl"
            loops, metrics = traced(cli, kernels, workload, rng, run_dir, trace_path)
        else:
            loop = run_rounds(cli, kernels, workload, rng, run_dir, seconds)
            loops, metrics = [loop], end_to_end(loop, setup_samples)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    attempted = sum(lp.attempted for lp in loops)
    failures = [f for lp in loops for f in lp.failures]
    for case, problems in failures:
        print(f"FAILED {case.label()}: {'; '.join(problems)}")
    failed = len(failures)
    print(f"error_rate {failed / attempted!r} ({failed} failed of {attempted} attempted cases)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hestonstab" / "__init__.py").is_file():
        print(f"no hestonstab sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 1
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    workload = cases.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    result = measure(workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
