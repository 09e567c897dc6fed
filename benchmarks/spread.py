"""Run the benchmark once per seed and summarise each end-to-end metric.

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median, and
how that compares with the metric's bound in BENCHMARK.json.  Usage, from
the root of a checkout:

    python3 benchmarks/spread.py --workload certify --seeds 1 2 3 4 5 [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def run_once(benchmark: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, *benchmark["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = next(json.loads(ln[4:]) for ln in lines if ln.startswith("env "))
    return result


def summarise(benchmark: dict, results: list) -> dict:
    summary = {}
    for metric in benchmark["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        summary[metric["name"]] = {
            "unit": metric["unit"],
            "median": statistics.median(values),
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values,
        }
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--out", help="write the summary and every result here as JSON")
    args = p.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = []
    for seed in args.seeds:
        result = run_once(benchmark, args.workload, seed)
        print(f"seed {seed}: " + json.dumps(result), flush=True)
        results.append(result)
    failed = sum(r["failed"] for r in results)
    attempted = sum(r["attempted"] for r in results)
    print(f"{args.workload}: {len(results)} runs, {failed} failed of {attempted} attempted cases")
    summary = summarise(benchmark, results)
    for metric in benchmark["end_to_end"]:
        s, bound = summary[metric["name"]], metric["bound"]
        print(f"{metric['name']:12s} median {s['median']:.6g} {s['unit']}  Q1 {s['q1']:.6g}  "
              f"Q3 {s['q3']:.6g}  spread {s['spread']:.2%} (bound {bound:.0%}, a third is {bound / 3:.2%})")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seeds": args.seeds, "summary": summary,
             "results": results}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
