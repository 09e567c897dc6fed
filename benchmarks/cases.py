"""Workloads, case execution and the correctness gate of the benchmark.

A case is one in-process call (or, for ``certify``, two calls) to
``hestonstab.cli.main`` whose output lands in a directory of its own.  Only
the CLI calls are timed; the gate that checks their output runs afterwards.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The paper's parameter sets.  r, kappa, eta, S and V stay at the CLI defaults.
SIGMAS = (0.1, 0.2)
RHOS = (-1.0, 0.0, 1.0)
BARRIERS = (0.0, 10.0)
GRIDS = tuple((s, r, L) for s in SIGMAS for r in RHOS for L in BARRIERS)

# The CLI's defaults for the parameters no workload varies.
FIXED = dict(r=0.05, kappa=2.0, eta=0.04, S=800.0, V=5.0)
SWEEP_HEADER = "m2,m1,L,sigma,rho,S,V,max_norm2,t_argmax,max_normD,bound,within_bound"
CHECK_HEADER = "name,lhs,rhs,margin,tol,holds"
# Relative agreement required between the sweep's max_norm2 and an SVD of
# e^{t A} at the reported t_argmax.
RECOMPUTE_RTOL = 1e-8
# The scaled-norm maximum is 1 (at t = 0) by the contractivity theorem.
NORM_D_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    """One workload: which CLI path a case takes, at which mesh sizes.

    A round holds one case per (m2, grid) pair, in an order drawn from the
    seed.
    """

    name: str
    kind: str  # "sweep" or "certify"
    m2_values: tuple


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep-small", "sweep", (5, 7, 9)),
        Workload("sweep-large", "sweep", (13,)),
        Workload("certify", "certify", (13,)),
    )
}


@dataclass(frozen=True)
class Case:
    kind: str
    m2: int
    sigma: float
    rho: float
    L: float

    def label(self) -> str:
        return f"{self.kind}[m2={self.m2},sigma={self.sigma:g},rho={self.rho:g},L={self.L:g}]"


def draw_round(workload: Workload, rng: random.Random) -> list:
    """The cases of one round, in an order drawn from ``rng``."""
    cases = [Case(workload.kind, m2, *g) for m2 in workload.m2_values for g in GRIDS]
    rng.shuffle(cases)
    return cases


def warmup_case(workload: Workload) -> Case:
    """A tiny case of the workload's kind, run once before timing starts."""
    return Case(workload.kind, 3, 0.2, 0.0, 0.0)


def _argv(case: Case, command: str, out: Path) -> list:
    if command == "sweep":
        grid = ["--m2-values", str(case.m2), "--sigma-values", repr(case.sigma),
                "--rho-values", repr(case.rho), "--L-values", repr(case.L)]
    else:
        grid = ["--m2", str(case.m2), "--sigma", repr(case.sigma),
                "--rho", repr(case.rho), "--L", repr(case.L)]
    return [command, *grid, "--out", str(out)]


def commands(case: Case, workdir: Path) -> list:
    """(argv, output path) of each CLI call the case makes, in order."""
    if case.kind == "sweep":
        calls = [("sweep", "sweep.csv")]
    else:
        calls = [("check", "check.csv"), ("certificate", "certificate.txt")]
    return [(_argv(case, cmd, workdir / name), workdir / name) for cmd, name in calls]


@dataclass
class CallResult:
    argv: list
    out: Path
    code: int | None
    stdout: str
    error: str = ""


def run_case(cli, case: Case, workdir: Path, clock) -> tuple:
    """Run the case's CLI calls; returns (elapsed seconds, [CallResult])."""
    calls = commands(case, workdir)
    results = []
    elapsed = 0.0
    for argv, out in calls:
        buf = io.StringIO()
        error = ""
        start = clock()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # noqa: BLE001 -- a crash is a failed case
            code, error = None, f"{type(exc).__name__}: {exc}"
        elapsed += clock() - start
        results.append(CallResult(argv, out, code, buf.getvalue(), error))
    return elapsed, results


# --- correctness gate -------------------------------------------------------


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _printed_problems(call: CallResult) -> list:
    if call.error:
        return [f"{call.argv[0]} raised {call.error}"]
    problems = []
    if call.code != 0:
        problems.append(f"{call.argv[0]} exited {call.code}")
    lines = [ln for ln in call.stdout.splitlines() if ln.strip()]
    if not lines:
        problems.append(f"{call.argv[0]} printed no checks")
    problems += [f"{call.argv[0]} printed: {ln}" for ln in lines if not ln.startswith("PASS ")]
    if not call.out.is_file():
        problems.append(f"{call.argv[0]} wrote no {call.out.name}")
    return problems


def gate_sweep(case: Case, call: CallResult, kernels) -> list:
    """Problems with one sweep call's output; empty when it is correct."""
    problems = _printed_problems(call)
    if problems:
        return problems
    lines = call.out.read_text().splitlines()
    if len(lines) != 2 or lines[0] != SWEEP_HEADER:
        return [f"sweep.csv has {len(lines)} lines, expected header and one record"]
    row = dict(zip(SWEEP_HEADER.split(","), lines[1].split(",")))
    numeric = [k for k in row if k != "within_bound"]
    bad = [k for k in numeric if not _finite(row[k])]
    if bad:
        return [f"non-finite {k}={row[k]}" for k in bad]
    v = {k: float(row[k]) for k in numeric}
    m1 = 2 * case.m2
    if (int(v["m2"]), int(v["m1"]), v["sigma"], v["rho"], v["L"]) != (
        case.m2, m1, case.sigma, case.rho, case.L
    ):
        return [f"record {lines[1]} does not match the case"]
    bound = math.sqrt((case.L + m1 * FIXED["S"]) / (m1 * case.L + FIXED["S"]) * case.m2)
    if abs(v["bound"] - bound) > 1e-12 * bound:
        problems.append(f"bound {v['bound']!r} differs from the formula's {bound!r}")
    if v["max_norm2"] > v["bound"] or row["within_bound"] != "true":
        problems.append(f"max_norm2 {v['max_norm2']!r} exceeds bound {v['bound']!r}")
    if v["max_normD"] > 1.0 + NORM_D_TOL:
        problems.append(f"max_normD {v['max_normD']!r} exceeds 1")
    sigma = kernels.sigma_max_at(case, v["t_argmax"])
    if abs(sigma - v["max_norm2"]) > RECOMPUTE_RTOL * sigma:
        problems.append(
            f"max_norm2 {v['max_norm2']!r} disagrees with SVD {sigma!r} at t={v['t_argmax']!r}"
        )
    return problems


def _check_csv_problems(call: CallResult, n_printed: int) -> list:
    lines = call.out.read_text().splitlines()
    if not lines or lines[0] != CHECK_HEADER:
        return ["check.csv lacks its header"]
    problems = []
    if len(lines) - 1 != n_printed:
        problems.append(f"check.csv has {len(lines) - 1} checks, check printed {n_printed}")
    for line in lines[1:]:
        name, *nums, holds = line.split(",")
        if holds != "true":
            problems.append(f"check.csv: {name} does not hold")
        problems += [f"check.csv: {name} has non-finite {x}" for x in nums if not _finite(x)]
    return problems


def _report_problems(call: CallResult, n_printed: int) -> list:
    problems = []
    n_checks = 0
    for line in call.out.read_text().splitlines():
        kind, _, rest = line.partition(" ")
        fields = dict(f.split("=", 1) for f in rest.split(" ") if "=" in f)
        values = {k: x for k, x in fields.items() if k not in ("name", "holds", "i")}
        problems += [f"report: {line[:60]} has non-finite {k}" for k, x in values.items()
                     if not _finite(x)]
        if kind == "check":
            n_checks += 1
            if fields.get("holds") != "true":
                problems.append(f"report: {fields.get('name')} does not hold")
    if n_checks != n_printed:
        problems.append(f"report has {n_checks} checks, certificate printed {n_printed}")
    return problems


def gate_certify(calls: list) -> list:
    """Problems with a check + certificate pair; empty when both are correct."""
    problems = []
    for call in calls:
        printed = _printed_problems(call)
        if printed:
            problems += printed
            continue
        n_printed = len([ln for ln in call.stdout.splitlines() if ln.strip()])
        if call.argv[0] == "check":
            problems += _check_csv_problems(call, n_printed)
        else:
            problems += _report_problems(call, n_printed)
    return problems


def gate(case: Case, calls: list, kernels) -> list:
    if case.kind == "sweep":
        return gate_sweep(case, calls[0], kernels)
    return gate_certify(calls)


class Kernels:
    """Independent recomputation of a sweep maximum, for the gate.

    The gate runs between cases, so these calls never show up in a trace.
    """

    def __init__(self, hs, np):
        self.np = np
        self.params = hs.HestonParams
        self.make_grid = hs.make_grid
        self.build_operators = hs.build_operators
        self.expm = hs.expm

    def sigma_max_at(self, case: Case, t: float) -> float:
        params = self.params(sigma=case.sigma, rho=case.rho, L=case.L, **FIXED)
        A = self.build_operators(params, self.make_grid(params, 2 * case.m2, case.m2)).diffusion
        return float(self.np.linalg.svd(self.expm(A, t), compute_uv=False)[0])
