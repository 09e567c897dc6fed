"""Command-line front end.

Subcommands: ``operators`` dumps an assembled operator matrix as text,
``check`` prints the three stability certificates for one parameter set
(the log norms of the two advection blocks and the D-scaled log norm of the
diffusion part), ``certificate`` runs the contractivity certificate chain on
one grid, and ``sweep`` reproduces the norm-growth experiment, emitting CSV
and plot-ready series files.

``parse_args`` returns argparse's namespace with the library inputs of the
run already built and validated: a ``HestonParams`` and its grid for the
single-grid commands, a ``SweepConfig`` for ``sweep``.

Exit codes: 0 all checks hold, 1 at least one check failed, 2 usage or
validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

import numpy as np

from .experiments import SweepConfig, SweepRecord, compare_L_effect, run_sweep
from .grid import HestonParams, make_grid
from .operators import BLOCK_NAMES, build_operators, operator_block
from .stability import (
    BoundCheck,
    DEFAULT_Y_SAMPLES,
    certificate_case_large_y,
    certificate_case_small_y,
    check_advection_bounds,
    check_block_toeplitz_symbol_bound,
    check_diffusion_contractivity,
    check_symbol_conditions,
    diffusion_block_reduction,
    format_certificate_report,
)

__all__ = ["parse_args", "write_csv", "emit_plot_data", "main"]

# Each CSV kind's columns: the header, and the record attribute each row reads.
_CSV_COLUMNS = {
    "sweep": ("m2", "m1", "L", "sigma", "rho", "S", "V",
              "max_norm2", "t_argmax", "max_normD", "bound", "within_bound"),
    "check": ("name", "lhs", "rhs", "margin", "tol", "holds"),
}


def _list(text: str, cast, kind: str) -> tuple:
    try:
        values = tuple(cast(x) for x in text.split(",") if x != "")
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected a comma-separated {kind} list: {err}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected a non-empty comma-separated {kind} list")
    repeat = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeat is not None:
        raise argparse.ArgumentTypeError(f"repeated value {repeat!r} in the {kind} list {text!r}")
    return values


def _float_list(text: str) -> tuple:
    values = _list(text, float, "float")
    first = {}  # by its {x:g} label, which names the sweep's cases and series files
    for x in values:
        if first.setdefault(f"{x:g}", x) is not x:
            raise argparse.ArgumentTypeError(
                f"values {first[f'{x:g}']!r} and {x!r} both print as {x:g} in the float list {text!r}")
    return values


def _int_list(text: str) -> tuple:
    return _list(text, int, "integer")


def _add_param_flags(p: argparse.ArgumentParser, with_rho_sigma_L: bool = True) -> None:
    ref = SweepConfig  # its field defaults: the reference model's r, kappa, eta, S and V
    for flag, default, text in (
        ("--r", ref.r, "interest rate"),
        ("--kappa", ref.kappa, "mean-reversion rate"),
        ("--eta", ref.eta, "long-term mean variance"),
    ):
        p.add_argument(flag, type=float, default=default, help=f"{text} (default {default:g})")
    if with_rho_sigma_L:
        p.add_argument("--sigma", type=float, default=0.2, help="volatility-of-variance (default 0.2)")
        p.add_argument("--rho", type=float, default=0.0, help="correlation in [-1, 1] (default 0)")
        p.add_argument("--L", type=float, default=0.0, help="lower barrier (default 0)")
    p.add_argument("--S", type=float, default=ref.S, help=f"price truncation (default {ref.S:g})")
    p.add_argument("--V", type=float, default=ref.V, help=f"variance truncation (default {ref.V:g})")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m1", type=int, default=None, help="price mesh points (default 2*m2)")
    p.add_argument("--m2", type=int, default=5, help="variance mesh points (default 5)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hestonstab",
        description="Stability checks and norm-growth experiments for the "
        "central finite-difference Heston discretization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ops = sub.add_parser("operators", help="assemble operators and dump one as text")
    _add_param_flags(p_ops)
    _add_grid_flags(p_ops)
    p_ops.add_argument("--which", choices=BLOCK_NAMES, default="full", help="matrix to dump")
    p_ops.add_argument("--out", default=None, help="output file (default stdout)")

    p_check = sub.add_parser("check", help="advection and diffusion stability certificates")
    _add_param_flags(p_check)
    _add_grid_flags(p_check)
    p_check.add_argument("--out", default=None, help="CSV output for the checks")

    p_cert = sub.add_parser("certificate", help="contractivity certificate chain for one grid")
    _add_param_flags(p_cert)
    _add_grid_flags(p_cert)
    p_cert.add_argument("--out", default=None, help="text report output path")

    p_sweep = sub.add_parser("sweep", help="norm-growth parameter sweep")
    _add_param_flags(p_sweep, with_rho_sigma_L=False)
    ref = SweepConfig  # its field defaults
    p_sweep.add_argument("--m2-values", type=_int_list, default=ref.m2_values)
    p_sweep.add_argument("--sigma-values", type=_float_list, default=ref.sigma_values)
    p_sweep.add_argument("--rho-values", type=_float_list, default=ref.rho_values)
    p_sweep.add_argument("--L-values", type=_float_list, default=ref.L_values)
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    p_sweep.add_argument("--plot-dir", default=None, help="directory for plot series files")
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """Parse argv and build the run's inputs; exits with code 2 on error.

    ``operators``, ``check`` and ``certificate`` get ``params`` and ``grid``;
    ``sweep`` gets ``sweep``, a SweepConfig.
    """
    parser = build_parser()
    ns = parser.parse_args(list(argv))
    shared = dict(r=ns.r, kappa=ns.kappa, eta=ns.eta, S=ns.S, V=ns.V)
    try:
        if ns.command == "sweep":
            ns.sweep = SweepConfig(
                m2_values=ns.m2_values,
                sigma_values=ns.sigma_values,
                rho_values=ns.rho_values,
                L_values=ns.L_values,
                **shared,
            )
        else:
            ns.params = HestonParams(sigma=ns.sigma, rho=ns.rho, L=ns.L, **shared)
            ns.grid = make_grid(ns.params, 2 * ns.m2 if ns.m1 is None else ns.m1, ns.m2)
    except ValueError as err:
        parser.error(str(err))
    return ns


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.17g}"


def write_csv(records: Sequence, path, kind: str) -> None:
    """Write sweep records (``kind='sweep'``) or bound checks (``kind='check'``) as CSV.

    Floats carry 17 significant digits; an empty record list yields a
    header-only file.
    """
    if kind not in _CSV_COLUMNS:
        raise ValueError(f"unknown CSV kind {kind!r}")
    columns = _CSV_COLUMNS[kind]
    lines = [",".join(columns)]
    lines += [",".join(_fmt(getattr(rec, c)) for c in columns) for rec in records]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def emit_plot_data(records: Sequence[SweepRecord], path) -> None:
    """Write one two-column series file (m2, max_norm2) per (sigma, rho, L).

    Files land in directory ``path`` named
    ``sigma{s}_rho{r}_L{L}.dat``; panels of the growth figure correspond to
    (sigma, rho) pairs with one series per barrier value.
    """
    os.makedirs(path, exist_ok=True)
    series = {}
    for rec in records:
        series.setdefault((rec.sigma, rec.rho, rec.L), []).append(rec)
    for (sigma, rho, L), recs in sorted(series.items()):
        fname = f"sigma{sigma:g}_rho{rho:g}_L{L:g}.dat"
        with open(os.path.join(path, fname), "w", newline="\n") as fh:
            fh.write("# m2 max_norm2\n")
            for rec in sorted(recs, key=lambda r: r.m2):
                fh.write(f"{rec.m2} {rec.max_norm2:.17g}\n")


def _print_checks(checks: Sequence[BoundCheck]) -> bool:
    all_hold = True
    for c in checks:
        status = "PASS" if c.holds else "FAIL"
        print(f"{status} {c.name}: lhs={c.lhs:.12g} rhs={c.rhs:.12g} margin={c.margin:.3g}")
        all_hold &= c.holds
    return all_hold


def _run_operators(ns: argparse.Namespace) -> int:
    matrix = operator_block(build_operators(ns.params, ns.grid), ns.which)
    # 17 significant digits round-trip every float64 entry
    np.savetxt(sys.stdout if ns.out is None else ns.out, matrix, fmt="%.17g")
    if ns.out is not None:
        print(f"wrote {ns.which} matrix ({matrix.shape[0]}x{matrix.shape[1]}) to {ns.out}")
    return 0


def _run_check(ns: argparse.Namespace) -> int:
    ops = build_operators(ns.params, ns.grid)
    checks = [*check_advection_bounds(ops), check_diffusion_contractivity(ops)]
    ok = _print_checks(checks)
    if ns.out is not None:
        write_csv(checks, ns.out, kind="check")
    return 0 if ok else 1


def _run_certificate(ns: argparse.Namespace) -> int:
    ops = build_operators(ns.params, ns.grid)
    checks = check_symbol_conditions(ops)
    rows = []
    for y in DEFAULT_Y_SAMPLES:
        certify = certificate_case_large_y if abs(y) >= 0.5 else certificate_case_small_y
        y_rows, check = certify(ops, y)
        rows.extend(y_rows)
        checks.append(check)
    _, B0, B1 = diffusion_block_reduction(ops)
    checks.append(check_block_toeplitz_symbol_bound(B0, B1, ns.grid.m2))
    ok = _print_checks(checks)
    if ns.out is not None:
        with open(ns.out, "w", newline="\n") as fh:
            fh.write(format_certificate_report(rows, checks))
    return 0 if ok else 1


def _run_sweep(ns: argparse.Namespace) -> int:
    records = run_sweep(ns.sweep)
    for rec in records:
        case = f"sweep[m2={rec.m2},L={rec.L:g},sigma={rec.sigma:g},rho={rec.rho:g}]"
        if rec.error:
            print(f"FAIL {case}: {rec.error}")
        else:
            print(f"PASS {case}: max_norm2={rec.max_norm2:.9g} at t={rec.t_argmax:g}, bound={rec.bound:.9g}")
    ok = True
    if len(ns.L_values) == 2:
        lo, hi = sorted(ns.L_values)
        ok = _print_checks(compare_L_effect(records, L_low=lo, L_high=hi))
    if ns.out is not None:
        write_csv(records, ns.out, kind="sweep")
    if ns.plot_dir is not None:
        emit_plot_data(records, ns.plot_dir)
    if any(rec.error for rec in records):
        return 3
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    ns = parse_args(sys.argv[1:] if argv is None else argv)
    runner = {
        "operators": _run_operators,
        "check": _run_check,
        "certificate": _run_certificate,
        "sweep": _run_sweep,
    }[ns.command]
    try:
        return runner(ns)
    except (ArithmeticError, np.linalg.LinAlgError) as err:  # numerical failure
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"I/O failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
