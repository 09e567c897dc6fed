"""Command-line front end.

Subcommands: ``operators`` dumps an assembled operator matrix as text,
``check`` runs the advection and diffusion stability checks for one
parameter set, ``certificate`` runs the contractivity certificate chain on
one grid, and ``sweep`` reproduces the norm-growth experiment, emitting CSV
and plot-ready series files.

Exit codes: 0 all checks hold, 1 at least one check failed, 2 usage or
validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .experiments import SweepConfig, SweepRecord, compare_L_effect, run_sweep
from .grid import HestonParams, make_grid
from .operators import build_operators, dump_matrix
from .stability import (
    BoundCheck,
    DEFAULT_Y_SAMPLES,
    certificate_case_large_y,
    certificate_case_small_y,
    check_advection_bounds,
    check_block_toeplitz_symbol_bound,
    check_diffusion_contractivity,
    check_exp_bound,
    check_symbol_conditions,
    diffusion_block_reduction,
    format_certificate_report,
)

__all__ = ["RunConfig", "parse_args", "write_csv", "emit_plot_data", "main"]

_OPERATOR_NAMES = ("full", "diffusion", "adv-s", "adv-v", "diff-ss", "mixed-sv", "diff-vv")

_DEFAULT_T_SAMPLES = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)

_SWEEP_HEADER = "m2,m1,L,sigma,rho,S,V,max_norm2,t_argmax,max_normD,bound,within_bound"
_CHECK_HEADER = "name,lhs,rhs,margin,tol,holds"


@dataclass(frozen=True)
class RunConfig:
    """Canonical, fully resolved run configuration."""

    command: str
    r: float = 0.05
    kappa: float = 2.0
    eta: float = 0.04
    sigma: float = 0.2
    rho: float = 0.0
    L: float = 0.0
    S: float = 800.0
    V: float = 5.0
    m1: Optional[int] = None
    m2: int = 5
    m2_values: tuple = ()
    sigma_values: tuple = ()
    rho_values: tuple = ()
    L_values: tuple = ()
    t_samples: tuple = _DEFAULT_T_SAMPLES
    tol: float = 1e-8
    full: bool = False
    which: str = "full"
    out: Optional[str] = None
    plot_dir: Optional[str] = None

    def resolved_m1(self) -> int:
        return self.m1 if self.m1 is not None else 2 * self.m2

    def to_argv(self) -> list:
        """Canonical flag list; parsing it reproduces this config exactly."""
        argv = [self.command]
        for name in ("r", "kappa", "eta", "sigma", "rho", "L", "S", "V"):
            if self.command == "sweep" and name in ("sigma", "rho", "L"):
                continue
            argv.append(f"--{name}={getattr(self, name)!r}")
        if self.command == "sweep":
            argv.append("--m2-values=" + ",".join(str(v) for v in self.m2_values))
            argv.append("--sigma-values=" + ",".join(repr(v) for v in self.sigma_values))
            argv.append("--rho-values=" + ",".join(repr(v) for v in self.rho_values))
            argv.append("--L-values=" + ",".join(repr(v) for v in self.L_values))
            if self.full:
                argv.append("--full")
        else:
            if self.m1 is not None:
                argv.append(f"--m1={self.m1}")
            argv.append(f"--m2={self.m2}")
        if self.command == "check":
            argv.append("--t-samples=" + ",".join(repr(t) for t in self.t_samples))
        if self.command == "operators":
            argv.append(f"--which={self.which}")
        argv.append(f"--tol={self.tol!r}")
        if self.out is not None:
            argv.append(f"--out={self.out}")
        if self.plot_dir is not None:
            argv.append(f"--plot-dir={self.plot_dir}")
        return argv


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(x) for x in text.split(",") if x != "")
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected a comma-separated float list: {err}")


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(",") if x != "")
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"expected a comma-separated integer list: {err}")


def _add_param_flags(p: argparse.ArgumentParser, with_rho_sigma_L: bool = True) -> None:
    p.add_argument("--r", type=float, default=0.05, help="interest rate (default 0.05)")
    p.add_argument("--kappa", type=float, default=2.0, help="mean-reversion rate (default 2)")
    p.add_argument("--eta", type=float, default=0.04, help="long-term mean variance (default 0.04)")
    if with_rho_sigma_L:
        p.add_argument("--sigma", type=float, default=0.2, help="volatility-of-variance (default 0.2)")
        p.add_argument("--rho", type=float, default=0.0, help="correlation in [-1, 1] (default 0)")
        p.add_argument("--L", type=float, default=0.0, help="lower barrier (default 0)")
    p.add_argument("--S", type=float, default=800.0, help="price truncation (default 800)")
    p.add_argument("--V", type=float, default=5.0, help="variance truncation (default 5)")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m1", type=int, default=None, help="price mesh points (default 2*m2)")
    p.add_argument("--m2", type=int, default=5, help="variance mesh points (default 5)")


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
    p_ops.add_argument("--which", choices=_OPERATOR_NAMES, default="full", help="matrix to dump")
    p_ops.add_argument("--out", default=None, help="output file (default stdout)")
    p_ops.add_argument("--tol", type=float, default=1e-8)

    p_check = sub.add_parser("check", help="advection and diffusion stability checks")
    _add_param_flags(p_check)
    _add_grid_flags(p_check)
    p_check.add_argument(
        "--t-samples",
        type=_float_list,
        default=_DEFAULT_T_SAMPLES,
        help="comma-separated t values (default 0,0.5,1,2,5,10)",
    )
    p_check.add_argument("--tol", type=float, default=1e-8, help="check tolerance")
    p_check.add_argument("--out", default=None, help="CSV output for the checks")

    p_cert = sub.add_parser("certificate", help="contractivity certificate chain for one grid")
    _add_param_flags(p_cert)
    _add_grid_flags(p_cert)
    p_cert.add_argument("--tol", type=float, default=1e-8, help="check tolerance")
    p_cert.add_argument("--out", default=None, help="text report output path")

    p_sweep = sub.add_parser("sweep", help="norm-growth parameter sweep")
    _add_param_flags(p_sweep, with_rho_sigma_L=False)
    p_sweep.add_argument("--m2-values", type=_int_list, default=(5, 7, 9, 11, 13, 15))
    p_sweep.add_argument("--sigma-values", type=_float_list, default=(0.1, 0.2))
    p_sweep.add_argument("--rho-values", type=_float_list, default=(-1.0, 0.0, 1.0))
    p_sweep.add_argument("--L-values", type=_float_list, default=(0.0, 10.0))
    p_sweep.add_argument("--full", action="store_true", help="extend meshes to m2 = 25")
    p_sweep.add_argument("--tol", type=float, default=1e-6, help="bound-check tolerance")
    p_sweep.add_argument("--out", default=None, help="CSV output path")
    p_sweep.add_argument("--plot-dir", default=None, help="directory for plot series files")
    return parser


def parse_args(argv: Sequence[str]) -> RunConfig:
    """Parse and validate argv into a RunConfig; exits with code 2 on error."""
    parser = build_parser()
    ns = parser.parse_args(list(argv))
    kwargs = dict(command=ns.command, tol=ns.tol, out=ns.out)
    if ns.command == "sweep":
        m2_values = SweepConfig.full_m2_values() if ns.full else tuple(ns.m2_values)
        kwargs.update(
            r=ns.r,
            kappa=ns.kappa,
            eta=ns.eta,
            S=ns.S,
            V=ns.V,
            m2_values=m2_values,
            sigma_values=tuple(ns.sigma_values),
            rho_values=tuple(ns.rho_values),
            L_values=tuple(ns.L_values),
            full=ns.full,
            plot_dir=ns.plot_dir,
        )
        for sigma in ns.sigma_values:
            for rho in ns.rho_values:
                for L in ns.L_values:
                    _validate_params(parser, ns.r, ns.kappa, ns.eta, sigma, rho, L, ns.S, ns.V)
        if any(m2 < 3 for m2 in m2_values):
            parser.error("all m2 values must be >= 3")
    else:
        kwargs.update(
            r=ns.r,
            kappa=ns.kappa,
            eta=ns.eta,
            sigma=ns.sigma,
            rho=ns.rho,
            L=ns.L,
            S=ns.S,
            V=ns.V,
            m1=ns.m1,
            m2=ns.m2,
        )
        _validate_params(parser, ns.r, ns.kappa, ns.eta, ns.sigma, ns.rho, ns.L, ns.S, ns.V)
        if ns.m2 < 3 or (ns.m1 is not None and ns.m1 < 3):
            parser.error("mesh counts m1 and m2 must be >= 3")
        if ns.command == "check":
            kwargs["t_samples"] = tuple(ns.t_samples)
        if ns.command == "operators":
            kwargs["which"] = ns.which
    return RunConfig(**kwargs)


def _validate_params(parser, r, kappa, eta, sigma, rho, L, S, V) -> None:
    try:
        HestonParams(r=r, kappa=kappa, eta=eta, sigma=sigma, rho=rho, L=L, S=S, V=V)
    except ValueError as err:
        parser.error(str(err))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return f"{value:.17g}"


def write_csv(records: Sequence, path, kind: Optional[str] = None) -> None:
    """Write sweep records or bound checks as CSV.

    Floats carry 17 significant digits; an empty record list yields a
    header-only file (sweep header unless ``kind='check'``).
    """
    if kind is None:
        if records and isinstance(records[0], BoundCheck):
            kind = "check"
        else:
            kind = "sweep"
    lines = []
    if kind == "sweep":
        lines.append(_SWEEP_HEADER)
        for rec in records:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        rec.m2,
                        rec.m1,
                        rec.L,
                        rec.sigma,
                        rec.rho,
                        rec.S,
                        rec.V,
                        rec.max_norm2,
                        rec.t_argmax,
                        rec.max_normD,
                        rec.bound,
                        rec.within_bound,
                    )
                )
            )
    elif kind == "check":
        lines.append(_CHECK_HEADER)
        for c in records:
            lines.append(
                ",".join(_fmt(v) for v in (c.name, c.lhs, c.rhs, c.margin, c.tol, c.holds))
            )
    else:
        raise ValueError(f"unknown CSV kind {kind!r}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _fmt_name(value: float) -> str:
    return f"{value:g}"


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
        fname = f"sigma{_fmt_name(sigma)}_rho{_fmt_name(rho)}_L{_fmt_name(L)}.dat"
        recs = sorted(recs, key=lambda r: r.m2)
        with open(os.path.join(path, fname), "w", newline="\n") as fh:
            fh.write("# m2 max_norm2\n")
            for rec in recs:
                fh.write(f"{rec.m2} {rec.max_norm2:.17g}\n")


def _print_checks(checks: Sequence[BoundCheck]) -> bool:
    all_hold = True
    for c in checks:
        status = "PASS" if c.holds else "FAIL"
        print(f"{status} {c.name}: lhs={c.lhs:.12g} rhs={c.rhs:.12g} margin={c.margin:.3g}")
        all_hold &= c.holds
    return all_hold


def _run_operators(cfg: RunConfig) -> int:
    params = _params_from(cfg)
    grid = make_grid(params, cfg.resolved_m1(), cfg.m2)
    ops = build_operators(params, grid)
    matrix = {
        "full": ops.full,
        "diffusion": ops.diffusion,
        "adv-s": ops.adv_s,
        "adv-v": ops.adv_v,
        "diff-ss": ops.diff_ss,
        "mixed-sv": ops.mixed_sv,
        "diff-vv": ops.diff_vv,
    }[cfg.which]
    if cfg.out is None:
        for row in matrix:
            print(" ".join(f"{x:.17g}" for x in row))
    else:
        dump_matrix(matrix, cfg.out)
        print(f"wrote {cfg.which} matrix ({matrix.shape[0]}x{matrix.shape[1]}) to {cfg.out}")
    return 0


def _params_from(cfg: RunConfig) -> HestonParams:
    return HestonParams(
        r=cfg.r, kappa=cfg.kappa, eta=cfg.eta, sigma=cfg.sigma, rho=cfg.rho, L=cfg.L, S=cfg.S, V=cfg.V
    )


def _run_check(cfg: RunConfig) -> int:
    params = _params_from(cfg)
    grid = make_grid(params, cfg.resolved_m1(), cfg.m2)
    ops = build_operators(params, grid)
    checks = list(check_advection_bounds(ops, params, tol=cfg.tol))
    for name, block, omega in (
        ("adv_s", ops.adv_s, 0.5 * params.r),
        ("adv_v", ops.adv_v, 0.5 * params.kappa),
    ):
        for c in check_exp_bound(block, omega, 1.0, cfg.t_samples, tol=cfg.tol):
            checks.append(BoundCheck(f"{name}_{c.name}", c.lhs, c.rhs, c.tol))
    mu_check, scaled, spectral = check_diffusion_contractivity(ops, grid, cfg.t_samples, tol=cfg.tol)
    checks.append(mu_check)
    checks.extend(scaled)
    checks.extend(spectral)
    ok = _print_checks(checks)
    if cfg.out is not None:
        write_csv(checks, cfg.out, kind="check")
    return 0 if ok else 1


def _run_certificate(cfg: RunConfig) -> int:
    params = _params_from(cfg)
    grid = make_grid(params, cfg.resolved_m1(), cfg.m2)
    checks = check_symbol_conditions(params, grid, tol=cfg.tol)
    rows = []
    for y in DEFAULT_Y_SAMPLES:
        if abs(y) >= 0.5:
            y_rows, check = certificate_case_large_y(grid, y, tol=cfg.tol)
        else:
            y_rows, check = certificate_case_small_y(grid, y, tol=cfg.tol)
        rows.extend(y_rows)
        checks.append(check)
    _, B0, B1 = diffusion_block_reduction(params, grid)
    checks.append(check_block_toeplitz_symbol_bound(B0, B1, grid.m2))
    ok = _print_checks(checks)
    if cfg.out is not None:
        with open(cfg.out, "w", newline="\n") as fh:
            fh.write(format_certificate_report(rows, checks))
    return 0 if ok else 1


def _run_sweep(cfg: RunConfig) -> int:
    sweep_cfg = SweepConfig(
        m2_values=cfg.m2_values,
        sigma_values=cfg.sigma_values,
        rho_values=cfg.rho_values,
        L_values=cfg.L_values,
        S=cfg.S,
        V=cfg.V,
        r=cfg.r,
        kappa=cfg.kappa,
        eta=cfg.eta,
    )
    records = run_sweep(sweep_cfg, tol=cfg.tol)
    ok = True
    for rec in records:
        if rec.error:
            print(
                f"FAIL sweep[m2={rec.m2},L={rec.L:g},sigma={rec.sigma:g},rho={rec.rho:g}]: {rec.error}"
            )
            continue
        status = "PASS" if rec.within_bound else "FAIL"
        print(
            f"{status} sweep[m2={rec.m2},L={rec.L:g},sigma={rec.sigma:g},rho={rec.rho:g}]: "
            f"max_norm2={rec.max_norm2:.9g} at t={rec.t_argmax:g}, bound={rec.bound:.9g}"
        )
        ok &= rec.within_bound
    if len(cfg.L_values) == 2:
        lo, hi = sorted(cfg.L_values)
        ok &= _print_checks(compare_L_effect(records, L_low=lo, L_high=hi))
    if cfg.out is not None:
        write_csv(records, cfg.out, kind="sweep")
    if cfg.plot_dir is not None:
        emit_plot_data(records, cfg.plot_dir)
    if any(rec.error for rec in records):
        return 3
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    runner = {
        "operators": _run_operators,
        "check": _run_check,
        "certificate": _run_certificate,
        "sweep": _run_sweep,
    }[cfg.command]
    try:
        return runner(cfg)
    except (OverflowError, ArithmeticError, np.linalg.LinAlgError) as err:  # numerical failure
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"I/O failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
