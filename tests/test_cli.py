import math
import warnings

import numpy as np
import pytest

from hestonstab import (
    BoundCheck,
    HestonParams,
    SweepConfig,
    SweepRecord,
    build_operators,
    experiments,
    make_grid,
    stability,
)
from hestonstab.cli import emit_plot_data, main, parse_args, write_csv


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_sweep_defaults_match_reference_sets():
    cfg = parse_args(["sweep"])
    assert cfg.sweep.m2_values == (5, 7, 9, 11, 13, 15)
    assert cfg.sweep.sigma_values == (0.1, 0.2)
    assert cfg.sweep.rho_values == (-1.0, 0.0, 1.0)
    assert cfg.sweep.L_values == (0.0, 10.0)
    assert cfg.sweep.S == 800.0 and cfg.sweep.V == 5.0
    assert cfg.sweep == SweepConfig()


def test_parser_reads_sweep_defaults_without_building_a_config(monkeypatch):
    built = []
    real = SweepConfig.__post_init__
    monkeypatch.setattr(SweepConfig, "__post_init__", lambda self: built.append(self) or real(self))
    parse_args(["check"])
    assert built == []
    parse_args(["sweep"])
    assert len(built) == 1  # the run's own config


def test_check_flag_mapping():
    cfg = parse_args(
        ["check", "--r", "0.05", "--kappa", "2", "--eta", "0.04", "--sigma", "0.2",
         "--rho", "-0.5", "--m2", "5"]
    )
    assert cfg.command == "check"
    assert cfg.params.rho == -0.5
    assert cfg.grid.m2 == 5
    assert cfg.grid.m1 == 10  # defaults to 2 * m2


def test_explicit_m1_override():
    cfg = parse_args(["check", "--m1", "7", "--m2", "5"])
    assert cfg.grid.m1 == 7


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check", "--rho", "1.5"], "rho"),
        (["check", "--m2", "3", "--r", "inf"], "parameter r must be finite"),
        (["check", "--m2", "3", "--S", "inf"], "parameter S must be finite"),
        (["check", "--m2", "3", "--kappa", "nan"], "parameter kappa must be finite"),
        (["certificate", "--m2", "3", "--L=-inf"], "parameter L must be finite"),
        (["sweep", "--m2-values", "3", "--V", "inf"], "parameter V must be finite"),
        (["sweep", "--m2-values", "3", "--sigma-values", "inf"], "parameter sigma must be finite"),
        (["sweep", "--m2-values", "3,2"], "all m2 values must be >= 3"),
    ],
    ids=["rho-1.5", "r-inf", "S-inf", "kappa-nan", "L-neg-inf", "V-inf", "sigma-inf", "sweep-m2-2"],
)
def test_invalid_param_exits_with_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["check", "--m2", "3", "--t-samples=-1"], "--t-samples must be finite and >= 0, got -1"),
        (["check", "--m2", "3", "--t-samples", "nan"], "--t-samples must be finite and >= 0, got nan"),
        (["check", "--m2", "3", "--t-samples", "inf"], "--t-samples must be finite and >= 0, got inf"),
        (["check", "--m2", "3", "--tol", "1e300"], "unrecognized arguments: --tol 1e300"),
        (["certificate", "--m2", "3", "--tol", "1e-8"], "unrecognized arguments: --tol 1e-8"),
        (["sweep", "--m2-values", "3", "--tol=-inf"], "unrecognized arguments: --tol=-inf"),
        (["sweep", "--m2-values="], "non-empty"),
        (["sweep", "--sigma-values="], "non-empty"),
        (["sweep", "--rho-values="], "non-empty"),
        (["sweep", "--L-values="], "non-empty"),
        (["check", "--t-samples="], "non-empty"),
        (["sweep", "--L-values", "0,0"], "repeated value 0.0 in the float list '0,0'"),
        (["sweep", "--L-values", "0,10,0.0"], "repeated value 0.0 in the float list"),
        (["sweep", "--m2-values", "3,3"], "repeated value 3 in the integer list '3,3'"),
        (["check", "--t-samples", "1,1"], "repeated value 1.0 in the float list '1,1'"),
        (["sweep", "--m2-values", "3", "--sigma-values", "0.1,0.1000001", "--rho-values", "0",
          "--L-values", "0", "--plot-dir", "D"],
         "values 0.1 and 0.1000001 both print as 0.1 in the float list '0.1,0.1000001'"),
        (["check", "--t-samples", "1,1.0000001"],
         "values 1.0 and 1.0000001 both print as 1 in the float list '1,1.0000001'"),
        (["sweep", "--full"], "unrecognized arguments: --full"),
    ],
    ids=["t-neg", "t-nan", "t-inf", "check-tol", "certificate-tol", "sweep-tol-neg-inf",
         "empty-m2", "empty-sigma", "empty-rho", "empty-L", "empty-t",
         "repeat-L", "repeat-L-after-cast", "repeat-m2", "repeat-t", "label-clash-sigma",
         "label-clash-t", "sweep-full"],
)
def test_bad_sample_tolerance_or_list_is_usage_error(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_unknown_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        parse_args(["check", "--frobnicate", "1"])
    assert exc.value.code == 2


def test_m1_with_sweep_mode_rejected():
    with pytest.raises(SystemExit) as exc:
        parse_args(["sweep", "--m1", "10"])
    assert exc.value.code == 2


def test_bad_mesh_count_rejected():
    with pytest.raises(SystemExit) as exc:
        parse_args(["check", "--m2", "2"])
    assert exc.value.code == 2


def test_sweep_list_flags():
    cfg = parse_args(["sweep", "--m2-values", "5,9", "--sigma-values", "0.2",
                      "--rho-values=-1,0,1", "--L-values", "0,10"])
    assert cfg.sweep.m2_values == (5, 9)
    assert cfg.sweep.sigma_values == (0.2,)
    assert cfg.sweep.rho_values == (-1.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# CSV and plot data
# ---------------------------------------------------------------------------

def _record(m2=5, L=0.0, sigma=0.1, rho=0.0, max_norm2=1.25):
    return SweepRecord(
        m2=m2, m1=2 * m2, L=L, sigma=sigma, rho=rho, S=800.0, V=5.0,
        max_norm2=max_norm2, t_argmax=1.5, bound=10.0,
    )


def test_write_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path, kind="sweep")
    assert path.read_text() == (
        "m2,m1,L,sigma,rho,S,V,max_norm2,t_argmax,max_normD,bound,within_bound\n"
    )


def test_write_csv_single_record(tmp_path):
    path = tmp_path / "one.csv"
    write_csv([_record()], path, kind="sweep")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "5" and fields[1] == "10"
    assert fields[-1] == "true"
    assert float(fields[7]) == 1.25


def test_write_csv_17_digit_floats(tmp_path):
    value = 1.0 + 2.0 ** -45
    path = tmp_path / "precise.csv"
    write_csv([_record(max_norm2=value)], path, kind="sweep")
    text = path.read_text()
    assert f"{value:.17g}" in text
    assert float(text.splitlines()[1].split(",")[7]) == value


def test_write_csv_checks(tmp_path):
    path = tmp_path / "checks.csv"
    checks = [BoundCheck("sample_check", 0.5, 1.0, 1e-8)]
    write_csv(checks, path, kind="check")
    lines = path.read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,margin,tol,holds"
    assert lines[1].startswith("sample_check,0.5,1,0.5,")
    assert lines[1].endswith("true")


def test_write_csv_deterministic(tmp_path):
    records = [_record(m2=m2, L=L) for m2 in (5, 7) for L in (0.0, 10.0)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(records, p1, kind="sweep")
    write_csv(records, p2, kind="sweep")
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_plot_data_series_layout(tmp_path):
    records = [
        _record(m2=m2, L=L, sigma=sigma, rho=rho)
        for m2 in (5, 7, 9)
        for L in (0.0, 10.0)
        for sigma in (0.1, 0.2)
        for rho in (-1.0, 0.0, 1.0)
    ]
    out = tmp_path / "series"
    emit_plot_data(records, out)
    files = sorted(f.name for f in out.iterdir())
    assert len(files) == 12  # 6 panels x 2 barrier series
    assert "sigma0.1_rho-1_L0.dat" in files
    assert "sigma0.2_rho1_L10.dat" in files
    body = (out / "sigma0.1_rho-1_L0.dat").read_text().splitlines()
    assert body[0] == "# m2 max_norm2"
    assert len(body) == 4  # header + three mesh sizes
    assert body[1].split()[0] == "5"


def test_emit_plot_data_single_record(tmp_path):
    out = tmp_path / "single"
    emit_plot_data([_record()], out)
    files = list(out.iterdir())
    assert len(files) == 1
    assert len(files[0].read_text().splitlines()) == 2


# ---------------------------------------------------------------------------
# end-to-end command runs
# ---------------------------------------------------------------------------

def test_main_check_small_case(capsys):
    code = main(["check", "--m2", "3", "--m1", "4", "--t-samples", "0,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS advection_s_log_norm" in out
    assert "FAIL" not in out


def test_main_check_writes_csv(tmp_path, capsys):
    path = tmp_path / "checks.csv"
    code = main(["check", "--m2", "3", "--t-samples", "0,0.5", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,margin,tol,holds"
    assert len(lines) > 3


def test_main_negative_allowances_fail_checks(monkeypatch, capsys):
    # a negative allowance demands a strictly positive margin of that size, which
    # the near-sharp checks lack: exit code 1, and the block-Toeplitz line shows
    # that its own allowance reaches the certificate too
    monkeypatch.setattr(stability, "_CHECK_TOL", -1.0)
    monkeypatch.setattr(stability, "_TOEPLITZ_TOL", -1.0)
    assert main(["check", "--m2", "4"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["certificate", "--m2", "4"]) == 1
    assert "FAIL block_toeplitz_symbol_bound" in capsys.readouterr().out


def test_main_certificate(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code = main(["certificate", "--m2", "4", "--m1", "6", "--rho", "0.9", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    text = path.read_text()
    assert "row i=1" in text
    assert "holds=true" in text


def test_main_operators_dump(tmp_path, capsys):
    args = ["operators", "--which", "diffusion", "--m2", "3", "--m1", "4", "--L", "10", "--rho", "0.7"]
    path = tmp_path / "diffusion.txt"
    assert main(args + ["--out", str(path)]) == 0
    capsys.readouterr()
    M = np.loadtxt(path)
    assert M.shape == (12, 12)
    params = HestonParams(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=0.7, L=10.0)
    np.testing.assert_array_equal(M, build_operators(params, make_grid(params, 4, 3)).diffusion)
    # without --out the same bytes go to stdout
    assert main(args) == 0
    assert capsys.readouterr().out.encode() == path.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["operators", "--m2", "3", "--out", "{missing}/ops.txt"],
        ["check", "--m2", "3", "--t-samples", "0", "--out", "{missing}/checks.csv"],
        ["certificate", "--m2", "3", "--out", "{missing}/report.txt"],
        ["sweep", "--m2-values", "3", "--sigma-values", "0.1", "--rho-values", "0",
         "--L-values", "0", "--out", "{missing}/sweep.csv"],
        ["sweep", "--m2-values", "3", "--sigma-values", "0.1", "--rho-values", "0",
         "--L-values", "0", "--plot-dir", "{file}"],
    ],
    ids=["operators-out", "check-out", "certificate-out", "sweep-out", "sweep-plot-dir"],
)
def test_io_failure_exits_3(argv, tmp_path, capsys):
    regular_file = tmp_path / "not-a-directory"
    regular_file.write_text("")
    paths = dict(missing=tmp_path / "missing", file=regular_file)
    code = main([a.format(**paths) for a in argv])
    assert code == 3
    assert "I/O failure" in capsys.readouterr().err


def test_main_sweep_tiny(tmp_path, capsys):
    csv_path = tmp_path / "sweep.csv"
    plot_dir = tmp_path / "series"
    code = main([
        "sweep", "--m2-values", "5", "--sigma-values", "0.1", "--rho-values", "0",
        "--L-values", "0,10", "--out", str(csv_path), "--plot-dir", str(plot_dir),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS sweep[") == 2
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3
    assert len(list(plot_dir.iterdir())) == 2


def test_main_sweep_deterministic_csv(tmp_path, capsys):
    args = ["sweep", "--m2-values", "5", "--sigma-values", "0.1", "--rho-values", "1", "--L-values", "0"]
    p1, p2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_main_sweep_failed_case_exits_3(monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise OverflowError("semigroup norm scan overflowed at t = 7")

    monkeypatch.setattr(experiments, "max_norm_over_t", overflow)
    code = main(["sweep", "--m2-values", "3", "--sigma-values", "0.1", "--rho-values", "0",
                 "--L-values", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL sweep[m2=3,L=0,sigma=0.1,rho=0]: semigroup norm scan overflowed at t = 7" in out


_ASSEMBLY_OVERFLOW = "operator assembly overflowed: the operator has non-finite entries"


@pytest.mark.parametrize("command", ["operators", "check", "certificate"])
# 3e153 with kappa = 1.2e308: every block is finite and only their sum overflows
@pytest.mark.parametrize("sigma,kappa", [("1e154", "2"), ("1e155", "2"), ("3e153", "1.2e308")],
                         ids=["1e154", "1e155", "3e153-kappa1.2e308"])
def test_overflowing_assembly_exits_3(command, sigma, kappa, capsys):
    blocks = ("full", "diffusion", "adv-s", "adv-v", "diff-ss", "mixed-sv", "diff-vv")
    dumps = [["--which", w] for w in blocks] if command == "operators" else [[]]
    for which in dumps:
        code = main([command, "--m2", "3", "--sigma", sigma, "--kappa", kappa, *which])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == f"numerical failure: {_ASSEMBLY_OVERFLOW}\n"


def test_sweep_sum_only_overflow_is_a_failed_case(capsys):
    code = main(["sweep", "--m2-values", "3", "--sigma-values", "3e153", "--rho-values", "0",
                 "--L-values", "0", "--kappa", "1.2e308"])
    assert code == 3
    assert f"FAIL sweep[m2=3,L=0,sigma=3e+153,rho=0]: {_ASSEMBLY_OVERFLOW}" in capsys.readouterr().out


_UNRESOLVED = "matrix exponential is not resolved in double precision"


def test_main_numerical_failure_exit_code(capsys):
    for args, message in (
        # ||tA||_1 > 2^27 is refused before any Pade work, where squaring would overflow
        (["--m2", "3"], f"{_UNRESOLVED}: ||tA||_1 = 2.5e+307 > 2^27"),
        # and where 1020 squarings of adv_s's purely imaginary spectrum would amplify rounding
        (["--m2", "5"], f"{_UNRESOLVED}: ||tA||_1 = 4.5e+307 > 2^27"),
        # ||tA||_1 itself overflows, and no numpy warning comes ahead of the message
        (["--m2", "5", "--r", "0.25"], "matrix exponential overflowed: ||tA||_1 = inf"),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check", *args, "--t-samples", "0,1e308"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == f"numerical failure: {message}\n"


def test_check_refuses_t_past_double_resolution(capsys):
    # t_max is the largest t with ||tA||_1 <= 2^27 for all three exponentials of the default check;
    # past it the squarings' drift exceeds the checks' allowance, so the run fails before printing
    ns = parse_args(["check"])
    ops = build_operators(ns.params, ns.grid)
    norm = max(float(np.abs(M).sum(axis=0).max()) for M in (ops.adv_s_factor, ops.adv_v_factor, ops.diffusion))
    t_max = 2.0**27 / norm
    while t_max * norm > 2.0**27:
        t_max = math.nextafter(t_max, 0.0)
    while math.nextafter(t_max, math.inf) * norm <= 2.0**27:
        t_max = math.nextafter(t_max, math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        accepted = main(["check", "--t-samples", f"0,{t_max!r}"])
        captured = capsys.readouterr()
        assert (accepted, captured.err) == (0, "")
        refused = main(["check", "--t-samples", f"0,{math.nextafter(t_max, math.inf)!r}"])
    captured = capsys.readouterr()
    assert refused == 3
    assert captured.out == ""
    assert captured.err == f"numerical failure: {_UNRESOLVED}: ||tA||_1 = 1.34218e+08 > 2^27\n"


def test_check_exp_bound_past_double_range_holds(capsys):
    # e^{t kappa/2} at t = 800 exceeds every double; the norms on the left stay finite
    code = main(["check", "--m2", "3", "--t-samples", "0,800"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    row = next(line for line in captured.out.splitlines() if line.startswith("PASS adv_v_exp_bound[t=800]:"))
    assert row.endswith(" rhs=inf margin=inf")
    assert "FAIL" not in captured.out
