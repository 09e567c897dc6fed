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
        (["check", "--m2", "3", "--t-samples", "1"], "unrecognized arguments: --t-samples 1"),
        (["check", "--m2", "3", "--t-samples=-1"], "unrecognized arguments: --t-samples=-1"),
        (["check", "--m2", "3", "--t-samples", "nan"], "unrecognized arguments: --t-samples nan"),
        (["check", "--m2", "3", "--t-samples", "inf"], "unrecognized arguments: --t-samples inf"),
        (["check", "--m2", "3", "--t-samples="], "unrecognized arguments: --t-samples="),
        (["check", "--m2", "3", "--t-samples", "1,1"], "unrecognized arguments: --t-samples 1,1"),
        (["check", "--m2", "3", "--t-samples", "1,1.0000001"],
         "unrecognized arguments: --t-samples 1,1.0000001"),
        (["check", "--m2", "3", "--tol", "1e300"], "unrecognized arguments: --tol 1e300"),
        (["certificate", "--m2", "3", "--tol", "1e-8"], "unrecognized arguments: --tol 1e-8"),
        (["sweep", "--m2-values", "3", "--tol=-inf"], "unrecognized arguments: --tol=-inf"),
        (["sweep", "--m2-values="], "non-empty"),
        (["sweep", "--sigma-values="], "non-empty"),
        (["sweep", "--rho-values="], "non-empty"),
        (["sweep", "--L-values="], "non-empty"),
        (["sweep", "--L-values", "0,0"], "repeated value 0.0 in the float list '0,0'"),
        (["sweep", "--L-values", "0,10,0.0"], "repeated value 0.0 in the float list"),
        (["sweep", "--m2-values", "3,3"], "repeated value 3 in the integer list '3,3'"),
        (["sweep", "--m2-values", "3", "--sigma-values", "0.1,0.1000001", "--rho-values", "0",
          "--L-values", "0", "--plot-dir", "D"],
         "values 0.1 and 0.1000001 both print as 0.1 in the float list '0.1,0.1000001'"),
        (["sweep", "--full"], "unrecognized arguments: --full"),
    ],
    ids=["check-t-samples", "t-neg", "t-nan", "t-inf", "empty-t", "repeat-t", "label-clash-t",
         "check-tol", "certificate-tol", "sweep-tol-neg-inf",
         "empty-m2", "empty-sigma", "empty-rho", "empty-L",
         "repeat-L", "repeat-L-after-cast", "repeat-m2", "label-clash-sigma", "sweep-full"],
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
    code = main(["check", "--m2", "3", "--m1", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS advection_s_log_norm" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("grid", [["--m2", "3"], ["--m2", "4", "--m1", "6"], ["--m2", "9", "--rho", "-1"]],
                         ids=["m2_3", "m2_4_m1_6", "m2_9_rho-1"])
def test_check_prints_exactly_its_three_certificates(grid, tmp_path, capsys):
    path = tmp_path / "checks.csv"
    code = main(["check", *grid, "--out", str(path)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    names = ["advection_s_log_norm", "advection_v_log_norm", "diffusion_log_norm_D"]
    assert [line.split(":")[0] for line in lines] == [f"PASS {name}" for name in names]
    assert [line.split(",")[0] for line in path.read_text().splitlines()] == ["name", *names]


def test_main_check_writes_csv(tmp_path, capsys):
    path = tmp_path / "checks.csv"
    code = main(["check", "--m2", "3", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,margin,tol,holds"
    assert len(lines) == 4


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
        ["check", "--m2", "3", "--out", "{missing}/checks.csv"],
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


def test_sweep_unresolved_exponential_is_a_failed_case(capsys):
    # ||A||_1 = 3.2e8 > 2^27: expm_samples refuses the scan's steps before any Pade work
    code = main(["sweep", "--m2-values", "3", "--sigma-values", "1e4", "--rho-values", "0",
                 "--L-values", "0"])
    assert code == 3
    assert capsys.readouterr().out == (
        "FAIL sweep[m2=3,L=0,sigma=10000,rho=0]: matrix exponential is not resolved in double "
        "precision: ||tA||_1 = 3.2e+08 > 2^27\n"
    )


def test_main_numerical_failure_exit_code(capsys):
    # an overflowing assembly fails the run before any check prints, and no numpy warning comes
    # ahead of the message
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["check", "--m2", "3", "--sigma", "1e154"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"numerical failure: {_ASSEMBLY_OVERFLOW}\n"
