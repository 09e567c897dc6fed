import numpy as np
import pytest

from hestonstab import BoundCheck, SweepRecord, experiments
from hestonstab.cli import emit_plot_data, main, parse_args, write_csv


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_sweep_defaults_match_reference_sets():
    cfg = parse_args(["sweep"])
    assert cfg.m2_values == (5, 7, 9, 11, 13, 15)
    assert cfg.sigma_values == (0.1, 0.2)
    assert cfg.rho_values == (-1.0, 0.0, 1.0)
    assert cfg.L_values == (0.0, 10.0)
    assert cfg.S == 800.0 and cfg.V == 5.0


def test_sweep_full_flag_extends_meshes():
    cfg = parse_args(["sweep", "--full"])
    assert cfg.m2_values == tuple(range(5, 26, 2))


def test_check_flag_mapping():
    cfg = parse_args(
        ["check", "--r", "0.05", "--kappa", "2", "--eta", "0.04", "--sigma", "0.2",
         "--rho", "-0.5", "--m2", "5"]
    )
    assert cfg.command == "check"
    assert cfg.rho == -0.5
    assert cfg.m2 == 5
    assert cfg.resolved_m1() == 10  # defaults to 2 * m2


def test_explicit_m1_override():
    cfg = parse_args(["check", "--m1", "7", "--m2", "5"])
    assert cfg.resolved_m1() == 7


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
    ],
    ids=["rho-1.5", "r-inf", "S-inf", "kappa-nan", "L-neg-inf", "V-inf", "sigma-inf"],
)
def test_invalid_param_exits_with_usage_error(argv, message, capsys):
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
    assert cfg.m2_values == (5, 9)
    assert cfg.sigma_values == (0.2,)
    assert cfg.rho_values == (-1.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--rho", "-1", "--m2", "4"],
        ["sweep", "--m2-values", "5", "--sigma-values", "0.1", "--rho-values", "0", "--L-values", "0,10"],
        ["certificate", "--m2", "4", "--L", "10"],
        ["operators", "--which", "diffusion", "--m2", "4"],
    ],
)
def test_round_trip_canonical_argv(argv):
    cfg = parse_args(argv)
    assert parse_args(cfg.to_argv()) == cfg


# ---------------------------------------------------------------------------
# CSV and plot data
# ---------------------------------------------------------------------------

def _record(m2=5, L=0.0, sigma=0.1, rho=0.0, max_norm2=1.25):
    return SweepRecord(
        m2=m2, m1=2 * m2, L=L, sigma=sigma, rho=rho, S=800.0, V=5.0,
        max_norm2=max_norm2, t_argmax=1.5, max_normD=1.0,
        bound=10.0, within_bound=True,
    )


def test_write_csv_empty_is_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv([], path)
    assert path.read_text() == (
        "m2,m1,L,sigma,rho,S,V,max_norm2,t_argmax,max_normD,bound,within_bound\n"
    )


def test_write_csv_single_record(tmp_path):
    path = tmp_path / "one.csv"
    write_csv([_record()], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert fields[0] == "5" and fields[1] == "10"
    assert fields[-1] == "true"
    assert float(fields[7]) == 1.25


def test_write_csv_17_digit_floats(tmp_path):
    value = 1.0 + 2.0 ** -45
    path = tmp_path / "precise.csv"
    write_csv([_record(max_norm2=value)], path)
    text = path.read_text()
    assert f"{value:.17g}" in text
    assert float(text.splitlines()[1].split(",")[7]) == value


def test_write_csv_checks(tmp_path):
    path = tmp_path / "checks.csv"
    checks = [BoundCheck("sample_check", 0.5, 1.0, 1e-8)]
    write_csv(checks, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "name,lhs,rhs,margin,tol,holds"
    assert lines[1].startswith("sample_check,0.5,1,0.5,")
    assert lines[1].endswith("true")


def test_write_csv_deterministic(tmp_path):
    records = [_record(m2=m2, L=L) for m2 in (5, 7) for L in (0.0, 10.0)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(records, p1)
    write_csv(records, p2)
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


def test_main_check_negative_tolerance_forces_failure(capsys):
    # a negative tolerance override demands a strictly positive margin of
    # that size, so the near-sharp advection check must fail: exit code 1
    code = main(["check", "--m2", "3", "--t-samples", "0", "--tol", "-0.5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in out


def test_main_certificate(tmp_path, capsys):
    path = tmp_path / "report.txt"
    code = main(["certificate", "--m2", "4", "--m1", "6", "--rho", "0.9", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    text = path.read_text()
    assert "row i=1" in text
    assert "holds=true" in text


def test_main_operators_dump(tmp_path, capsys):
    path = tmp_path / "diffusion.txt"
    code = main(["operators", "--which", "diffusion", "--m2", "3", "--m1", "4", "--out", str(path)])
    capsys.readouterr()
    assert code == 0
    M = np.loadtxt(path)
    assert M.shape == (12, 12)


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

    monkeypatch.setattr(experiments, "_scan_norms", overflow)
    code = main(["sweep", "--m2-values", "3", "--sigma-values", "0.1", "--rho-values", "0",
                 "--L-values", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert "FAIL sweep[m2=3,L=0,sigma=0.1,rho=0]: semigroup norm scan overflowed at t = 7" in out


def test_main_numerical_failure_exit_code(capsys):
    # t large enough that the advection exponential overflows double range
    code = main(["check", "--m2", "3", "--t-samples", "0,1e7"])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical failure" in err
