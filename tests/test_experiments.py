import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import loglog_slope, unit_upper_shear_sigma_max
from hestonstab import (
    HestonParams,
    NormReport,
    SweepConfig,
    build_operators,
    compare_L_effect,
    experiments,
    expm,
    log_norm_D,
    make_grid,
    max_norm_over_t,
    run_sweep,
    scaling_diagonal,
)
from hestonstab.cli import main

BASE = dict(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=-0.5)


def test_max_norm_monotone_decay():
    value, t_at = max_norm_over_t(-np.eye(3), t_max=20.0)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert t_at == 0.0


def test_max_norm_nilpotent_growth_closed_form():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    value, t_at = max_norm_over_t(A, t_max=100.0)
    assert t_at == pytest.approx(100.0, abs=1e-9)
    assert value == pytest.approx(unit_upper_shear_sigma_max(100.0), abs=1e-9)
    assert value == pytest.approx(100.01, abs=1e-2)


def test_max_norm_refinement_is_monotone():
    params = HestonParams(**dict(BASE, rho=1.0))
    grid = make_grid(params, 10, 5)
    diffusion = build_operators(params, grid).diffusion
    coarse, _ = max_norm_over_t(diffusion, t_max=20.0, refine_levels=0)
    refined, t_at = max_norm_over_t(diffusion, t_max=20.0, refine_levels=2)
    assert refined >= coarse - 1e-12
    assert 0.0 <= t_at <= 5.0


def test_max_norm_input_validation():
    with pytest.raises(ValueError):
        max_norm_over_t(np.eye(2), t_max=0.0)
    with pytest.raises(ValueError):
        max_norm_over_t(np.eye(2), coarse_step=-1.0)


def test_max_norm_overflow_identifies_t():
    A = np.array([[40.0]])
    with pytest.raises(OverflowError, match="t ="):
        max_norm_over_t(A, t_max=100.0)


@pytest.fixture(scope="module")
def small_sweep():
    cfg = SweepConfig(m2_values=(5, 7), sigma_values=(0.1,), rho_values=(0.0, 1.0), L_values=(0.0, 10.0))
    return cfg, run_sweep(cfg)


def test_sweep_covers_all_combinations_in_order(small_sweep):
    cfg, records = small_sweep
    assert len(records) == 8
    keys = [(r.L, r.sigma, r.rho, r.m2) for r in records]
    assert keys == sorted(keys)
    assert all(r.m1 == 2 * r.m2 for r in records)
    assert all(r.error == "" for r in records)


def test_sweep_records_within_bound(small_sweep):
    _, records = small_sweep
    for r in records:
        assert r.within_bound
        assert r.max_norm2 >= 1.0 - 1e-12
        assert r.max_norm2 <= r.bound + 1e-6
        assert r.max_normD <= 1.0 + 1e-8


def test_sweep_max_normD_is_the_certified_one(small_sweep):
    _, records = small_sweep
    assert all(r.max_normD == 1.0 for r in records)


def test_sweep_positive_mu_D_is_a_failed_case(monkeypatch, capsys):
    def expansive(A, D):
        return NormReport(0.25, "lapack", 0, 0.0, True)

    monkeypatch.setattr(experiments, "log_norm_D", expansive)
    cfg = SweepConfig(m2_values=(3,), sigma_values=(0.1,), rho_values=(0.0,), L_values=(0.0,))
    (rec,) = run_sweep(cfg)
    assert "mu_D = 0.25 > 0" in rec.error
    assert math.isnan(rec.max_norm2) and math.isnan(rec.max_normD) and not rec.within_bound
    code = main(["sweep", "--m2-values", "3", "--sigma-values", "0.1", "--rho-values", "0",
                 "--L-values", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert (
        "FAIL sweep[m2=3,L=0,sigma=0.1,rho=0]: "
        "diffusion is not contractive in the D-norm: mu_D = 0.25 > 0"
    ) in out


def test_sweep_assembly_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("assembly bug")

    monkeypatch.setattr(experiments, "build_operators", broken)
    cfg = SweepConfig(m2_values=(3,), sigma_values=(0.1,), rho_values=(0.0,), L_values=(0.0,))
    with pytest.raises(ValueError, match="assembly bug"):
        run_sweep(cfg)


def test_sweep_case_call_counts(monkeypatch):
    """One m2 = 5 case: one scan with a certified cutoff, no scaled-norm scan."""
    calls = {"expm": 0, "lanczos": 0}
    tails = []
    real_scan = experiments._scan_norms

    def scan(A, tracker, t_max, coarse_step, refine_levels, tail=None):
        tails.append(tail)
        real_scan(A, tracker, t_max, coarse_step, refine_levels, tail)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(experiments, "expm", counted("expm", experiments.expm))
    monkeypatch.setattr(
        experiments, "_sigma_max_lanczos", counted("lanczos", experiments._sigma_max_lanczos)
    )
    monkeypatch.setattr(experiments, "_scan_norms", scan)
    cfg = SweepConfig(m2_values=(5,), sigma_values=(0.1,), rho_values=(1.0,), L_values=(0.0,))
    (rec,) = run_sweep(cfg)
    assert rec.error == ""
    params = HestonParams(**dict(BASE, sigma=0.1, rho=1.0))
    grid = make_grid(params, 10, 5)
    d = scaling_diagonal(grid)
    mu = log_norm_D(build_operators(params, grid).diffusion, d).value
    assert tails == [(math.sqrt(d.max() / d.min()), mu)]
    n_steps = round(experiments._T_MAX / experiments._COARSE_STEP)
    assert calls["expm"] <= 1 + 2 * experiments._REFINE_LEVELS
    assert calls["lanczos"] < (2 * (n_steps + 1)) / 2


@settings(max_examples=15, derandomize=True, deadline=None)
@given(
    rho=st.floats(-1.0, 1.0),
    sigma=st.floats(0.05, 1.0),
    L=st.floats(0.0, 400.0),
    m2=st.integers(3, 6),
)
def test_certified_cutoff_changes_nothing(rho, sigma, L, m2):
    params = HestonParams(**dict(BASE, sigma=sigma, rho=rho), L=L, S=800.0)
    grid = make_grid(params, 2 * m2, m2)
    A = build_operators(params, grid).diffusion
    d = scaling_diagonal(grid)
    mu = log_norm_D(A, d).value
    c = math.sqrt(d.max() / d.min())
    assert mu <= 0.0
    cut, full = experiments._NormTracker(), experiments._NormTracker()
    experiments._scan_norms(A, cut, 100.0, 1.0, 2, tail=(c, mu))
    experiments._scan_norms(A, full, 100.0, 1.0, 2)
    assert cut.t_best == full.t_best
    assert abs(cut.best - full.best) <= 1e-14 * full.best
    # the tail bound holds at samples past the first t where it drops below the maximum
    k_cut = next(k for k in range(1, 101) if c * math.exp(k * mu) < cut.best)
    for t in (k_cut, 0.5 * (k_cut + 100), 100.0):
        assert np.linalg.svd(expm(A, t), compute_uv=False)[0] <= c * math.exp(t * mu) * (1 + 1e-12)


def test_sweep_bound_formula(small_sweep):
    _, records = small_sweep
    for r in records:
        expected = math.sqrt((r.L + r.m1 * r.S) / (r.m1 * r.L + r.S) * r.m2)
        assert r.bound == pytest.approx(expected, rel=1e-12)
        if r.L == 0.0:
            assert r.bound == pytest.approx(math.sqrt(r.m1 * r.m2), rel=1e-12)


def test_sweep_barrier_comparison(small_sweep):
    _, records = small_sweep
    checks = compare_L_effect(records)
    assert len(checks) == 4
    assert all(c.holds for c in checks)


def test_compare_L_effect_identical_records_zero_margin(small_sweep):
    _, records = small_sweep
    low = [r for r in records if r.L == 0.0]
    moved = [r.__class__(**{**r.__dict__, "L": 10.0}) for r in low]
    checks = compare_L_effect(low + moved)
    assert all(c.margin == 0.0 for c in checks)


def test_compare_L_effect_missing_pairs(small_sweep):
    _, records = small_sweep
    only_low = [r for r in records if r.L == 0.0]
    with pytest.raises(ValueError, match="missing"):
        compare_L_effect(only_low)


def test_loglog_slope_recovers_power_law():
    xs = np.array([5.0, 7.0, 9.0, 11.0])
    ys = 3.0 * xs**1.7
    assert loglog_slope(xs, ys) == pytest.approx(1.7, abs=1e-12)


def test_full_mesh_list():
    assert SweepConfig.full_m2_values() == tuple(range(5, 26, 2))
