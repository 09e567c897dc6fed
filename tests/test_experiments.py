import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from _oracles import loglog_slope, unit_upper_shear_sigma_max
from hestonstab import (
    HestonParams,
    SweepConfig,
    SweepRecord,
    build_operators,
    compare_L_effect,
    experiments,
    expm,
    linalg,
    make_grid,
    max_norm_over_t,
    run_sweep,
    spectral_norm,
)
from hestonstab.cli import main

BASE = dict(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=-0.5)


def test_max_norm_monotone_decay(monkeypatch):
    # the maximum sits at t = 0, where ||e^{0 A}||_2 = ||I||_2 is exactly 1
    params = HestonParams(**dict(BASE, sigma=0.2, rho=-1.0, L=0.0))
    diffusion = build_operators(params, make_grid(params, 10, 5)).diffusion
    monkeypatch.setattr(experiments, "_T_MAX", 20.0)
    for A in (-np.eye(3), diffusion):
        value, t_at = max_norm_over_t(A)
        assert value == 1.0
        assert t_at == 0.0


def test_max_norm_nilpotent_growth_closed_form(monkeypatch):
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    monkeypatch.setattr(experiments, "_T_MAX", 100.0)
    value, t_at = max_norm_over_t(A)
    assert t_at == pytest.approx(100.0, abs=1e-9)
    assert value == pytest.approx(unit_upper_shear_sigma_max(100.0), abs=1e-9)
    assert value == pytest.approx(100.01, abs=1e-2)


def test_max_norm_refinement_is_monotone(monkeypatch):
    params = HestonParams(**dict(BASE, rho=1.0))
    grid = make_grid(params, 10, 5)
    diffusion = build_operators(params, grid).diffusion
    monkeypatch.setattr(experiments, "_T_MAX", 20.0)
    monkeypatch.setattr(experiments, "_REFINE_LEVELS", 0)
    coarse, _ = max_norm_over_t(diffusion)
    monkeypatch.setattr(experiments, "_REFINE_LEVELS", 3)
    refined, t_at = max_norm_over_t(diffusion)
    assert refined >= coarse - 1e-12
    assert 0.0 <= t_at <= 5.0


def test_max_norm_overflow_identifies_t(monkeypatch):
    A = np.array([[40.0]])
    monkeypatch.setattr(experiments, "_T_MAX", 100.0)
    with pytest.raises(OverflowError, match="t ="):
        max_norm_over_t(A)


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
    def expansive(ops):
        return experiments.BoundCheck("diffusion_log_norm_D", 0.25, 0.0, 0.0)

    monkeypatch.setattr(experiments, "check_diffusion_contractivity", expansive)
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


def test_sweep_scan_above_the_certified_bound_is_a_failed_case(monkeypatch, capsys):
    # mu_D <= 0 proves max_t ||e^{tA}||_2 <= sqrt(cond D); a bound of 0.5 < ||I||_2 makes the
    # scan contradict it, which must fail the case (exit 3), not print a within-bound verdict
    monkeypatch.setattr(experiments, "_sqrt_cond", lambda d: 0.5)
    cfg = SweepConfig(m2_values=(3,), sigma_values=(0.1,), rho_values=(0.0,), L_values=(0.0,))
    (rec,) = run_sweep(cfg)
    message = "semigroup norm scan exceeds the certified bound: max_norm2 = 1 > sqrt(cond D) = 0.5"
    assert rec.error == message
    assert rec.bound == 0.5
    assert math.isnan(rec.max_norm2) and math.isnan(rec.t_argmax) and math.isnan(rec.max_normD)
    assert not rec.within_bound
    code = main(["sweep", "--m2-values", "3", "--sigma-values", "0.1", "--rho-values", "0",
                 "--L-values", "0"])
    out = capsys.readouterr().out
    assert code == 3
    assert out == f"FAIL sweep[m2=3,L=0,sigma=0.1,rho=0]: {message}\n"


def test_sweep_record_derives_max_normD_and_within_bound_from_error():
    names = [f.name for f in dataclasses.fields(SweepRecord)]
    assert "max_normD" not in names and "within_bound" not in names
    ok = SweepRecord(m2=3, m1=6, L=0.0, sigma=0.1, rho=0.0, S=800.0, V=5.0,
                     max_norm2=1.0, t_argmax=0.0, bound=4.0)
    failed = dataclasses.replace(ok, max_norm2=math.nan, t_argmax=math.nan, error="broken")
    assert ok.max_normD == 1.0 and ok.within_bound is True
    assert math.isnan(failed.max_normD) and failed.within_bound is False


def test_sweep_assembly_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("assembly bug")

    monkeypatch.setattr(experiments, "build_operators", broken)
    cfg = SweepConfig(m2_values=(3,), sigma_values=(0.1,), rho_values=(0.0,), L_values=(0.0,))
    with pytest.raises(ValueError, match="assembly bug"):
        run_sweep(cfg)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"rho_values": (0.0, 2.0)}, "correlation rho must lie in"),
        ({"sigma_values": (0.1, -0.2)}, "sigma must be positive"),
        ({"L_values": (0.0, 800.0)}, "need 0 <= L < S"),
        ({"m2_values": (9, 2)}, "all m2 values must be >= 3"),
        ({"m2_values": ()}, "m2_values must not be empty"),
        ({"sigma_values": ()}, "sigma_values must not be empty"),
        ({"rho_values": ()}, "rho_values must not be empty"),
        ({"L_values": ()}, "L_values must not be empty"),
        ({"m2_values": (9, 9.5)}, "all m2 values must be integers"),
    ],
)
def test_sweep_config_rejects_a_bad_combination_before_any_case_runs(fields, message, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a case ran")

    monkeypatch.setattr(experiments, "build_operators", never)
    base = dict(m2_values=(9,), sigma_values=(0.1,), rho_values=(0.0,), L_values=(0.0,))
    with pytest.raises(ValueError, match=message):
        run_sweep(SweepConfig(**{**base, **fields}))


_ASSEMBLY_OVERFLOW = "operator assembly overflowed: the operator has non-finite entries"
_SIMILARITY_OVERFLOW = "scaled log norm overflowed: D^{-1/2} A D^{1/2} has non-finite entries"


# at 3e153 the operator assembles finite and only its D-similarity overflows
@pytest.mark.parametrize("sigma,error", [(1e154, _ASSEMBLY_OVERFLOW), (1e155, _ASSEMBLY_OVERFLOW),
                                         (3e153, _SIMILARITY_OVERFLOW)],
                         ids=["1e+154", "1e+155", "3e+153"])
def test_sweep_overflowing_assembly_is_a_failed_case(sigma, error):
    cfg = SweepConfig(m2_values=(3,), sigma_values=(0.1, sigma), rho_values=(0.0,), L_values=(0.0,))
    ok, failed = run_sweep(cfg)
    assert ok.error == "" and ok.within_bound
    assert failed.sigma == sigma
    assert failed.error == error
    assert math.isnan(failed.max_norm2) and not failed.within_bound


def test_sweep_case_call_counts(monkeypatch):
    """One m2 = 5 case: one scan cut at the first contractive coarse sample, every stencil t
    decided once, and a norm evaluated only where it raises the running maximum."""
    calls = {"expm_squares": 0, "pade13": 0}
    sampled = []  # t of every sample after t = 0, in scan order
    proven = []  # t of every sample a Cholesky proof kept at or below the cut or the maximum
    evaluated = []  # t of every norm evaluation, by either kernel
    real_check = experiments._check_finite
    real_bounds = experiments._gram_bounds_norm

    def check(P, t):
        sampled.append(t)
        real_check(P, t)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def norm_at_last_sample(fn):
        def wrapper(*args, **kwargs):
            evaluated.append(sampled[-1])
            return fn(*args, **kwargs)

        return wrapper

    def bounds(G, e, b):
        holds = real_bounds(G, e, b)
        if holds:
            proven.append(sampled[-1])
        return holds

    monkeypatch.setattr(experiments, "_expm_squares", counted("expm_squares", experiments._expm_squares))
    monkeypatch.setattr(linalg, "_pade13", counted("pade13", linalg._pade13))
    monkeypatch.setattr(experiments, "_gram_bounds_norm", bounds)
    monkeypatch.setattr(experiments, "_gram_sigma_max", norm_at_last_sample(experiments._gram_sigma_max))
    monkeypatch.setattr(
        experiments, "_sigma_max_lanczos", norm_at_last_sample(experiments._sigma_max_lanczos)
    )
    monkeypatch.setattr(experiments, "_check_finite", check)
    cfg = SweepConfig(m2_values=(5,), sigma_values=(0.2,), rho_values=(1.0,), L_values=(0.0,))
    (rec,) = run_sweep(cfg)
    assert rec.error == ""
    # e^{A/64} and its squares e^{A/16}, e^{A/4} and e^{A} from one call and one Pade evaluation
    assert (calls["expm_squares"], calls["pade13"]) == (1, 1)
    params = HestonParams(**dict(BASE, sigma=0.2, rho=1.0))
    grid = make_grid(params, 10, 5)
    A = build_operators(params, grid).diffusion
    k_cut = next(k for k in range(1, 101) if np.linalg.svd(expm(A, k), compute_uv=False)[0] <= 1.0)
    assert (k_cut, rec.t_argmax) == (1, 5 / 64)
    # coarse: t = 1, proven contractive (the cut); levels 1 and 2 keep t_best = 0 and sample
    # [0, h_prev] less h_prev, sampled before; level 3 samples [0, 1/8] around t_best = 1/16
    # less 1/8, and does not decide 1/16 again
    earlier = [1.0] + [j / 4 for j in range(1, 4)] + [j / 16 for j in range(1, 4)]
    last = [j / 64 for j in range(1, 8)]
    assert sampled == earlier + last
    decided = earlier + [t for t in last if t != 1 / 16]
    assert sorted(proven + evaluated) == sorted(decided)
    assert len(set(proven + evaluated)) == len(decided) == 1 + 3 + 3 + 6
    # the samples that raise the running maximum, in scan order, by test-side SVDs
    raisers, running = [], 1.0
    for t in decided:
        sigma = np.linalg.svd(expm(A, t), compute_uv=False)[0]
        if sigma > running:
            raisers.append(t)
            running = sigma
    assert evaluated == raisers == [1 / 16, 5 / 64]


@pytest.mark.parametrize("m1,m2,V", [(3, 3, 0.5), (6, 3, 5.0)])
def test_scan_makes_one_pade_evaluation_at_any_norm(m1, m2, V, monkeypatch):
    params = HestonParams(**dict(BASE, sigma=0.1, rho=0.0), V=V)
    A = build_operators(params, make_grid(params, m1, m2)).diffusion
    pade = []
    real = linalg._pade13
    monkeypatch.setattr(linalg, "_pade13", lambda X: pade.append(X) or real(X))
    max_norm_over_t(A)
    assert len(pade) == 1
    # ||A||_1 = 4.45 at V = 0.5: no step is scaled, so expm would evaluate a Pade approximant
    # at each step's own hA; at V = 5, ||A||_1 = 191.3 and every step shares one scaled matrix
    norm_a = float(np.abs(A).sum(axis=0).max())
    assert (norm_a < 64 * linalg._THETA13 / 2) == (V == 0.5)


def test_max_norm_refuses_complex_input():
    # casting to float would drop 5j and report 1 at t = 0; the true maximum is about 1.916
    with pytest.raises(ValueError, match="complex"):
        max_norm_over_t(np.array([[-1.0, 5j], [0.0, -1.0]]))


def _reference_scan(A, t_max=100.0, levels=3):
    """The scan's grids with no cutoff and no kept matrices: an SVD of ``expm`` at every sample."""

    def norm(t):
        return np.linalg.svd(expm(A, t), compute_uv=False)[0]

    norms = [norm(float(k)) for k in range(int(t_max) + 1)]
    t_best = float(np.argmax(norms))
    best, h = norms[int(t_best)], 1.0
    for _ in range(levels):
        lo, hi, h = max(0.0, t_best - h), min(t_max, t_best + h), h / 4.0
        for j in range(1, int((hi - lo) / h) + 1):
            value = norm(lo + j * h)
            if value > best:
                best, t_best = value, lo + j * h
    return best, t_best, norms


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
    ref_value, ref_t, norms = _reference_scan(A)
    k_cut = next(k for k in range(1, 101) if norms[k] <= 1.0)
    # both norm kernels: dense SVDs at every order, then Lanczos at every order
    for dense_below in (math.inf, 0):
        sampled, evaluated = [], []
        kernel = "_gram_sigma_max" if dense_below else "_sigma_max_lanczos"
        norm = getattr(experiments, kernel)

        def recorded(*args, **kwargs):
            evaluated.append(sampled[-1])
            return norm(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiments, "_DENSE_BELOW", dense_below)
            mp.setattr(experiments, "_check_finite", lambda P, t: sampled.append(t))
            mp.setattr(experiments, kernel, recorded)
            value, t_at = max_norm_over_t(A)
            assert len(set(evaluated)) == len(evaluated)
            mp.setattr(experiments, "_REFINE_LEVELS", 0)
            _, coarse_argmax = max_norm_over_t(A)
        assert coarse_argmax == float(np.argmax(norms))
        assert abs(t_at - ref_t) <= 1e-11 * max(ref_t, 1.0)
        assert abs(value - ref_value) <= 1e-11 * ref_value
    # the sampled maximum bounds the semigroup past the cut and past t_max
    for t in (k_cut, 100.0, 1000.0):
        assert np.linalg.svd(expm(A, t), compute_uv=False)[0] <= value * (1 + 1e-12)


def test_scan_kernels_agree_at_order_162(monkeypatch):
    """On the 12 default m2 = 9 grids (n = 162, below ``_DENSE_BELOW``) the proved dense scan
    and the Lanczos scan find the same argmax, and maxima within 1e-15 relative."""
    runs = []
    for dense_below in (math.inf, 0):
        monkeypatch.setattr(experiments, "_DENSE_BELOW", dense_below)
        runs.append(run_sweep(SweepConfig(m2_values=(9,))))
    assert len(runs[0]) == 12
    for dense, lanczos in zip(*runs):
        assert dense.error == lanczos.error == ""
        assert dense.t_argmax == lanczos.t_argmax
        assert abs(dense.max_norm2 - lanczos.max_norm2) <= 1e-15 * lanczos.max_norm2


def test_scan_samples_are_the_semigroup_at_their_t(monkeypatch):
    """Each refinement level starts from the kept sample at t_best - h, also when the argmax
    carried over from the coarse pass survives the first level; no t is evaluated twice, and
    every evaluation is warm-started from the Ritz vector of the evaluation before it."""
    sampled = []
    evaluated = []  # (t, t of the sample whose vector is the warm start, 0 for none)

    def check(P, t):
        sampled.append((t, P[0, 0]))

    def peak_at_2(P, v0=None):
        # a stand-in norm of P = e^{t [1]} with its maximum exactly at the coarse sample t = 2;
        # its "Ritz vector" records the t it was taken at
        t = math.log(P[0, 0])
        evaluated.append((t, 0.0 if v0 is None else v0[0]))
        return 10.0 - (t - 2.0) ** 2, 1, np.array([t])

    monkeypatch.setattr(experiments, "_check_finite", check)
    monkeypatch.setattr(experiments, "_sigma_max_lanczos", peak_at_2)
    monkeypatch.setattr(experiments, "_DENSE_BELOW", 0)
    monkeypatch.setattr(experiments, "_T_MAX", 10.0)
    value, t_at = max_norm_over_t(np.array([[1.0]]))
    assert (value, t_at) == (10.0, 2.0)
    # per level 8 samples, the last of them (t_best + h_prev) sampled before
    assert len(sampled) == 10 + 3 * 7
    for t, p in sampled:
        assert p == pytest.approx(math.exp(t), rel=1e-12)
    ts = [t for t, _ in evaluated]
    assert len(set(ts)) == len(ts) == 10 + 3 * 6
    assert [warm for _, warm in evaluated] == [0.0, *ts[:-1]]


def test_refinement_evaluates_a_fixed_stencil_around_the_carried_argmax(monkeypatch):
    """A refinement of step h evaluates center +- {1, 2, 3} h around the argmax the pass before
    handed over, also when its own argmax moves left of that center; no t is evaluated twice."""
    sampled = []
    evaluated = []

    def peak_at_055(P, v0=None):
        # a stand-in norm of P = e^{t [1]} with its maximum at t = 0.55, between the samples
        # t = 0.5 and 1 of the first level, whose argmax moves from the coarse t = 1 to 0.5
        evaluated.append(sampled[-1])
        return 10.0 - (math.log(P[0, 0]) - 0.55) ** 2, 1, None

    monkeypatch.setattr(experiments, "_check_finite", lambda P, t: sampled.append(t))
    monkeypatch.setattr(experiments, "_sigma_max_lanczos", peak_at_055)
    monkeypatch.setattr(experiments, "_DENSE_BELOW", 0)
    monkeypatch.setattr(experiments, "_T_MAX", 10.0)
    value, t_at = max_norm_over_t(np.array([[1.0]]))
    assert t_at == 0.546875
    assert value == pytest.approx(10.0 - (0.546875 - 0.55) ** 2, rel=1e-12)
    assert len(set(evaluated)) == len(evaluated) == 10 + 3 * 6
    assert evaluated[:10] == [float(k) for k in range(1, 11)]
    levels = [evaluated[10 + 6 * j:16 + 6 * j] for j in range(3)]
    for center, h, ts in zip((1.0, 0.5, 0.5625), (1 / 4, 1 / 16, 1 / 64), levels):
        assert ts == [center + i * h for i in (-3, -2, -1, 1, 2, 3)]


def test_no_path_calls_dense_svd(monkeypatch):
    """The scan's Lanczos fallback is bitwise ``spectral_norm``, so a scan whose every Lanczos
    call falls back gives the dense path's result; neither the scan nor ``check`` reaches
    np.linalg.svd."""

    def svd(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    fallbacks = []
    kernel = experiments._sigma_max_lanczos

    def recorded(X, v0=None):
        sigma, steps, vec = kernel(X, v0)
        fallbacks.append((vec, steps, sigma == spectral_norm(X)))
        return sigma, steps, vec

    params = HestonParams(**dict(BASE, sigma=0.2, rho=1.0))
    A = build_operators(params, make_grid(params, 6, 3)).diffusion
    monkeypatch.setattr(np.linalg, "svd", svd)
    monkeypatch.setattr(experiments, "_DENSE_BELOW", math.inf)
    dense = max_norm_over_t(A)
    monkeypatch.setattr(experiments, "_DENSE_BELOW", 0)
    monkeypatch.setattr(experiments, "_sigma_max_lanczos", recorded)
    # no Ritz pair is accepted (with 0, a Ritz residual that is exactly 0 still would be)
    monkeypatch.setattr(linalg, "_LANCZOS_TOL", -1.0)
    assert max_norm_over_t(A) == dense
    assert fallbacks and all(f == (None, A.shape[0], True) for f in fallbacks)
    assert main(["check", "--m2", "3"]) == 0


def test_lanczos_path_scan_leaves_numpy_random_unloaded():
    # n = 22 * 11 = 242: every sample of the scan takes the Lanczos kernel, from a cold start first
    assert 22 * 11 >= experiments._DENSE_BELOW
    code = (
        "import sys\n"
        "from hestonstab import HestonParams, build_operators, make_grid, max_norm_over_t\n"
        "params = HestonParams(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=-0.5)\n"
        "max_norm_over_t(build_operators(params, make_grid(params, 22, 11)).diffusion)\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_max_norm_samples_stay_within_t_max(monkeypatch):
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    monkeypatch.setattr(experiments, "_T_MAX", 2.625)
    value, t_at = max_norm_over_t(A)
    assert t_at == 2.625
    # e^{2.625 A} = [[1, 2.625], [0, 1]]
    assert value == pytest.approx(unit_upper_shear_sigma_max(2.625), rel=1e-12)


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
