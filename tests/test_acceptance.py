"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  The default sweep (shared by the bound and growth
criteria) takes a couple of minutes; everything else runs in seconds.
"""

import math

import numpy as np
import pytest

from _oracles import (
    commutator_check,
    cubic_value,
    hermitian_lambda_max,
    loglog_slope,
    quartic_value,
    sigma_max,
    taylor_expm,
)
from hestonstab import (
    HestonParams,
    SweepConfig,
    build_operators,
    build_stencils,
    certificate_case_large_y,
    certificate_case_small_y,
    check_advection_bounds,
    check_block_toeplitz_symbol_bound,
    check_diffusion_contractivity,
    compare_L_effect,
    diffusion_block_reduction,
    expm,
    lambda_max_hermitian,
    log_norm_2,
    make_grid,
    run_sweep,
    scaling_diagonal,
    spectral_norm,
)
from hestonstab.linalg import _scale_similar
from hestonstab.stability import DEFAULT_Y_SAMPLES, _lambda_max_real_spectrum

R, KAPPA, ETA = 0.05, 2.0, 0.04


def _report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {status}: {label}{suffix}")
    assert ok, f"criterion {number} failed: {label}{suffix}"


@pytest.fixture(scope="module")
def default_sweep():
    records = run_sweep(SweepConfig())
    assert all(r.error == "" for r in records)
    return records


def test_criterion_1_advection_sharpness():
    params = HestonParams(r=R, kappa=KAPPA, eta=ETA, sigma=0.2, rho=0.0)
    worst = 0.0
    mu_s_values, mu_v_values = [], []
    for m in (3, 7, 15, 31):
        grid = make_grid(params, m, m)
        ops = build_operators(params, grid)
        c_s, c_v = check_advection_bounds(ops)
        sharp_s = 0.5 * R * math.cos(math.pi / (m + 1))
        sharp_v = 0.5 * KAPPA * math.cos(math.pi / (m + 1))
        worst = max(worst, abs(c_s.lhs - sharp_s), abs(c_v.lhs - sharp_v))
        mu_s_values.append(c_s.lhs)
        mu_v_values.append(c_v.lhs)
    monotone = (
        all(a < b for a, b in zip(mu_s_values, mu_s_values[1:]))
        and all(a < b for a, b in zip(mu_v_values, mu_v_values[1:]))
        and mu_s_values[-1] < 0.5 * R
        and mu_v_values[-1] < 0.5 * KAPPA
    )
    _report(
        1,
        "advection log norms match sharp closed forms and increase toward r/2, kappa/2",
        worst <= 1e-8 and monotone,
        f"max deviation {worst:.2e}",
    )


def test_criterion_2_diffusion_contractivity():
    t_samples = (0.0, 0.5, 1.0, 2.0, 5.0, 10.0)
    worst_mu = -math.inf
    worst_norm = -math.inf
    ok = True
    for sigma in (0.1, 0.2):
        for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
            for L in (0.0, 10.0):
                for m2 in (5, 9, 13):
                    params = HestonParams(r=R, kappa=KAPPA, eta=ETA, sigma=sigma, rho=rho, L=L)
                    grid = make_grid(params, 2 * m2, m2)
                    ops = build_operators(params, grid)
                    mu_check = check_diffusion_contractivity(ops)
                    scale = float(np.abs(ops.diffusion).max())
                    worst_mu = max(worst_mu, mu_check.lhs / scale)
                    ok &= mu_check.lhs <= 1e-8 * scale
                    d = scaling_diagonal(grid)
                    for t in t_samples:
                        norm_d = spectral_norm(_scale_similar(expm(ops.diffusion, t), d))
                        worst_norm = max(worst_norm, norm_d)
                        ok &= norm_d <= 1.0 + 1e-8
    _report(
        2,
        "diffusion part contractive in the scaled norm across the parameter box",
        ok,
        f"max mu_D/scale {worst_mu:.2e}, max scaled norm {worst_norm:.12f}",
    )


def test_criterion_3_spectral_norm_bound(default_sweep):
    worst = -math.inf
    ok = True
    for rec in default_sweep:
        bound = math.sqrt((rec.L + rec.m1 * rec.S) / (rec.m1 * rec.L + rec.S) * rec.m2)
        ok &= rec.max_norm2 <= bound + 1e-6
        worst = max(worst, rec.max_norm2 - bound)
    _report(
        3,
        "every sweep record obeys the truncation-ratio spectral norm bound",
        ok,
        f"worst excess {worst:.3e}",
    )


def test_criterion_4_growth_figure_properties(default_sweep):
    pair_checks = compare_L_effect(default_sweep)
    ok_pairs = all(c.holds for c in pair_checks)

    slopes_ok = True
    slope_detail = []
    for L, cap in ((0.0, 1.25), (10.0, 0.75)):
        for sigma in (0.1, 0.2):
            for rho in (-1.0, 0.0, 1.0):
                series = sorted(
                    (r for r in default_sweep if r.L == L and r.sigma == sigma and r.rho == rho),
                    key=lambda r: r.m2,
                )
                slope = loglog_slope([r.m2 for r in series], [r.max_norm2 for r in series])
                slopes_ok &= slope <= cap
                slope_detail.append(slope)

    argmax_ok = all(0.0 <= r.t_argmax <= 5.0 for r in default_sweep)
    _report(
        4,
        "barrier ordering, growth slopes, and argmax window of the sweep",
        ok_pairs and slopes_ok and argmax_ok,
        f"max slope {max(slope_detail):.3f}, max t* {max(r.t_argmax for r in default_sweep):.2f}",
    )


def test_criterion_5_certificate_chain():
    ok = True
    min_symbol_margin = math.inf
    for L in (0.0, 10.0):
        for m2 in (5, 7, 9, 11, 13, 15):
            params = HestonParams(r=R, kappa=KAPPA, eta=ETA, sigma=0.2, rho=0.0, L=L)
            grid = make_grid(params, 2 * m2, m2)
            ops = build_operators(params, grid)

            # collapsed family condition at every sampled y
            for y in DEFAULT_Y_SAMPLES:
                T = ops.diff_1d + (0.5 + 2j * y) * ops.adv_1d
                lam = _lambda_max_real_spectrum(T, "family")
                ok &= lam <= 2.0 * y**2 + 1e-8 * max(1.0, float(np.abs(T).max()))

            # case-split row certificates
            for y in DEFAULT_Y_SAMPLES:
                if abs(y) >= 0.5:
                    rows, check = certificate_case_large_y(ops, y)
                    theta = 4.0 * y**2
                    ok &= check.holds
                    for row in rows:
                        ok &= row.alpha + row.beta_mag + row.gamma_mag <= 2.0 * y**2 + 1e-8
                        ok &= quartic_value(row.nu, theta) >= 0.0
                else:
                    rows, check = certificate_case_small_y(ops, y)
                    ok &= check.holds
                    for row in rows[1:-1]:
                        if row.nu >= 2.0:
                            ok &= cubic_value(row.nu) >= 0.0
                            ok &= row.a <= 0.0
                            ok &= 2.0 * row.a + row.b <= 1.0 + 1e-12
                        ok &= abs(row.a - row.a_bracket) <= 1e-12

            # block-Toeplitz symbol inequality on the reduction blocks
            for sigma in (0.1, 0.2):
                for rho in (-1.0, 0.0, 1.0):
                    p2 = HestonParams(r=R, kappa=KAPPA, eta=ETA, sigma=sigma, rho=rho, L=L)
                    _, B0, B1 = diffusion_block_reduction(build_operators(p2, grid))
                    symbol_check = check_block_toeplitz_symbol_bound(B0, B1, grid.m2)
                    ok &= symbol_check.holds
                    min_symbol_margin = min(min_symbol_margin, symbol_check.margin)
    _report(
        5,
        "certificate chain holds on every sweep grid",
        ok,
        f"min symbol-bound margin {min_symbol_margin:.3e}",
    )


def test_criterion_6_kernel_oracles():
    rng = np.random.default_rng(123)
    ok = True
    worst_expm = 0.0
    for _ in range(10):
        A = rng.standard_normal((6, 6))
        E = expm(A, 0.7)
        T = taylor_expm(A, 0.7)
        err = float(np.abs(E - T).max() / max(1.0, np.abs(T).max()))
        worst_expm = max(worst_expm, err)
        ok &= err <= 1e-10

    worst_eig = 0.0
    for n in (4, 8, 16, 32):
        for seed in (0, 1):
            rng_n = np.random.default_rng(1000 * n + seed)
            A = rng_n.standard_normal((n, n))
            err_s = abs(spectral_norm(A) - sigma_max(A))
            H = 0.5 * (A + A.T)
            err_h = abs(lambda_max_hermitian(H) - hermitian_lambda_max(H))
            worst_eig = max(worst_eig, err_s, err_h)
            ok &= err_s <= 1e-8 and err_h <= 1e-8

    worst_comm = 0.0
    grids = []
    for L in (0.0, 10.0):
        params = HestonParams(r=R, kappa=KAPPA, eta=ETA, sigma=0.2, rho=0.0, L=L)
        grids.extend(make_grid(params, 2 * m2, m2) for m2 in (5, 7, 9, 11, 13, 15))
    params = HestonParams(r=R, kappa=KAPPA, eta=ETA, sigma=0.2, rho=0.0, L=10.0)
    grids.append(make_grid(params, 25, 5))
    params = HestonParams(r=R, kappa=KAPPA, eta=ETA, sigma=0.2, rho=0.0, S=math.pi * 100)
    grids.append(make_grid(params, 50, 5))
    for grid in grids:
        resid = commutator_check(build_stencils(grid), grid.s_points)
        worst_comm = max(worst_comm, resid)
        ok &= resid <= 1e-10
    _report(
        6,
        "expm, spectral norm, extreme eigenvalue, and commutator identity vs oracles",
        ok,
        f"expm {worst_expm:.1e}, eig {worst_eig:.1e}, commutator {worst_comm:.1e}",
    )


def test_criterion_7_log_norm_exponential_bound():
    rng = np.random.default_rng(2024)
    ok = True
    worst = -math.inf
    for _ in range(20):
        A = rng.standard_normal((10, 10))
        omega = log_norm_2(A)
        for t in (0.1, 1.0, 5.0):
            lhs = spectral_norm(expm(A, t))
            rhs = math.exp(t * omega)
            worst = max(worst, (lhs - rhs) / rhs)
            ok &= lhs <= rhs + 1e-8
    _report(
        7,
        "sampled exponential growth bounded by the log-norm rate",
        ok,
        f"worst relative excess {worst:.2e}",
    )
