import cmath
import dataclasses
import math

import numpy as np
import pytest

from _oracles import (
    cubic_value,
    hermitian_lambda_max,
    quartic_value,
    small_y_row_coefficients,
    symbol_matrix,
)
from hestonstab import (
    HestonParams,
    build_operators,
    certificate_case_large_y,
    certificate_case_small_y,
    check_advection_bounds,
    check_block_toeplitz_symbol_bound,
    check_diffusion_contractivity,
    check_symbol_conditions,
    diffusion_block_reduction,
    format_certificate_report,
    log_norm_2,
    log_norm_D,
    log_norm_inf,
    make_grid,
    operator_block,
    scaling_diagonal,
)
from hestonstab import stability

BASE = dict(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=-0.5)


def _setup(m1=10, m2=5, **extra):
    params = HestonParams(**dict(BASE, **extra))
    grid = make_grid(params, m1, m2)
    return params, grid, build_operators(params, grid)


# ---------------------------------------------------------------------------
# advection bounds
# ---------------------------------------------------------------------------

def test_advection_bounds_small_grid_values():
    params, grid, ops = _setup(m1=3, m2=3)
    c_s, c_v = check_advection_bounds(ops)
    # closed forms: (r/2) cos(pi/4) and (kappa/2) cos(pi/4)
    assert c_s.lhs == pytest.approx(0.025 * math.cos(math.pi / 4.0), abs=1e-10)
    assert c_s.lhs == pytest.approx(0.017677669529663688, abs=1e-9)
    assert c_v.lhs == pytest.approx(0.7071067811865476, abs=1e-9)
    assert c_s.holds and c_v.holds
    assert c_s.rhs == pytest.approx(0.025) and c_v.rhs == pytest.approx(1.0)


def test_advection_bounds_match_jacobi_oracle():
    params, grid, ops = _setup(m1=4, m2=3)
    c_s, c_v = check_advection_bounds(ops)
    adv_s, adv_v = operator_block(ops, "adv-s"), operator_block(ops, "adv-v")
    assert c_s.lhs == pytest.approx(hermitian_lambda_max(0.5 * (adv_s + adv_s.T)), abs=1e-8)
    assert c_v.lhs == pytest.approx(hermitian_lambda_max(0.5 * (adv_v + adv_v.T)), abs=1e-8)


def test_advection_log_norm_monotone_in_mesh():
    values = []
    for m1 in (3, 7, 15):
        params, grid, ops = _setup(m1=m1, m2=3)
        c_s, _ = check_advection_bounds(ops)
        values.append(c_s.lhs)
        assert c_s.lhs < 0.5 * params.r
    assert values[0] < values[1] < values[2]


@pytest.mark.parametrize(
    "m1,m2,extra",
    [(6, 3, {}), (5, 4, {"rho": 0.3}), (8, 4, {"rho": -1.0, "L": 10.0, "sigma": 0.1})],
    ids=["m1=2m2", "m1!=2m2", "rho=-1,L=10"],
)
def test_advection_factors_give_the_dense_blocks_results(m1, m2, extra):
    params, grid, ops = _setup(m1=m1, m2=m2, **extra)
    adv_s, adv_v = operator_block(ops, "adv-s"), operator_block(ops, "adv-v")
    np.testing.assert_array_equal(adv_s, np.kron(np.eye(m2), ops.adv_s_factor))
    np.testing.assert_array_equal(adv_v, np.kron(ops.adv_v_factor, np.eye(m1)))

    c_s, c_v = check_advection_bounds(ops)
    assert c_s.lhs == pytest.approx(hermitian_lambda_max(0.5 * (adv_s + adv_s.T)), abs=1e-10)
    assert c_v.lhs == pytest.approx(hermitian_lambda_max(0.5 * (adv_v + adv_v.T)), abs=1e-10)


# ---------------------------------------------------------------------------
# diffusion contractivity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [0.0, 1.0, -1.0])
def test_diffusion_contractivity(rho):
    params, grid, ops = _setup(m1=10, m2=5, rho=rho)
    check = check_diffusion_contractivity(ops)
    assert check.name == "diffusion_log_norm_D"
    assert check.lhs == log_norm_D(ops.diffusion, scaling_diagonal(grid))
    assert check.rhs == 0.0 and check.tol == 1e-8 * np.abs(ops.diffusion).max()
    assert check.holds
    assert check.lhs <= 1e-8 * np.abs(ops.diffusion).max()


# ---------------------------------------------------------------------------
# symbol machinery
# ---------------------------------------------------------------------------

def test_symbol_matrix_special_points():
    rng = np.random.default_rng(0)
    B0 = rng.standard_normal((4, 4))
    B1 = rng.standard_normal((4, 4))
    np.testing.assert_allclose(symbol_matrix(B0, B1, 1.0), B0 + B1 + B1.T, atol=1e-14)
    np.testing.assert_allclose(symbol_matrix(B0, B1, -1.0), B0 - B1 - B1.T, atol=1e-14)


def test_symbol_matrix_rejects_off_circle():
    with pytest.raises(ValueError):
        symbol_matrix(np.eye(2), np.eye(2), 1.1)


@pytest.mark.parametrize("seed", [0, 1])
def test_symbol_and_companion_share_log_norm(seed):
    rng = np.random.default_rng(seed)
    B0 = rng.standard_normal((5, 5))
    B1 = rng.standard_normal((5, 5))
    for k in range(16):
        zeta = cmath.exp(2j * math.pi * k / 16)
        full = log_norm_2(symbol_matrix(B0, B1, zeta))
        hat = log_norm_2(B0 + 2.0 * zeta * B1)  # the companion the symbol bound samples
        assert full == pytest.approx(hat, abs=1e-9)


def test_block_toeplitz_bound_zero_offdiagonal():
    rng = np.random.default_rng(3)
    B0 = rng.standard_normal((4, 4))
    check = check_block_toeplitz_symbol_bound(B0, np.zeros((4, 4)), n_blocks=5)
    assert check.holds
    assert check.lhs == pytest.approx(check.rhs, abs=1e-8)


def test_block_toeplitz_bound_scalar_shift():
    # B0 = 0, B1 = [[1]]: the assembled matrix is tridiag(1, 0, 1)
    for n in (4, 9):
        check = check_block_toeplitz_symbol_bound(np.zeros((1, 1)), np.eye(1), n_blocks=n)
        assert check.lhs == pytest.approx(2.0 * math.cos(math.pi / (n + 1)), abs=1e-9)
        assert check.rhs == pytest.approx(2.0, abs=1e-12)
        assert check.holds


def test_block_toeplitz_bound_on_reduction_blocks():
    params, grid, ops = _setup(m1=6, m2=4, rho=0.7)
    _, B0, B1 = diffusion_block_reduction(ops)
    check = check_block_toeplitz_symbol_bound(B0, B1, n_blocks=grid.m2)
    assert check.holds


@pytest.mark.parametrize("seed", [0, 1])
def test_block_toeplitz_rhs_matches_every_sample_solved(seed):
    # the bound solves k = 0 ... 32 only; the conjugate samples must give the same maximum
    rng = np.random.default_rng(seed)
    B0 = rng.standard_normal((6, 6))
    B1 = rng.standard_normal((6, 6))
    direct = max(
        float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[-1])
        for M in (B0 + 2.0 * cmath.exp(2j * math.pi * k / 64) * B1 for k in range(64))
    )
    check = check_block_toeplitz_symbol_bound(B0, B1, n_blocks=3)
    scale = max(1.0, float(np.abs(B0).max()), float(np.abs(B1).max()))
    assert abs(check.rhs - direct) <= 1e-12 * scale


def test_block_toeplitz_bound_input_validation():
    with pytest.raises(ValueError):
        check_block_toeplitz_symbol_bound(np.eye(2), np.eye(2), n_blocks=1)
    with pytest.raises(ValueError, match=r"shapes \(2, 2\) and \(3, 3\)"):
        check_block_toeplitz_symbol_bound(np.eye(2), np.eye(3), n_blocks=3)
    with pytest.raises(ValueError, match=r"shapes \(2, 3\) and \(2, 3\)"):
        check_block_toeplitz_symbol_bound(np.ones((2, 3)), np.ones((2, 3)), n_blocks=3)
    with pytest.raises(ValueError, match=r"shapes \(2,\) and \(2,\)"):
        check_block_toeplitz_symbol_bound(np.ones(2), np.ones(2), n_blocks=3)


# ---------------------------------------------------------------------------
# block reduction of the diffusion part
# ---------------------------------------------------------------------------

def test_reduction_zero_correlation_offdiagonal_block():
    params, grid, ops = _setup(rho=0.0)
    _, _, B1 = diffusion_block_reduction(ops)
    sv = params.sigma / grid.dv
    np.testing.assert_allclose(B1, 0.5 * sv**2 * np.eye(grid.m1), atol=1e-14 * sv**2)


def test_reduction_transpose_block_consistency():
    params, grid, ops = _setup(rho=0.9)
    _, _, B1 = diffusion_block_reduction(ops)
    sv = params.sigma / grid.dv
    expected = 0.5 * (-params.rho * sv * ops.adv_sym + sv**2 * np.eye(grid.m1))
    np.testing.assert_allclose(B1.T, expected, atol=1e-12 * max(1.0, np.abs(B1).max()))


def test_reduction_rejects_operators_of_another_grid():
    _, _, ops = _setup(m1=6, m2=4, rho=0.5)
    _, _, other = _setup(m1=6, m2=4, rho=0.5, L=10.0)
    with pytest.raises(ValueError, match="block assembly disagrees"):
        diffusion_block_reduction(dataclasses.replace(ops, diffusion=other.diffusion))


@pytest.mark.parametrize("rho,L", [(0.0, 0.0), (1.0, 0.0), (-0.6, 10.0)])
def test_reduction_sign_equivalence_with_scaled_log_norm(rho, L):
    params, grid, ops = _setup(m1=8, m2=4, rho=rho, L=L)
    B, _, _ = diffusion_block_reduction(ops)
    mu_B = log_norm_2(B)
    mu_D = log_norm_D(ops.diffusion, scaling_diagonal(grid))
    tol = 1e-8 * max(1.0, np.abs(B).max())
    assert (mu_B <= tol) == (mu_D <= tol)


# ---------------------------------------------------------------------------
# symbol conditions on the unit circle and the collapsed family
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma,rho", [(0.1, -1.0), (0.2, 0.5), (0.2, 1.0)])
def test_symbol_conditions_hold(sigma, rho):
    _, _, ops = _setup(m1=8, m2=4, sigma=sigma, rho=rho)
    checks = check_symbol_conditions(ops)
    assert checks
    assert all(c.holds for c in checks)


def test_symbol_condition_at_zeta_one_has_zero_rhs():
    _, _, ops = _setup(m1=6, m2=4)
    checks = check_symbol_conditions(ops)
    at_one = [c for c in checks if c.name.startswith("scaled_symbol_cond[zeta=0/")]
    assert len(at_one) == 1
    assert at_one[0].rhs == 0.0
    assert at_one[0].lhs <= at_one[0].tol


@pytest.mark.parametrize("rho", [-0.7, 1.0])
def test_symbol_conditions_match_every_sample_solved(rho):
    # one solve per zeta and per y, against the values shared between conjugate samples
    params, grid, ops = _setup(m1=8, m2=5, rho=rho)
    sv = params.sigma / grid.dv
    sym_part = 0.5 * (ops.diff_sym + ops.diff_sym.T)
    scale = max(1.0, float(np.abs(ops.diff_sym).max()))
    checks = check_symbol_conditions(ops)
    for k in range(64):
        im = cmath.exp(2j * math.pi * k / 64).imag
        herm = sym_part + 2j * im * rho * sv * ops.adv_sym
        T = ops.diff_1d + 0.5 * ops.adv_1d + 1j * im * rho * sv * ops.adv_1d
        check_a, check_b = checks[2 * k], checks[2 * k + 1]
        assert check_a.name == f"scaled_symbol_cond[zeta={k}/64]"
        assert abs(check_a.lhs - float(np.linalg.eigvalsh(herm)[-1])) <= 1e-12 * scale
        assert abs(check_b.lhs - float(np.linalg.eigvals(T).real.max())) <= 1e-12 * scale
    family = checks[128:]
    assert len(family) == len(stability.DEFAULT_Y_SAMPLES)
    for check, y in zip(family, stability.DEFAULT_Y_SAMPLES):
        T = ops.diff_1d + (0.5 + 2j * y) * ops.adv_1d
        assert abs(check.lhs - float(np.linalg.eigvals(T).real.max())) <= 1e-12 * scale


def test_family_condition_at_y_zero():
    _, _, ops = _setup(m1=8, m2=4)
    T = ops.diff_1d + 0.5 * ops.adv_1d
    evals = np.linalg.eigvals(T)
    assert float(evals.real.max()) <= 1e-8 * max(1.0, np.abs(T).max())


def test_family_condition_large_y_has_margin(monkeypatch):
    _, _, ops = _setup(m1=8, m2=4)
    monkeypatch.setattr(stability, "DEFAULT_Y_SAMPLES", (5.0, -5.0))
    checks = check_symbol_conditions(ops)
    family = [c for c in checks if c.name.startswith("tridiag_family_cond")]
    assert len(family) == 2
    for c in family:
        assert c.holds
        assert c.margin > 10.0


# ---------------------------------------------------------------------------
# certificate: case |y| >= 1/2
# ---------------------------------------------------------------------------

def test_large_y_wrong_branch_rejected():
    _, _, ops = _setup()
    with pytest.raises(ValueError):
        certificate_case_large_y(ops, 0.49)


def test_quartic_at_theta_one():
    # theta = 1: quartic collapses to 3 nu^2 + 1
    for nu in (1.0, 2.0, 7.5):
        assert quartic_value(nu, 1.0) == pytest.approx(3.0 * nu**2 + 1.0)


def test_quartic_frozen_value():
    assert quartic_value(2.0, 4.0) == pytest.approx(1984.0)
    assert quartic_value(2.0, 4.0) == pytest.approx(768.0 + 960.0 + 256.0)


def test_large_y_rows_match_family_matrix():
    _, _, ops = _setup(m1=6, m2=4, L=10.0)
    y = 0.8
    rows, check = certificate_case_large_y(ops, y)
    T = ops.diff_1d + (0.5 + 2j * y) * ops.adv_1d
    for idx, row in enumerate(rows):
        assert row.alpha == pytest.approx(float(T[idx, idx].real), rel=1e-12)
        if idx > 0:
            assert row.beta_mag == pytest.approx(abs(T[idx, idx - 1]), rel=1e-12)
        else:
            assert row.beta_mag == 0.0
        if idx < ops.grid.m1 - 1:
            assert row.gamma_mag == pytest.approx(abs(T[idx, idx + 1]), rel=1e-12)
        else:
            assert row.gamma_mag == 0.0
    assert check.lhs == pytest.approx(log_norm_inf(T), rel=1e-12)


@pytest.mark.parametrize("y", [0.5, 0.6, 1.0, 5.0, -0.5, -2.0])
def test_large_y_certificate_holds(y):
    _, _, ops = _setup(m1=10, m2=5)
    rows, check = certificate_case_large_y(ops, y)
    assert check.holds
    theta = 4.0 * y**2
    for row in rows:
        assert row.alpha + row.beta_mag + row.gamma_mag <= 2.0 * y**2 + 1e-8
        assert quartic_value(row.nu, theta) >= 0.0
        assert row.theta == pytest.approx(theta)


# ---------------------------------------------------------------------------
# certificate: case |y| < 1/2
# ---------------------------------------------------------------------------

def test_small_y_wrong_branch_rejected():
    _, _, ops = _setup()
    with pytest.raises(ValueError):
        certificate_case_small_y(ops, 0.5)


def test_small_y_frozen_values_at_nu_two():
    # L = 0 grid has nu_i = i, so row 2 carries nu = 2
    _, _, ops = _setup(m1=10, m2=5, L=0.0)
    rows, _ = certificate_case_small_y(ops, 0.1)
    row = rows[1]
    assert row.nu == pytest.approx(2.0, abs=1e-12)
    assert row.eps == pytest.approx(0.9375, abs=1e-12)
    assert row.a == pytest.approx(-0.15625 / 7.0, abs=1e-12)
    assert row.a == pytest.approx(-0.022321428571428572, abs=1e-12)
    assert cubic_value(row.nu) == pytest.approx(1.4375, abs=1e-12)


def test_small_y_bracket_agrees_with_closed_form():
    _, _, ops = _setup(m1=20, m2=5, L=10.0)
    rows, _ = certificate_case_small_y(ops, 0.3)
    for row in rows[1:-1]:
        assert abs(row.a - row.a_bracket) <= 1e-12


@pytest.mark.parametrize("L", [0.0, 10.0])
def test_certificate_row_invariants(L):
    _, _, ops = _setup(m1=9, m2=5, L=L)
    rows, _ = certificate_case_small_y(ops, 0.2)
    for row in rows:
        assert row.nu >= row.i >= 1  # grid ratio dominates the row index
        if row.eps is not None:
            assert row.eps > 0.0


def test_small_y_evaluated_b_form():
    # b_i also equals (nu/2) [ (nu + 1/2)/nu^2 + (nu+1)^2 / ((nu+1/2)^2 (nu+3/2)) ]: the
    # lower neighbour's term, then the upper one's; row 1 has only the upper, row m1 the lower
    _, _, ops = _setup(m1=12, m2=5, L=0.0)
    rows, _ = certificate_case_small_y(ops, 0.2)
    for row in rows[1:-1]:
        nu = row.nu
        evaluated = 0.5 * nu * (
            (nu + 0.5) / nu**2 + (nu + 1.0) ** 2 / ((nu + 0.5) ** 2 * (nu + 1.5))
        )
        assert row.b == pytest.approx(evaluated, rel=1e-10)
    first, last = rows[0], rows[-1]
    nu = first.nu
    b_first = 0.5 * nu * (nu + 1.0) ** 2 / ((nu + 0.5) ** 2 * (nu + 1.5))
    a_first = 0.5 * nu * (-2.0 * nu + (nu + 1.0) ** 2 / (nu + 1.5))
    assert (first.b, first.a) == (pytest.approx(b_first, rel=1e-10), pytest.approx(a_first, rel=1e-10))
    nu = last.nu
    b_last = 0.5 * nu * (nu + 0.5) / nu**2
    a_last = 0.5 * nu * (-2.0 * nu + (nu - 0.5) ** 2 * (nu + 0.5) / nu**2)
    assert (last.b, last.a) == (pytest.approx(b_last, rel=1e-10), pytest.approx(a_last, rel=1e-10))
    # a boundary row has no closed form to report, so a is its bracket
    assert (first.a, last.a) == (first.a_bracket, last.a_bracket)
    assert first.eps is None
    assert last.eps == pytest.approx((nu - 0.5) * (nu + 0.5) / nu**2, rel=1e-15)


@pytest.mark.parametrize("m1,L", [(3, 0.0), (4, 10.0), (7, 0.0), (26, 10.0)])
def test_small_y_rows_match_row_by_row_reference(m1, L):
    # same arithmetic in the same precision and order, so equal to the last bit
    _, grid, ops = _setup(m1=m1, m2=4, L=L)
    rows, _ = certificate_case_small_y(ops, 0.2)
    expected = small_y_row_coefficients(grid.s_points / grid.ds)
    assert [(row.eps, row.a, row.a_bracket, row.b) for row in rows] == expected


def test_small_y_bracket_mismatch_names_first_bad_row():
    # nu_{i+1} = nu_i + 1 underlies the closed form; moving s_4 breaks it from row 3 on
    _, grid, ops = _setup(m1=6, m2=4, L=0.0)
    s_points = grid.s_points.copy()
    s_points[3] += 0.3 * grid.ds
    moved = dataclasses.replace(ops, grid=dataclasses.replace(grid, s_points=s_points))
    with pytest.raises(ArithmeticError, match="^row 3: weight coefficient closed form"):
        certificate_case_small_y(moved, 0.2)


@pytest.mark.parametrize("y", [0.0, 0.1, -0.25, 0.49, -0.49])
@pytest.mark.parametrize("L", [0.0, 10.0])
def test_small_y_certificate_holds(y, L):
    _, _, ops = _setup(m1=10, m2=5, L=L)
    rows, check = certificate_case_small_y(ops, y)
    assert check.holds
    two_y2 = 2.0 * y**2
    eps_by_row = {row.i: row.eps for row in rows}
    row_sums = []
    for row in rows:
        if row.i == 1:
            weighted = row.alpha + row.gamma_mag / eps_by_row[2]
        elif row.i == ops.grid.m1:
            weighted = row.alpha + row.eps * row.beta_mag
        else:
            weighted = row.alpha + row.eps * row.beta_mag + row.gamma_mag / eps_by_row[row.i + 1]
            # interior rows have nu >= 2, so the analytic chain applies
            assert row.nu >= 2.0 - 1e-12
            assert row.a <= 0.0
            assert 2.0 * row.a + row.b <= 1.0 + 1e-12
            assert cubic_value(row.nu) >= 0.0
        assert weighted <= row.a + row.b * two_y2 + 1e-10
        assert row.a + row.b * two_y2 <= two_y2 + 1e-10
        row_sums.append(weighted)
    assert check.lhs == max(row_sums)


# ---------------------------------------------------------------------------
# scalar estimates used by the certificate
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_offdiagonal_magnitude_estimate(seed):
    rng = np.random.default_rng(seed)
    for _ in range(200):
        x = rng.uniform(0.01, 50.0)
        y = rng.uniform(-10.0, 10.0)
        assert abs(x + 2j * y) <= x + 2.0 * y**2 / x + 1e-12


def test_unit_circle_real_part_estimate():
    for k in range(128):
        zeta = cmath.exp(2j * math.pi * k / 128)
        assert 1.0 - zeta.real >= 0.5 * zeta.imag**2 - 1e-12


# ---------------------------------------------------------------------------
# implication chain and norm domination
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("sigma,rho,L", [(0.1, 1.0, 0.0), (0.2, -1.0, 10.0)])
def test_family_condition_implies_block_log_norm(sigma, rho, L):
    _, _, ops = _setup(m1=8, m2=4, sigma=sigma, rho=rho, L=L)
    checks = check_symbol_conditions(ops)
    family = [c for c in checks if c.name.startswith("tridiag_family_cond")]
    assert all(c.holds for c in family)
    B, _, _ = diffusion_block_reduction(ops)
    assert log_norm_2(B) <= 1e-8 * max(1.0, np.abs(B).max())


@pytest.mark.parametrize("y", [0.3, 0.7, 2.0])
def test_log_norm_inf_dominates_real_spectrum(y):
    _, _, ops = _setup(m1=9, m2=4, L=10.0)
    T = ops.diff_1d + (0.5 + 2j * y) * ops.adv_1d
    lam = float(np.linalg.eigvals(T).real.max())
    assert lam <= log_norm_inf(T) + 1e-10


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def test_certificate_report_format():
    _, _, ops = _setup(m1=5, m2=4)
    rows, check = certificate_case_small_y(ops, 0.2)
    text = format_certificate_report(rows, [check])
    lines = text.strip().split("\n")
    assert len(lines) == len(rows) + 1
    assert lines[0].startswith("row i=1 ")
    assert "holds=true" in lines[-1]
    assert "margin=" in lines[-1]
