import cmath
import dataclasses
import math

import numpy as np
import pytest

from _oracles import (
    block_toeplitz,
    cubic_value,
    hermitian_lambda_max,
    log_norm_D,
    quartic_value,
    small_y_row_coefficients,
    symbol_matrix,
)
from hestonstab import (
    HestonParams,
    build_operators,
    certificate_rows,
    check_advection_bounds,
    check_block_toeplitz_symbol_bound,
    check_diffusion_contractivity,
    check_symbol_conditions,
    format_certificate_report,
    log_norm_2,
    log_norm_inf,
    make_grid,
    operator_block,
    scaling_diagonal,
)
from hestonstab import cli, linalg, operators, stability

BASE = dict(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=-0.5)


def _setup(m1=10, m2=5, **extra):
    params = HestonParams(**dict(BASE, **extra))
    grid = make_grid(params, m1, m2)
    return params, grid, build_operators(params, grid)


def _reduction(ops):
    """(B, B0, B1) of the similarity reduction of ``ops.diffusion``, formed from their formulas.

    B = (V^{-1} (x) S^{-1/2}) diffusion (I (x) S^{1/2}), B0 = (1/2)(diff_sym - 2 sv^2 I) and
    B1 = (1/2)(rho sv adv_sym + sv^2 I), sv = sigma / dv.
    """
    grid = ops.grid
    sv = ops.params.sigma / grid.dv
    rt_s = np.sqrt(grid.s_points)
    left = np.kron(1.0 / grid.v_points, 1.0 / rt_s)
    right = np.kron(np.ones(grid.m2), rt_s)
    B = left[:, None] * ops.diffusion * right[None, :]
    B0 = 0.5 * (ops.diff_sym - 2.0 * sv**2 * np.eye(grid.m1))
    B1 = 0.5 * (ops.params.rho * sv * ops.adv_sym + sv**2 * np.eye(grid.m1))
    return B, B0, B1


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
    check = stability._block_toeplitz_bound(B0, np.zeros((4, 4)), n_blocks=5)
    assert check.holds
    assert check.lhs == pytest.approx(check.rhs, abs=1e-8)


def test_block_toeplitz_bound_scalar_shift():
    # B0 = 0, B1 = [[1]]: the assembled matrix is tridiag(1, 0, 1)
    for n in (4, 9):
        check = stability._block_toeplitz_bound(np.zeros((1, 1)), np.eye(1), n_blocks=n)
        assert check.lhs == pytest.approx(2.0 * math.cos(math.pi / (n + 1)), abs=1e-9)
        assert check.rhs == pytest.approx(2.0, abs=1e-12)
        assert check.holds


def test_block_toeplitz_bound_on_reduction_blocks():
    params, grid, ops = _setup(m1=6, m2=4, rho=0.7)
    check = check_block_toeplitz_symbol_bound(ops)
    assert check.holds


@pytest.mark.parametrize("seed", [0, 1])
def test_block_toeplitz_rhs_matches_every_sample_solved(seed):
    # the bound solves k = 0 ... 32 only; the conjugate samples must give the same maximum, and
    # its block-by-block Hermitian part is bitwise that of the Kronecker assembly
    rng = np.random.default_rng(seed)
    B0 = rng.standard_normal((6, 6))
    B1 = rng.standard_normal((6, 6))
    direct = max(
        float(np.linalg.eigvalsh(0.5 * (M + M.conj().T))[-1])
        for M in (B0 + 2.0 * cmath.exp(2j * math.pi * k / 64) * B1 for k in range(64))
    )
    check = stability._block_toeplitz_bound(B0, B1, n_blocks=3)
    scale = max(1.0, float(np.abs(B0).max()), float(np.abs(B1).max()))
    assert abs(check.rhs - direct) <= 1e-12 * scale
    assert check.lhs == log_norm_2(block_toeplitz(B0, B1, 3))


@pytest.mark.parametrize("command", ["check", "certificate"])
def test_no_eigensolve_above_the_block_order_at_m2_13(command, monkeypatch):
    # mu_D and the block-Toeplitz lhs come from the block kernel: no dense solve of order m1 m2
    orders = []
    for name in ("eigvalsh", "eigh"):
        def record(a, *args, _solve=getattr(np.linalg, name), **kwargs):
            orders.append(np.shape(a)[-1])
            return _solve(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, record)
    assert cli.main([command, "--m2", "13"]) == 0
    assert orders and max(orders) <= 26


@pytest.mark.parametrize("command", ["check", "certificate"])
def test_no_matrix_of_order_m1_m2_at_m2_13(command, monkeypatch):
    # every 2-D operator is read as its band: no Kronecker product, no dense band matrix
    def fail(*args, **kwargs):
        pytest.fail("a matrix of order m1 m2 was formed")
    monkeypatch.setattr(np, "kron", fail)
    monkeypatch.setattr(linalg, "_band_matrix", fail)
    monkeypatch.setattr(operators, "_band_matrix", fail)
    assert cli.main([command, "--m2", "13"]) == 0


@pytest.mark.parametrize("rho", [-1.0, 1.0])
@pytest.mark.parametrize("m1, m2", [(39, 13), (40, 40)])
def test_block_kernel_checks_match_the_dense_oracle_off_the_default_grids(m1, m2, rho):
    # orders 507 and 1600 take the iterative block kernel; an independent m1 and a larger m2 than
    # the default grids, at the extreme correlations
    params, grid, ops = _setup(m1=m1, m2=m2, rho=rho)
    scale = float(np.abs(ops.diffusion).max())
    mu = check_diffusion_contractivity(ops).lhs
    assert abs(mu - log_norm_D(ops.diffusion, scaling_diagonal(grid))) <= 1e-12 * scale
    _, B0, B1 = _reduction(ops)
    scale = max(1.0, float(np.abs(B0).max()), float(np.abs(B1).max()))
    lhs = check_block_toeplitz_symbol_bound(ops).lhs
    assert abs(lhs - log_norm_2(block_toeplitz(B0, B1, m2))) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# block reduction of the diffusion part
# ---------------------------------------------------------------------------

def test_reduction_zero_correlation_offdiagonal_block():
    params, grid, ops = _setup(rho=0.0)
    B1 = _reduction(ops)[0][: grid.m1, grid.m1 : 2 * grid.m1]
    sv = params.sigma / grid.dv
    np.testing.assert_allclose(B1, 0.5 * sv**2 * np.eye(grid.m1), atol=1e-14 * sv**2)


def test_reduction_transpose_block_consistency():
    params, grid, ops = _setup(rho=0.9)
    B1 = _reduction(ops)[0][: grid.m1, grid.m1 : 2 * grid.m1]
    sv = params.sigma / grid.dv
    expected = 0.5 * (-params.rho * sv * ops.adv_sym + sv**2 * np.eye(grid.m1))
    np.testing.assert_allclose(B1.T, expected, atol=1e-12 * max(1.0, np.abs(B1).max()))


def test_reduction_rejects_operators_of_another_grid():
    # the diffusion's diagonal blocks from another grid's diff_1d, B0 from this grid's diff_sym
    _, _, ops = _setup(m1=6, m2=4, rho=0.5)
    _, _, other = _setup(m1=6, m2=4, rho=0.5, L=10.0)
    with pytest.raises(ValueError, match="block assembly disagrees"):
        check_block_toeplitz_symbol_bound(dataclasses.replace(ops, diff_1d=other.diff_1d))


def test_reduction_checks_every_block_and_leaves_the_diffusion_unchanged():
    _, _, ops = _setup(m1=6, m2=4, rho=0.5)
    arrays = {f.name: getattr(ops, f.name) for f in dataclasses.fields(ops)
              if isinstance(getattr(ops, f.name), np.ndarray)}
    before = {name: a.tobytes() for name, a in arrays.items()}
    assert check_block_toeplitz_symbol_bound(ops).holds
    assert {name: a.tobytes() for name, a in arrays.items()} == before
    # diff_1d reaches only the diagonal blocks (diff_ss), adv_1d only the off-diagonal ones (mixed_sv)
    for name in ("diff_1d", "adv_1d"):
        perturbed = getattr(ops, name).copy()
        perturbed[2, 3] += 1e-3 * np.abs(perturbed).max()
        with pytest.raises(ValueError, match="block assembly disagrees"):
            check_block_toeplitz_symbol_bound(dataclasses.replace(ops, **{name: perturbed}))


@pytest.mark.parametrize("rho,L", [(0.0, 0.0), (1.0, 0.0), (-0.6, 10.0)])
def test_reduction_sign_equivalence_with_scaled_log_norm(rho, L):
    params, grid, ops = _setup(m1=8, m2=4, rho=rho, L=L)
    B, _, _ = _reduction(ops)
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
    # one solve per zeta of the whole circle and per y, against the values shared between samples
    params, grid, ops = _setup(m1=8, m2=5, rho=rho)
    sv = params.sigma / grid.dv
    sym_part = 0.5 * (ops.diff_sym + ops.diff_sym.T)
    scale = max(1.0, float(np.abs(ops.diff_sym).max()))
    checks = check_symbol_conditions(ops)
    assert len(checks) == 2 * 33 + len(stability.DEFAULT_Y_SAMPLES)
    for k in range(64):
        zeta = cmath.exp(2j * math.pi * k / 64)
        herm = sym_part + 2j * zeta.imag * rho * sv * ops.adv_sym
        T = ops.diff_1d + 0.5 * ops.adv_1d + 1j * zeta.imag * rho * sv * ops.adv_1d
        row = min(k, 64 - k)  # a lower-half zeta is checked as its conjugate
        check_a, check_b = checks[2 * row], checks[2 * row + 1]
        assert check_a.name == f"scaled_symbol_cond[zeta={row}/64]"
        assert check_b.name == f"convection_symbol_cond[zeta={row}/64]"
        assert abs(check_a.lhs - float(np.linalg.eigvalsh(herm)[-1])) <= 1e-12 * scale
        assert abs(check_b.lhs - float(np.linalg.eigvals(T).real.max())) <= 1e-12 * scale
        assert abs(check_a.rhs - 2.0 * sv**2 * (1.0 - zeta.real)) <= 1e-12 * scale
        assert abs(check_b.rhs - sv**2 * (1.0 - zeta.real)) <= 1e-12 * scale
    family = checks[66:]
    for check, y in zip(family, stability.DEFAULT_Y_SAMPLES):
        T = ops.diff_1d + (0.5 + 2j * y) * ops.adv_1d
        assert check.name == f"tridiag_family_cond[y={y:g}]"
        assert abs(check.lhs - float(np.linalg.eigvals(T).real.max())) <= 1e-12 * scale


# three grids with m1 != 2 m2, a barrier L > 0 and an interior correlation
_ORACLE_GRIDS = [
    dict(m1=6, m2=4, rho=-0.7, L=10.0, sigma=0.2),
    dict(m1=5, m2=4, rho=0.4, L=100.0, sigma=0.5),
    dict(m1=7, m2=3, rho=0.9, L=300.0, sigma=1.0),
]


@pytest.mark.parametrize("grid", _ORACLE_GRIDS, ids=["m1=6", "m1=5", "m1=7"])
def test_tridiagonal_lhs_match_a_40_digit_eigensolve(grid):
    # the convection-form and family conditions against mpmath's general eigensolver
    # on the same float matrices, to 1e-15 of the scale
    mpmath = pytest.importorskip("mpmath")
    params, grid_spec, ops = _setup(**grid)
    sv = params.sigma / grid_spec.dv
    scale = max(1.0, float(np.abs(ops.diff_sym).max()))
    checks = {c.name: c for c in check_symbol_conditions(ops)}

    def lambda_max_40_digits(T):
        with mpmath.workdps(40):
            evals = mpmath.eig(mpmath.matrix(T.tolist()), left=False, right=False)
            return max(float(mpmath.re(e)) for e in evals)

    conv = [
        lambda_max_40_digits(ops.diff_1d + 0.5 * ops.adv_1d
                             + 1j * cmath.exp(2j * math.pi * k / 64).imag * params.rho * sv * ops.adv_1d)
        for k in range(17)
    ]
    for k in range(33):  # zeta_k and zeta_{32-k} share Im zeta
        lhs = checks[f"convection_symbol_cond[zeta={k}/64]"].lhs
        assert abs(lhs - conv[min(k, 32 - k)]) <= 1e-15 * scale, k
    for y in stability.DEFAULT_Y_SAMPLES:
        lam = lambda_max_40_digits(ops.diff_1d + (0.5 + 2j * y) * ops.adv_1d)
        assert abs(checks[f"tridiag_family_cond[y={y:g}]"].lhs - lam) <= 1e-15 * scale, y


@pytest.mark.parametrize("grid", _ORACLE_GRIDS, ids=["m1=6", "m1=5", "m1=7"])
def test_hermitian_lhs_and_block_toeplitz_rhs_are_per_sample_log_norms(grid):
    # the batched solves give, bit for bit, the per-sample log_norm_2 of each matrix
    params, grid_spec, ops = _setup(**grid)
    sv = params.sigma / grid_spec.dv
    sym_part = 0.5 * (ops.diff_sym + ops.diff_sym.T)
    checks = {c.name: c for c in check_symbol_conditions(ops)}
    zetas = [cmath.exp(2j * math.pi * k / 64) for k in range(33)]
    for k, zeta in enumerate(zetas):
        row = min(k, 32 - k)  # zeta_k and zeta_{32-k} share Im zeta
        herm = sym_part + 2j * zetas[row].imag * params.rho * sv * ops.adv_sym
        assert checks[f"scaled_symbol_cond[zeta={k}/64]"].lhs == log_norm_2(herm)
    _, B0, B1 = _reduction(ops)
    bound = check_block_toeplitz_symbol_bound(ops)
    assert bound.rhs == max(log_norm_2(B0 + 2.0 * zeta * B1) for zeta in zetas)


def test_lambda_max_tridiagonal_of_a_2x2_is_its_closed_form():
    a, b, c = -1.5, 2.0, 0.5
    assert stability._lambda_max_tridiagonal(np.array([[a, b], [c, a]]), "t") == pytest.approx(
        a + math.sqrt(b * c), abs=1e-15
    )
    # a zero product leaves a reducible matrix: its eigenvalues are the diagonal
    assert stability._lambda_max_tridiagonal(np.array([[1.0, 0.0], [5.0, 2.0]]), "t") == 2.0
    # a stack is solved matrix by matrix
    stack = np.array([[[a, b], [c, a]], [[1.0, 0.0], [5.0, 2.0]]])
    assert stability._lambda_max_tridiagonal(stack, "t") == pytest.approx([a + 1.0, 2.0], abs=1e-15)


@pytest.mark.parametrize(
    "T",
    [
        np.array([[0.0, 1.0], [-1.0, 0.0]]),  # spectrum +-i: a negative product
        np.array([np.eye(3), np.eye(3) + np.eye(3, k=2)]),  # one entry outside the band
        np.array([[1.0 + 1j, 1.0], [1.0, 0.0]]),  # a complex diagonal
    ],
    ids=["negative-product", "outside-band", "complex-diagonal"],
)
def test_lambda_max_tridiagonal_refuses_a_matrix_without_its_similarity(T):
    with pytest.raises(ValueError, match="family: not tridiagonal"):
        stability._lambda_max_tridiagonal(T, "family")


@pytest.mark.parametrize("y", [y for y in stability.DEFAULT_Y_SAMPLES if y])
def test_negative_y_is_the_conjugate_family(y):
    # -y conjugates the family matrix: the same spectrum and, row by row, the same certificate
    _, _, ops = _setup(m1=8, m2=5, rho=-0.7, L=10.0)
    rows, check = certificate_rows(ops, y)
    rows_neg, check_neg = certificate_rows(ops, -y)
    assert [dataclasses.replace(r, y=y) for r in rows_neg] == rows
    assert all(r.y == -y for r in rows_neg)
    assert (check_neg.lhs, check_neg.rhs) == (check.lhs, check.rhs)
    lam, lam_neg = (
        float(np.linalg.eigvals(ops.diff_1d + (0.5 + 2j * x) * ops.adv_1d).real.max())
        for x in (y, -y)
    )
    assert abs(lam - lam_neg) <= 1e-12 * max(1.0, float(np.abs(ops.diff_sym).max()))


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
# certificate: the case follows |y|
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("y,quartic", [(0.0, False), (0.1, False), (-0.1, False), (0.49, False),
                                       (-0.49, False), (0.5, True), (-0.5, True), (0.6, True),
                                       (-2.0, True), (5.0, True)])
def test_certificate_rows_case_follows_abs_y(y, quartic):
    _, grid, ops = _setup(m1=8, m2=4, L=10.0)
    rows, check = certificate_rows(ops, y)
    assert [(row.i, row.y) for row in rows] == [(i, y) for i in range(1, grid.m1 + 1)]
    if quartic:
        assert check.name == f"family_log_norm_inf[y={y:g}]"
        assert all(row.theta == 4.0 * y**2 for row in rows)
        assert all((row.eps, row.a, row.b) == (None, None, None) for row in rows)
    else:
        assert check.name == f"family_weighted_row_bound[y={y:g}]"
        assert rows[0].eps is None and all(row.eps is not None for row in rows[1:])
        assert all(row.theta is None for row in rows)


# ---------------------------------------------------------------------------
# certificate: case |y| >= 1/2
# ---------------------------------------------------------------------------

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
    rows, check = certificate_rows(ops, y)
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
    rows, check = certificate_rows(ops, y)
    assert check.holds
    theta = 4.0 * y**2
    for row in rows:
        assert row.alpha + row.beta_mag + row.gamma_mag <= 2.0 * y**2 + 1e-8
        assert quartic_value(row.nu, theta) >= 0.0
        assert row.theta == pytest.approx(theta)


# ---------------------------------------------------------------------------
# certificate: case |y| < 1/2
# ---------------------------------------------------------------------------

def test_small_y_frozen_values_at_nu_two():
    # L = 0 grid has nu_i = i, so row 2 carries nu = 2
    _, _, ops = _setup(m1=10, m2=5, L=0.0)
    rows, _ = certificate_rows(ops, 0.1)
    row = rows[1]
    assert row.nu == pytest.approx(2.0, abs=1e-12)
    assert row.eps == pytest.approx(0.9375, abs=1e-12)
    assert row.a == pytest.approx(-0.15625 / 7.0, abs=1e-12)
    assert row.a == pytest.approx(-0.022321428571428572, abs=1e-12)
    assert cubic_value(row.nu) == pytest.approx(1.4375, abs=1e-12)


def test_small_y_bracket_agrees_with_closed_form():
    _, _, ops = _setup(m1=20, m2=5, L=10.0)
    rows, _ = certificate_rows(ops, 0.3)
    for row in rows[1:-1]:
        assert abs(row.a - row.a_bracket) <= 1e-12


@pytest.mark.parametrize("L", [0.0, 10.0])
def test_certificate_row_invariants(L):
    _, _, ops = _setup(m1=9, m2=5, L=L)
    rows, _ = certificate_rows(ops, 0.2)
    for row in rows:
        assert row.nu >= row.i >= 1  # grid ratio dominates the row index
        if row.eps is not None:
            assert row.eps > 0.0


def test_small_y_evaluated_b_form():
    # b_i also equals (nu/2) [ (nu + 1/2)/nu^2 + (nu+1)^2 / ((nu+1/2)^2 (nu+3/2)) ]: the
    # lower neighbour's term, then the upper one's; row 1 has only the upper, row m1 the lower
    _, _, ops = _setup(m1=12, m2=5, L=0.0)
    rows, _ = certificate_rows(ops, 0.2)
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
    rows, _ = certificate_rows(ops, 0.2)
    expected = small_y_row_coefficients(grid.s_points / grid.ds)
    assert [(row.eps, row.a, row.a_bracket, row.b) for row in rows] == expected


def test_small_y_bracket_mismatch_names_first_bad_row():
    # nu_{i+1} = nu_i + 1 underlies the closed form; moving s_4 breaks it from row 3 on
    _, grid, ops = _setup(m1=6, m2=4, L=0.0)
    s_points = grid.s_points.copy()
    s_points[3] += 0.3 * grid.ds
    moved = dataclasses.replace(ops, grid=dataclasses.replace(grid, s_points=s_points))
    with pytest.raises(ArithmeticError, match="^row 3: weight coefficient closed form"):
        certificate_rows(moved, 0.2)


@pytest.mark.parametrize("y", [0.0, 0.1, -0.25, 0.49, -0.49])
@pytest.mark.parametrize("L", [0.0, 10.0])
def test_small_y_certificate_holds(y, L):
    _, _, ops = _setup(m1=10, m2=5, L=L)
    rows, check = certificate_rows(ops, y)
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
    B, _, _ = _reduction(ops)
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
    rows, check = certificate_rows(ops, 0.2)
    text = format_certificate_report(rows, [check])
    lines = text.strip().split("\n")
    assert len(lines) == len(rows) + 1
    assert lines[0].startswith("row i=1 ")
    assert "holds=true" in lines[-1]
    assert "margin=" in lines[-1]
