import warnings

import numpy as np
import pytest

from _oracles import commutator_check, pair_average
from hestonstab import HestonParams, build_operators, make_grid, operator_block
from hestonstab.operators import BLOCK_NAMES, _differences

BASE = dict(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=-0.5)


def _grid(m1=5, m2=4, L=0.0, S=800.0, V=5.0, **extra):
    params = HestonParams(**dict(BASE, **extra), L=L, S=S, V=V)
    return params, make_grid(params, m1, m2)


def test_first_difference_unit_width():
    # ds = 1 needs S - L = m1 + 1
    _, grid = _grid(m1=3, S=4.0)
    d1_s, _ = _differences(grid.m1, grid.ds)
    np.testing.assert_array_equal(d1_s, [[0.0, 0.5, 0.0], [-0.5, 0.0, 0.5], [0.0, -0.5, 0.0]])


def test_second_difference_half_width():
    _, grid = _grid(m1=3, S=2.0)
    assert grid.ds == pytest.approx(0.5)
    _, d2_s = _differences(grid.m1, grid.ds)
    np.testing.assert_allclose(d2_s, [[-8.0, 4.0, 0.0], [4.0, -8.0, 4.0], [0.0, 4.0, -8.0]], rtol=1e-15)


def test_differences_exact_entries_at_half_width():
    d1, d2 = _differences(3, 0.5)
    np.testing.assert_array_equal(d1, [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    np.testing.assert_array_equal(d2, [[-8.0, 4.0, 0.0], [4.0, -8.0, 4.0], [0.0, 4.0, -8.0]])
    np.testing.assert_array_equal(d1.T, -d1)
    np.testing.assert_array_equal(d2.T, d2)


def test_stencil_symmetries():
    _, grid = _grid(m1=6, m2=5)
    d1_s, d2_s = _differences(grid.m1, grid.ds)
    np.testing.assert_array_equal(d1_s.T, -d1_s)
    np.testing.assert_array_equal(d2_s.T, d2_s)
    # interior rows of the second difference sum to zero
    np.testing.assert_allclose(d2_s[1:-1].sum(axis=1), 0.0, atol=1e-12 / grid.ds**2)


def test_advection_s_symmetrization():
    params, grid = _grid(m1=5, m2=4)
    ops = build_operators(params, grid)
    expected = -params.r * np.kron(np.eye(grid.m2), pair_average(grid.m1))
    adv_s = operator_block(ops, "adv-s")
    np.testing.assert_allclose(adv_s + adv_s.T, expected, atol=1e-14 * params.r)


@pytest.mark.parametrize("eta", [0.04, 3.7])
def test_advection_v_symmetrization_any_eta(eta):
    params, grid = _grid(m1=4, m2=5, eta=eta)
    ops = build_operators(params, grid)
    expected = params.kappa * np.kron(pair_average(grid.m2), np.eye(grid.m1))
    adv_v = operator_block(ops, "adv-v")
    np.testing.assert_allclose(adv_v + adv_v.T, expected, atol=1e-12 * params.kappa)


def test_zero_correlation_kills_mixed_term():
    params, grid = _grid(rho=0.0)
    ops = build_operators(params, grid)
    assert np.count_nonzero(operator_block(ops, "mixed-sv")) == 0


def test_price_diffusion_row_pattern():
    # unit mesh widths: S = 4, V = 4, all coefficients 1
    params = HestonParams(r=1.0, kappa=1.0, eta=1.0, sigma=1.0, rho=1.0, L=0.0, S=4.0, V=4.0)
    grid = make_grid(params, 3, 3)
    assert grid.ds == pytest.approx(1.0) and grid.dv == pytest.approx(1.0)
    ops = build_operators(params, grid)
    # node (i=2, j=2) sits at flat index (2-1)*3 + 2 = 5 (1-based)
    row = operator_block(ops, "diff-ss")[4]
    expected = np.zeros(9)
    expected[3:6] = 0.5 * grid.v_points[1] * grid.s_points[1] ** 2 * np.array([1.0, -2.0, 1.0])
    np.testing.assert_allclose(row, expected, atol=1e-14)


def test_mixed_product_assembly_identity():
    params, grid = _grid(m1=6, m2=5, rho=0.8)
    d1_s, _ = _differences(grid.m1, grid.ds)
    d1_v, _ = _differences(grid.m2, grid.dv)
    Ds = np.diag(grid.s_points)
    Dv = np.diag(grid.v_points)
    lhs = np.kron(Dv @ d1_v, Ds @ d1_s)
    rhs = np.kron(Dv, Ds) @ np.kron(d1_v, d1_s)
    scale = np.abs(lhs).max()
    np.testing.assert_allclose(lhs, rhs, atol=1e-13 * scale)


def test_sparsity_budgets():
    params, grid = _grid(m1=7, m2=6, rho=0.9)
    ops = build_operators(params, grid)
    m = grid.m1 * grid.m2
    for name, cap in (("adv-s", 3), ("adv-v", 3), ("diff-ss", 3), ("mixed-sv", 9), ("diff-vv", 3)):
        A = operator_block(ops, name)
        assert np.count_nonzero(A) <= cap * m
        assert (A != 0).sum(axis=1).max() <= cap


def test_operator_sums():
    params, grid = _grid()
    ops = build_operators(params, grid)
    adv_s, adv_v, diff_ss, mixed_sv, diff_vv, full = (
        operator_block(ops, name) for name in ("adv-s", "adv-v", "diff-ss", "mixed-sv", "diff-vv", "full")
    )
    total = adv_s + adv_v + diff_ss + mixed_sv + diff_vv - params.r * np.eye(grid.m1 * grid.m2)
    np.testing.assert_array_equal(full, total)
    np.testing.assert_array_equal(ops.diffusion, diff_ss + mixed_sv + diff_vv)
    np.testing.assert_array_equal(operator_block(ops, "diffusion"), ops.diffusion)


def test_commutator_integer_grid_is_exact():
    _, grid = _grid(m1=3, S=4.0)  # s = 1, 2, 3 with ds = 1
    assert commutator_check(*_differences(grid.m1, grid.ds), grid.s_points) == 0.0


def test_commutator_barrier_grid():
    _, grid = _grid(m1=25, L=10.0, S=800.0)
    assert commutator_check(*_differences(grid.m1, grid.ds), grid.s_points) <= 1e-10


@pytest.mark.parametrize("m1,L,S", [(50, 0.0, np.pi * 100), (40, 7.3, 613.1), (9, 0.0, 800.0)])
def test_commutator_roundoff_contract(m1, L, S):
    _, grid = _grid(m1=m1, L=L, S=S)
    resid = commutator_check(*_differences(grid.m1, grid.ds), grid.s_points)
    assert resid <= 1e-13 * max(1.0, 1.0 / grid.ds**2)


def test_scaled_operators_antisymmetry_and_similarity():
    params, grid = _grid(m1=7, L=10.0)
    ops = build_operators(params, grid)
    assert ops.grid is grid and ops.params is params
    scale = np.abs(ops.adv_sym).max()
    assert np.abs(ops.adv_sym + ops.adv_sym.T).max() <= 1e-15 * scale
    rt = np.sqrt(grid.s_points)
    back = rt[:, None] * ops.adv_sym / rt[None, :]
    np.testing.assert_allclose(ops.adv_1d, back, atol=1e-12 * np.abs(ops.adv_1d).max())


def test_scaled_operators_unit_grid_row():
    params, grid = _grid(m1=3, S=4.0)  # s = 1, 2, 3
    ops = build_operators(params, grid)
    np.testing.assert_allclose(ops.adv_1d[1], [-1.0, 0.0, 1.0], atol=1e-15)



@pytest.mark.parametrize("m1,m2,extra", [(10, 5, {}), (7, 5, {"rho": 0.9, "L": 10.0}),
                                         (6, 3, {"rho": -1.0, "sigma": 0.1, "L": 7.3}),
                                         (12, 4, {"rho": 1.0, "L": 10.0}),
                                         (15, 5, {"rho": -1.0, "sigma": 0.5, "L": 250.0})])
def test_blocks_equal_the_diagonal_scaled_products(m1, m2, extra):
    # the 2-D blocks are formed from adv_1d and diff_1d; they equal the Ds-product formulas exactly
    params, grid = _grid(m1=m1, m2=m2, **extra)
    ops = build_operators(params, grid)
    d1_s, d2_s = _differences(grid.m1, grid.ds)
    d1_v, d2_v = _differences(grid.m2, grid.dv)
    Ds, Dv = np.diag(grid.s_points), np.diag(grid.v_points)
    np.testing.assert_array_equal(ops.adv_1d, Ds @ d1_s)
    np.testing.assert_array_equal(ops.adv_s_factor, params.r * (Ds @ d1_s))
    np.testing.assert_array_equal(operator_block(ops, "diff-ss"), 0.5 * np.kron(Dv, Ds @ Ds @ d2_s))
    np.testing.assert_array_equal(
        operator_block(ops, "mixed-sv"), params.rho * params.sigma * np.kron(Dv @ d1_v, Ds @ d1_s)
    )
    # every block against its dense Kronecker assembly; the sums bit for bit
    I1, I2 = np.eye(grid.m1), np.eye(grid.m2)
    kron = {
        "adv-s": np.kron(I2, ops.adv_s_factor),
        "adv-v": np.kron(ops.adv_v_factor, I1),
        "diff-ss": np.kron(Dv, ops.diff_1d),
        "mixed-sv": params.rho * params.sigma * np.kron(Dv @ d1_v, ops.adv_1d),
        "diff-vv": 0.5 * np.float64(params.sigma) ** 2 * np.kron(Dv @ d2_v, I1),
    }
    kron["diffusion"] = kron["diff-ss"] + kron["mixed-sv"] + kron["diff-vv"]
    kron["full"] = kron["adv-s"] + kron["adv-v"] + kron["diffusion"]
    kron["full"][np.diag_indices_from(kron["full"])] -= params.r
    assert set(kron) == set(BLOCK_NAMES)
    for name in BLOCK_NAMES:
        np.testing.assert_array_equal(operator_block(ops, name), kron[name], err_msg=name)
    for name in ("diffusion", "full"):
        assert np.array_equal(operator_block(ops, name).view(np.uint64), kron[name].view(np.uint64)), name
    assert np.array_equal(ops.diffusion.view(np.uint64), kron["diffusion"].view(np.uint64))


@pytest.mark.parametrize("sigma", [1e154, 1e155, 1e300])
def test_overflowing_assembly_raises_overflow_error_without_warnings(sigma):
    params, grid = _grid(m1=6, m2=3, sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OverflowError, match="operator assembly overflowed"):
            build_operators(params, grid)


def test_dump_matrix_roundtrip(tmp_path, capsys):
    # the operators command writes every matrix it offers so that np.loadtxt gives it back exactly
    from hestonstab.cli import main

    params, grid = _grid(m1=6, m2=3, L=7.3, S=613.1)
    ops = build_operators(params, grid)
    argv = ["--m1", "6", "--m2", "3", "--L", "7.3", "--S", "613.1", "--rho", str(BASE["rho"])]
    for which in ("full", "diffusion", "adv-s", "adv-v", "diff-ss", "mixed-sv", "diff-vv"):
        M = operator_block(ops, which)
        path = tmp_path / f"{which}.txt"
        assert main(["operators", "--which", which, *argv, "--out", str(path)]) == 0
        capsys.readouterr()
        np.testing.assert_array_equal(np.loadtxt(path), M)
        assert len(path.read_text().splitlines()) == M.shape[0]
