import numpy as np
import pytest

from hestonstab import HestonParams, make_grid, scaling_diagonal

BASE = dict(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=-0.5)


def test_mesh_width_s():
    params = HestonParams(**BASE, L=0.0, S=800.0, V=5.0)
    grid = make_grid(params, 10, 5)
    assert grid.ds == pytest.approx(800.0 / 11.0, rel=1e-15)


def test_v_points_unit_spacing():
    params = HestonParams(**BASE, L=0.0, S=800.0, V=5.0)
    grid = make_grid(params, 10, 4)
    assert grid.dv == pytest.approx(1.0, rel=1e-15)
    np.testing.assert_allclose(grid.v_points, [1.0, 2.0, 3.0, 4.0], rtol=1e-15)


def test_first_interior_point_with_barrier():
    params = HestonParams(**BASE, L=10.0, S=800.0, V=5.0)
    grid = make_grid(params, 50, 5)
    assert grid.s_points[0] == pytest.approx(10.0 + 790.0 / 51.0, rel=1e-15)
    assert grid.s_points[0] == pytest.approx(25.490196078431374, abs=1e-12)


@pytest.mark.parametrize("m1,m2,L,S,V", [(3, 3, 0.0, 800.0, 5.0), (17, 6, 10.0, 800.0, 5.0), (8, 11, 3.0, 700.0, 2.0)])
def test_point_reconstruction_exact(m1, m2, L, S, V):
    params = HestonParams(**BASE, L=L, S=S, V=V)
    grid = make_grid(params, m1, m2)
    for i in range(1, m1 + 1):
        assert grid.s_points[i - 1] == L + i * grid.ds
    for j in range(1, m2 + 1):
        assert grid.v_points[j - 1] == j * grid.dv
    # widths partition the truncated domain up to one unit of roundoff
    assert abs((m1 + 1) * grid.ds - (S - L)) <= 4 * np.finfo(float).eps * S
    assert abs((m2 + 1) * grid.dv - V) <= 4 * np.finfo(float).eps * V


def test_counts_and_dimensions():
    params = HestonParams(**BASE)
    grid = make_grid(params, 6, 4)
    assert len(grid.s_points) == 6 and len(grid.v_points) == 4
    assert np.all(np.diff(grid.s_points) > 0)
    assert grid.v_points[0] == pytest.approx(grid.dv)


def test_scaling_matrices_kronecker_order():
    params = HestonParams(**BASE, L=0.0, S=8.0, V=5.0)
    grid = make_grid(params, 3, 4)
    diag = scaling_diagonal(grid)
    assert diag.shape == (grid.m1 * grid.m2,)
    assert np.all(diag > 0)
    for j in range(1, grid.m2 + 1):
        for i in range(1, grid.m1 + 1):
            flat = (j - 1) * grid.m1 + i - 1
            assert diag[flat] == grid.v_points[j - 1] * grid.s_points[i - 1]
    # D = Dv (x) Ds with Ds = diag(s), Dv = diag(v)
    np.testing.assert_array_equal(
        np.diag(diag), np.kron(np.diag(grid.v_points), np.diag(grid.s_points))
    )


def test_scaling_minimum_without_barrier():
    params = HestonParams(**BASE, L=0.0, S=100.0, V=5.0)
    grid = make_grid(params, 5, 7)
    d = scaling_diagonal(grid)
    assert d.min() == pytest.approx(grid.ds * grid.dv, rel=1e-15)


@pytest.mark.parametrize("m1,m2", [(2, 5), (5, 2), (0, 3), (3, -1)])
def test_mesh_count_validation(m1, m2):
    params = HestonParams(**BASE)
    with pytest.raises(ValueError):
        make_grid(params, m1, m2)


@pytest.mark.parametrize(
    "bad",
    [
        dict(r=0.0),
        dict(r=-0.05),
        dict(kappa=0.0),
        dict(eta=-1.0),
        dict(sigma=0.0),
        dict(rho=1.5),
        dict(rho=-1.0001),
        dict(L=-1.0),
        dict(L=800.0, S=800.0),
        dict(V=0.0),
    ],
)
def test_param_validation(bad):
    kwargs = dict(BASE, L=0.0, S=800.0, V=5.0)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        HestonParams(**kwargs)


def test_rho_extremes_allowed():
    HestonParams(**dict(BASE, rho=1.0))
    HestonParams(**dict(BASE, rho=-1.0))
