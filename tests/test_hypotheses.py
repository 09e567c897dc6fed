"""Property test of the theorem's hypotheses over the whole parameter box.

Every link of the certificate chain must hold for any correlation in
[-1, 1], any barrier 0 <= L < S, other truncations S and V, and price and
variance mesh counts drawn independently (so m1 != 2 m2 is covered).
"""

from hypothesis import given, settings, strategies as st
import numpy as np

from hestonstab import (
    DEFAULT_Y_SAMPLES,
    HestonParams,
    build_operators,
    certificate_case_large_y,
    certificate_case_small_y,
    check_advection_bounds,
    check_block_toeplitz_symbol_bound,
    check_symbol_conditions,
    diffusion_block_reduction,
    log_norm_D,
    make_grid,
    scaling_diagonal,
)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(
    rho=st.floats(-1.0, 1.0),
    sigma=st.floats(0.05, 1.0),
    S=st.floats(50.0, 2000.0),
    L_fraction=st.floats(0.0, 0.9),
    V=st.floats(0.5, 10.0),
    m1=st.integers(3, 20),
    m2=st.integers(3, 20),
)
def test_certificate_chain_holds_on_the_parameter_box(rho, sigma, S, L_fraction, V, m1, m2):
    params = HestonParams(
        r=0.05, kappa=2.0, eta=0.04, sigma=sigma, rho=rho, L=L_fraction * S, S=S, V=V
    )
    grid = make_grid(params, m1, m2)
    ops = build_operators(params, grid)

    mu_D = log_norm_D(ops.diffusion, scaling_diagonal(grid))
    assert mu_D <= 1e-8 * np.abs(ops.diffusion).max()
    # raises if a log norm leaves its sharp closed form
    assert all(c.holds for c in check_advection_bounds(ops))
    _, B0, B1 = diffusion_block_reduction(ops)
    assert check_block_toeplitz_symbol_bound(B0, B1, grid.m2).holds
    assert all(c.holds for c in check_symbol_conditions(ops))
    for y in DEFAULT_Y_SAMPLES:
        if abs(y) >= 0.5:
            _, check = certificate_case_large_y(ops, y)
        else:
            _, check = certificate_case_small_y(ops, y)
        assert check.holds, (y, check)
