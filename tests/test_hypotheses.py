"""Property tests of the theorem's hypotheses over the whole parameter box.

Every link of the certificate chain must hold for any correlation in
[-1, 1], any barrier 0 <= L < S, other truncations S and V, and price and
variance mesh counts drawn independently (so m1 != 2 m2 is covered).  The
semigroup norm the sweep scans must stay within the bound sqrt(cond D)
that the chain's mu_D <= 0 proves, off the sweep's box too.
"""

import math
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st, target
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
    max_norm_over_t,
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


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    m1=st.integers(3, 24),
    m2=st.integers(3, 12),
    rho=st.floats(-1.0, 1.0),
    sigma=st.floats(0.05, 2.0),
    kappa=st.floats(0.1, 10.0),
    eta=st.floats(0.01, 0.5),
    S=st.floats(50.0, 2000.0),
    V=st.floats(0.5, 10.0),
    L_fraction=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
)
def test_semigroup_norm_stays_within_sqrt_cond_D_on_the_box(m1, m2, rho, sigma, kappa, eta, S, V, L_fraction):
    params = HestonParams(
        r=0.05, kappa=kappa, eta=eta, sigma=sigma, rho=rho, L=L_fraction * S, S=S, V=V
    )
    grid = make_grid(params, m1, m2)
    d = scaling_diagonal(grid)
    diffusion = build_operators(params, grid).diffusion
    bound = math.sqrt(d.max() / d.min())

    assert log_norm_D(diffusion, d) <= 0.0
    max_norm2, _ = max_norm_over_t(diffusion)
    # steer the search toward the scan's worst margin against the certified bound
    target(max_norm2 / bound, label="max_norm2 / sqrt(cond D)")
    assert max_norm2 <= bound


_FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
"""


def test_a_falsified_property_is_an_ordinary_failure(tmp_path):
    # under this project's warning filters the run reports the example and goes on to the next test
    test_file = tmp_path / "test_property.py"
    test_file.write_text(_FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
         "--rootdir", str(tmp_path), str(test_file)],
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 1, result.stdout + result.stderr
    assert "INTERNALERROR" not in result.stdout
    assert "1 failed, 1 passed" in result.stdout
    assert "Falsifying example" in result.stdout
