import math

import numpy as np
import pytest

from _oracles import (
    hermitian_lambda_max,
    log_norm_limit,
    pair_average_eigs,
    sigma_max,
    taylor_expm,
)
from hestonstab import (
    HestonParams,
    build_operators,
    expm,
    lambda_max_hermitian,
    log_norm_2,
    log_norm_D,
    log_norm_inf,
    make_grid,
    norm_expm,
    pair_average,
    scaling_diagonal,
    scaling_matrices,
    spectral_norm,
)
from hestonstab import linalg
from hestonstab.linalg import _sigma_max_lanczos

BASE = dict(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=-0.5)


# ---------------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------------

def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, -4.0])).value == pytest.approx(4.0, abs=1e-12)


def test_spectral_norm_nilpotent():
    assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])).value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_spectral_norm_matches_jacobi_oracle(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((8, 8))
    report = spectral_norm(A)
    assert report.converged
    assert report.value == pytest.approx(sigma_max(A), abs=1e-8)


def test_spectral_norm_complex_and_rectangular():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
    assert spectral_norm(A).value == pytest.approx(sigma_max(A), abs=1e-8)


@pytest.mark.parametrize("seed", [5, 6])
def test_spectral_norm_transpose_invariance(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((10, 10))
    assert spectral_norm(A).value == pytest.approx(spectral_norm(A.T).value, abs=1e-10)


def test_lambda_max_uniform_negative_shift():
    report = lambda_max_hermitian(-3.0 * np.eye(4))
    assert report.value == pytest.approx(-3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# warm-started Lanczos kernel of the norm scan
# ---------------------------------------------------------------------------

def _scan_matrix(kind, seed):
    rng = np.random.default_rng(seed)
    shape = {"real": (12, 12), "complex": (10, 10), "tall": (14, 9), "wide": (7, 11)}[kind]
    X = rng.standard_normal(shape)
    if kind == "complex":
        X = X + 1j * rng.standard_normal(shape)
    return X


@pytest.mark.parametrize("kind", ["real", "complex", "tall", "wide"])
@pytest.mark.parametrize("start", ["cold", "ritz", "null"])
def test_scan_kernel_matches_jacobi_oracle(kind, start):
    X = _scan_matrix(kind, seed=len(kind))
    v0 = None
    if start == "ritz":
        # Ritz vector of a nearby matrix, as the scan carries it
        E = _scan_matrix(kind, seed=99)
        _, v0 = _sigma_max_lanczos(X + 1e-3 * E)
    elif start == "null":
        # a warm start inside the null space must not fake convergence
        rng = np.random.default_rng(7)
        u = rng.standard_normal(X.shape[1])
        if kind == "complex":
            u = u + 1j * rng.standard_normal(X.shape[1])
        u /= np.linalg.norm(u)
        X = X - np.outer(X @ u, u.conj())
        v0 = u
    report, _ = _sigma_max_lanczos(X, v0)
    expected = sigma_max(X)
    assert report.converged and report.method == "lanczos"
    assert report.value == pytest.approx(expected, rel=1e-10)


def test_scan_kernel_ritz_vector_is_a_converged_warm_start():
    X = _scan_matrix("real", seed=3)
    cold, v = _sigma_max_lanczos(X)
    warm, _ = _sigma_max_lanczos(X, v)
    assert cold.method == warm.method == "lanczos"
    assert warm.iterations == 1
    assert warm.value == pytest.approx(cold.value, rel=1e-12)


def test_scan_kernel_exact_null_warm_start_falls_back():
    X = np.zeros((3, 3))
    X[1, 1] = 2.0
    report, vec = _sigma_max_lanczos(X, v0=np.array([1.0, 0.0, 0.0]))
    assert report.converged and report.method == "direct-small"
    assert report.value == pytest.approx(2.0, abs=1e-12)
    assert vec is None


def test_scan_kernel_step_budget_falls_back_to_svd(monkeypatch):
    monkeypatch.setattr(linalg, "_LANCZOS_STEPS", 2)
    X = _scan_matrix("real", seed=0)
    report, vec = _sigma_max_lanczos(X)
    assert report.method == "direct-small"
    assert report.iterations == 2
    assert report.converged
    assert report.value == pytest.approx(sigma_max(X), rel=1e-10)
    assert vec is None


# ---------------------------------------------------------------------------
# extreme Hermitian eigenvalue
# ---------------------------------------------------------------------------

def test_lambda_max_pair_average_closed_form():
    assert lambda_max_hermitian(pair_average(3)).value == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-10
    )
    for n in (5, 9, 16):
        expected = float(np.max(pair_average_eigs(n)))
        assert lambda_max_hermitian(pair_average(n)).value == pytest.approx(expected, abs=1e-10)


def test_lambda_max_identity_and_diagonal():
    assert lambda_max_hermitian(np.eye(5)).value == pytest.approx(1.0, abs=1e-12)
    assert lambda_max_hermitian(np.diag([-1.0, -2.0])).value == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n,seed", [(8, 0), (16, 1), (32, 2)])
def test_lambda_max_matches_jacobi_oracle(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    H = 0.5 * (A + A.T)
    assert lambda_max_hermitian(H).value == pytest.approx(hermitian_lambda_max(H), abs=1e-8)


def test_lambda_max_complex_hermitian():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    H = 0.5 * (A + A.conj().T)
    assert lambda_max_hermitian(H).value == pytest.approx(hermitian_lambda_max(H), abs=1e-8)


def test_lambda_max_rejects_non_hermitian():
    with pytest.raises(ValueError):
        lambda_max_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lambda_max_degenerate_top_converges_in_value():
    H = np.diag([2.0, 2.0, -1.0])  # doubly degenerate top eigenvalue
    report = lambda_max_hermitian(H)
    assert report.value == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# logarithmic norms
# ---------------------------------------------------------------------------

def test_log_norm_2_shear():
    assert log_norm_2(np.array([[0.0, 2.0], [0.0, 0.0]])).value == pytest.approx(1.0, abs=1e-12)


def test_log_norm_2_antisymmetric_is_zero():
    K = np.array([[0.0, 3.0, -1.0], [-3.0, 0.0, 2.0], [1.0, -2.0, 0.0]])
    assert log_norm_2(K).value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 4])
def test_log_norm_2_matches_limit_definition(seed):
    rng = np.random.default_rng(seed)
    A = 0.5 * rng.standard_normal((6, 6))
    assert log_norm_2(A).value == pytest.approx(log_norm_limit(A), abs=1e-5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_norm_dominates_spectral_abscissa(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((9, 9))
    abscissa = float(np.max(np.linalg.eigvals(A).real))
    assert log_norm_2(A).value >= abscissa - 1e-10


def test_log_norm_D_identity_scaling():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 6))
    assert log_norm_D(A, np.ones(6)).value == pytest.approx(log_norm_2(A).value, abs=1e-10)


def test_log_norm_D_diagonal_matrix_invariant():
    A = np.diag([3.0, -1.0, 0.5])
    for d in (np.array([1.0, 10.0, 0.1]), np.array([5.0, 5.0, 5.0])):
        assert log_norm_D(A, d).value == pytest.approx(3.0, abs=1e-10)


def test_log_norm_D_heston_diffusion_contractive():
    params = HestonParams(**BASE, L=0.0, S=800.0, V=5.0)
    grid = make_grid(params, 10, 5)
    ops = build_operators(params, grid)
    d = scaling_diagonal(grid)
    assert log_norm_D(ops.diffusion, d).value <= 1e-8


def test_log_norm_D_accepts_vector_or_full_matrix():
    params = HestonParams(**BASE, L=0.0, S=800.0, V=5.0)
    grid = make_grid(params, 6, 4)
    ops = build_operators(params, grid)
    _, _, D = scaling_matrices(grid)
    d = scaling_diagonal(grid)
    assert log_norm_D(ops.diffusion, D).value == pytest.approx(
        log_norm_D(ops.diffusion, d).value, abs=1e-12
    )


def test_log_norm_D_rejects_nonpositive_diagonal():
    with pytest.raises(ValueError):
        log_norm_D(np.eye(3), np.array([1.0, -1.0, 2.0]))
    with pytest.raises(ValueError):
        log_norm_D(np.eye(3), np.array([1.0, 0.0, 2.0]))


def test_log_norm_inf_rows():
    assert log_norm_inf(np.diag([-1.0, -2.0])) == pytest.approx(-1.0)
    assert log_norm_inf(np.array([[-2.0, 1.0], [0.0, -3.0]])) == pytest.approx(-1.0)
    assert log_norm_inf(np.array([[0.0, 3j], [0.0, 0.0]])) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def test_expm_t_zero_is_identity():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 5))
    np.testing.assert_array_equal(expm(A, 0.0), np.eye(5))


def test_expm_diagonal():
    E = expm(np.diag([1.0, -1.0]), 1.0)
    np.testing.assert_allclose(np.diag(E), [math.e, 1.0 / math.e], rtol=1e-14)
    assert abs(E[0, 1]) == 0.0 and abs(E[1, 0]) == 0.0


def test_expm_nilpotent():
    E = expm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
    np.testing.assert_allclose(E, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_expm_matches_taylor_oracle(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 6))
    E = expm(A, 0.7)
    T = taylor_expm(A, 0.7)
    assert np.abs(E - T).max() <= 1e-10 * max(1.0, np.abs(T).max())


def test_expm_complex():
    rng = np.random.default_rng(9)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    E = expm(A, 0.3)
    T = taylor_expm(A, 0.3)
    assert np.abs(E - T).max() <= 1e-10 * max(1.0, np.abs(T).max())


@pytest.mark.parametrize("seed", [0, 5])
def test_expm_semigroup_property(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((7, 7))
    whole = expm(A, 1.9)
    split = expm(A, 1.2) @ expm(A, 0.7)
    assert np.abs(whole - split).max() <= 1e-8 * np.abs(whole).max()


def test_expm_rejects_bad_t():
    A = np.eye(2)
    with pytest.raises(ValueError):
        expm(A, -1.0)
    with pytest.raises(ValueError):
        expm(A, math.nan)


def test_expm_overflow_raises():
    with pytest.raises(OverflowError):
        expm(np.array([[1.0]]), 1000.0)


# ---------------------------------------------------------------------------
# norms of exponentials
# ---------------------------------------------------------------------------

def test_norm_expm_orthogonal_flow():
    K = np.array([[0.0, 2.0], [-2.0, 0.0]])
    for t in (0.1, 1.0, 7.5):
        assert norm_expm(K, t) == pytest.approx(1.0, abs=1e-10)


def test_norm_expm_decay():
    assert norm_expm(-np.eye(4), 2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_norm_expm_scaled_vs_plain_bound():
    params = HestonParams(**dict(BASE, rho=0.8), L=10.0, S=800.0, V=5.0)
    grid = make_grid(params, 8, 5)
    ops = build_operators(params, grid)
    d = scaling_diagonal(grid)
    ratio = math.sqrt(d.max() / d.min())
    for t in (0.5, 2.0):
        plain = norm_expm(ops.diffusion, t)
        scaled = norm_expm(ops.diffusion, t, D=d)
        assert plain <= ratio * scaled + 1e-8


@pytest.mark.parametrize("seed", list(range(5)))
def test_exp_bound_from_log_norm(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((10, 10))
    omega = log_norm_2(A).value
    for t in (0.1, 1.0, 5.0):
        assert norm_expm(A, t) <= math.exp(t * omega) + 1e-8


def test_report_fields_consistent():
    report = spectral_norm(np.diag([2.0, 1.0]))
    assert report.converged and report.residual <= 1e-10 * 4.0 + 1e-300
    assert report.method == "lapack" and report.iterations == 0
