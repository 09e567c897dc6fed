import math

import numpy as np
import pytest

from _oracles import (
    hermitian_lambda_max,
    log_norm_limit,
    pair_average,
    pair_average_eigs,
    sigma_max,
    taylor_expm,
)
from hestonstab import (
    HestonParams,
    build_operators,
    expm,
    expm_samples,
    lambda_max_hermitian,
    log_norm_2,
    log_norm_D,
    log_norm_inf,
    make_grid,
    scaling_diagonal,
    spectral_norm,
)
from hestonstab import experiments, linalg, stability
from hestonstab.linalg import _scale_similar, _sigma_max_lanczos

BASE = dict(r=0.05, kappa=2.0, eta=0.04, sigma=0.2, rho=-0.5)


# ---------------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------------

def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0, abs=1e-12)


def test_spectral_norm_nilpotent():
    assert spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_spectral_norm_matches_jacobi_oracle(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((8, 8))
    assert spectral_norm(A) == pytest.approx(sigma_max(A), abs=1e-8)


def test_spectral_norm_complex_and_rectangular():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((5, 9)) + 1j * rng.standard_normal((5, 9))
    assert spectral_norm(A) == pytest.approx(sigma_max(A), abs=1e-8)


@pytest.mark.parametrize("seed", [5, 6])
def test_spectral_norm_transpose_invariance(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((10, 10))
    assert spectral_norm(A) == pytest.approx(spectral_norm(A.T), abs=1e-10)


@pytest.mark.parametrize(
    "shape,complex_,size",
    [
        ((8, 8), False, 1e200),  # an unscaled Gram matrix overflows
        ((8, 8), True, 1e-200),  # ... or underflows to zero
        ((5, 9), True, 1.0),  # wide: the Gram matrix of the 5 rows
        ((9, 5), True, 1.0),
        ((7, 3), False, 3e-5),
    ],
)
def test_spectral_norm_matches_svd(shape, complex_, size):
    rng = np.random.default_rng(sum(shape))
    A = rng.standard_normal(shape)
    if complex_:
        A = A + 1j * rng.standard_normal(shape)
    A = A * size
    expected = float(np.linalg.svd(A, compute_uv=False)[0])
    assert abs(spectral_norm(A) - expected) <= 1e-14 * expected


def test_spectral_norm_of_zero_is_exactly_zero():
    assert spectral_norm(np.zeros((4, 6))) == 0.0
    assert spectral_norm(np.zeros((3, 3), dtype=complex)) == 0.0


def test_lambda_max_uniform_negative_shift():
    assert lambda_max_hermitian(-3.0 * np.eye(4)) == pytest.approx(-3.0, abs=1e-12)


# ---------------------------------------------------------------------------
# warm-started Lanczos kernel of the norm scan
# ---------------------------------------------------------------------------

def _scan_matrix(kind, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal({"real": (12, 12), "tall": (14, 9), "wide": (7, 11)}[kind])


@pytest.mark.parametrize("kind", ["real", "tall", "wide"])
@pytest.mark.parametrize("start", ["cold", "ritz", "null"])
def test_scan_kernel_matches_jacobi_oracle(kind, start):
    X = _scan_matrix(kind, seed=len(kind))
    v0 = None
    if start == "ritz":
        # Ritz vector of a nearby matrix, as the scan carries it
        E = _scan_matrix(kind, seed=99)
        _, _, v0 = _sigma_max_lanczos(X + 1e-3 * E)
    elif start == "null":
        # a warm start inside the null space must not fake convergence
        u = np.random.default_rng(7).standard_normal(X.shape[1])
        u /= np.linalg.norm(u)
        X = X - np.outer(X @ u, u)
        v0 = u
    sigma, _, vec = _sigma_max_lanczos(X, v0)
    expected = sigma_max(X)
    assert vec is not None
    assert sigma == pytest.approx(expected, rel=1e-10)


def test_scan_kernel_ritz_vector_is_a_converged_warm_start():
    X = _scan_matrix("real", seed=3)
    cold, _, v = _sigma_max_lanczos(X)
    warm, steps, warm_vec = _sigma_max_lanczos(X, v)
    assert v is not None and warm_vec is not None
    assert steps == linalg._LANCZOS_TEST_EVERY  # accepted at the first test
    assert warm == pytest.approx(cold, rel=1e-12)


def test_scan_kernel_tests_convergence_every_few_steps(monkeypatch):
    X = _scan_matrix("real", seed=3)
    tested = []  # order of the tridiagonal matrix at each convergence test
    real_eigh = np.linalg.eigh

    def eigh(T):
        tested.append(T.shape[0])
        return real_eigh(T)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    _, steps, vec = _sigma_max_lanczos(X)
    every = linalg._LANCZOS_TEST_EVERY
    assert vec is not None and steps > every
    assert tested == list(range(every, steps + 1, every))


def test_scan_kernel_exact_null_warm_start_falls_back():
    X = np.zeros((3, 3))
    X[1, 1] = 2.0
    sigma, steps, vec = _sigma_max_lanczos(X, v0=np.array([1.0, 0.0, 0.0]))
    assert (sigma, steps, vec) == (2.0, 1, None)  # a breakdown at step 1, tested there
    # every start is in the null space of X = 0
    assert _sigma_max_lanczos(np.zeros((4, 3))) == (0.0, 1, None)


def test_scan_kernel_step_budget_falls_back_to_spectral_norm(monkeypatch):
    # no Ritz pair can be accepted, so the kernel exhausts the Krylov space of X^T X
    monkeypatch.setattr(linalg, "_LANCZOS_TOL", 0.0)
    X = _scan_matrix("real", seed=0)
    sigma, steps, vec = _sigma_max_lanczos(X)
    assert vec is None
    assert steps == X.shape[1]
    assert sigma == spectral_norm(X)
    assert sigma == pytest.approx(sigma_max(X), rel=1e-10)


# ---------------------------------------------------------------------------
# extreme Hermitian eigenvalue
# ---------------------------------------------------------------------------

def test_lambda_max_pair_average_closed_form():
    assert lambda_max_hermitian(pair_average(3)) == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-10
    )
    for n in (5, 9, 16):
        expected = float(np.max(pair_average_eigs(n)))
        assert lambda_max_hermitian(pair_average(n)) == pytest.approx(expected, abs=1e-10)


def test_lambda_max_identity_and_diagonal():
    assert lambda_max_hermitian(np.eye(5)) == pytest.approx(1.0, abs=1e-12)
    assert lambda_max_hermitian(np.diag([-1.0, -2.0])) == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("n,seed", [(8, 0), (16, 1), (32, 2)])
def test_lambda_max_matches_jacobi_oracle(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    H = 0.5 * (A + A.T)
    assert lambda_max_hermitian(H) == pytest.approx(hermitian_lambda_max(H), abs=1e-8)


def test_lambda_max_complex_hermitian():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    H = 0.5 * (A + A.conj().T)
    assert lambda_max_hermitian(H) == pytest.approx(hermitian_lambda_max(H), abs=1e-8)


def test_lambda_max_uses_both_triangles_of_an_admissible_asymmetry():
    # eigvalsh reads one triangle, so the asymmetry must reach it through 0.5 (H + H*)
    rng = np.random.default_rng(26)
    A = rng.standard_normal((26, 26)) + 1j * rng.standard_normal((26, 26))
    H = 0.5 * (A + A.conj().T)
    H[3, 17] += 1e-13 * np.abs(H).max()
    part = 0.5 * (H + H.conj().T)
    assert lambda_max_hermitian(H) == pytest.approx(hermitian_lambda_max(part), abs=1e-10)


def test_lambda_max_rejects_non_hermitian():
    with pytest.raises(ValueError):
        lambda_max_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_lambda_max_degenerate_top_converges_in_value():
    H = np.diag([2.0, 2.0, -1.0])  # doubly degenerate top eigenvalue
    assert lambda_max_hermitian(H) == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# logarithmic norms
# ---------------------------------------------------------------------------

def test_log_norm_2_shear():
    assert log_norm_2(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)


def test_log_norm_2_antisymmetric_is_zero():
    K = np.array([[0.0, 3.0, -1.0], [-3.0, 0.0, 2.0], [1.0, -2.0, 0.0]])
    assert log_norm_2(K) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("seed", [0, 4])
def test_log_norm_2_matches_limit_definition(seed):
    rng = np.random.default_rng(seed)
    A = 0.5 * rng.standard_normal((6, 6))
    assert log_norm_2(A) == pytest.approx(log_norm_limit(A), abs=1e-5)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_log_norm_dominates_spectral_abscissa(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((9, 9))
    abscissa = float(np.max(np.linalg.eigvals(A).real))
    assert log_norm_2(A) >= abscissa - 1e-10


def test_log_norm_D_identity_scaling():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 6))
    assert log_norm_D(A, np.ones(6)) == pytest.approx(log_norm_2(A), abs=1e-10)


def test_log_norm_D_diagonal_matrix_invariant():
    A = np.diag([3.0, -1.0, 0.5])
    for d in (np.array([1.0, 10.0, 0.1]), np.array([5.0, 5.0, 5.0])):
        assert log_norm_D(A, d) == pytest.approx(3.0, abs=1e-10)


def test_log_norm_D_heston_diffusion_contractive():
    params = HestonParams(**BASE, L=0.0, S=800.0, V=5.0)
    grid = make_grid(params, 10, 5)
    ops = build_operators(params, grid)
    d = scaling_diagonal(grid)
    assert log_norm_D(ops.diffusion, d) <= 1e-8


@pytest.mark.parametrize("D", [np.eye(3), np.ones(2), np.ones(4)], ids=["matrix", "short", "long"])
def test_scaling_diagonal_must_be_a_matching_vector(D):
    with pytest.raises(ValueError, match="does not match"):
        log_norm_D(np.eye(3), D)
    with pytest.raises(ValueError, match="does not match"):
        _scale_similar(expm(np.eye(3), 1.0), D)


def test_scaled_norms_apply_the_same_similarity():
    params = HestonParams(**dict(BASE, rho=0.8), L=10.0, S=800.0, V=5.0)
    grid = make_grid(params, 8, 5)
    A = build_operators(params, grid).diffusion
    d = scaling_diagonal(grid)
    rt = np.sqrt(d)
    similar = (A * rt[None, :]) / rt[:, None]
    assert log_norm_D(A, d) == log_norm_2(similar)
    E = expm(A, 2.0)
    scaled = spectral_norm(_scale_similar(E, d))
    assert scaled == spectral_norm((E * rt[None, :]) / rt[:, None])


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


def _one_at_a_time(A, ts):
    return {i: expm(A, t) for i, t in enumerate(ts)}


def _count_pade(monkeypatch) -> list:
    """Record the argument of every Pade evaluation made from here on."""
    calls = []
    real = linalg._pade13

    def counted(X):
        calls.append(X)
        return real(X)

    monkeypatch.setattr(linalg, "_pade13", counted)
    return calls


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize(
    "ts",
    [
        [0.0],
        [0.0, 0.5, 1.0, 2.0, 5.0, 10.0],
        [1.5, 0.25, 1.5, 3.0],  # a repeated t, and 3 = 2 * 1.5 = 12 * 0.25
        [10.0, 0.5, 3.0, 0.0, 20.0, 2.0, 7.5, 1.0, 40.0, 5.0],  # unsorted
    ],
)
def test_expm_samples_bitwise_equal_to_expm(ts, complex_):
    rng = np.random.default_rng(3)
    A = rng.standard_normal((8, 8))
    if complex_:
        A = A + 1j * rng.standard_normal((8, 8))
    A *= 25.0 / float(np.abs(A).sum(axis=0).max())  # ||tA||_1 = 25 t > theta_13 at t >= 0.25
    got = dict(expm_samples(A, ts))
    assert sorted(got) == list(range(len(ts)))
    for i, t in enumerate(ts):
        E = expm(A, t)
        assert got[i].dtype == E.dtype == A.dtype
        assert np.array_equal(got[i], E), t


def test_expm_samples_unscaled_t_beside_its_dyadic_multiples(monkeypatch):
    rng = np.random.default_rng(4)
    A = rng.standard_normal((6, 6))
    t = 0.25 / float(np.abs(A).sum(axis=0).max())  # ||tA||_1 = 0.25: no squaring
    ts = [t * 2.0**k for k in range(7)]  # ||tA||_1 = 0.25 ... 16
    pade = _count_pade(monkeypatch)
    got = dict(expm_samples(A, ts))
    # t, 2t, 4t and 8t (||tA||_1 <= 2 < theta_13) each take a Pade evaluation and no squaring;
    # 16t, 32t and 64t share the scaled matrix 16tA, its Pade evaluation and one squaring chain
    assert len(pade) == 5
    for i, E in _one_at_a_time(A, ts).items():
        assert np.array_equal(got[i], E), ts[i]


@pytest.mark.parametrize("seed", [0, 1])
def test_expm_scales_the_pade_argument_into_theta13(seed, monkeypatch):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((6, 6))
    norm_a = float(np.abs(A).sum(axis=0).max())
    theta = linalg._THETA13
    pade = _count_pade(monkeypatch)
    for target in (0.01, 1.0, 5.3, 5.5, 7.0, 11.0, 20.0, 150.0, 400.0):  # ||tA||_1
        expm(A, target / norm_a)
        x = float(np.abs(pade[-1]).sum(axis=0).max())
        squarings = round(math.log2(target / x))
        assert x <= theta
        assert squarings == 0 or x > theta / 2, target


def test_expm_unsquared_near_theta13_matches_taylor_oracle(monkeypatch):
    rng = np.random.default_rng(13)
    A = rng.standard_normal((6, 6))
    t = 5.0 / float(np.abs(A).sum(axis=0).max())  # ||tA||_1 = 5 <= theta_13: no squaring
    pade = _count_pade(monkeypatch)
    E = expm(A, t)
    assert len(pade) == 1 and np.array_equal(pade[0], t * A)
    T = taylor_expm(A, t)
    assert np.abs(E - T).max() <= 1e-10 * max(1.0, np.abs(T).max())


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
def test_expm_samples_validates_every_t_first(bad, monkeypatch):
    monkeypatch.setattr(linalg, "_pade13", lambda X: pytest.fail("Pade evaluated"))
    samples = expm_samples(np.eye(2), [0.0, 1.0, bad])
    with pytest.raises(ValueError):
        next(samples)


def test_expm_samples_overflow_raises():
    with pytest.raises(OverflowError):
        dict(expm_samples(np.array([[1.0]]), [1.0, 1000.0]))
    with pytest.raises(OverflowError), np.errstate(over="ignore"):  # tA itself overflows
        dict(expm_samples(np.array([[1e300]]), [1e10]))


def test_expm_samples_refuses_t_norm_past_2_27_before_any_pade_work(monkeypatch):
    A = np.array([[0.0, 1.0], [-1.0, 0.0]])  # ||A||_1 = 1; e^{tA} is a rotation for every t
    # the largest t accepted, where the drift through 25 squarings is still within the checks' allowance
    assert abs(spectral_norm(expm(A, 2.0**27)) - 1.0) <= stability._CHECK_TOL
    monkeypatch.setattr(linalg, "_pade13", lambda X: pytest.fail("Pade evaluated"))
    t = math.nextafter(2.0**27, math.inf)
    samples = expm_samples(A, [0.0, 1.0, t])
    with pytest.raises(ArithmeticError, match=r"\|\|tA\|\|_1 = 1\.34218e\+08 > 2\^27$"):
        next(samples)


def _diffusion_m2_13():
    params = HestonParams(**dict(BASE, rho=0.0), L=0.0, S=800.0, V=5.0)
    return build_operators(params, make_grid(params, 26, 13)).diffusion


def _count_products(monkeypatch) -> list:
    """Record, for every matrix product made from here on, whether it squares its operand."""
    products = []

    class Counted(np.ndarray):
        def __matmul__(self, other):
            products.append(other is self)
            return super().__matmul__(other)

    real = linalg._pade13
    monkeypatch.setattr(linalg, "_pade13", lambda X: real(X).view(Counted))
    return products


def _squarings(A, t):
    """Test side s(t): the fewest squarings with ||tA||_1 / 2^s <= theta_13."""
    return max(0, math.ceil(math.log2(t * float(np.abs(A).sum(axis=0).max()) / linalg._THETA13)))


def test_expm_samples_default_t_samples_make_one_pade_evaluation(monkeypatch):
    A = _diffusion_m2_13()
    # the step sizes the sweep's scan samples by default: (step) / 4^l, l = 0 .. _REFINE_LEVELS
    steps = [experiments._COARSE_STEP / 4.0**level for level in range(experiments._REFINE_LEVELS + 1)]
    assert all(_squarings(A, h) > 0 for h in steps)  # every step is scaled, so all share one matrix
    pade = _count_pade(monkeypatch)
    products = _count_products(monkeypatch)
    got = dict(expm_samples(A, steps))
    assert len(pade) == 1
    assert all(products) and len(products) == _squarings(A, steps[0])
    for i, h in enumerate(steps):
        assert np.array_equal(got[i], expm(A, h)), h


def test_expm_samples_builds_no_chain_longer_than_a_samples_own(monkeypatch):
    A = _diffusion_m2_13()
    pade = _count_pade(monkeypatch)
    products = _count_products(monkeypatch)
    # 1 = 2^30 * 2^-30, but riding 2^-30's chain would take 30 squarings instead of 1's own 11
    got = dict(expm_samples(A, [2.0**-30, 1.0]))
    assert len(pade) == 2
    assert products == [True] * 11
    assert np.array_equal(got[0], expm(A, 2.0**-30)) and np.array_equal(got[1], expm(A, 1.0))


def test_expm_samples_power_of_two_multiple_rides_its_own_chain(monkeypatch):
    A = _diffusion_m2_13()
    pade = _count_pade(monkeypatch)
    products = _count_products(monkeypatch)
    # 3 = 2 * 1.5 rides 1.5's chain for one squaring more; 1 has a chain of its own
    got = dict(expm_samples(A, [1.0, 1.5, 3.0]))
    assert len(pade) == 2
    assert all(products) and len(products) == _squarings(A, 1.0) + _squarings(A, 3.0)
    assert np.array_equal(got[2], expm(A, 3.0))


def test_expm_samples_one_pade_evaluation_per_scaled_matrix(monkeypatch):
    A = _diffusion_m2_13()
    ts = [10.0, 0.5, 2.0**-30, 3.0, 1.0, 0.0, 7.5, 2.0, 1.0, 5.0, 1.5]
    expected = {i: expm(A, t) for i, t in enumerate(ts)}
    chains = {}  # test side: t / 2^s(t) -> the largest s(t) of its samples
    for t in ts:
        if t:
            s = _squarings(A, t)
            chains[t / 2.0**s] = max(s, chains.get(t / 2.0**s, 0))
    pade = _count_pade(monkeypatch)
    products = _count_products(monkeypatch)
    got = dict(expm_samples(A, ts))
    # {0.5, 1, 2}, {1.5, 3}, {5, 10} and {7.5} each share one scaled matrix and one chain; 2^-30 has its own
    assert len(chains) == 5
    assert len(pade) == len(chains)
    assert all(products) and len(products) == sum(chains.values())
    for i, E in expected.items():
        assert np.array_equal(got[i], E), ts[i]


# ---------------------------------------------------------------------------
# norms of exponentials
# ---------------------------------------------------------------------------

def test_norm_of_expm_orthogonal_flow():
    K = np.array([[0.0, 2.0], [-2.0, 0.0]])
    for t in (0.1, 1.0, 7.5):
        assert spectral_norm(expm(K, t)) == pytest.approx(1.0, abs=1e-10)


def test_norm_of_expm_decay():
    assert spectral_norm(expm(-np.eye(4), 2.0)) == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_norm_of_expm_scaled_vs_plain_bound():
    params = HestonParams(**dict(BASE, rho=0.8), L=10.0, S=800.0, V=5.0)
    grid = make_grid(params, 8, 5)
    ops = build_operators(params, grid)
    d = scaling_diagonal(grid)
    ratio = math.sqrt(d.max() / d.min())
    for t in (0.5, 2.0):
        E = expm(ops.diffusion, t)
        plain = spectral_norm(E)
        scaled = spectral_norm(_scale_similar(E, d))
        assert plain <= ratio * scaled + 1e-8


@pytest.mark.parametrize("seed", list(range(5)))
def test_exp_bound_from_log_norm(seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((10, 10))
    omega = log_norm_2(A)
    for t in (0.1, 1.0, 5.0):
        assert spectral_norm(expm(A, t)) <= math.exp(t * omega) + 1e-8

