"""Core numerical kernels: spectral norm, logarithmic norms, and the matrix exponential.

All public operations accept real or complex matrices.  The spectral norm and the logarithmic
spectral norm return a float from one dense ``eigvalsh``; the spectral norm solves the Gram matrix
of its argument scaled by a power of two.  The sweep's norm scan decides many nearby spectral norms:
below a moderate order a Cholesky factorisation first tries to prove the norm at most a bound
(``_gram_bounds_norm``), above it a warm-started Lanczos kernel on X^T X (``_sigma_max_lanczos``)
computes it.  mu_D and the block-Toeplitz lhs are lambda_max of block tridiagonal matrices, given
by their band of blocks: ``_block_lambda_max`` makes one dense ``eigvalsh`` at small order and above
it brackets lambda_max between a Ritz value and a shift whose block Cholesky factorisation succeeds.
``_band_matrix`` forms the dense matrix of a band.

``expm`` evaluates e^{tA} by scaling and squaring, with the fewest squarings s that bring
||tA / 2^s||_1 within theta_13.  The private generator behind it, ``_expm_squares``, goes on
squaring: the sweep's scan takes its four step matrices e^{A/64}, e^{A/16}, e^{A/4} and e^{A} from
one Pade evaluation.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

__all__ = [
    "spectral_norm",
    "log_norm_2",
    "log_norm_inf",
    "expm",
]

#: ``_block_lambda_max``: dense below this order, then subspace width, tol / largest entry, solve budget.
_BLOCK_DENSE_BELOW, _BLOCK_WIDTH, _BLOCK_TOL, _BLOCK_MAX_SOLVES = 256, 12, 1e-14, 60
#: Acceptance test of the scan's Lanczos kernel: Ritz residual <= tol * theta.
_LANCZOS_TOL = 1e-10
#: The kernel tests its top Ritz pair after every this many steps.
_LANCZOS_TEST_EVERY = 4
#: Largest ||X||_1 with r_13(X) = e^X to double precision (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)).
_THETA13 = 5.371920351148152
#: Largest ||2^n tA||_1 that ``_expm_squares`` accepts.  The result drifts by about eps ||tA||_1 / theta_13
#: through the squarings: ||e^{tA}||_2 - 1 of a 2 x 2 rotation stays within 1e-8 for ||tA||_1 <= 2^27
#: and reaches 1.4e-8 in (2^27, 2^28].
_RESOLVED_NORM = 2.0**27


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def _as_real(A) -> np.ndarray:
    """A as a float array; complex input raises ValueError rather than lose its imaginary part."""
    if np.iscomplexobj(A):
        raise ValueError("expected a real matrix, got complex entries")
    return np.asarray(A, dtype=float)


def _sigma_max_lanczos(X, v0: np.ndarray | None = None):
    """Largest singular value of a real matrix X by warm-started Lanczos on X^T X.

    Returns (sigma, steps, ritz_vector_or_None).  Each step costs two
    matrix-vector products, so X^T X is never formed, and the Krylov basis
    is fully reorthogonalised.  The top Ritz pair is tested after every
    ``_LANCZOS_TEST_EVERY``-th step, at a breakdown and at step n (the order
    of X^T X), and accepted once its residual is at most ``_LANCZOS_TOL *
    theta`` with theta > 0; its vector is the warm start ``v0`` of the next
    call on a nearby matrix.  Without a usable ``v0`` the start is
    (sin 1, ..., sin n), fixed and without structure.  Without acceptance
    after n steps (an exhausted Krylov space), or at a breakdown at
    theta = 0 (a warm start inside the null space, or X = 0),
    ``spectral_norm(X)`` gives the value and the vector is None.
    """
    X = _as_matrix(X)
    ncols = X.shape[1]
    if v0 is None or v0.shape != (ncols,) or not np.linalg.norm(v0) > 0:
        # a fixed start without structure: np.ones would miss every odd singular vector of a
        # persymmetric X
        v0 = np.sin(np.arange(1.0, ncols + 1))

    Q = np.empty((ncols, ncols))
    Q[0] = v0 / np.linalg.norm(v0)
    alpha = np.zeros(ncols)
    beta = np.zeros(ncols)
    for k in range(ncols):
        w = X.T @ (X @ Q[k])
        alpha[k] = Q[k] @ w
        basis = Q[: k + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            w = w - basis.T @ (basis @ w)
        beta[k] = np.linalg.norm(w)
        last = beta[k] == 0.0 or k + 1 == ncols
        if (k + 1) % _LANCZOS_TEST_EVERY == 0 or last:
            T = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
            thetas, S = np.linalg.eigh(T)
            theta = float(thetas[-1])
            resid = float(beta[k] * abs(S[k, -1]))
            if resid <= _LANCZOS_TOL * theta and theta > 0.0:
                return math.sqrt(theta), k + 1, basis.T @ S[:, -1]
        if last:
            break
        Q[k + 1] = w / beta[k]

    return spectral_norm(X), k + 1, None


def _scaled_gram(A: np.ndarray) -> tuple[np.ndarray, int]:
    """(G, e): the Gram matrix G = B*B (B B* if A is wide) of B = A / 2^e.

    2^e is the power of two just above the largest entry, so B is exact and G is clear of over-
    and underflow; A = 0 takes e = -1023, the smallest e the scaling allows.
    """
    top = float(np.abs(A).max())
    e = max(math.frexp(top)[1], -1023) if top else -1023  # 2^-e stays finite for subnormal entries
    B = A * math.ldexp(1.0, -e)
    return (B @ B.conj().T if B.shape[0] < B.shape[1] else B.conj().T @ B), e


def _gram_sigma_max(G: np.ndarray, e: int) -> float:
    """||A||_2 = 2^e sqrt(lambda_max(G)) from the scaled Gram matrix (G, e) of A, by one ``eigvalsh``."""
    return math.ldexp(math.sqrt(float(np.linalg.eigvalsh(G)[-1])), e)


def _gram_bounds_norm(G: np.ndarray, e: int, b: float) -> bool:
    """Whether a Cholesky factorisation of (b / 2^e)^2 I - G proves ||A||_2 <= b.

    (G, e) is the scaled Gram matrix of A.  The factorisation succeeds only if the matrix is
    positive definite, that is b > ||A||_2, up to the O(n u ||A||_2^2) rounding of forming and
    factoring it, the same class as the rounding of ``_gram_sigma_max`` (Rump, BIT 46 (2006)).
    b = 0 proves nothing; for A = 0 any b > 0 does.
    """
    scaled = b * 2.0**-e  # a power-of-two scaling: inf, not an OverflowError, past the float range
    H = -G
    H[np.diag_indices_from(H)] += scaled * scaled
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        return False
    return True


def _band_matrix(diag, upper, lower) -> np.ndarray:
    """The dense block tridiagonal matrix with diagonal blocks ``diag`` (p, m, m), H[j, j+1] =
    ``upper[j]`` and H[j+1, j] = ``lower[j]`` ((p - 1, m, m) each), and 0 off the band."""
    (p, m), j = diag.shape[:2], np.arange(diag.shape[0])
    H = np.zeros((p, m, p, m))
    H[j, :, j], H[j[:-1], :, j[1:]], H[j[1:], :, j[:-1]] = diag, upper, lower
    return H.reshape(p * m, p * m)


def _block_lambda_max(diag, upper) -> float:
    """Largest eigenvalue of the symmetric block tridiagonal H with diagonal blocks ``diag`` (p, m, m)
    and H[j, j+1] = ``upper`` (p - 1, m, m): a dense ``eigvalsh`` below the order ``_BLOCK_DENSE_BELOW``.

    Above it H is never formed.  A block Cholesky factorisation of sigma I - H that succeeds proves
    lambda_max < sigma, up to its O(n u ||H||) rounding (``_gram_bounds_norm``); sigma starts at 0,
    else past every Gershgorin disc.  Inverse subspace iteration from the fixed sin(i j) gives after
    each solve a Ritz value theta <= lambda_max, with residual r and Ritz gap g.  Once est = min(||r||,
    ||r||^2 / g) (Kato-Temple) is <= tol or falls less than tenfold in a solve, sigma moves to theta +
    max(est, tol) if that factorises; theta is returned once sigma <= theta + tol.
    """
    (p, m), k = diag.shape[:2], min(_BLOCK_WIDTH, diag.shape[0] * diag.shape[1])
    if p * m < _BLOCK_DENSE_BELOW:
        return float(np.linalg.eigvalsh(_band_matrix(diag, upper, upper.swapaxes(1, 2)))[-1])
    e = math.frexp(max(float(np.abs(diag).max()), float(np.abs(upper).max(initial=0.0))))[1]
    diag, upper = np.ldexp(diag, -e), np.ldexp(upper, -e)  # exact; every entry now below 1 in size

    def factor(sigma):  # (Li, W): chol(sigma I - H) has Li[j]^-1 and -W[j]^T = -(Li[j] upper[j])^T
        Li, W = [], []
        for j, S in enumerate(sigma * np.eye(m) - diag):
            try:
                Li.append(np.linalg.inv(np.linalg.cholesky(S - W[-1].T @ W[-1] if j else S)))
            except np.linalg.LinAlgError:
                return None  # sigma I - H is not positive definite
            W += [Li[-1] @ upper[j]] if j < p - 1 else []
        return Li, W

    sigma = 0.0 if (fac := factor(0.0)) else 4.0 * m  # a row holds at most 3 m entries
    fac, last = fac or factor(sigma), math.inf
    V = np.sin(np.outer(np.arange(1.0, p * m + 1), np.arange(1.0, k + 1))).reshape(p, m, k)
    for _ in range(_BLOCK_MAX_SOLVES):
        Li, W = fac  # X = (sigma I - H)^{-1} V by a forward and a backward block sweep
        X = []
        for j in range(p):
            X.append(Li[j] @ (V[j] + W[j - 1].T @ X[-1] if j else V[j]))
        for j in reversed(range(p)):
            X[j] = Li[j].T @ (X[j] + W[j] @ X[j + 1] if j < p - 1 else X[j])
        Q = np.linalg.qr(np.reshape(X, (p * m, k)))[0]
        HQ = diag @ Q.reshape(p, m, k)
        HQ[:-1] += upper @ Q.reshape(p, m, k)[1:]
        HQ[1:] += upper.transpose(0, 2, 1) @ Q.reshape(p, m, k)[:-1]
        thetas, S = np.linalg.eigh(Q.T @ HQ.reshape(p * m, k))
        theta, V = float(thetas[-1]), (Q @ S).reshape(p, m, k)
        r = float(np.linalg.norm(HQ.reshape(p * m, k) @ S[:, -1] - theta * (Q @ S[:, -1])))
        est = min(r, r * r / (theta - thetas[-2])) if k > 1 and theta > thetas[-2] else r
        shift = theta + max(est, _BLOCK_TOL)  # a factorisation costs about four solves: try it sparingly
        if shift < sigma and (est <= _BLOCK_TOL or est > 0.1 * last) and (new := factor(shift)):
            sigma, fac, est = shift, new, math.inf  # the rate is measured afresh from the new shift
        last = est
        if sigma <= theta + _BLOCK_TOL:
            return math.ldexp(theta, e)
    raise ArithmeticError(f"block lambda_max did not converge in {_BLOCK_MAX_SOLVES} solves")


def spectral_norm(A) -> float:
    """Largest singular value 2^e sqrt(lambda_max(B*B)) of A by one dense eigensolve.

    Square or rectangular, real or complex input.  B = A / 2^e, 2^e the power of two just above
    the largest entry, is exact and keeps B*B (B B* if A is wide) clear of over- and underflow.
    """
    return _gram_sigma_max(*_scaled_gram(_as_matrix(A)))


def log_norm_2(A) -> float:
    """Logarithmic spectral norm: largest eigenvalue of the Hermitian part."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return float(np.linalg.eigvalsh(0.5 * (A + A.conj().T))[-1])


def log_norm_inf(A) -> float:
    """Logarithmic maximum norm: max_i (Re a_ii + sum_{j != i} |a_ij|)."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    diag = np.real(np.diag(A))
    offsum = np.sum(np.abs(A), axis=1) - np.abs(np.diag(A))
    return float(np.max(diag + offsum))


# Coefficients of the degree-13 diagonal Pade approximant to exp.
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)


def _pade13(X: np.ndarray) -> np.ndarray:
    """Degree-13 diagonal Pade approximant r_13(X) to e^X."""
    ident = np.eye(X.shape[0], dtype=X.dtype)
    b = _PADE13
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident
    return np.linalg.solve(V - U, V + U)


def _expm_squares(A, t: float, n: int) -> Iterator[np.ndarray]:
    """Yield e^{tA} and then its n successive squares e^{2tA}, ..., e^{2^n tA}.

    Scaling and squaring with Pade order 13: e^{tA} is r_13(tA / 2^s) squared
    s times, s the smallest s >= 0 with ||tA||_1 = t ||A||_1 <= theta_13 2^s,
    read off ``math.frexp``.  Scaling by a power of two is exact, so once
    ||tA||_1 > theta_13 / 2 the k-th square is bitwise ``expm(A, 2^k t)``.
    Before any Pade work a negative or non-finite t raises ValueError, an
    overflowing 2^n ||tA||_1 OverflowError and 2^n ||tA||_1 > 2^27
    ArithmeticError; a result that leaves the representable range raises
    OverflowError with the size of its problem.
    """
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    A = A.astype(np.complex128 if np.iscomplexobj(A) else np.float64, copy=False)

    with np.errstate(over="ignore"):  # an overflow is reported below
        norm1 = t * float(np.abs(A).sum(axis=0).max()) if t else 0.0
    top = norm1 * 2.0**n
    if not math.isfinite(top):
        raise OverflowError(f"matrix exponential overflowed: ||tA||_1 = {top:.6g}")
    if top > _RESOLVED_NORM:
        raise ArithmeticError(
            f"matrix exponential is not resolved in double precision: "
            f"||tA||_1 = {top:.6g} > 2^{math.log2(_RESOLVED_NORM):g}"
        )

    mant, exp = math.frexp(norm1 / _THETA13)
    squarings = max(0, exp - (mant == 0.5))
    R = _pade13((t * A) / (2.0**squarings)) if norm1 else np.eye(A.shape[0], dtype=A.dtype)
    if not np.all(np.isfinite(R)):
        raise OverflowError(f"matrix exponential overflowed: ||tA||_1 = {norm1:.6g}")
    for k in range(1, squarings + n + 1):
        if k > squarings:
            yield R
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
            R = R @ R
        if not np.all(np.isfinite(R)):
            size = norm1 * 2.0 ** max(0, k - squarings)
            raise OverflowError(f"matrix exponential overflowed during squaring: ||tA||_1 = {size:.6g}")
    yield R


def expm(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{tA} by scaling and squaring: the first matrix ``_expm_squares`` yields."""
    return next(_expm_squares(A, t, 0))
