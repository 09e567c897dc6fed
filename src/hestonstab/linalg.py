"""Core numerical kernels: spectral norm, extreme Hermitian eigenvalue,
logarithmic norms, and the matrix exponential.

All operations accept real or complex matrices.  One-shot norm and
eigenvalue calls are dense LAPACK solves (``svd`` / ``eigh``), reported as
method "lapack".  The sweep's norm scan evaluates the spectral norm of many
nearby matrices; for it a private, warm-started Lanczos kernel on X*X
(``_sigma_max_lanczos``) carries the previous Ritz vector from sample to
sample and falls back to a dense SVD, reported as method "direct-small",
when its step budget runs out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NormReport",
    "spectral_norm",
    "lambda_max_hermitian",
    "log_norm_2",
    "log_norm_D",
    "log_norm_inf",
    "expm",
    "norm_expm",
]

#: Step budget of the scan's Lanczos kernel before it falls back to an SVD.
_LANCZOS_STEPS = 40
#: Acceptance test of the scan's Lanczos kernel: Ritz residual <= tol * theta.
_LANCZOS_TOL = 1e-10


@dataclass(frozen=True)
class NormReport:
    """Result of a norm or eigenvalue computation.

    ``converged`` implies ``residual`` is at or below the tolerance the
    computation was configured with.
    """

    value: float
    method: str
    iterations: int
    residual: float
    converged: bool


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def _start_vector(n: int, complex_: bool) -> np.ndarray:
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    if complex_:
        v = v + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def lambda_max_hermitian(H, tol: float = 1e-10) -> NormReport:
    """Largest eigenvalue of a Hermitian matrix by a dense LAPACK solve.

    The input must satisfy ||H - H*||_max <= 1e-12 * ||H||_max.  The report
    is converged when the residual of the top eigenpair is at most
    ``tol * max(1, ||H||_max)``.
    """
    H = _as_matrix(H)
    n, nc = H.shape
    if n != nc:
        raise ValueError("matrix must be square")
    scale = float(np.abs(H).max())
    herm_err = float(np.abs(H - H.conj().T).max())
    if herm_err > 1e-12 * scale:
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {herm_err:.3e} exceeds 1e-12 * {scale:.3e}"
        )
    Hs = 0.5 * (H + H.conj().T)
    evals, evecs = np.linalg.eigh(Hs)
    lam = float(evals[-1])
    u = evecs[:, -1]
    resid = float(np.linalg.norm(Hs @ u - lam * u))
    return NormReport(lam, "lapack", 0, resid, resid <= tol * max(1.0, scale))


def _sigma_max_lanczos(X, v0: np.ndarray | None = None):
    """Largest singular value of X by warm-started Lanczos on X*X.

    Returns (report, ritz_vector_or_None).  Each step costs two
    matrix-vector products, so X*X is never formed, and the Krylov basis is
    fully reorthogonalised.  The top Ritz pair is accepted once its residual
    is at most ``_LANCZOS_TOL * theta`` with theta > 0; its vector is the
    warm start ``v0`` of the next call on a nearby matrix.  After
    ``_LANCZOS_STEPS`` steps without acceptance, or a breakdown at theta = 0
    (a warm start inside the null space), a dense SVD gives the value.
    """
    X = _as_matrix(X)
    ncols = X.shape[1]
    if not np.any(X):
        return NormReport(0.0, "lanczos", 0, 0.0, True), None
    nv = np.linalg.norm(v0) if v0 is not None and v0.shape == (ncols,) else 0.0
    v = v0 / nv if nv > 0 else _start_vector(ncols, np.iscomplexobj(X))

    steps = min(_LANCZOS_STEPS, ncols)
    Q = np.empty((steps, ncols), dtype=np.result_type(X, v))
    Q[0] = v
    alpha = np.zeros(steps)
    beta = np.zeros(steps)
    Xh = X.conj().T
    for k in range(steps):
        w = Xh @ (X @ Q[k])
        alpha[k] = float(np.real(np.vdot(Q[k], w)))
        basis = Q[: k + 1]
        for _ in range(2):  # classical Gram-Schmidt, twice
            w = w - basis.T @ (basis.conj() @ w)
        beta[k] = float(np.linalg.norm(w))
        T = np.diag(alpha[: k + 1]) + np.diag(beta[:k], 1) + np.diag(beta[:k], -1)
        thetas, S = np.linalg.eigh(T)
        theta = float(thetas[-1])
        resid = float(beta[k] * abs(S[k, -1]))
        if resid <= _LANCZOS_TOL * theta and theta > 0.0:
            return NormReport(math.sqrt(theta), "lanczos", k + 1, resid, True), basis.T @ S[:, -1]
        if beta[k] == 0.0 or k + 1 == steps:
            break
        Q[k + 1] = w / beta[k]

    sigma = float(np.linalg.svd(X, compute_uv=False)[0])
    return NormReport(sigma, "direct-small", k + 1, 0.0, True), None


def spectral_norm(A) -> NormReport:
    """Largest singular value of A by a dense LAPACK SVD.

    Square or rectangular, real or complex input.
    """
    A = _as_matrix(A)
    return NormReport(float(np.linalg.svd(A, compute_uv=False)[0]), "lapack", 0, 0.0, True)


def log_norm_2(A, tol: float = 1e-10) -> NormReport:
    """Logarithmic spectral norm: largest eigenvalue of the Hermitian part."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return lambda_max_hermitian(0.5 * (A + A.conj().T), tol)


def _diag_vector(D) -> np.ndarray:
    """Accept a diagonal given as a vector or as a full diagonal matrix."""
    D = np.asarray(D)
    if D.ndim == 1:
        return D
    if D.ndim == 2:
        if np.count_nonzero(D - np.diag(np.diag(D))):
            raise ValueError("scaling matrix has off-diagonal entries")
        return np.diag(D).copy()
    raise ValueError(f"expected a diagonal (vector or matrix), got shape {D.shape}")


def log_norm_D(A, D, tol: float = 1e-10) -> NormReport:
    """Logarithmic norm in the scaled inner product induced by diagonal D > 0.

    Equals the logarithmic spectral norm of D^{-1/2} A D^{1/2}.
    """
    A = _as_matrix(A)
    d = _diag_vector(D)
    if d.shape[0] != A.shape[0] or A.shape[0] != A.shape[1]:
        raise ValueError("dimension mismatch between matrix and scaling diagonal")
    if np.any(d <= 0):
        raise ValueError("scaling diagonal must be strictly positive")
    rt = np.sqrt(d)
    T = (A * rt[None, :]) / rt[:, None]
    return log_norm_2(T, tol)


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


def expm(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{tA} by scaling and squaring with Pade order 13.

    The squaring count is chosen so the scaled matrix has 1-norm at most 1.
    Raises OverflowError when the result grows beyond the representable
    range, identifying the size of the scaled problem.
    """
    A = _as_matrix(A)
    n, nc = A.shape
    if n != nc:
        raise ValueError("matrix must be square")
    if not (np.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    X = t * A.astype(np.complex128 if np.iscomplexobj(A) else np.float64)
    norm1 = float(np.abs(X).sum(axis=0).max())
    if norm1 == 0.0:
        return np.eye(n, dtype=X.dtype)
    squarings = 0 if norm1 <= 1.0 else int(math.ceil(math.log2(norm1)))
    Xs = X / (2.0**squarings)

    ident = np.eye(n, dtype=X.dtype)
    b = _PADE13
    X2 = Xs @ Xs
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = Xs @ (X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2) + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * ident)
    V = X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2) + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * ident
    R = np.linalg.solve(V - U, V + U)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(squarings):
            R = R @ R
            if not np.all(np.isfinite(R)):
                raise OverflowError(
                    f"matrix exponential overflowed during squaring: ||tA||_1 = {norm1:.6g}"
                )
    if not np.all(np.isfinite(R)):
        raise OverflowError(f"matrix exponential overflowed: ||tA||_1 = {norm1:.6g}")
    return R


def norm_expm(A, t: float, D=None) -> float:
    """Spectral norm (or D-scaled spectral norm) of e^{tA}.

    The diagonal similarity is applied to the computed exponential, not
    inside the exponential argument; the two agree in exact arithmetic and
    this choice reuses a single expm evaluation per t.
    """
    E = expm(A, t)
    if D is not None:
        d = _diag_vector(D)
        if np.any(d <= 0):
            raise ValueError("scaling diagonal must be strictly positive")
        rt = np.sqrt(d)
        E = (E * rt[None, :]) / rt[:, None]
    return spectral_norm(E).value
