"""Core numerical kernels: spectral norm, extreme Hermitian eigenvalue,
logarithmic norms, and the matrix exponential.

All public operations accept real or complex matrices.  The norm and
eigenvalue functions return a float from one dense ``eigvalsh``; the
spectral norm solves the Gram matrix of its argument scaled by a power of
two.  The sweep's norm scan evaluates the spectral norm of many nearby real
matrices; above a moderate order a private, warm-started Lanczos kernel on
X^T X (``_sigma_max_lanczos``) starts from the Ritz vector of the scan's
last sample, tests its top Ritz pair every fourth step (an ``eigh`` on
every step would cost more than the step's two matrix-vector products) and
may run as many steps as X^T X has columns; only a breakdown or an
exhausted Krylov space ends in a dense ``spectral_norm``.

``expm_samples`` evaluates e^{tA} at several t by scaling and squaring,
with the fewest squarings s that bring ||tA / 2^s||_1 within theta_13.
Taken in ascending order, a t that is an integer multiple k t0 of an
earlier t0 rides t0's squaring chain when that takes no more squarings than
t's own s: e^{tA} is the product of the chain matrices e^{2^b t0 A} over
the set bits b of k.  A power of two k has t0's scaled matrix tA / 2^s and
needs no product; scaling by a power of two is exact, so such a result is
bitwise the one a single-sample call gives.  ``expm`` is that call.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

__all__ = [
    "spectral_norm",
    "lambda_max_hermitian",
    "log_norm_2",
    "log_norm_D",
    "log_norm_inf",
    "expm",
    "expm_samples",
]

#: Acceptance test of the scan's Lanczos kernel: Ritz residual <= tol * theta.
_LANCZOS_TOL = 1e-10
#: The kernel tests its top Ritz pair after every this many steps.
_LANCZOS_TEST_EVERY = 4
#: Largest ||X||_1 with r_13(X) = e^X to double precision (Higham, SIAM J. Matrix Anal. Appl. 26 (2005)).
_THETA13 = 5.371920351148152
#: Largest ||tA||_1 that ``expm_samples`` accepts.  The result drifts by about eps ||tA||_1 / theta_13
#: through the squarings: ||e^{tA}||_2 - 1 of a 2 x 2 rotation stays within 1e-8 (the stability checks'
#: allowance) for ||tA||_1 <= 2^27 and reaches 1.4e-8 in (2^27, 2^28].
_RESOLVED_NORM = 2.0**27


def _as_matrix(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def lambda_max_hermitian(H) -> float:
    """Largest eigenvalue of a Hermitian matrix by a dense LAPACK solve.

    The input must satisfy ||H - H*||_max <= 1e-12 * ||H||_max; the solve
    runs on the Hermitian part 0.5 (H + H*), so both triangles count.
    """
    H = _as_matrix(H)
    if H.shape[0] != H.shape[1]:
        raise ValueError("matrix must be square")
    scale = float(np.abs(H).max())
    herm_err = float(np.abs(H - H.conj().T).max())
    if herm_err > 1e-12 * scale:
        raise ValueError(
            f"matrix is not Hermitian: asymmetry {herm_err:.3e} exceeds 1e-12 * {scale:.3e}"
        )
    return float(np.linalg.eigvalsh(0.5 * (H + H.conj().T))[-1])


def _sigma_max_lanczos(X, v0: np.ndarray | None = None):
    """Largest singular value of a real matrix X by warm-started Lanczos on X^T X.

    Returns (sigma, steps, ritz_vector_or_None).  Each step costs two
    matrix-vector products, so X^T X is never formed, and the Krylov basis
    is fully reorthogonalised.  The top Ritz pair is tested after every
    ``_LANCZOS_TEST_EVERY``-th step, at a breakdown and at step n (the order
    of X^T X), and accepted once its residual is at most ``_LANCZOS_TOL *
    theta`` with theta > 0; its vector is the warm start ``v0`` of the next
    call on a nearby matrix.  Without acceptance after n steps (an exhausted
    Krylov space), or at a breakdown at theta = 0 (a warm start inside the
    null space, or X = 0), ``spectral_norm(X)`` gives the value and the
    vector is None.
    """
    X = _as_matrix(X)
    ncols = X.shape[1]
    if v0 is None or v0.shape != (ncols,) or not np.linalg.norm(v0) > 0:
        v0 = np.random.default_rng(0).standard_normal(ncols)

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


def spectral_norm(A) -> float:
    """Largest singular value 2^e sqrt(lambda_max(B*B)) of A by one dense eigensolve.

    Square or rectangular, real or complex input.  B = A / 2^e, 2^e the power of two just above
    the largest entry, is exact and keeps B*B (B B* if A is wide) clear of over- and underflow.
    """
    A = _as_matrix(A)
    top = float(np.abs(A).max())
    if top == 0.0:
        return 0.0
    e = max(math.frexp(top)[1], -1023)  # 2^-e stays finite for subnormal entries
    B = A * math.ldexp(1.0, -e)
    G = B @ B.conj().T if B.shape[0] < B.shape[1] else B.conj().T @ B
    return math.ldexp(math.sqrt(float(np.linalg.eigvalsh(G)[-1])), e)


def log_norm_2(A) -> float:
    """Logarithmic spectral norm: largest eigenvalue of the Hermitian part."""
    A = _as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    return float(np.linalg.eigvalsh(0.5 * (A + A.conj().T))[-1])


def _scale_similar(M: np.ndarray, d) -> np.ndarray:
    """D^{-1/2} M D^{1/2} for the diagonal D = diag(d) of a square matrix M.

    ``d`` must be a vector of strictly positive entries, one per row of M;
    anything else raises ValueError.
    """
    d = np.asarray(d)
    if d.ndim != 1 or M.shape != (d.shape[0], d.shape[0]):
        raise ValueError(
            f"scaling diagonal of shape {d.shape} does not match the matrix shape {M.shape}"
        )
    if np.any(d <= 0):
        raise ValueError("scaling diagonal must be strictly positive")
    rt = np.sqrt(d)
    return (M * rt[None, :]) / rt[:, None]


def log_norm_D(A, D) -> float:
    """Logarithmic norm in the scaled inner product induced by diagonal D > 0.

    Equals the logarithmic spectral norm of D^{-1/2} A D^{1/2}.  ``D`` is
    the diagonal as a vector of positive entries, one per row of A.
    """
    return log_norm_2(_scale_similar(_as_matrix(A), D))


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


def _finite_product(X: np.ndarray, Y: np.ndarray, step: str, norm1: float) -> np.ndarray:
    """X @ Y, or OverflowError naming ``step`` and the sample's ||tA||_1 if an entry is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        M = X @ Y
    if not np.all(np.isfinite(M)):
        raise OverflowError(f"matrix exponential overflowed during {step}: ||tA||_1 = {norm1:.6g}")
    return M


def expm_samples(A, ts: Iterable[float]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (index, e^{t A}) for every t of ``ts``, by scaling and squaring with Pade order 13.

    Each t gets the squaring count s(t), the smallest s >= 0 with
    ||tA||_1 = t ||A||_1 <= theta_13 2^s, read off ``math.frexp``.  The
    samples are taken in ascending order.  A t > 0 joins the chain of an
    earlier base t0 when it is an integer multiple of it, t == k t0 in
    floating point, with s(t0) + floor(log2 k) <= s(t): the chain then needs
    no more squarings for t than t's own chain would.  Of several such
    chains it joins the one whose k has the fewest set bits (the earliest
    on a tie); otherwise t founds a chain, one Pade evaluation of
    t0 A / 2^s(t0) whose matrix after s(t0) + b squarings is
    E_b = e^{2^b t0 A}.  A member's e^{tA} is the product E_{b_1} E_{b_2}
    ... E_{b_r} over the set bits b_1 < b_2 < ... < b_r of k, multiplied
    left to right as the chain passes each bit, so a pending member holds
    one extra matrix.  A member with k = 2^j has the chain's own scaled
    matrix tA / 2^s(t) = t0 A / 2^s(t0) and no product; scaling by a power
    of two is exact (absent subnormal entries), so it is bitwise the result
    of a call with that t alone.  Chains run in ascending order of t0, so
    results do not come in the order of ``ts``; a yielded matrix may be a
    chain's working matrix and must not be modified in place.

    Every t is validated before any work: a negative or non-finite t
    raises ValueError, an overflowing ||tA||_1 OverflowError, and
    ||tA||_1 > 2^27 ArithmeticError.  Raises OverflowError when a squaring
    or product leaves the representable range, identifying the size of the
    problem of the sample it serves.
    """
    A = _as_matrix(A)
    n, nc = A.shape
    if n != nc:
        raise ValueError("matrix must be square")
    ts = list(ts)
    for t in ts:
        if not (np.isfinite(t) and t >= 0):
            raise ValueError(f"t must be finite and nonnegative, got {t}")
    A = A.astype(np.complex128 if np.iscomplexobj(A) else np.float64, copy=False)

    with np.errstate(over="ignore"):  # an overflow is reported below
        norm_a = float(np.abs(A).sum(axis=0).max())
    norms = [t * norm_a if t else 0.0 for t in ts]
    for norm1 in norms:
        if not math.isfinite(norm1):
            raise OverflowError(f"matrix exponential overflowed: ||tA||_1 = {norm1:.6g}")
        if norm1 > _RESOLVED_NORM:
            raise ArithmeticError(
                f"matrix exponential is not resolved in double precision: "
                f"||tA||_1 = {norm1:.6g} > 2^{math.log2(_RESOLVED_NORM):g}"
            )

    identity = []
    chains = []  # (t0, s(t0), [(index, k, ||tA||_1), ...] with the base t0 first), in ascending order of t0
    for i in sorted(range(len(ts)), key=ts.__getitem__):
        t, norm1 = ts[i], norms[i]
        if norm1 == 0.0:
            identity.append(i)
            continue
        mant, exp = math.frexp(norm1 / _THETA13)
        squarings = max(0, exp - (mant == 0.5))
        best = None  # (set bits of k, k, members of the chain)
        for t0, s0, members in chains:
            q = t / t0  # inf when t0 is subnormal
            k = round(q) if math.isfinite(q) else 0
            if k * t0 == t and s0 + k.bit_length() - 1 <= squarings:
                bits = bin(k).count("1")
                if best is None or bits < best[0]:
                    best = (bits, k, members)
        if best is None:
            chains.append((t, squarings, [(i, 1, norm1)]))
        else:
            best[2].append((i, best[1], norm1))

    for i in identity:
        yield i, np.eye(n, dtype=A.dtype)
    for t0, s0, members in chains:
        R = _pade13((t0 * A) / (2.0**s0))
        if not np.all(np.isfinite(R)):
            raise OverflowError(f"matrix exponential overflowed: ||tA||_1 = {members[0][2]:.6g}")
        partial = {}  # index -> product of the chain matrices over the bits of k passed so far
        last = s0 + max(k for _, k, _ in members).bit_length() - 1
        for done in range(last + 1):
            if done:
                # named after the first member that still needs this squaring
                norm1 = next(x for _, k, x in members if s0 + k.bit_length() > done)
                R = _finite_product(R, R, "squaring", norm1)
            bit = done - s0
            if bit < 0:
                continue
            for i, k, norm1 in members:
                if k >> bit & 1:
                    P = _finite_product(partial.pop(i), R, "multiplication", norm1) if i in partial else R
                    if k >> bit == 1:
                        yield i, P
                    else:
                        partial[i] = P


def expm(A, t: float = 1.0) -> np.ndarray:
    """Matrix exponential e^{tA}: the single-sample case of ``expm_samples``."""
    ((_, E),) = expm_samples(A, (t,))
    return E
