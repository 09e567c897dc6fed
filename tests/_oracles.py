"""Independent oracles for the test suite.

These deliberately avoid the library's own computational paths: eigenvalues
come from a cyclic Jacobi rotation solver, matrix exponentials from a
truncated Taylor series accumulated in extended precision, norms in the
limit-definition checks from LAPACK's SVD, and the dense mu_D reference from
LAPACK's symmetric eigensolver.  The closed-form reference
helpers below (symbols, certificate polynomials, the stencil commutator)
are written from their formulas.  Nothing here imports ``hestonstab``.
"""

import math

import numpy as np


def jacobi_eigvals(H, tol: float = 1e-14, max_sweeps: int = 60) -> np.ndarray:
    """Eigenvalues of a real symmetric matrix by cyclic Jacobi rotations.

    Returns the spectrum in ascending order.
    """
    A = np.array(H, dtype=float, copy=True)
    n = A.shape[0]
    if np.abs(A - A.T).max() > 1e-12 * max(1.0, np.abs(A).max()):
        raise ValueError("oracle expects a symmetric matrix")
    for _ in range(max_sweeps):
        off = math.sqrt(2.0 * np.sum(np.tril(A, -1) ** 2))
        if off <= tol * max(1.0, float(np.abs(np.diag(A)).max())):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if apq == 0.0:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                app, aqq = A[p, p], A[q, q]
                rowp = A[p, :].copy()
                rowq = A[q, :].copy()
                A[p, :] = c * rowp - s * rowq
                A[q, :] = s * rowp + c * rowq
                colp = A[:, p].copy()
                colq = A[:, q].copy()
                A[:, p] = c * colp - s * colq
                A[:, q] = s * colp + c * colq
                A[p, p] = app - t * apq
                A[q, q] = aqq + t * apq
                A[p, q] = A[q, p] = 0.0
    return np.sort(np.diag(A))


def hermitian_lambda_max(H) -> float:
    """Largest eigenvalue of a (possibly complex) Hermitian matrix.

    Complex input is embedded into the real symmetric matrix
    [[Re H, -Im H], [Im H, Re H]], whose spectrum is that of H doubled.
    """
    H = np.asarray(H)
    if np.iscomplexobj(H):
        X, Y = H.real, H.imag
        He = np.block([[X, -Y], [Y, X]])
        return float(jacobi_eigvals(He)[-1])
    return float(jacobi_eigvals(H)[-1])


def sigma_max(A) -> float:
    """Largest singular value via the Jacobi eigensolver on A*A."""
    A = np.asarray(A)
    H = A.conj().T @ A
    lam = hermitian_lambda_max(H)
    return math.sqrt(max(lam, 0.0))


def taylor_expm(A, t: float = 1.0, terms: int = 60) -> np.ndarray:
    """Truncated Taylor series for e^{tA}, accumulated in extended precision."""
    A = np.asarray(A)
    complex_ = np.iscomplexobj(A)
    dtype = np.clongdouble if complex_ else np.longdouble
    X = A.astype(dtype) * dtype(t)
    n = A.shape[0]
    total = np.eye(n, dtype=dtype)
    term = np.eye(n, dtype=dtype)
    for k in range(1, terms + 1):
        term = term @ X / dtype(k)
        total = total + term
    return total.astype(np.complex128 if complex_ else np.float64)


def log_norm_limit(A, h: float = 1e-7) -> float:
    """Finite-difference value of the defining limit (||I + hA||_2 - 1)/h."""
    A = np.asarray(A)
    n = A.shape[0]
    return float((np.linalg.norm(np.eye(n) + h * A, 2) - 1.0) / h)


def scale_similar(M, d) -> np.ndarray:
    """D^{-1/2} M D^{1/2} for the diagonal D = diag(d), d > 0."""
    rt = np.sqrt(np.asarray(d, dtype=float))
    return (np.asarray(M) * rt[None, :]) / rt[:, None]


def log_norm_D(A, d) -> float:
    """Dense mu_D[A]: the largest eigenvalue of the symmetric part of D^{-1/2} A D^{1/2} for real A,
    by LAPACK's ``eigvalsh``."""
    M = scale_similar(A, d)
    return float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1])


def pair_average_eigs(n: int) -> np.ndarray:
    """Closed-form spectrum cos(k pi/(n+1)), k = 1..n, of tridiag(1/2, 0, 1/2)."""
    return np.cos(np.arange(1, n + 1) * np.pi / (n + 1))


def unit_upper_shear_sigma_max(t: float) -> float:
    """Closed-form largest singular value of [[1, t], [0, 1]]."""
    return math.sqrt((2.0 + t * t + math.sqrt(4.0 * t * t + t**4)) / 2.0)


def pair_average(n: int) -> np.ndarray:
    """Symmetric neighbor-average matrix tridiag(1/2, 0, 1/2).

    Its eigenvalues are cos(k*pi/(n+1)), k = 1..n, all inside [-1, 1].
    """
    return 0.5 * (np.eye(n, k=1) + np.eye(n, k=-1))


def symbol_matrix(B0, B1, zeta: complex) -> np.ndarray:
    """Symbol B0 + zeta B1 + zeta^{-1} B1^T of a block tridiagonal Toeplitz form."""
    zeta = complex(zeta)
    if abs(abs(zeta) - 1.0) > 1e-12:
        raise ValueError(f"zeta must have unit modulus, got |zeta| = {abs(zeta)!r}")
    B0 = np.asarray(B0, dtype=float)
    B1 = np.asarray(B1, dtype=float)
    return B0 + zeta * B1 + (1.0 / zeta) * B1.T


def block_toeplitz(B0, B1, n_blocks: int) -> np.ndarray:
    """Block tridiagonal Toeplitz matrix I (x) B0 + E (x) B1 + E^T (x) B1^T, E the forward shift."""
    E = np.eye(n_blocks, k=1)
    return np.kron(np.eye(n_blocks), B0) + np.kron(E, B1) + np.kron(E.T, B1.T)


def block_tridiagonal(diag, upper) -> np.ndarray:
    """The symmetric block tridiagonal matrix with diagonal blocks diag[j] and H[j, j+1] = upper[j]."""
    p, m = np.shape(diag)[:2]
    H = np.zeros((p * m, p * m))
    for j in range(p):
        H[j * m:(j + 1) * m, j * m:(j + 1) * m] = diag[j]
        if j + 1 < p:
            H[j * m:(j + 1) * m, (j + 1) * m:(j + 2) * m] = upper[j]
            H[(j + 1) * m:(j + 2) * m, j * m:(j + 1) * m] = np.transpose(upper[j])
    return H


def quartic_value(nu: float, theta: float) -> float:
    """Quartic 4 th(th-1) nu^4 + th^2 (4 th - 1) nu^2 + th^4.

    Nonnegative for all nu whenever theta >= 1; equivalent to the unweighted
    row inequality of the tridiagonal family in the large-y case.
    """
    return 4.0 * theta * (theta - 1.0) * nu**4 + theta**2 * (4.0 * theta - 1.0) * nu**2 + theta**4


def cubic_value(nu: float) -> float:
    """Cubic nu^3 - (3/4) nu^2 - (3/2) nu - 9/16.

    Nonnegative for nu >= 2; equivalent to the weighted row condition
    2 a + b <= 1 in the small-y case.
    """
    return nu**3 - 0.75 * nu**2 - 1.5 * nu - 0.5625


def small_y_row_coefficients(nu) -> list:
    """(eps, a, a_bracket, b) of each small-y certificate row, one row at a time.

    Written from the row formulas in 80-bit scalars: eps_j = (nu_j - 1/2)(nu_j + 1/2) / nu_j^2,
    a_bracket = (nu/2)(-2 nu + eps_i (nu - 1/2) + (nu + 1/2) / eps_{i+1}) and
    b = (nu/2)(eps_i / (nu - 1/2) + 1 / (eps_{i+1} (nu + 1/2))), each without the
    term of a missing neighbour (the lower one on row 1, the upper one on row m1);
    a is the closed form -(nu - 3/4) / (8 nu (nu + 3/2)) on interior rows and
    the bracket on boundary rows, and eps is None on row 1.
    """
    nu = [np.longdouble(x) for x in nu]
    eps = [(x - 0.5) * (x + 0.5) / x**2 for x in nu]
    rows = []
    for i, x in enumerate(nu):
        has_lower, has_upper = i > 0, i < len(nu) - 1
        bracket, b = -2.0 * x, 0.0
        if has_lower:
            bracket += eps[i] * (x - 0.5)
            b += eps[i] / (x - 0.5)
        if has_upper:
            bracket += (x + 0.5) / eps[i + 1]
            b += 1.0 / (eps[i + 1] * (x + 0.5))
        a_bracket = float(0.5 * x * bracket)
        a = float(-(x - 0.75) / (8.0 * x * (x + 1.5))) if has_lower and has_upper else a_bracket
        rows.append((float(eps[i]) if has_lower else None, a, a_bracket, float(0.5 * x * b)))
    return rows


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def commutator_check(d1_s, d2_s, s_points) -> float:
    """Residual of the identity (1/2)(d2_s Ds - Ds d2_s) = d1_s, Ds = diag(s_points).

    ``d1_s`` and ``d2_s`` are the price-direction first- and second-difference
    matrices.  Returns the max-entry norm of the difference.  For any grid
    the residual stays below 1e-13 * max(1, 1/ds^2); it is exactly zero when
    the grid coordinates are small integers.
    """
    Ds = np.diag(np.asarray(s_points, dtype=float))
    resid = 0.5 * (d2_s @ Ds - Ds @ d2_s) - d1_s
    return float(np.abs(resid).max())
