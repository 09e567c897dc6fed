"""Numerical verification of the stability bounds for the semi-discrete
Heston operators and of the contractivity certificate chain.

The chain runs: advection log-norm bounds; a block-Toeplitz symbol bound;
similarity reduction of the diffusion part to block form; a sequence of
sufficient symbol conditions on the unit circle that collapse to a single
tridiagonal family indexed by a real parameter y; and finally per-row
weighted inequalities that certify the family, split into the cases
|y| >= 1/2 (a quartic polynomial inequality) and |y| < 1/2 (diagonal
weights with closed-form row coefficients).

The certificates of the stability bounds themselves are log norms:
mu_2 of the two advection blocks and mu_D of the diffusion part.  A log
norm mu bounds ||e^{tA}|| <= e^{t mu} for every t >= 0, so no exponential
is sampled here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid import GridSpec, scaling_diagonal
from .linalg import (
    lambda_max_hermitian,
    log_norm_2,
    log_norm_D,
    log_norm_inf,
    spectral_norm,
)
from .operators import OperatorSet

__all__ = [
    "BoundCheck",
    "CertificateRow",
    "DEFAULT_Y_SAMPLES",
    "check_advection_bounds",
    "check_diffusion_contractivity",
    "check_block_toeplitz_symbol_bound",
    "diffusion_block_reduction",
    "check_symbol_conditions",
    "certificate_case_large_y",
    "certificate_case_small_y",
    "format_certificate_report",
]

#: Sample set for the real parameter of the tridiagonal family.
DEFAULT_Y_SAMPLES = (
    0.0,
    0.1,
    -0.1,
    0.25,
    -0.25,
    0.49,
    -0.49,
    0.5,
    -0.5,
    0.6,
    -0.6,
    1.0,
    -1.0,
    5.0,
    -5.0,
)

#: Number of unit-circle samples (roots of unity) of the symbol checks.
DEFAULT_ZETA_SAMPLES = 64

# Rounding allowance of every check, relative to the check's own scale.
_CHECK_TOL = 1e-8
# Rounding allowance of the block-Toeplitz bound, on top of its sampling slack.
_TOEPLITZ_TOL = 1e-9


@dataclass(frozen=True)
class BoundCheck:
    """One inequality check: does lhs <= rhs hold up to tol?"""

    name: str
    lhs: float
    rhs: float
    tol: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def holds(self) -> bool:
        return self.margin >= -self.tol


@dataclass(frozen=True)
class CertificateRow:
    """Per-row data of the certificate for the tridiagonal family.

    nu is the grid coordinate ratio s_i / ds for row i; alpha, beta_mag and
    gamma_mag are the magnitudes of the row's tridiagonal entries (alpha is
    the real diagonal).  For the small-y case, eps is the diagonal weight
    ratio of the row (defined from row 2 on) and a, b are the row
    coefficients bounding the weighted row sum by a + b * 2y^2; a_bracket is
    the same coefficient evaluated from its defining bracket rather than the
    closed form.  theta = 4y^2 is populated in the large-y case.
    """

    i: int
    nu: float
    alpha: float
    beta_mag: float
    gamma_mag: float
    y: float
    eps: Optional[float] = None
    a: Optional[float] = None
    a_bracket: Optional[float] = None
    b: Optional[float] = None
    theta: Optional[float] = None


def check_advection_bounds(ops: OperatorSet):
    """Log-norm bounds for the two advection blocks of ``ops``.

    Returns checks mu2[adv_s] <= r/2 and mu2[adv_v] <= kappa/2, each up to
    1e-8, taken on the 1-D factors without forming a 2-D block.  That is exact:
    the Hermitian part of I (x) X is I (x) He(X), with the spectrum of He(X), so
    mu2[I (x) X] = mu2[X (x) I] = mu2[X].  They are also compared against
    their sharp closed forms (r/2)cos(pi/(m1+1)) and (kappa/2)cos(pi/(m2+1));
    disagreement beyond 1e-8 raises, since those values are exact for these
    operators.
    """
    m1, m2 = ops.grid.m1, ops.grid.m2
    params = ops.params
    mu_s = log_norm_2(ops.adv_s_factor)
    mu_v = log_norm_2(ops.adv_v_factor)
    sharp_s = 0.5 * params.r * math.cos(math.pi / (m1 + 1))
    sharp_v = 0.5 * params.kappa * math.cos(math.pi / (m2 + 1))
    if abs(mu_s - sharp_s) > 1e-8 * max(1.0, params.r):
        raise ArithmeticError(
            f"price advection log norm {mu_s!r} deviates from sharp value {sharp_s!r}"
        )
    if abs(mu_v - sharp_v) > 1e-8 * max(1.0, params.kappa):
        raise ArithmeticError(
            f"variance advection log norm {mu_v!r} deviates from sharp value {sharp_v!r}"
        )
    return (
        BoundCheck("advection_s_log_norm", mu_s, 0.5 * params.r, _CHECK_TOL),
        BoundCheck("advection_v_log_norm", mu_v, 0.5 * params.kappa, _CHECK_TOL),
    )


def check_diffusion_contractivity(ops: OperatorSet) -> BoundCheck:
    """Contractivity certificate of the diffusion part on ``ops.grid``.

    Returns the check mu_D[diffusion] <= 0 up to 1e-8 times the largest
    entry, D = ``scaling_diagonal(ops.grid)``.  It gives
    ||e^{t diffusion}||_D <= 1 and ||e^{t diffusion}||_2 <= sqrt(cond D)
    for every t >= 0.
    """
    A = ops.diffusion
    scale = float(np.abs(A).max())
    return BoundCheck(
        "diffusion_log_norm_D", log_norm_D(A, scaling_diagonal(ops.grid)), 0.0, _CHECK_TOL * scale
    )


def _block_toeplitz(B0: np.ndarray, B1: np.ndarray, n_blocks: int) -> np.ndarray:
    """Block tridiagonal Toeplitz matrix I (x) B0 + E (x) B1 + E^T (x) B1^T, E the forward shift."""
    E = np.eye(n_blocks, k=1)
    return np.kron(np.eye(n_blocks), B0) + np.kron(E, B1) + np.kron(E.T, B1.T)


def check_block_toeplitz_symbol_bound(B0, B1, n_blocks: int) -> BoundCheck:
    """Log-norm of a block tridiagonal Toeplitz matrix vs its symbol maximum.

    Assembles B = I (x) B0 + E (x) B1 + E^T (x) B1^T with n_blocks blocks and
    checks mu2[B] <= max_k mu2[B0 + 2 zeta_k B1] over the DEFAULT_ZETA_SAMPLES
    roots of unity; the one-sided companion B0 + 2 zeta B1 has the Hermitian
    part of the full symbol B0 + zeta B1 + zeta^{-1} B1^T.  The check tolerance
    is 1e-9 times the largest entry (at least 1) plus the sampling slack
    2 ||B1||_2 times the maximal chord distance to a sample, since the sampled
    maximum can fall below the true maximum over the circle by at most that
    much.  Raises ValueError unless n_blocks >= 2 and B0, B1 are square
    matrices of equal size.
    """
    if n_blocks < 2:
        raise ValueError(f"need at least 2 blocks, got {n_blocks}")
    B0 = np.asarray(B0, dtype=float)
    B1 = np.asarray(B1, dtype=float)
    if B0.ndim != 2 or B0.shape[0] != B0.shape[1] or B1.shape != B0.shape:
        raise ValueError(
            f"B0 and B1 must be square matrices of equal size, got shapes {B0.shape} and {B1.shape}"
        )
    lhs = log_norm_2(_block_toeplitz(B0, B1, n_blocks))
    # B0, B1 are real, so the companions of conjugate zeta are conjugate: k <= n/2 suffice
    zetas = (
        cmath.exp(2j * math.pi * k / DEFAULT_ZETA_SAMPLES) for k in range(DEFAULT_ZETA_SAMPLES // 2 + 1)
    )
    rhs = max(log_norm_2(B0 + 2.0 * zeta * B1) for zeta in zetas)
    slack = 2.0 * spectral_norm(B1) * 2.0 * math.sin(math.pi / (2 * DEFAULT_ZETA_SAMPLES))
    scale = max(1.0, float(np.abs(B0).max()), float(np.abs(B1).max()))
    return BoundCheck("block_toeplitz_symbol_bound", lhs, rhs, slack + _TOEPLITZ_TOL * scale)


def diffusion_block_reduction(ops: OperatorSet):
    """Similarity reduction of the diffusion part of ``ops`` to block tridiagonal form.

    Returns (B, B0, B1) where B is ``ops.diffusion`` transformed by the
    diagonal similarity that removes the variance scaling and symmetrizes
    the price scaling, B0 = (1/2)(diff_sym - 2 sv^2 I) is the diagonal
    block, and B1 = (1/2)(rho sv adv_sym + sv^2 I) the off-diagonal block,
    with sv = sigma / dv.  The block tridiagonal Toeplitz assembly of B0 and
    B1 must reproduce B elementwise to roundoff; a mismatch raises,
    signalling an assembly bug.
    """
    grid = ops.grid
    sv = ops.params.sigma / grid.dv
    ident1 = np.eye(grid.m1)
    B0 = 0.5 * (ops.diff_sym - 2.0 * sv**2 * ident1)
    B1 = 0.5 * (ops.params.rho * sv * ops.adv_sym + sv**2 * ident1)

    rt_s = np.sqrt(grid.s_points)
    left = np.kron(1.0 / grid.v_points, 1.0 / rt_s)
    right = np.kron(np.ones(grid.m2), rt_s)
    B = ops.diffusion * right[None, :] * left[:, None]

    blocks = _block_toeplitz(B0, B1, grid.m2)
    scale = max(1.0, float(np.abs(B).max()))
    mismatch = float(np.abs(B - blocks).max())
    if mismatch > 1e-10 * scale:
        raise ValueError(
            f"block assembly disagrees with similarity formula by {mismatch:.3e}"
        )
    return B, B0, B1


def _lambda_max_real_spectrum(T: np.ndarray, name: str) -> float:
    """Largest eigenvalue of a matrix whose spectrum is real.

    The certificate matrices are diagonally similar to Hermitian ones, so
    their eigenvalues are real up to roundoff; a significant imaginary part
    indicates the wrong matrix was passed.
    """
    evals = np.linalg.eigvals(T)
    scale = max(1.0, float(np.abs(evals).max()))
    if float(np.abs(evals.imag).max()) > 1e-8 * scale:
        raise ValueError(f"{name}: spectrum is not real; wrong matrix?")
    return float(evals.real.max())


def check_symbol_conditions(ops: OperatorSet):
    """Evaluate the chain of sufficient symbol conditions on ``ops.grid``.

    For each of the DEFAULT_ZETA_SAMPLES unit-modulus zeta two equivalent
    conditions are checked: the Hermitian form built from the symmetrized
    scaled operators (lambda_max <= 2 sv^2 (1 - Re zeta)) and its
    diagonal-similarity transform in terms of the 1-D convection/diffusion
    operators (lambda_max <= sv^2 (1 - Re zeta)).  Their margins must agree
    up to the factor 2 from the similarity; a violation raises.  For each y
    of DEFAULT_Y_SAMPLES the collapsed condition
    lambda_max[diff_1d + (1/2 + 2iy) adv_1d] <= 2 y^2 is checked.  Every
    check allows 1e-8 times the largest entry of diff_sym (at least 1).
    Returns the full list of BoundChecks.
    """
    sv = ops.params.sigma / ops.grid.dv
    sym_part = 0.5 * (ops.diff_sym + ops.diff_sym.T)
    conv_part = ops.diff_1d + 0.5 * ops.adv_1d
    scale = max(1.0, float(np.abs(ops.diff_sym).max()))
    tol = _CHECK_TOL * scale

    # both lhs matrices depend on |Im zeta| only (-Im zeta conjugates them): n/4 + 1 pairs of solves
    half = DEFAULT_ZETA_SAMPLES // 2
    lhs = []
    for j in range(half // 2 + 1):
        im = cmath.exp(2j * math.pi * j / DEFAULT_ZETA_SAMPLES).imag
        lhs_a = lambda_max_hermitian(sym_part + 2j * im * ops.params.rho * sv * ops.adv_sym)
        T = conv_part + 1j * im * ops.params.rho * sv * ops.adv_1d
        lhs.append((lhs_a, _lambda_max_real_spectrum(T, "convection-form symbol condition")))

    checks = []
    for k in range(DEFAULT_ZETA_SAMPLES):
        re = cmath.exp(2j * math.pi * k / DEFAULT_ZETA_SAMPLES).real
        lhs_a, lhs_b = lhs[min(k % half, half - k % half)]
        rhs_a = 2.0 * sv**2 * (1.0 - re)
        check_a = BoundCheck(f"scaled_symbol_cond[zeta={k}/{DEFAULT_ZETA_SAMPLES}]", lhs_a, rhs_a, tol)
        rhs_b = sv**2 * (1.0 - re)
        check_b = BoundCheck(f"convection_symbol_cond[zeta={k}/{DEFAULT_ZETA_SAMPLES}]", lhs_b, rhs_b, tol)
        if abs(check_a.margin - 2.0 * check_b.margin) > 1e-6 * scale:
            raise ArithmeticError(
                "similarity-equivalent symbol conditions disagree: "
                f"margins {check_a.margin!r} vs {check_b.margin!r}"
            )
        checks.extend((check_a, check_b))

    family = {}  # |y| -> lhs: the matrices of y and -y are conjugate
    for y in DEFAULT_Y_SAMPLES:
        if abs(y) not in family:
            T = ops.diff_1d + (0.5 + 2j * abs(y)) * ops.adv_1d
            family[abs(y)] = _lambda_max_real_spectrum(T, "tridiagonal family")
        checks.append(BoundCheck(f"tridiag_family_cond[y={y:g}]", family[abs(y)], 2.0 * y**2, tol))
    return checks


def _family_entries(grid: GridSpec, y: float):
    """Row data (nu, alpha, |beta|, |gamma|) of the tridiagonal family.

    Row i has diagonal -nu_i^2, sub-diagonal (1/2) nu_i (nu_i - 1/2 - 2iy)
    and super-diagonal (1/2) nu_i (nu_i + 1/2 + 2iy); the first row has no
    sub-diagonal and the last row no super-diagonal.
    """
    nu = grid.s_points / grid.ds
    m1 = grid.m1
    alpha = -(nu**2)
    beta_mag = 0.5 * nu * np.hypot(nu - 0.5, 2.0 * y)
    gamma_mag = 0.5 * nu * np.hypot(nu + 0.5, 2.0 * y)
    beta_mag[0] = 0.0
    gamma_mag[m1 - 1] = 0.0
    return nu, alpha, beta_mag, gamma_mag


def certificate_case_large_y(ops: OperatorSet, y: float):
    """Row certificate for the tridiagonal family on ``ops.grid`` when |y| >= 1/2.

    Each unweighted row sum alpha_i + |beta_i| + |gamma_i| is bounded by
    2 y^2; with theta = 4 y^2 >= 1 the generic row inequality is equivalent
    to the quartic 4 th(th-1) nu_i^4 + th^2 (4 th - 1) nu_i^2 + th^4 >= 0,
    which holds identically.  Returns the per-row data and the overall check
    that the logarithmic maximum norm of the family matrix
    diff_1d + (1/2 + 2iy) adv_1d is at most 2 y^2, up to 1e-8.
    """
    if abs(y) < 0.5:
        raise ValueError(f"this certificate covers |y| >= 1/2, got y = {y}")
    grid = ops.grid
    nu, alpha, beta_mag, gamma_mag = _family_entries(grid, y)
    theta = 4.0 * y**2
    rows = [
        CertificateRow(
            i=i + 1,
            nu=float(nu[i]),
            alpha=float(alpha[i]),
            beta_mag=float(beta_mag[i]),
            gamma_mag=float(gamma_mag[i]),
            y=y,
            theta=theta,
        )
        for i in range(grid.m1)
    ]
    family = ops.diff_1d + (0.5 + 2j * y) * ops.adv_1d
    check = BoundCheck("family_log_norm_inf[large_y]", log_norm_inf(family), 2.0 * y**2, _CHECK_TOL)
    return rows, check


def certificate_case_small_y(ops: OperatorSet, y: float):
    """Row certificate for the tridiagonal family on ``ops.grid`` when |y| < 1/2.

    A diagonal similarity with weights whose consecutive ratios are eps_j
    turns the row sums into alpha_i + eps_i |beta_i| + |gamma_i| / eps_{i+1}.
    For interior rows this is bounded by a_i + b_i * 2 y^2 where a_i and
    b_i come from the estimate |x + 2iy| <= x + 2 y^2 / x; the weighted
    bound stays below 2 y^2 exactly when a_i <= 0 and 2 a_i + b_i <= 1,
    which for these weights reduces to nu_i^3 - (3/4) nu_i^2 - (3/2) nu_i - 9/16
    >= 0, true for nu_i >= 2.  The closed
    form for a_i is cross-checked against its defining bracket to 1e-12
    (both evaluated in extended precision) on interior rows; a mismatch
    raises.  A boundary row uses the interior expressions with its missing
    neighbour's term set to 0, and reports a from the bracket.  Returns the
    per-row data and the overall check that the weighted row maximum is at
    most 2 y^2, up to 1e-8.
    """
    if abs(y) >= 0.5:
        raise ValueError(f"this certificate covers |y| < 1/2, got y = {y}")
    nu64, alpha, beta_mag, gamma_mag = _family_entries(ops.grid, y)
    # Weight ratios eps_j = (nu_j - 1/2)(nu_j + 1/2) / nu_j^2 in extended precision, because the
    # brackets below cancel heavily.  Row i reads its lower neighbour's ratio eps_i (0 on row 1)
    # and its upper neighbour's eps_{i+1} (infinite on row m1), so a missing neighbour adds 0.
    nu = nu64.astype(np.longdouble)
    eps = (nu - 0.5) * (nu + 0.5) / nu**2
    eps_lo, eps_up = np.concatenate(([0.0], eps[1:])), np.append(eps[1:], np.inf)
    a_bracket = (0.5 * nu * (-2.0 * nu + eps_lo * (nu - 0.5) + (nu + 0.5) / eps_up)).astype(float)
    b = (0.5 * nu * (eps_lo / (nu - 0.5) + 1.0 / (eps_up * (nu + 0.5)))).astype(float)
    a_closed = (-(nu - 0.75) / (8.0 * nu * (nu + 1.5))).astype(float)
    bad = np.flatnonzero(np.abs(a_bracket[1:-1] - a_closed[1:-1]) > 1e-12)
    if bad.size:
        i = bad[0] + 1
        raise ArithmeticError(
            f"row {i + 1}: weight coefficient closed form {float(a_closed[i])!r} "
            f"disagrees with bracket {float(a_bracket[i])!r}"
        )
    a = a_bracket.copy()
    a[1:-1] = a_closed[1:-1]
    eps_lo, eps_up = eps_lo.astype(float), eps_up.astype(float)
    weighted = alpha + eps_lo * beta_mag + gamma_mag / eps_up
    columns = zip(
        nu64.tolist(), alpha.tolist(), beta_mag.tolist(), gamma_mag.tolist(),
        [None, *eps_lo[1:].tolist()], a.tolist(), a_bracket.tolist(), b.tolist(),
    )
    rows = [
        CertificateRow(i=i, nu=nu_i, alpha=al, beta_mag=be, gamma_mag=ga, y=y,
                       eps=eps_i, a=a_i, a_bracket=a_br, b=b_i)
        for i, (nu_i, al, be, ga, eps_i, a_i, a_br, b_i) in enumerate(columns, start=1)
    ]
    check = BoundCheck(
        "family_weighted_row_bound[small_y]", float(weighted.max()), 2.0 * y**2, _CHECK_TOL
    )
    return rows, check


def format_certificate_report(rows: Sequence[CertificateRow], checks: Sequence[BoundCheck]) -> str:
    """Plain-text report: one line per certificate row, one per check."""
    lines = []
    for r in rows:
        parts = [
            f"row i={r.i}",
            f"nu={r.nu:.12g}",
            f"alpha={r.alpha:.12g}",
            f"beta_mag={r.beta_mag:.12g}",
            f"gamma_mag={r.gamma_mag:.12g}",
            f"y={r.y:g}",
        ]
        if r.eps is not None:
            parts.append(f"eps={r.eps:.12g}")
        if r.a is not None:
            parts.append(f"a={r.a:.12g}")
        if r.b is not None:
            parts.append(f"b={r.b:.12g}")
        if r.theta is not None:
            parts.append(f"theta={r.theta:g}")
        lines.append(" ".join(parts))
    for c in checks:
        lines.append(
            f"check name={c.name} lhs={c.lhs:.12g} rhs={c.rhs:.12g} "
            f"margin={c.margin:.12g} holds={str(c.holds).lower()}"
        )
    return "\n".join(lines) + "\n"
