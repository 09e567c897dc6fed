"""Numerical verification of the stability bounds for the semi-discrete
Heston operators and of the contractivity certificate chain.

The chain runs: advection log-norm bounds; the block-Toeplitz symbol bound on
the similarity reduction of the diffusion part, checked block by block; a sequence of
sufficient symbol conditions on the unit circle that collapse to a single
tridiagonal family indexed by a real parameter y; and finally per-row
weighted inequalities that certify the family (``certificate_rows``), which
picks its case from y: |y| >= 1/2 (a quartic polynomial inequality) or
|y| < 1/2 (diagonal weights with closed-form row coefficients).  Every
matrix of the symbol conditions and of the family is real plus i Im(zeta) or
i y times a real matrix, so a conjugate zeta or -y gives the conjugate
matrix: the checks sample the closed upper half circle and y >= 0 only.
Each sample set takes one batched ``eigvalsh``; the uniform grid
(nu_{i+1} = nu_i + 1) makes the tridiagonal convection-form and family
matrices similar to real symmetric ones.

The certificates of the stability bounds themselves are log norms:
mu_2 of the two advection blocks and mu_D of the diffusion part.  A log
norm mu bounds ||e^{tA}|| <= e^{t mu} for every t >= 0, so no exponential
is sampled here.  The advection checks read the 1-D factors and the diffusion
checks read its band of m2 block rows (``operators._band``), so no check forms
a matrix of order m1 m2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linalg import _block_lambda_max, log_norm_2, log_norm_inf, spectral_norm
from .operators import OperatorSet, _band

__all__ = [
    "BoundCheck",
    "CertificateRow",
    "DEFAULT_Y_SAMPLES",
    "check_advection_bounds",
    "check_diffusion_contractivity",
    "check_block_toeplitz_symbol_bound",
    "check_symbol_conditions",
    "certificate_rows",
    "format_certificate_report",
]

#: Sample set y >= 0 of the real parameter of the tridiagonal family; -y
#: gives the conjugate family matrix, with the same spectrum and row certificate.
DEFAULT_Y_SAMPLES = (0.0, 0.1, 0.25, 0.49, 0.5, 0.6, 1.0, 5.0)

#: Order n of the roots of unity e^{2 pi i k / n} that the symbol checks sample.
DEFAULT_ZETA_SAMPLES = 64

# The roots of unity both symbol checks sample: k = 0..n/2, the closed upper half circle.
_UPPER_ZETAS = tuple(
    cmath.exp(2j * math.pi * k / DEFAULT_ZETA_SAMPLES) for k in range(DEFAULT_ZETA_SAMPLES // 2 + 1)
)

# Rounding allowance of every check, relative to the check's own scale.
_CHECK_TOL = 1e-8
# Rounding allowance of the block-Toeplitz bound, on top of its sampling slack.
_TOEPLITZ_TOL = 1e-9
# What mu_D raises for a finite diffusion whose D-similarity leaves the float range.
_SIMILARITY_OVERFLOW = "scaled log norm overflowed: D^{-1/2} A D^{1/2} has non-finite entries"


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


def _scale_band(band, col: np.ndarray, row: np.ndarray, overflow: str) -> None:
    """Scale the diagonal, upper and lower blocks of ``band`` (``operators._band``) in place, entry
    ((j, i), (k, l)) to (a * col[k, l]) / row[j, i]; OverflowError(overflow) past the float range."""
    j = np.arange(len(col))
    pairs = (j, j), (j[:-1], j[1:]), (j[1:], j[:-1])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        for B, (r, c) in zip(band, pairs):
            B *= col[c, None, :]
            B /= row[r, :, None]
    if not all(np.isfinite(B).all() for B in band):
        raise OverflowError(overflow)


def check_diffusion_contractivity(ops: OperatorSet) -> BoundCheck:
    """Contractivity certificate of the diffusion part on ``ops.grid``.

    Returns the check mu_D[diffusion] <= 0 up to 1e-8 times the largest entry, D =
    ``scaling_diagonal(ops.grid)``, which gives ||e^{t diffusion}||_D <= 1 and ||e^{t diffusion}||_2
    <= sqrt(cond D) for every t >= 0; mu_D is ``_block_lambda_max`` of He(D^{-1/2} diffusion D^{1/2}),
    formed from the diffusion's band.  A finite diffusion whose similarity overflows raises OverflowError.
    """
    diag, up, low = band = _band(ops, "diffusion")
    tol = _CHECK_TOL * max(float(np.abs(B).max()) for B in band)
    rt = np.sqrt(np.outer(ops.grid.v_points, ops.grid.s_points))  # sqrt(D) in grid order, a row per v_j
    _scale_band(band, rt, rt, _SIMILARITY_OVERFLOW)
    herm = 0.5 * (diag + diag.swapaxes(1, 2)), 0.5 * (up + low.swapaxes(1, 2))
    del band, diag, up, low  # release the scaled band: the kernel reads only its Hermitian part
    return BoundCheck("diffusion_log_norm_D", _block_lambda_max(*herm), 0.0, tol)


def _block_toeplitz_bound(B0: np.ndarray, B1: np.ndarray, n_blocks: int) -> BoundCheck:
    """Log-norm of a block tridiagonal Toeplitz matrix vs its symbol maximum.

    B = I (x) B0 + E (x) B1 + E^T (x) B1^T, E the forward shift, has n_blocks >= 2 blocks of the
    real square matrices B0 and B1.  The check is mu2[B] <= max_k mu2[B0 + 2 zeta_k B1] over the
    roots of unity zeta_k = e^{2 pi i k / DEFAULT_ZETA_SAMPLES} on the closed upper half circle
    (B0, B1 are real, so conjugate zeta give conjugate companions); the one-sided companion
    B0 + 2 zeta B1 has the Hermitian part of the full symbol B0 + zeta B1 + zeta^{-1} B1^T.
    mu2[B] is ``_block_lambda_max`` of He(B0) and B1 broadcast along the block diagonals.  The
    check tolerance is 1e-9 times the largest entry (at least 1) plus the sampling slack
    2 ||B1||_2 times the maximal chord distance to a sample, since the sampled maximum can fall
    below the true maximum over the circle by at most that much.
    """
    lhs = _block_lambda_max(np.broadcast_to(0.5 * (B0 + B0.T), (n_blocks, *B0.shape)),
                            np.broadcast_to(B1, (n_blocks - 1, *B1.shape)))
    companions = B0 + 2.0 * np.array(_UPPER_ZETAS)[:, None, None] * B1
    rhs = float(np.linalg.eigvalsh(0.5 * (companions + companions.conj().swapaxes(1, 2)))[:, -1].max())
    slack = 2.0 * spectral_norm(B1) * 2.0 * math.sin(math.pi / (2 * DEFAULT_ZETA_SAMPLES))
    scale = max(1.0, float(np.abs(B0).max()), float(np.abs(B1).max()))
    return BoundCheck("block_toeplitz_symbol_bound", lhs, rhs, slack + _TOEPLITZ_TOL * scale)


def check_block_toeplitz_symbol_bound(ops: OperatorSet) -> BoundCheck:
    """Block-Toeplitz symbol bound of the diffusion part of ``ops``.

    The diagonal similarity that removes the variance scaling and symmetrizes the price scaling
    turns the diffusion part into the block tridiagonal Toeplitz matrix with m2 blocks of order
    m1: the diagonal block B0 = (1/2)(diff_sym - 2 sv^2 I) and the off-diagonal block
    B1 = (1/2)(rho sv adv_sym + sv^2 I), sv = sigma / dv, with B1^T below the diagonal.  The
    transformed band of the diffusion (``_scale_band``) must match that assembly to 1e-10 times
    its largest entry (at least 1), or ValueError signals an assembly bug.  Returns
    ``_block_toeplitz_bound``'s check.
    """
    grid, sv = ops.grid, ops.params.sigma / ops.grid.dv
    B0 = 0.5 * (ops.diff_sym - 2.0 * sv**2 * np.eye(grid.m1))
    B1 = 0.5 * (ops.params.rho * sv * ops.adv_sym + sv**2 * np.eye(grid.m1))
    rt_s = np.sqrt(grid.s_points)
    band = _band(ops, "diffusion")
    _scale_band(band, np.broadcast_to(rt_s, (grid.m2, grid.m1)), np.outer(grid.v_points, rt_s),
                "block-Toeplitz reduction overflowed: non-finite transformed diffusion")
    mismatch = max(float(np.abs(B - C).max(initial=0.0)) for B, C in zip(band, (B0, B1, B1.T)))
    if mismatch > 1e-10 * max(1.0, *(float(np.abs(B).max(initial=0.0)) for B in band)):
        raise ValueError(f"block assembly disagrees with similarity formula by {mismatch:.3e}")
    del band  # release the transformed band: the bound reads only B0 and B1
    return _block_toeplitz_bound(B0, B1, grid.m2)


def _lambda_max_tridiagonal(T: np.ndarray, name: str) -> np.ndarray:
    """Largest eigenvalue of each tridiagonal matrix of a stack T (..., m, m).

    A real diagonal and real products p_i = T[i, i+1] T[i+1, i] >= 0 make T diagonally similar
    to the real symmetric tridiagonal J with the same diagonal and off-diagonal sqrt(p_i)
    (Wilkinson, The Algebraic Eigenvalue Problem, 1965); one batched ``eigvalsh`` solves every J.
    An entry outside the band or an imaginary diagonal part beyond 1e-8 max(1, max |T|), or a
    product's imaginary or negative part beyond 1e-8 max(1, max |T|)^2, raises ValueError.
    """
    i = np.arange(T.shape[-1])
    scale = max(1.0, float(np.abs(T).max()))
    outside = np.abs(T[..., np.abs(i[:, None] - i) > 1]).max(initial=0.0)
    prod = T[..., i[:-1], i[1:]] * T[..., i[1:], i[:-1]]
    if (max(outside, np.abs(T[..., i, i].imag).max()) > 1e-8 * scale
            or max(np.abs(prod.imag).max(), -prod.real.min()) > 1e-8 * scale**2):
        raise ValueError(f"{name}: not tridiagonal with a real diagonal and real products >= 0")
    J = np.zeros(T.shape)
    J[..., i, i] = T[..., i, i].real
    J[..., i[1:], i[:-1]] = J[..., i[:-1], i[1:]] = np.sqrt(np.maximum(prod.real, 0.0))
    return np.linalg.eigvalsh(J)[..., -1]


def check_symbol_conditions(ops: OperatorSet):
    """Evaluate the chain of sufficient symbol conditions on ``ops.grid``.

    For each root of unity zeta_k = e^{2 pi i k / DEFAULT_ZETA_SAMPLES} on the closed upper
    half circle, k = 0..DEFAULT_ZETA_SAMPLES/2, two equivalent conditions are checked: the
    Hermitian form built from the symmetrized scaled operators (lambda_max <= 2 sv^2 (1 - Re zeta))
    and its diagonal-similarity transform in terms of the 1-D convection/diffusion operators
    (lambda_max <= sv^2 (1 - Re zeta)).  Their margins must agree up to the factor 2 from the
    similarity; a violation raises.  For each y of DEFAULT_Y_SAMPLES the collapsed condition
    lambda_max[diff_1d + (1/2 + 2iy) adv_1d] <= 2 y^2 is checked.  A conjugate zeta or a
    negative y gives the conjugate matrix and the same check.  The Hermitian form takes one
    batched ``eigvalsh`` of 0.5 (M + M^H), bitwise ``log_norm_2`` of each sample.  The
    convection form at zeta is the family at y = rho sv Im zeta / 2, so both tridiagonal
    conditions take one batched ``eigvalsh`` of their real symmetric similarity transforms.
    Every check allows 1e-8 times the largest entry of diff_sym (at least 1).  Returns the
    full list of BoundChecks.
    """
    sv = ops.params.sigma / ops.grid.dv
    sym_part = 0.5 * (ops.diff_sym + ops.diff_sym.T)
    scale = max(1.0, float(np.abs(ops.diff_sym).max()))
    tol = _CHECK_TOL * scale

    # both lhs matrices depend on Im zeta only, which zeta_k and zeta_{n/2-k} share:
    # n/4 + 1 samples; the convection form at zeta is the family at y = rho sv Im zeta / 2
    half = DEFAULT_ZETA_SAMPLES // 2
    im = np.array([zeta.imag for zeta in _UPPER_ZETAS[: half // 2 + 1]])
    herm = sym_part + 2j * im[:, None, None] * ops.params.rho * sv * ops.adv_sym
    lhs_herm = np.linalg.eigvalsh(0.5 * (herm + herm.conj().swapaxes(1, 2)))[:, -1]
    ys = np.concatenate((0.5 * (im * ops.params.rho * sv), DEFAULT_Y_SAMPLES))[:, None, None]
    family = _lambda_max_tridiagonal(ops.diff_1d + (0.5 + 2j * ys) * ops.adv_1d, "tridiagonal family")
    lhs = list(zip(lhs_herm.tolist(), family[: len(im)].tolist()))

    checks = []
    for k, zeta in enumerate(_UPPER_ZETAS):
        lhs_a, lhs_b = lhs[min(k, half - k)]
        rhs_a = 2.0 * sv**2 * (1.0 - zeta.real)
        check_a = BoundCheck(f"scaled_symbol_cond[zeta={k}/{DEFAULT_ZETA_SAMPLES}]", lhs_a, rhs_a, tol)
        rhs_b = sv**2 * (1.0 - zeta.real)
        check_b = BoundCheck(f"convection_symbol_cond[zeta={k}/{DEFAULT_ZETA_SAMPLES}]", lhs_b, rhs_b, tol)
        if abs(check_a.margin - 2.0 * check_b.margin) > 1e-6 * scale:
            raise ArithmeticError(
                "similarity-equivalent symbol conditions disagree: "
                f"margins {check_a.margin!r} vs {check_b.margin!r}"
            )
        checks.extend((check_a, check_b))

    for y, lam in zip(DEFAULT_Y_SAMPLES, family[len(im):].tolist()):
        checks.append(BoundCheck(f"tridiag_family_cond[y={y:g}]", lam, 2.0 * y**2, tol))
    return checks


def certificate_rows(ops: OperatorSet, y: float):
    """Row certificate for the tridiagonal family diff_1d + (1/2 + 2iy) adv_1d on ``ops.grid``.

    Row i, nu_i = s_i / ds, has diagonal alpha_i = -nu_i^2, sub-diagonal (1/2) nu_i (nu_i - 1/2 - 2iy)
    and super-diagonal (1/2) nu_i (nu_i + 1/2 + 2iy); the first row has no sub-diagonal and the
    last row no super-diagonal.  The case follows |y|, and either one bounds the row sums by 2 y^2.

    |y| >= 1/2: each unweighted row sum alpha_i + |beta_i| + |gamma_i| <= 2 y^2; with theta = 4 y^2
    >= 1 the row inequality is equivalent to the quartic 4 th(th-1) nu_i^4 + th^2 (4 th - 1) nu_i^2
    + th^4 >= 0, which holds identically.  The check ``family_log_norm_inf[y=...]`` is that the
    logarithmic maximum norm of the family matrix is at most 2 y^2.

    |y| < 1/2: a diagonal similarity with weights whose consecutive ratios are eps_j turns the row
    sums into alpha_i + eps_i |beta_i| + |gamma_i| / eps_{i+1}.  For interior rows this is bounded
    by a_i + b_i * 2 y^2 where a_i and b_i come from the estimate |x + 2iy| <= x + 2 y^2 / x; the
    weighted bound stays below 2 y^2 exactly when a_i <= 0 and 2 a_i + b_i <= 1, which for these
    weights reduces to nu_i^3 - (3/4) nu_i^2 - (3/2) nu_i - 9/16 >= 0, true for nu_i >= 2.  The
    closed form for a_i is cross-checked against its defining bracket to 1e-12 (both evaluated in
    extended precision) on interior rows; a mismatch raises.  A boundary row uses the interior
    expressions with its missing neighbour's term set to 0, and reports a from the bracket.  The
    check ``family_weighted_row_bound[y=...]`` is that the weighted row maximum is at most 2 y^2.

    Returns the per-row data and the check, which allows 1e-8.
    """
    nu64 = ops.grid.s_points / ops.grid.ds
    alpha = -(nu64**2)
    beta_mag = 0.5 * nu64 * np.hypot(nu64 - 0.5, 2.0 * y)
    gamma_mag = 0.5 * nu64 * np.hypot(nu64 + 0.5, 2.0 * y)
    beta_mag[0] = gamma_mag[-1] = 0.0
    columns = zip(nu64.tolist(), alpha.tolist(), beta_mag.tolist(), gamma_mag.tolist())
    if abs(y) >= 0.5:
        theta = 4.0 * y**2
        rows = [CertificateRow(i, *row, y, theta=theta) for i, row in enumerate(columns, start=1)]
        lhs = log_norm_inf(ops.diff_1d + (0.5 + 2j * y) * ops.adv_1d)
        return rows, BoundCheck(f"family_log_norm_inf[y={y:g}]", lhs, 2.0 * y**2, _CHECK_TOL)

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
    lhs = float((alpha + eps_lo * beta_mag + gamma_mag / eps_up).max())
    coefficients = zip([None, *eps_lo[1:].tolist()], a.tolist(), a_bracket.tolist(), b.tolist())
    rows = [
        CertificateRow(i, *row, y, eps=eps_i, a=a_i, a_bracket=a_br, b=b_i)
        for i, (row, (eps_i, a_i, a_br, b_i)) in enumerate(zip(columns, coefficients), start=1)
    ]
    return rows, BoundCheck(f"family_weighted_row_bound[y={y:g}]", lhs, 2.0 * y**2, _CHECK_TOL)


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
