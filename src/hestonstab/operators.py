"""The Heston operators of the central finite-difference scheme, as block tridiagonal bands.

The five PDE terms (price advection, variance advection, price diffusion,
mixed derivative, variance diffusion) map to five terms coef * kron(left, right)
of order m = m1 m2: left an m2 x m2 operator in the variance direction, right an
m1 x m1 operator in the price direction, both built from the central difference
stencils of the private ``_differences``.  Every left factor is tridiagonal, so
in grid ordering each 2-D operator is block tridiagonal, with m2 blocks of
order m1.  ``build_operators`` keeps only the 1-D operators; the private
``_band`` forms the diagonal, upper and lower blocks of any 2-D operator from
them, and ``operator_block`` the dense m x m matrix, on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, HestonParams
from .linalg import _band_matrix

__all__ = ["OperatorSet", "BLOCK_NAMES", "build_operators", "operator_block"]

#: The dense blocks ``operator_block`` forms, by their ``operators --which`` names.
BLOCK_NAMES = ("full", "diffusion", "adv-s", "adv-v", "diff-ss", "mixed-sv", "diff-vv")


def _differences(n: int, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The central difference stencils (d1, d2) on n interior nodes of width h.

    d1 = tridiag(-1, 0, 1) / (2h) and d2 = tridiag(1, -2, 1) / h^2, the first and second
    difference of the paper's scheme, formed as ((up - up^T) / (2h), (up + up^T - 2I) / h^2)
    with up = np.eye(n, k=1).
    """
    up = np.eye(n, k=1)
    return (up - up.T) / (2.0 * h), (up + up.T - 2.0 * np.eye(n)) / h**2


@dataclass(frozen=True)
class OperatorSet:
    """One grid's semi-discrete Heston operators, with the ``params`` they were built for.

    With (d1_s, d2_s) and (d1_v, d2_v) the central first and second differences of
    ``_differences`` in the price and variance directions, and Ds = diag(s_points), the
    price-direction operators read by the certificate chain are

        adv_sym  = Ds^{1/2} d1_s Ds^{1/2}   (antisymmetric)
        diff_sym = Ds^{3/2} d2_s Ds^{1/2}
        adv_1d   = Ds d1_s                  (discrete s*u_s)
        diff_1d  = (1/2) Ds^2 d2_s          (discrete (1/2)*s^2*u_ss)

    The 2-D blocks are formed from them on demand (``_band``, ``operator_block``): adv_s
    discretizes r*s*u_s, adv_v kappa*(eta - v)*u_v, diff_ss (1/2)*s^2*v*u_ss, mixed_sv
    rho*sigma*s*v*u_sv and diff_vv (1/2)*sigma^2*v*u_vv; ``diffusion`` = diff_ss + mixed_sv +
    diff_vv is the part covered by the contractivity result.  As adv_s = I2 (x) adv_s_factor,
    adv_v = adv_v_factor (x) I1, e^{t(I (x) B)} = I (x) e^{tB}, ||I (x) X||_2 = ||X||_2 and
    mu2[I (x) X] = mu2[X] (likewise for X (x) I), the advection checks run on the factors.
    """

    params: HestonParams
    grid: GridSpec
    adv_sym: np.ndarray
    diff_sym: np.ndarray
    adv_1d: np.ndarray
    diff_1d: np.ndarray
    adv_s_factor: np.ndarray
    adv_v_factor: np.ndarray

    @property
    def diffusion(self) -> np.ndarray:
        """The dense diffusion part diff_ss + mixed_sv + diff_vv, formed on each access."""
        return operator_block(self, "diffusion")


#: The terms of the sums among ``BLOCK_NAMES``, added left to right; "reaction" is -r I.
_SUMS = {"full": ("adv-s", "adv-v", "diff-ss", "mixed-sv", "diff-vv", "reaction"),
         "diffusion": ("diff-ss", "mixed-sv", "diff-vv")}


def _band(ops: OperatorSet, which: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The diagonal (m2, m1, m1), upper and lower (m2 - 1, m1, m1) blocks of the block ``which``.

    Each term coef * kron(left, right) has a tridiagonal left factor, so it is formed on the
    three block diagonals only: block (j, k) is (left[j, k] * right) * coef, the product
    ``np.kron`` forms, and the terms are added left to right.  In any entry at most two of the
    five PDE terms are nonzero and -r I comes last, so the grouping of the sum does not matter:
    the blocks are bitwise those of the dense Kronecker sum.
    """
    grid, params = ops.grid, ops.params
    (d1_v, d2_v), Dv = _differences(grid.m2, grid.dv), np.diag(grid.v_points)
    I1, I2 = np.eye(grid.m1), np.eye(grid.m2)
    terms = {  # name: (coefficient or None for 1, left, right) of coefficient * kron(left, right)
        "adv-s": (None, I2, ops.adv_s_factor),
        "adv-v": (None, ops.adv_v_factor, I1),
        "diff-ss": (None, Dv, ops.diff_1d),
        "mixed-sv": (params.rho * params.sigma, Dv @ d1_v, ops.adv_1d),
        "diff-vv": (0.5 * np.float64(params.sigma) ** 2, Dv @ d2_v, I1),
        "reaction": (-params.r, I2, I1),
    }
    parts, band = [terms[name] for name in _SUMS.get(which, (which,))], []
    for k in (0, 1, -1):  # one block diagonal at a time: besides the finished ones, three arrays live
        total = None
        for coef, left, right in parts:
            term = np.diagonal(left, k)[:, None, None] * right
            if coef is not None:
                term *= coef
            total = term if total is None else np.add(total, term, out=total)
        band.append(total)
    return tuple(band)


def operator_block(ops: OperatorSet, which: str) -> np.ndarray:
    """The dense block ``which`` (one of ``BLOCK_NAMES``); full = adv_s + adv_v + diffusion - r*I."""
    return _band_matrix(*_band(ops, which))


def build_operators(params: HestonParams, grid: GridSpec) -> OperatorSet:
    """Assemble the operators of ``params`` on ``grid``.

    Raises ValueError if the antisymmetry of adv_sym or the identity
    (1/2)(diff_sym + diff_sym^T) = Ds^{-1/2} (2 diff_1d + adv_1d) Ds^{1/2}
    fails beyond roundoff, which would signal an assembly bug, and
    OverflowError if the full operator, not only a block of it, has a non-finite entry.
    """
    # an overflow shows up as a non-finite entry of the full operator's band, formed and checked
    # below (every entry off the band is 0 times a factor entry that is also in the band, times
    # a nonzero); np.float64 turns an overflowing sigma^2 into inf instead of raising, and a
    # mesh width whose square underflows to 0 gives an infinite stencil
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d1_s, d2_s = _differences(grid.m1, grid.ds)
        s = grid.s_points
        rt = np.sqrt(s)

        adv_sym = rt[:, None] * d1_s * rt[None, :]
        diff_sym = (s * rt)[:, None] * d2_s * rt[None, :]
        adv_1d = s[:, None] * d1_s
        diff_1d = 0.5 * (s * s)[:, None] * d2_s

        scale = max(1.0, float(np.abs(diff_sym).max()))
        if np.abs(adv_sym + adv_sym.T).max() > 1e-12 * scale:
            raise ValueError("scaled first-difference matrix is not antisymmetric")
        sym_part = 0.5 * (diff_sym + diff_sym.T)
        other = (1.0 / rt)[:, None] * (2.0 * diff_1d + adv_1d) * rt[None, :]
        if np.abs(sym_part - other).max() > 1e-11 * scale:
            raise ValueError("symmetric-part identity violated; assembly bug")

        adv_s_factor = params.r * adv_1d
        d1_v, _ = _differences(grid.m2, grid.dv)
        adv_v_factor = params.kappa * ((params.eta * np.eye(grid.m2) - np.diag(grid.v_points)) @ d1_v)
        ops = OperatorSet(params, grid, adv_sym, diff_sym, adv_1d, diff_1d, adv_s_factor, adv_v_factor)
        if not all(np.isfinite(B).all() for B in _band(ops, "full")):
            raise OverflowError("operator assembly overflowed: the operator has non-finite entries")
    return ops
