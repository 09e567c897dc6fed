"""The Kronecker-assembled Heston operators of the central finite-difference scheme.

The five PDE terms (price advection, variance advection, price diffusion,
mixed derivative, variance diffusion) map to five m x m blocks, each a scalar
times a Kronecker product of 1-D operators built from the central difference
stencils of the private ``_differences`` in each direction.  ``build_operators``
assembles a grid once and keeps what the analysis reads; ``operator_block``
forms any other block on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, HestonParams

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

    ``operator_block`` forms the 2-D blocks from them: adv_s discretizes r*s*u_s,
    adv_v kappa*(eta - v)*u_v, diff_ss (1/2)*s^2*v*u_ss, mixed_sv rho*sigma*s*v*u_sv
    and diff_vv (1/2)*sigma^2*v*u_vv.  Only ``diffusion`` = diff_ss + mixed_sv +
    diff_vv, the part covered by the contractivity result, is kept.  As
    adv_s = I2 (x) adv_s_factor, adv_v = adv_v_factor (x) I1, e^{t(I (x) B)} =
    I (x) e^{tB}, ||I (x) X||_2 = ||X||_2 and mu2[I (x) X] = mu2[X] (likewise
    for X (x) I), the advection checks run on the factors.
    """

    params: HestonParams
    grid: GridSpec
    adv_sym: np.ndarray
    diff_sym: np.ndarray
    adv_1d: np.ndarray
    diff_1d: np.ndarray
    adv_s_factor: np.ndarray
    adv_v_factor: np.ndarray
    diffusion: np.ndarray


def _form(params, grid, adv_1d, diff_1d, adv_s_factor, adv_v_factor, names) -> np.ndarray:
    """The sum of the 2-D blocks ``names``, left to right, accumulated in place."""
    (d1_v, d2_v), Dv, I1 = _differences(grid.m2, grid.dv), np.diag(grid.v_points), np.eye(grid.m1)
    terms = {  # name: (coefficient or None for 1, left, right) of coefficient * kron(left, right)
        "adv-s": (None, np.eye(grid.m2), adv_s_factor),
        "adv-v": (None, adv_v_factor, I1),
        "diff-ss": (None, Dv, diff_1d),
        "mixed-sv": (params.rho * params.sigma, Dv @ d1_v, adv_1d),
        "diff-vv": (0.5 * np.float64(params.sigma) ** 2, Dv @ d2_v, I1),
    }
    total = None
    for coef, left, right in (terms[name] for name in names):
        block = np.kron(left, right)
        if coef is not None:
            block *= coef
        total = block if total is None else np.add(total, block, out=total)
    return total


def operator_block(ops: OperatorSet, which: str) -> np.ndarray:
    """The block ``which`` (one of ``BLOCK_NAMES``); full = adv_s + adv_v + diffusion - r*I."""
    if which == "diffusion":
        return ops.diffusion
    pieces = (ops.params, ops.grid, ops.adv_1d, ops.diff_1d, ops.adv_s_factor, ops.adv_v_factor)
    if which != "full":
        return _form(*pieces, (which,))
    full = _form(*pieces, ("adv-s", "adv-v"))
    full += ops.diffusion
    full[np.diag_indices_from(full)] -= ops.params.r
    return full


def build_operators(params: HestonParams, grid: GridSpec) -> OperatorSet:
    """Assemble the operators of ``params`` on ``grid``.

    Raises ValueError if the antisymmetry of adv_sym or the identity
    (1/2)(diff_sym + diff_sym^T) = Ds^{-1/2} (2 diff_1d + adv_1d) Ds^{1/2}
    fails beyond roundoff, which would signal an assembly bug, and
    OverflowError if the full operator, not only a block of it, has a non-finite entry.
    """
    # an overflow shows up as a non-finite entry of the full operator, formed and checked
    # below; np.float64 turns an overflowing sigma^2 into inf instead of raising
    with np.errstate(over="ignore", invalid="ignore"):
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
        diffusion = _form(params, grid, adv_1d, diff_1d, adv_s_factor, adv_v_factor,
                          ("diff-ss", "mixed-sv", "diff-vv"))
        ops = OperatorSet(params, grid, adv_sym, diff_sym, adv_1d, diff_1d,
                          adv_s_factor, adv_v_factor, diffusion)
        if not np.all(np.isfinite(operator_block(ops, "full"))):
            raise OverflowError("operator assembly overflowed: the operator has non-finite entries")
    return ops
