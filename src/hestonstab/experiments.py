"""Parameter sweep estimating the growth of the diffusion semigroup norm.

For each parameter combination the maximum over t >= 0 of the spectral norm
of e^{t (diffusion)} is estimated by coarse sampling at integer multiples of
a step followed by local grid refinement around the running argmax, and
compared against the truncation-dependent bound
sqrt(cond D) = sqrt((L + m1 S) / (m1 L + S) * m2).

The coarse pass stops at the first integer k >= 1 with ||P_k||_2 <= 1,
where P_k = e^{k (step) A}.  Every later t = u + j k (step) with
0 <= u < k (step) has ||e^{tA}||_2 <= ||e^{uA}||_2 ||P_k||_2^j <= ||e^{uA}||_2,
so the maximum over all t >= 0, past the scan's span included, is the
maximum over [0, k (step)).  The stop is proved, not computed: a Cholesky
factorisation of I - P_k^T P_k (scaled) succeeds only if ||P_k||_2 <= 1.
Below the order where the scan switches from dense norms to Lanczos, the
same proof with the running maximum in place of 1 skips every sample that
cannot raise it, so a dense norm is taken only where a sample could.  Above
that order every sample gets a warm Lanczos value, which is only a lower
bound, and the proof confirms the stop.  Each refinement level divides the
step by four and samples t_best + i h, 0 < |i| <= 3, from the sample the
previous pass kept at t_best - 4 h, so a case needs one exponential per
step size.  Each step matrix is the square of the square of the next finer
one, so all of them come from one Pade evaluation: e^{hA} at the finest
step and every second of its squares.  Every sample t is exact in binary.

The scaled-norm maximum needs no scan.  Each grid's logarithmic norm
mu_D = mu_D[diffusion] is computed once; mu_D <= 0 gives
||e^{tA}||_D <= e^{t mu_D} <= 1 = ||I||_D, so the maximum is 1 at t = 0,
and ||e^{tA}||_2 <= sqrt(cond D) for every t >= 0.  A case passes on that
certificate; a scan above sqrt(cond D) contradicts it and fails the case.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import HestonParams, _sqrt_cond, make_grid, scaling_diagonal
from .linalg import (
    _as_real,
    _expm_squares,
    _gram_bounds_norm,
    _gram_sigma_max,
    _scaled_gram,
    _sigma_max_lanczos,
)
from .operators import build_operators
from .stability import BoundCheck, check_diffusion_contractivity

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "max_norm_over_t",
    "run_sweep",
    "compare_L_effect",
]


# The scan's span, coarse step and number of fourfold refinements.
_T_MAX = 100.0
_COARSE_STEP = 1.0
_REFINE_LEVELS = 3
# Below this matrix order a Cholesky proof per scan sample, with a dense norm only for the samples
# that raise the maximum, is cheaper than warm Lanczos: at n = 162 by 30 %, at n = 242 Lanczos wins.
_DENSE_BELOW = 200
# Rounding allowance of the scan's consistency check against the certified bound sqrt(cond D).
_BOUND_TOL = 1e-6
# Rounding allowance of the barrier comparison of two scan maxima.
_BARRIER_TOL = 1e-8


@dataclass(frozen=True)
class SweepConfig:
    """Parameter sets for the sweep; defaults reproduce the reference runs.

    The default mesh list stops at m2 = 15 so a full sweep finishes in
    minutes.
    Construction raises ValueError unless every list is non-empty, every
    m2 is an integer of at least 3 and every (sigma, rho, L) combination is
    a valid ``HestonParams``.
    """

    m2_values: tuple = (5, 7, 9, 11, 13, 15)
    sigma_values: tuple = (0.1, 0.2)
    rho_values: tuple = (-1.0, 0.0, 1.0)
    L_values: tuple = (0.0, 10.0)
    S: float = 800.0
    V: float = 5.0
    r: float = 0.05
    kappa: float = 2.0
    eta: float = 0.04

    def __post_init__(self):
        for name in ("m2_values", "sigma_values", "rho_values", "L_values"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for sigma, rho, L in itertools.product(self.sigma_values, self.rho_values, self.L_values):
            self._params(sigma, rho, L)
        if any(int(m2) != m2 for m2 in self.m2_values):
            raise ValueError("all m2 values must be integers")
        if any(m2 < 3 for m2 in self.m2_values):
            raise ValueError("all m2 values must be >= 3")

    def _params(self, sigma: float, rho: float, L: float) -> HestonParams:
        """The model of one sweep case."""
        return HestonParams(
            r=self.r, kappa=self.kappa, eta=self.eta, sigma=sigma, rho=rho, L=L, S=self.S, V=self.V
        )


@dataclass(frozen=True)
class SweepRecord:
    """One sweep data point.

    ``max_norm2`` estimates max_t ||e^{t diffusion}||_2 with its location
    ``t_argmax``; ``bound`` is sqrt(cond D) = sqrt((L + m1 S) / (m1 L + S) * m2).
    A case passes once its certificate mu_D <= 0 holds and the scan stays
    within that bound, which the certificate proves for every t.  A failed
    case, a positive mu_D or a scan above the bound included, carries its
    error message in ``error`` with NaN values.  ``max_normD`` and
    ``within_bound`` follow from ``error`` alone.
    """

    m2: int
    m1: int
    L: float
    sigma: float
    rho: float
    S: float
    V: float
    max_norm2: float
    t_argmax: float
    bound: float
    error: str = ""

    @property
    def max_normD(self) -> float:
        """The scaled-norm maximum, which mu_D <= 0 fixes at 1 (attained at t = 0)."""
        return math.nan if self.error else 1.0

    @property
    def within_bound(self) -> bool:
        """Whether the case passed: its certificate holds and its scan stayed within ``bound``."""
        return not self.error


def max_norm_over_t(A):
    """Estimated maximum of ||e^{tA}||_2 and its location t_argmax in [0, _T_MAX].

    Returns (max_value, t_argmax).  The coarse pass samples powers of
    e^{(step) A} at k (step) <= _T_MAX and stops at the first contractive one
    (see the module docstring); the maximum is then over all t >= 0, and over
    [0, _T_MAX] otherwise.  Each refinement level divides the step by four
    and evaluates center + i h, 0 < |i| <= 3 (i > 0 at center = 0; t <=
    _T_MAX), around the argmax center of the pass before; the step matrices
    of all levels are e^{hA} at the finest step and every second of its
    2 _REFINE_LEVELS squares.  No t is decided twice: t = 0 is ||I||_2 = 1
    exactly, and the passes before sampled only multiples of 4 h.  A complex
    A raises ValueError.  Below order _DENSE_BELOW each sample forms its
    scaled Gram matrix once; a Cholesky proof that its norm is at most 1
    (the coarse pass's stop) or at most the running maximum decides it, and
    only an unproved sample gets a norm, bitwise ``spectral_norm``.  Above
    that order each sample gets a Lanczos value warm-started from the Ritz
    vector of the last sample evaluated, and the proof confirms the coarse
    stop.  The first product of a pass that starts at t = 0 is the step
    matrix itself, not I times it.  The module constants are read at
    each call.  The D-scaled maximum of the diffusion block needs no scan:
    mu_D <= 0 fixes it at 1 (see ``run_sweep``).
    """
    A = _as_real(A)
    dense = A.shape[0] < _DENSE_BELOW
    steps = [_COARSE_STEP / 4.0**level for level in range(_REFINE_LEVELS + 1)]
    squares = _expm_squares(A, steps[-1], 2 * _REFINE_LEVELS)
    step_matrices = list(itertools.islice(squares, 0, None, 2))[::-1]
    best, t_best, start = 1.0, 0.0, None  # start: the sample at t_best - h; None is I = e^{0A}
    v = None  # Ritz vector of the last sample evaluated: the next Lanczos warm start
    with np.errstate(over="ignore", invalid="ignore"):
        for level, h in enumerate(steps):
            # a refinement's earlier passes sampled center and center -+ 4 h, and no t between
            center, P = t_best, start
            for i in range(-3 if center else 1, 4 if level else int(_T_MAX / h) + 1):
                t = center + i * h
                if t > _T_MAX:
                    break
                prev, P = P, step_matrices[level] if P is None else P @ step_matrices[level]
                _check_finite(P, t)
                if not i:  # the center, whose norm the pass before took
                    start = prev if t_best == center else start
                    continue
                if dense:
                    G, e = _scaled_gram(P)
                    if not level and _gram_bounds_norm(G, e, 1.0):
                        break  # the cut; best >= 1, so the sample is no winner
                    # at best = 1 the coarse pass has just tried this factorisation
                    if (level or best > 1.0) and _gram_bounds_norm(G, e, best):
                        continue  # the sample cannot raise the running maximum
                    sigma = _gram_sigma_max(G, e)
                else:
                    sigma, _, v = _sigma_max_lanczos(P, v0=v)
                    # the cut; sigma <= 1 <= best cannot raise the running maximum
                    if not level and sigma <= 1.0 and _gram_bounds_norm(*_scaled_gram(P), 1.0):
                        break
                if sigma > best:
                    best, t_best, start = sigma, t, prev
    return best, t_best


def _check_finite(P: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(P)):
        raise OverflowError(f"semigroup norm scan overflowed at t = {t:g}")


def run_sweep(config: SweepConfig | None = None) -> list:
    """Run the full parameter sweep; one record per combination.

    Combinations are evaluated in deterministic order sorted by
    (L, sigma, rho, m2).  A case that fails numerically, whose diffusion
    block is not contractive in the D-norm (mu_D > 0), or whose scan exceeds
    the bound that mu_D <= 0 proves (a scan fault), is recorded with its
    error message and the sweep continues; any other error propagates.
    """
    cfg = config or SweepConfig()
    combos = sorted(itertools.product(cfg.L_values, cfg.sigma_values, cfg.rho_values, cfg.m2_values))
    records = []
    for L, sigma, rho, m2 in combos:
        m1 = 2 * m2
        params = cfg._params(sigma, rho, L)
        grid = make_grid(params, m1, m2)
        bound = _sqrt_cond(scaling_diagonal(grid))
        try:
            ops = build_operators(params, grid)
            mu = check_diffusion_contractivity(ops).lhs
            if mu > 0:
                raise ArithmeticError(f"diffusion is not contractive in the D-norm: mu_D = {mu:.6g} > 0")
            max_norm2, t_argmax = max_norm_over_t(ops.diffusion)
            if not max_norm2 <= bound + _BOUND_TOL:
                raise ArithmeticError(
                    f"semigroup norm scan exceeds the certified bound: "
                    f"max_norm2 = {max_norm2:.9g} > sqrt(cond D) = {bound:.9g}"
                )
            error = ""
        except (ArithmeticError, np.linalg.LinAlgError) as err:
            max_norm2 = t_argmax = math.nan
            error = str(err)
        records.append(SweepRecord(m2=m2, m1=m1, L=L, sigma=sigma, rho=rho, S=cfg.S, V=cfg.V,
                                   max_norm2=max_norm2, t_argmax=t_argmax, bound=bound, error=error))
    return records


def compare_L_effect(records: Sequence[SweepRecord], L_low: float = 0.0, L_high: float = 10.0) -> list:
    """Check that the raised barrier never increases the norm maximum.

    For every matched (sigma, rho, m2) pair the record at L_high must have
    max_norm2 at most that of the record at L_low.  Raises if any
    combination lacks one of the two barrier values.
    """
    by_key = {(rec.sigma, rec.rho, rec.m2, rec.L): rec for rec in records}
    keys = sorted({(rec.sigma, rec.rho, rec.m2) for rec in records})
    missing = []
    checks = []
    for sigma, rho, m2 in keys:
        low = by_key.get((sigma, rho, m2, L_low))
        high = by_key.get((sigma, rho, m2, L_high))
        if low is None or high is None:
            missing.append((sigma, rho, m2))
            continue
        name = f"barrier_effect[sigma={sigma:g},rho={rho:g},m2={m2}]"
        checks.append(BoundCheck(name, high.max_norm2, low.max_norm2, _BARRIER_TOL))
    if missing:
        raise ValueError(f"missing matched barrier pairs for combinations: {missing}")
    return checks
