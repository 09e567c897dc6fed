"""Parameter sweep estimating the growth of the diffusion semigroup norm.

For each parameter combination the maximum over t >= 0 of the spectral norm
of e^{t (diffusion)} is estimated by coarse sampling at integer multiples of
a step followed by local grid refinement around the running argmax, and
compared against the truncation-dependent bound
sqrt((L + m1 S) / (m1 L + S) * m2).

The scaled-norm maximum needs no scan.  Each grid's logarithmic norm
mu_D = mu_D[diffusion] is computed once; mu_D <= 0 gives
||e^{tA}||_D <= e^{t mu_D} <= 1 = ||I||_D, so the maximum is 1 at t = 0,
and ||e^{tA}||_2 <= sqrt(cond D) e^{t mu_D}.  The coarse 2-norm scan stops
once that bound falls below the running maximum, since no later sample can
exceed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid import HestonParams, make_grid, scaling_diagonal
from .linalg import _sigma_max_lanczos, expm, log_norm_D
from .operators import build_operators
from .stability import BoundCheck

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "max_norm_over_t",
    "run_sweep",
    "compare_L_effect",
]


# The scan's span, coarse step and number of tenfold refinements.
_T_MAX = 100.0
_COARSE_STEP = 1.0
_REFINE_LEVELS = 2


@dataclass(frozen=True)
class SweepConfig:
    """Parameter sets for the sweep; defaults reproduce the reference runs.

    The default mesh list stops at m2 = 15 so a full sweep finishes in
    minutes; ``full_m2_values`` extends to the largest feasible size.
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

    @staticmethod
    def full_m2_values() -> tuple:
        return tuple(range(5, 26, 2))


@dataclass(frozen=True)
class SweepRecord:
    """One sweep data point.

    ``max_norm2`` estimates max_t ||e^{t diffusion}||_2 with its location
    ``t_argmax``; ``max_normD`` is the same maximum in the scaled norm,
    which the certificate mu_D <= 0 fixes at exactly 1 (attained at t = 0);
    ``bound`` is sqrt((L + m1 S) / (m1 L + S) * m2).  A failed case, a
    positive mu_D included, carries its error message in ``error`` with NaN
    values.
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
    max_normD: float
    bound: float
    within_bound: bool
    error: str = ""


class _NormTracker:
    """Tracks the running maximum of the spectral norm along a semigroup scan.

    The Ritz vector of each evaluation is the warm start of the next, which
    makes the per-sample Lanczos iteration converge in a handful of steps.
    """

    def __init__(self):
        self.v = None
        self.best = -math.inf
        self.t_best = 0.0

    def evaluate(self, P: np.ndarray, t: float) -> None:
        report, self.v = _sigma_max_lanczos(P, v0=self.v)
        if report.value > self.best:
            self.best = report.value
            self.t_best = t


def _scan_norms(
    A: np.ndarray,
    tracker: _NormTracker,
    t_max: float,
    coarse_step: float,
    refine_levels: int,
    tail: Optional[tuple] = None,
) -> None:
    """Coarse scan plus refinement of max_t ||e^{tA}||_2 into ``tracker``.

    The coarse pass reuses powers of e^{(step) A}, which are exact at the
    integer multiples sampled; refinement levels re-expand around the
    current argmax with a ten times finer step, clamped to [0, t_max].
    ``tail = (c, mu)`` certifies ||e^{tA}||_2 <= c e^{t mu} with mu <= 0:
    the coarse pass stops before the first sample t at which that bound is
    below the running maximum, because no sample from t on can reach it.
    """
    if t_max <= 0 or coarse_step <= 0:
        raise ValueError("t_max and coarse_step must be positive")
    n_steps = int(round(t_max / coarse_step))
    step_matrix = _expm_at(A, coarse_step)
    P = np.eye(A.shape[0])
    tracker.evaluate(P, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            t = k * coarse_step
            if tail is not None and tail[0] * math.exp(t * tail[1]) < tracker.best:
                break
            P = P @ step_matrix
            _check_finite(P, t)
            tracker.evaluate(P, t)

        h = coarse_step
        for _ in range(refine_levels):
            lo = max(0.0, tracker.t_best - h)
            hi = min(t_max, tracker.t_best + h)
            fine = h / 10.0
            n_fine = int(round((hi - lo) / fine))
            P = _expm_at(A, lo)
            Q = _expm_at(A, fine)
            tracker.evaluate(P, lo)
            for j in range(1, n_fine + 1):
                P = P @ Q
                _check_finite(P, lo + j * fine)
                tracker.evaluate(P, lo + j * fine)
            h = fine


def _check_finite(P: np.ndarray, t: float) -> None:
    if not np.all(np.isfinite(P)):
        raise OverflowError(f"semigroup norm scan overflowed at t = {t:g}")


def _expm_at(A: np.ndarray, t: float) -> np.ndarray:
    try:
        return expm(A, t)
    except OverflowError as err:
        raise OverflowError(f"semigroup norm scan overflowed at t = {t:g}: {err}") from err


def max_norm_over_t(
    A, t_max: float = _T_MAX, coarse_step: float = _COARSE_STEP, refine_levels: int = _REFINE_LEVELS
):
    """Estimated maximum over t in [0, t_max] of ||e^{tA}||_2 and its location.

    Returns (max_value, t_argmax).  The D-scaled maximum of the diffusion
    block needs no scan: mu_D <= 0 fixes it at 1 (see ``run_sweep``).
    """
    A = np.asarray(A, dtype=float)
    tracker = _NormTracker()
    _scan_norms(A, tracker, t_max, coarse_step, refine_levels)
    return tracker.best, tracker.t_best


def _sweep_bound(L: float, m1: int, S: float, m2: int) -> float:
    return math.sqrt((L + m1 * S) / (m1 * L + S) * m2)


def run_sweep(config: SweepConfig | None = None, tol: float = 1e-6) -> list:
    """Run the full parameter sweep; one record per combination.

    Combinations are evaluated in deterministic order sorted by
    (L, sigma, rho, m2).  A case that fails numerically, or whose diffusion
    block is not contractive in the D-norm (mu_D > 0), is recorded with its
    error message and the sweep continues; any other error propagates.
    """
    cfg = config or SweepConfig()
    combos = sorted(
        (L, sigma, rho, m2)
        for L in cfg.L_values
        for sigma in cfg.sigma_values
        for rho in cfg.rho_values
        for m2 in cfg.m2_values
    )
    records = []
    for L, sigma, rho, m2 in combos:
        m1 = 2 * m2
        bound = _sweep_bound(L, m1, cfg.S, m2)
        params = HestonParams(
            r=cfg.r, kappa=cfg.kappa, eta=cfg.eta, sigma=sigma, rho=rho, L=L, S=cfg.S, V=cfg.V
        )
        grid = make_grid(params, m1, m2)
        diffusion = build_operators(params, grid).diffusion
        d = scaling_diagonal(grid)
        try:
            mu = log_norm_D(diffusion, d).value
            if mu > 0:
                raise ArithmeticError(f"diffusion is not contractive in the D-norm: mu_D = {mu:.6g} > 0")
            tracker = _NormTracker()
            tail = (math.sqrt(d.max() / d.min()), mu)
            _scan_norms(diffusion, tracker, _T_MAX, _COARSE_STEP, _REFINE_LEVELS, tail)
            max_norm2, t_argmax, max_normD, error = tracker.best, tracker.t_best, 1.0, ""
        except (OverflowError, ArithmeticError, np.linalg.LinAlgError) as err:
            max_norm2 = t_argmax = max_normD = math.nan
            error = str(err)
        records.append(
            SweepRecord(
                m2=m2,
                m1=m1,
                L=L,
                sigma=sigma,
                rho=rho,
                S=cfg.S,
                V=cfg.V,
                max_norm2=max_norm2,
                t_argmax=t_argmax,
                max_normD=max_normD,
                bound=bound,
                within_bound=max_norm2 <= bound + tol,
                error=error,
            )
        )
    return records


def compare_L_effect(
    records: Sequence[SweepRecord],
    L_low: float = 0.0,
    L_high: float = 10.0,
    tol: float = 1e-8,
) -> list:
    """Check that the raised barrier never increases the norm maximum.

    For every matched (sigma, rho, m2) pair the record at L_high must have
    max_norm2 at most that of the record at L_low.  Raises if any
    combination lacks one of the two barrier values.
    """
    by_key = {}
    for rec in records:
        by_key[(rec.sigma, rec.rho, rec.m2, rec.L)] = rec
    keys = sorted({(rec.sigma, rec.rho, rec.m2) for rec in records})
    missing = []
    checks = []
    for sigma, rho, m2 in keys:
        low = by_key.get((sigma, rho, m2, L_low))
        high = by_key.get((sigma, rho, m2, L_high))
        if low is None or high is None:
            missing.append((sigma, rho, m2))
            continue
        checks.append(
            BoundCheck(
                f"barrier_effect[sigma={sigma:g},rho={rho:g},m2={m2}]",
                high.max_norm2,
                low.max_norm2,
                tol,
            )
        )
    if missing:
        raise ValueError(f"missing matched barrier pairs for combinations: {missing}")
    return checks
