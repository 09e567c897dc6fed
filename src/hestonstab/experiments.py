"""Parameter sweep estimating the growth of the diffusion semigroup norm.

For each parameter combination the maximum over t >= 0 of the spectral norm
of e^{t (diffusion)} is estimated by coarse sampling at integer multiples of
a step followed by local grid refinement around the running argmax, and
compared against the truncation-dependent bound
sqrt((L + m1 S) / (m1 L + S) * m2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid import HestonParams, make_grid, scaling_diagonal
from .linalg import _diag_vector, _sigma_max_lanczos, expm
from .operators import build_operators
from .stability import BoundCheck

__all__ = [
    "SweepConfig",
    "SweepRecord",
    "max_norm_over_t",
    "run_sweep",
    "compare_L_effect",
    "loglog_slope",
]


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
    t_max: float = 100.0
    coarse_step: float = 1.0
    refine_levels: int = 2

    @staticmethod
    def full_m2_values() -> tuple:
        return tuple(range(5, 26, 2))


@dataclass(frozen=True)
class SweepRecord:
    """One sweep data point.

    ``max_norm2`` estimates max_t ||e^{t diffusion}||_2 with its location
    ``t_argmax``; ``max_normD`` the same maximum in the scaled norm;
    ``bound`` is sqrt((L + m1 S) / (m1 L + S) * m2).  A failed case carries
    its error message in ``error`` with NaN values.
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
    """Tracks the running maximum of one norm along a semigroup scan.

    ``d`` selects the diagonal scaling (None for the plain spectral norm).
    The Ritz vector of each evaluation is the warm start of the next, which
    makes the per-sample Lanczos iteration converge in a handful of steps.
    """

    def __init__(self, d: Optional[np.ndarray] = None):
        self.rt = np.sqrt(d) if d is not None else None
        self.v = None
        self.best = -math.inf
        self.t_best = 0.0

    def evaluate(self, P: np.ndarray, t: float) -> None:
        X = (P * self.rt[None, :]) / self.rt[:, None] if self.rt is not None else P
        report, vec = _sigma_max_lanczos(X, v0=self.v)
        self.v = vec
        if report.value > self.best:
            self.best = report.value
            self.t_best = t


def _scan_norms(
    A: np.ndarray,
    trackers: Sequence[_NormTracker],
    t_max: float,
    coarse_step: float,
    refine_levels: int,
) -> None:
    """Coarse scan plus per-tracker refinement of max_t of each norm.

    The coarse pass reuses powers of e^{(step) A}, which are exact at the
    integer multiples sampled; refinement levels re-expand around the
    current argmax with a ten times finer step, clamped to [0, t_max].
    """
    if t_max <= 0 or coarse_step <= 0:
        raise ValueError("t_max and coarse_step must be positive")
    n_steps = int(round(t_max / coarse_step))
    step_matrix = _expm_at(A, coarse_step)
    P = np.eye(A.shape[0])
    for tracker in trackers:
        tracker.evaluate(P, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            P = P @ step_matrix
            t = k * coarse_step
            _check_finite(P, t)
            for tracker in trackers:
                tracker.evaluate(P, t)

        for tracker in trackers:
            h = coarse_step
            for _ in range(refine_levels):
                lo = max(0.0, tracker.t_best - h)
                hi = min(t_max, tracker.t_best + h)
                fine = h / 10.0
                n_fine = int(round((hi - lo) / fine))
                base = _expm_at(A, lo)
                Q = _expm_at(A, fine)
                tracker.evaluate(base, lo)
                P = base
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
    A,
    D=None,
    t_max: float = 100.0,
    coarse_step: float = 1.0,
    refine_levels: int = 2,
):
    """Estimated maximum over t in [0, t_max] of ||e^{tA}|| and its location.

    Uses the spectral norm, or the D-scaled spectral norm when a positive
    diagonal ``D`` is given.  Returns (max_value, t_argmax).
    """
    A = np.asarray(A, dtype=float)
    d = None
    if D is not None:
        d = _diag_vector(D)
        if np.any(d <= 0):
            raise ValueError("scaling diagonal must be strictly positive")
    tracker = _NormTracker(d)
    _scan_norms(A, [tracker], t_max, coarse_step, refine_levels)
    return tracker.best, tracker.t_best


def _sweep_bound(L: float, m1: int, S: float, m2: int) -> float:
    return math.sqrt((L + m1 * S) / (m1 * L + S) * m2)


def run_sweep(config: SweepConfig | None = None, tol: float = 1e-6) -> list:
    """Run the full parameter sweep; one record per combination.

    Combinations are evaluated in deterministic order sorted by
    (L, sigma, rho, m2).  A failing case is recorded with its error message
    and the sweep continues.
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
        try:
            params = HestonParams(
                r=cfg.r, kappa=cfg.kappa, eta=cfg.eta, sigma=sigma, rho=rho, L=L, S=cfg.S, V=cfg.V
            )
            grid = make_grid(params, m1, m2)
            diffusion = build_operators(params, grid).diffusion
            d = scaling_diagonal(grid)
            tracker2 = _NormTracker(None)
            trackerD = _NormTracker(d)
            _scan_norms(diffusion, [tracker2, trackerD], cfg.t_max, cfg.coarse_step, cfg.refine_levels)
            records.append(
                SweepRecord(
                    m2=m2,
                    m1=m1,
                    L=L,
                    sigma=sigma,
                    rho=rho,
                    S=cfg.S,
                    V=cfg.V,
                    max_norm2=tracker2.best,
                    t_argmax=tracker2.t_best,
                    max_normD=trackerD.best,
                    bound=bound,
                    within_bound=tracker2.best <= bound + tol,
                )
            )
        except (ValueError, OverflowError, ArithmeticError) as err:
            records.append(
                SweepRecord(
                    m2=m2,
                    m1=m1,
                    L=L,
                    sigma=sigma,
                    rho=rho,
                    S=cfg.S,
                    V=cfg.V,
                    max_norm2=math.nan,
                    t_argmax=math.nan,
                    max_normD=math.nan,
                    bound=bound,
                    within_bound=False,
                    error=str(err),
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


def loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))
