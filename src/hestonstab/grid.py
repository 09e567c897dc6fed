"""Truncated spatial grid and diagonal scaling for the Heston problem.

The price/variance domain [L, S] x [0, V] is discretized with uniform meshes.
Only interior unknowns are represented; boundary points are never stored.  The
flat ordering is lexicographic with the price index running fastest, so the
unknown at (s_i, v_j) sits at flat index (j - 1) * m1 + i (1-based).  That is
exactly the ordering produced by Kronecker products of the form X_v (x) Y_s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HestonParams",
    "GridSpec",
    "make_grid",
    "scaling_diagonal",
]


@dataclass(frozen=True)
class HestonParams:
    """Model coefficients and domain truncation bounds.

    r: interest rate, kappa: mean-reversion rate, eta: long-term mean
    variance, sigma: volatility-of-variance, rho: correlation between the
    two driving Brownian motions, L: lower price barrier, S: price
    truncation bound, V: variance truncation bound.
    """

    r: float
    kappa: float
    eta: float
    sigma: float
    rho: float
    L: float = 0.0
    S: float = 800.0
    V: float = 5.0

    def __post_init__(self):
        for name in ("r", "kappa", "eta", "sigma", "rho", "L", "S", "V"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"parameter {name} must be finite, got {getattr(self, name)}")
        if not self.r > 0:
            raise ValueError(f"interest rate r must be positive, got {self.r}")
        if not self.kappa > 0:
            raise ValueError(f"mean-reversion rate kappa must be positive, got {self.kappa}")
        if not self.eta > 0:
            raise ValueError(f"long-term mean eta must be positive, got {self.eta}")
        if not self.sigma > 0:
            raise ValueError(f"volatility-of-variance sigma must be positive, got {self.sigma}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"correlation rho must lie in [-1, 1], got {self.rho}")
        if not 0.0 <= self.L < self.S:
            raise ValueError(f"need 0 <= L < S, got L={self.L}, S={self.S}")
        if not self.V > 0:
            raise ValueError(f"variance truncation V must be positive, got {self.V}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform interior grid: m1 points in s, m2 points in v.

    ds = (S - L) / (m1 + 1) and dv = V / (m2 + 1); the interior points are
    s_i = L + i * ds (i = 1..m1) and v_j = j * dv (j = 1..m2).
    """

    m1: int
    m2: int
    ds: float
    dv: float
    s_points: np.ndarray
    v_points: np.ndarray

    def __post_init__(self):
        if int(self.m1) != self.m1 or self.m1 < 3:
            raise ValueError(f"m1 must be an integer >= 3, got {self.m1}")
        if int(self.m2) != self.m2 or self.m2 < 3:
            raise ValueError(f"m2 must be an integer >= 3, got {self.m2}")
        if len(self.s_points) != self.m1 or len(self.v_points) != self.m2:
            raise ValueError("grid point arrays do not match m1/m2")
        if not (np.all(np.diff(self.s_points) > 0) and self.s_points[0] > 0):
            raise ValueError("s_points must be strictly increasing and positive")
        if not (np.all(np.diff(self.v_points) > 0) and self.v_points[0] > 0):
            raise ValueError("v_points must be strictly increasing and positive")


def make_grid(params: HestonParams, m1: int, m2: int) -> GridSpec:
    """Build the interior grid for the truncated domain of ``params``.

    Both mesh counts must be at least 3 (standing assumption of the
    stability analysis; the stencils need at least one interior row).
    """
    if int(m1) != m1 or m1 < 3:
        raise ValueError(f"m1 must be an integer >= 3, got {m1}")
    if int(m2) != m2 or m2 < 3:
        raise ValueError(f"m2 must be an integer >= 3, got {m2}")
    m1, m2 = int(m1), int(m2)
    ds = (params.S - params.L) / (m1 + 1)
    dv = params.V / (m2 + 1)
    s_points = params.L + np.arange(1, m1 + 1) * ds
    v_points = np.arange(1, m2 + 1) * dv
    return GridSpec(m1=m1, m2=m2, ds=ds, dv=dv, s_points=s_points, v_points=v_points)


def scaling_diagonal(grid: GridSpec) -> np.ndarray:
    """Diagonal of the scaling matrix D as a vector, in grid ordering.

    Entry (j - 1) * m1 + i (1-based) equals v_j * s_i.
    """
    return np.kron(grid.v_points, grid.s_points)


def _sqrt_cond(d: np.ndarray) -> float:
    """sqrt(cond D) for the positive diagonal d of D; ||X||_2 <= sqrt(cond D) ||X||_D."""
    return math.sqrt(d.max() / d.min())
