"""Stability analysis of central finite-difference Heston discretizations.

Builds the semi-discrete operator blocks on a truncated price/variance grid,
computes spectral and logarithmic norms and matrix exponentials, verifies
the advection and diffusion stability bounds together with the full
contractivity certificate chain, and runs the norm-growth parameter sweep.
"""

from .experiments import (
    SweepConfig,
    SweepRecord,
    compare_L_effect,
    max_norm_over_t,
    run_sweep,
)
from .grid import GridSpec, HestonParams, make_grid, scaling_diagonal
from .linalg import (
    expm,
    log_norm_2,
    log_norm_inf,
    spectral_norm,
)
from .operators import OperatorSet, build_operators, operator_block
from .stability import (
    BoundCheck,
    CertificateRow,
    DEFAULT_Y_SAMPLES,
    certificate_rows,
    check_advection_bounds,
    check_block_toeplitz_symbol_bound,
    check_diffusion_contractivity,
    check_symbol_conditions,
    format_certificate_report,
)

__version__ = "0.1.0"

__all__ = [
    "BoundCheck",
    "CertificateRow",
    "DEFAULT_Y_SAMPLES",
    "GridSpec",
    "HestonParams",
    "OperatorSet",
    "SweepConfig",
    "SweepRecord",
    "build_operators",
    "certificate_rows",
    "check_advection_bounds",
    "check_block_toeplitz_symbol_bound",
    "check_diffusion_contractivity",
    "check_symbol_conditions",
    "compare_L_effect",
    "expm",
    "format_certificate_report",
    "log_norm_2",
    "log_norm_inf",
    "make_grid",
    "max_norm_over_t",
    "operator_block",
    "run_sweep",
    "scaling_diagonal",
    "spectral_norm",
]
