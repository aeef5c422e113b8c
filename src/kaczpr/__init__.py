"""Randomized row-action solver for phaseless measurements b_j = |a_j^* x|,
plus Monte Carlo and quadrature checks of its convergence ingredients."""

from .analysis import (
    contraction_stats,
    directional_derivative,
    expected_step,
    loss,
    margin_row_bounds,
    margin_row_terms,
    rsc_margin,
)
from .geometry import aligned_error, dist, optimal_phase
from .initializers import (
    InitConfig,
    NormModel,
    planted_init,
    real_overlap_direction,
    spectral_init,
)
from .kaczmarz import (
    SolverConfig,
    SolverTrace,
    linear_step,
    pr_step,
    run_linear,
    run_pr,
    select_rows,
)
from .rng import GENERATOR_ID, RngStream, complex_standard_normal
from .sampling import (
    Ensemble,
    Measurements,
    Model,
    make_ensemble,
    measure,
    sample_complex_gaussian,
    sample_unit_sphere,
)
from .verify import (
    Direction,
    LemmaParams,
    check_covariance,
    check_restricted_ratio,
    check_truncated_moment,
    closed_form_g,
    covariance_deviation,
    loose_bound_g,
    lower_bound_f,
    mc_F,
    mc_G,
    series_F,
)

__version__ = "0.1.0"
