"""Randomized row-action solver for phaseless measurements b_j = |a_j^* x|,
plus Monte Carlo and quadrature checks of its convergence ingredients.

The public names are loaded on first access, each from its own module, so
that importing the package (or `kaczpr.cli`) loads only the modules a run
uses: the Monte Carlo checks in `kaczpr.verify` stay unloaded until a name
of theirs is read.
"""

import importlib

__version__ = "0.1.0"

_MODULES = {
    "analysis": ("contraction_stats", "directional_derivative", "expected_step", "loss",
                 "margin_row_bounds", "margin_row_terms", "rsc_margin"),
    "geometry": ("aligned_error", "dist", "optimal_phase"),
    "initializers": ("InitConfig", "NormModel", "planted_init", "real_overlap_direction",
                     "spectral_init"),
    "kaczmarz": ("SolverConfig", "SolverTrace", "linear_step", "pr_step", "run_linear", "run_pr",
                 "select_rows"),
    "rng": ("GENERATOR_ID", "RngStream", "complex_standard_normal"),
    "sampling": ("Ensemble", "Measurements", "Model", "make_ensemble", "measure",
                 "sample_complex_gaussian", "sample_unit_sphere"),
    "verify": ("Direction", "LemmaParams", "check_covariance", "check_restricted_ratio",
               "check_truncated_moment", "closed_form_g", "covariance_deviation", "loose_bound_g",
               "lower_bound_f", "mc_F", "mc_G", "series_F"),
}
_HOME = {name: module for module, names in _MODULES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
