"""Cyclic finite-velocity random evolution in R^n.

A particle moves at speed v and cycles through the n+1 vertices of a regular
unit simplex at exponential(lam) switch times.  The package provides the
direction-simplex geometry, the hyper-Bessel special functions, the exact
closed-form endpoint density, a reproducible Monte Carlo simulator, and a
verification battery tying the pieces together.
"""

__version__ = "0.1.0"

from .density import (
    DensityValue,
    ac_mass,
    analytic_bessel_integral,
    boundary_probability,
    density,
    density_batch,
    jet_operator_density,
    normalization_series_identity,
    remark_constant_check,
)
from .geometry import (
    EvolutionParams,
    Membership,
    SimplexGeometry,
    barycentric_coordinates,
    build_simplex,
    support_contains,
    vertices_at_time,
    volume,
)
from .simulator import (
    FitReport,
    PathDataset,
    PathSample,
    SimulationConfig,
    histogram_fit,
    simplex_cells,
    simulate_batch,
    simulate_path,
)
from .special_functions import (
    DerivedConstants,
    HyperBesselEval,
    eval_hyper_bessel,
    hyper_bessel_ode_residual,
    series_coefficient,
)
from .verification import (
    QuadratureEstimate,
    VerificationReport,
    check_beta_integrals,
    check_normalization,
    integrate_over_support,
    run_all,
    sample_uniform_simplex,
)

__all__ = [
    "DensityValue",
    "DerivedConstants",
    "EvolutionParams",
    "FitReport",
    "HyperBesselEval",
    "Membership",
    "PathDataset",
    "PathSample",
    "QuadratureEstimate",
    "SimplexGeometry",
    "SimulationConfig",
    "VerificationReport",
    "ac_mass",
    "analytic_bessel_integral",
    "barycentric_coordinates",
    "boundary_probability",
    "build_simplex",
    "check_beta_integrals",
    "check_normalization",
    "density",
    "density_batch",
    "eval_hyper_bessel",
    "histogram_fit",
    "hyper_bessel_ode_residual",
    "integrate_over_support",
    "jet_operator_density",
    "normalization_series_identity",
    "remark_constant_check",
    "run_all",
    "sample_uniform_simplex",
    "series_coefficient",
    "simplex_cells",
    "simulate_batch",
    "simulate_path",
    "support_contains",
    "vertices_at_time",
    "volume",
]
