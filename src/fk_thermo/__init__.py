"""Numerics on the circle for weighted heat semigroups and Gibbs diffusions.

The package computes principal eigenpairs of f -> f''/2 + V f on periodic
grids, propagates the associated weighted heat semigroup by shift-invert
Krylov and by Monte-Carlo path integration, simulates the normalized (Doob)
Gibbs diffusion, and evaluates relative entropy, pressure and the variational
principle pressure == principal eigenvalue, with independent numerical
routes cross-checking every identity.
"""

__version__ = "0.1.0"

from .grid import (GridFunction, HarmonicSpec, PeriodicGrid, derivative,
                   function_from_csv, integrate, make_grid)
from .spectral import (DegenerateGap, EigenSolution, NumericalFailure,
                       OperatorMatrix, PositivityViolation, build_generator,
                       critical_point_count, eigen_probability, gibbs_density,
                       principal_eigenpair)
from .feynman_kac import (PropagatorConfig, WeightOverflow, check_selfadjoint,
                          propagate_mc, propagate_pde)
from .mc import McConfig, PathEnsemble, simulate_paths
from .gibbs import (generator_apply, invariance_residual, normalized_semigroup,
                    rn_weights, rn_weights_admissible, simulate_sde,
                    tv_distance)
from .thermo import (AdmissibleDrift, DecompositionMismatch, EntropyMismatch,
                     MaximizeResult, NonConvergence, admissible_from_eigen,
                     admissible_from_values, carre_du_champ,
                     entropy_finite_T_mc, entropy_report, maximize_pressure,
                     pressure_decomposition, pressure_gap, pressure_value,
                     relative_entropy)

__all__ = [
    "GridFunction", "HarmonicSpec", "PeriodicGrid", "derivative",
    "function_from_csv", "integrate", "make_grid",
    "DegenerateGap", "EigenSolution", "NumericalFailure", "OperatorMatrix",
    "PositivityViolation",
    "build_generator", "critical_point_count", "eigen_probability",
    "gibbs_density", "principal_eigenpair",
    "PropagatorConfig", "WeightOverflow", "check_selfadjoint", "propagate_mc",
    "propagate_pde",
    "McConfig", "PathEnsemble", "simulate_paths",
    "generator_apply", "invariance_residual", "normalized_semigroup",
    "rn_weights", "rn_weights_admissible", "simulate_sde", "tv_distance",
    "AdmissibleDrift", "DecompositionMismatch", "EntropyMismatch",
    "MaximizeResult", "NonConvergence", "admissible_from_eigen",
    "admissible_from_values", "carre_du_champ", "entropy_finite_T_mc",
    "entropy_report", "maximize_pressure", "pressure_decomposition",
    "pressure_gap", "pressure_value", "relative_entropy",
]
