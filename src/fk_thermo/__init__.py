"""Numerics on the circle for weighted heat semigroups and Gibbs diffusions.

The package computes principal eigenpairs of f -> f''/2 + V f on periodic
grids, propagates the associated weighted heat semigroup by shift-invert
Krylov and by Monte-Carlo path integration, simulates the normalized (Doob)
Gibbs diffusion, and evaluates relative entropy, pressure and the variational
principle pressure == principal eigenvalue, with independent numerical
routes cross-checking every identity.
"""

__version__ = "0.1.0"

from .grid import *
from .spectral import *
from .feynman_kac import *
from .mc import *
from .gibbs import *
from .thermo import *

# Each import above also binds its submodule here, by the import system.
__all__ = (grid.__all__ + spectral.__all__ + feynman_kac.__all__ + mc.__all__
           + gibbs.__all__ + thermo.__all__)
