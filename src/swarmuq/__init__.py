"""Particle-based uncertainty quantification for mean-field swarming models.

Agents carry a polynomial-chaos expansion of their position and velocity
in the random input; interactions are evaluated by Monte Carlo
subsampling, so reconstructed expected densities stay nonnegative while
the random space keeps spectral accuracy.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    IntegrationBlowupError,
    QuadratureInsufficiencyError,
    SchemeFailureError,
)
from .gpc import (
    Basis,
    PolynomialFamily,
    build_basis,
    expectation_and_variance,
    project,
    reconstruct_at,
    tensor_basis,
)

__all__ = [
    "__version__",
    "ConfigurationError",
    "DimensionMismatchError",
    "IntegrationBlowupError",
    "QuadratureInsufficiencyError",
    "SchemeFailureError",
    "Basis",
    "PolynomialFamily",
    "build_basis",
    "expectation_and_variance",
    "project",
    "reconstruct_at",
    "tensor_basis",
]
