"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid parameters, config files or incompatible options."""


class QuadratureInsufficiencyError(ConfigurationError):
    """Too few quadrature nodes for the requested expansion order."""


class DimensionMismatchError(ValueError):
    """Array shapes inconsistent with the basis or ensemble layout."""


class IntegrationBlowupError(ArithmeticError):
    """Non-finite values produced during time integration."""
