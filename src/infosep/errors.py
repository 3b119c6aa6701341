"""Exception types shared across the package."""


class InfosepError(Exception):
    """Base class for every error raised by this package."""


class InvalidDistribution(InfosepError, ValueError):
    """Input cannot be interpreted as a probability distribution."""


class InvalidMap(InfosepError, ValueError):
    """Symbol map is not a valid surjection onto its image alphabet."""


class DimensionError(InfosepError, ValueError):
    """Operands have incompatible shapes or alphabet sizes."""


class NumericalError(InfosepError, ArithmeticError):
    """A numerical routine failed or produced an inconsistent result."""


class InvalidGenerator(InfosepError, ValueError):
    """f-information generator violates its defining constraints."""


class InsufficientStatistic(InfosepError):
    """Symbol maps fail the sufficiency test required by the operation."""
