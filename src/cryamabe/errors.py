"""Exception types shared across the package."""


class CRYamabeError(Exception):
    """Base class for all package errors."""


class DomainError(CRYamabeError, ValueError):
    """Invalid argument or out-of-range parameter."""


class PoleError(CRYamabeError, ValueError):
    """Chart evaluated at or too close to its singular point."""


class SingularPointError(CRYamabeError, ValueError):
    """Homogeneous kernel evaluated at the group origin."""


class MaskEmptyError(CRYamabeError, ValueError):
    """A symmetry mask selected no coefficients."""


class DivergentIntegralError(CRYamabeError, RuntimeError):
    """Shell contributions of a volume integral failed to decay."""
