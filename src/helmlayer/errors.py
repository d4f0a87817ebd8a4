"""Exception types shared across the package."""


class HelmlayerError(Exception):
    """Base class for all package-specific errors."""


class InvalidLayer(HelmlayerError):
    """Layer geometry cannot host unit-radius particles."""


class EmptyConfiguration(HelmlayerError):
    """Operation needs at least one particle (distance field is +inf)."""


class InvalidExtent(HelmlayerError):
    """Grid extents or spacings are unusable."""


class ParticleOutOfDomain(HelmlayerError):
    """A scaled particle does not lie strictly inside the grid."""


class InvalidDtnSpec(HelmlayerError):
    """Modal boundary closure parameters are inconsistent."""


class SingularSystem(HelmlayerError):
    """Linear system is singular or numerically rank deficient."""


class FactorTooLarge(HelmlayerError):
    """The sparse factor could not be allocated within the process's memory."""


class NoConvergence(HelmlayerError):
    """Direct solve with iterative refinement stayed above the residual tolerance."""


class ShapeMismatch(HelmlayerError):
    """Supplied trace or field does not match the grid."""


class ResolutionTooCoarse(HelmlayerError):
    """Grid spacing does not resolve the scaled particles."""


class PassivityViolation(HelmlayerError):
    """Reference reflection coefficient exceeds unit modulus for an absorbing plane."""


class DegenerateFit(HelmlayerError):
    """Rate fit requested on a degenerate abscissa range."""


class ConfigError(HelmlayerError):
    """Experiment configuration is malformed."""


class NumericalFailure(HelmlayerError):
    """Aggregated failure of too many Monte Carlo samples."""
