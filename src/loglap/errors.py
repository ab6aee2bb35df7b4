"""Error types shared across the package.

Every failure mode that a caller is expected to catch gets its own class.
A malformed argument (a bad shape, an unknown kind, an out-of-range
parameter) raises a FieldError that names it; FieldError is also a
ValueError.  The package raises no class that this module does not define.
"""


class LoglapError(Exception):
    """Base class for all package-specific failures."""


class FieldError(LoglapError, ValueError):
    """A malformed value: `field` is its dotted path, `reason` what is wrong."""

    def __init__(self, field: str, reason: str):
        self.field, self.reason = field, reason
        super().__init__(f"{field}: {reason}" if field else reason)


class ConfigError(FieldError):
    """Invalid configuration; `field` is the path in the config document."""


class SerializationError(LoglapError):
    """An artifact is malformed or cannot represent the object."""


class QuadratureConvergenceError(LoglapError):
    """The fixed exp-sinh rule's error estimate exceeds the requested budget."""


class SingularOperatorError(LoglapError):
    """Galerkin operator has an eigenvalue too close to zero to invert."""


class IllConditionedError(LoglapError):
    """A solve's residual is larger than the operator's conditioning allows."""


class SupportViolationError(LoglapError):
    """A source or potential is not supported where the contract requires."""


class GridTooCoarseError(LoglapError):
    """Time grid cannot separate the exponential modes present."""


class RankAmbiguousError(LoglapError):
    """Singular-value gap too weak to call the model order."""


class UnderExcitedEigenspaceError(LoglapError):
    """Source family does not reach the full multiplicity of an eigenspace."""


class UnderdeterminedSamplingError(LoglapError):
    """Constraint matrix has fewer rows than the space it must pin down."""


class PreconditionError(LoglapError):
    """A documented operation precondition does not hold."""
