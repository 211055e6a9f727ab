"""Exception hierarchy shared by all modules."""


class CornerflowError(Exception):
    """Base class for all package errors."""


class DomainError(CornerflowError, ValueError):
    """Input outside the mathematical domain of an operation."""


class StateError(CornerflowError):
    """Thermodynamic state error (e.g. no subsonic root exists).

    ``index`` is the flat index of the first failing node, when known.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class SubsonicityError(StateError):
    """Inverted density is within the configured margin of criticality."""


class GeometryError(CornerflowError):
    """Requested ball/arc/support leaves the field's grid."""


class StencilError(CornerflowError):
    """Finite-difference stencil too close to a free boundary."""


class NumericalError(CornerflowError):
    """Iteration failed to converge; carries the final residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class FrequencyUndefinedError(CornerflowError):
    """Frequency quantities requested at a radius where J(r) = 0."""


class InsufficientDataError(CornerflowError):
    """Too few usable radii for an extrapolation."""


class ConfigError(CornerflowError):
    """Malformed run configuration; carries line/field information."""
