"""Exception types shared across the package."""


class SpocError(Exception):
    """Base class for all package-specific errors."""


class InvalidScheduleError(SpocError, ValueError):
    """Schedule parameters or values violate alpha_1 = 1, positivity, or monotonicity."""


class SingularScheduleError(SpocError, ValueError):
    """Some alpha_i = 1 with i >= 2: the closed weight form w_n = alpha_n * prod(1-alpha_i)^-1
    is singular.  The recursive measure update remains valid; use that instead."""


class DimensionMismatchError(SpocError, ValueError):
    """Point / measure / model dimensions do not agree."""


class MeasureSizeError(SpocError, ValueError):
    """Exact transport instance exceeds the cost-entry cap; use sliced_w2 instead."""


class BlowUpError(SpocError, RuntimeError):
    """Particle state left the finite / bounded region during simulation."""

    def __init__(self, message, particle=None, step=None, replication=None):
        super().__init__(message)
        self.particle = particle
        self.step = step
        self.replication = replication


class AssumptionViolationError(SpocError, ValueError):
    """A dissipativity / weak-interaction style hypothesis fails numerically."""


class NumericsError(SpocError, RuntimeError):
    """Quadrature or optimization did not converge to the requested accuracy."""


class RunFormatError(SpocError, ValueError):
    """A run directory was written in a format this version does not read."""


class ConfigError(SpocError, ValueError):
    """Invalid run configuration; carries a dotted key path when available."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
