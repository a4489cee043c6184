"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid or inconsistent configuration (matrices, germ constraints, files)."""


class NonFiniteError(ValueError):
    """A pulse-kernel quantity (a Hamiltonian entry, an evolution phase)
    overflowed to a value that is not finite."""


class ProtocolError(RuntimeError):
    """A structural requirement of a procedure failed, e.g. a generator set
    that does not close into the 24-element Clifford group."""


class DetectionError(RuntimeError):
    """Peak detection found nothing usable in a fidelity map."""


class FitError(RuntimeError):
    """A nonlinear fit failed to converge or produced unusable parameters;
    the message gives the residual where one was too large."""


class CalibrationDiverged(RuntimeError):
    """Peak tracking lost the calibration peak between stages; the message
    gives the jump and the stage's germ repetitions N."""
