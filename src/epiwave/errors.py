"""Exception types raised by the solver stack."""


class EpiwaveError(Exception):
    """Base class for all package-specific errors."""


class InvalidSize(EpiwaveError):
    """Grid counts below the supported minima, or nonpositive extents."""


class NonCommensurate(EpiwaveError):
    """Time horizon is not an integer multiple of the age step."""


class OutOfRange(EpiwaveError):
    """Characteristic index outside [-na, nt]."""


class ShapeMismatch(EpiwaveError):
    """Array shapes inconsistent with the mesh or with each other."""


class LengthMismatch(EpiwaveError):
    """Series lengths inconsistent."""


class SingularSystem(EpiwaveError):
    """Implicit step matrix is numerically singular."""


class NonFinite(EpiwaveError):
    """Solver produced NaN or inf entries."""


class SingularSigma(EpiwaveError):
    """Diffusivity entry too close to zero to invert."""


class SingularBirthSystem(EpiwaveError):
    """The small (I - w0*beta(0)) birth system is numerically singular."""


class PicardDiverged(EpiwaveError):
    """Fixed-point update norm grew for three consecutive sweeps."""


class InvalidParam(EpiwaveError):
    """Model parameter outside its admissible range."""


class FitUnderdetermined(EpiwaveError):
    """Fewer than three usable points for the log-log rate fit."""


class MissingBaseline(EpiwaveError):
    """A baseline run is required to sample boundary traces."""


class ConfigError(EpiwaveError):
    """Configuration file missing, malformed, or carrying unknown keys."""


class IoError(EpiwaveError):
    """Failed to write result files."""
