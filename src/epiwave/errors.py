"""Exception types raised by the solver stack."""


class EpiwaveError(Exception):
    """Base class for all package-specific errors."""


class InvalidSize(EpiwaveError):
    """Grid counts below the supported minima, or nonpositive extents."""


class NonCommensurate(EpiwaveError):
    """Time horizon is not an integer multiple of the age step."""


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
    """A step's update grew 3 sweeps in a row, or picard_max sweeps missed
    picard_tol.  The message names the step, its time and da, the sweeps
    taken and the best and last residuals."""


class InvalidParam(EpiwaveError):
    """Model parameter outside its admissible range."""


class FitUnderdetermined(EpiwaveError):
    """Fewer than three usable points for the log-log rate fit."""


class MissingBaseline(EpiwaveError):
    """The baseline run does not store every step, so its boundary traces
    cannot be sampled."""


class ConfigError(EpiwaveError):
    """Configuration file missing, malformed, or carrying unknown keys."""


class IoError(EpiwaveError):
    """Failed to write result files."""
