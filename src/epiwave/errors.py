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
    """Series lengths inconsistent, or a run that lacks steps a reader needs."""


class SingularSystem(EpiwaveError):
    """Implicit step matrix is numerically singular."""


class NonFinite(EpiwaveError):
    """Solver produced NaN or inf entries."""


class SingularSigma(EpiwaveError):
    """Diffusivity entry too close to zero to invert."""


class SingularBirthSystem(EpiwaveError):
    """The small (I - w0*beta(0)) birth system is numerically singular."""


class PicardDiverged(EpiwaveError):
    """A step's picard_max sweeps all missed picard_tol.  The message names
    the step, its time and da, the sweeps taken, the best and last residual
    and the observed ratio per sweep, (last / first) ** (1 / (sweeps - 1)):
    above 1 the step diverged, below it converged too slowly."""


class InvalidParam(EpiwaveError):
    """Model parameter outside its admissible range."""


class FitUnderdetermined(EpiwaveError):
    """Fewer than three usable points for the log-log rate fit."""


class ConfigError(EpiwaveError):
    """Configuration file missing, malformed, or carrying unknown keys."""


class IoError(EpiwaveError):
    """Failed to write result files."""
