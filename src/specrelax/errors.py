"""Exception types raised by the specrelax package."""


class SpecRelaxError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(SpecRelaxError):
    """Vector or matrix shapes are incompatible."""


class InvalidArguments(SpecRelaxError):
    """Arguments violate an operation precondition."""


class OutOfRange(SpecRelaxError):
    """Scalar argument outside its admissible interval."""


# --- chain construction / validation ---

class RowSumError(SpecRelaxError):
    """A kernel row does not sum to one within tolerance."""


class NotReversible(SpecRelaxError):
    """Detailed balance fails beyond tolerance."""


class Reducible(SpecRelaxError):
    """The positive-entry digraph of the kernel is not strongly connected."""


class DegeneratePi(SpecRelaxError):
    """The stationary distribution has a nonpositive entry."""


class EigensolveFailure(SpecRelaxError):
    """The symmetric eigensolver did not converge."""


class InvalidSize(SpecRelaxError):
    """State count outside the supported range."""


# --- trajectories ---

class ZeroProjection(SpecRelaxError):
    """The centered initial vector has no energy in the nontrivial modes."""


class DeadTrajectory(SpecRelaxError):
    """Operation requires positive energy but the trajectory has died."""


class NoSlowMode(SpecRelaxError):
    """The maximal-eigenvalue mode carries no weight in this profile."""


# --- power iteration ---

class InvalidRho(SpecRelaxError):
    """Energy ratio outside the admissible range."""


# --- acceleration ---

class InvalidInterval(SpecRelaxError):
    """Suppression interval is empty or does not exclude the fixed point."""


# --- first passage ---

class Degenerate(SpecRelaxError):
    """The quantity is undefined: eigenvalues tie, or a Perron vector is not
    sign-definite."""


class InvalidState(SpecRelaxError):
    """Target state index out of range."""


class BadStart(SpecRelaxError):
    """Start distribution invalid or supported on the absorbing state."""


# --- cli ---

class ConfigError(SpecRelaxError):
    """Run configuration is invalid."""


class IoError(SpecRelaxError):
    """Input file missing or malformed."""
