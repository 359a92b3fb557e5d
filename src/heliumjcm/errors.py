"""Exception types shared across the package, and their failure text.

Every error raised by the numerical layers derives from HeliumJcmError so
batch drivers can distinguish physics/numerics failures from programming
errors and report them per sweep point instead of aborting a whole run.
"""


def failure_text(exc: BaseException) -> str:
    """The text every artifact lists for a failure: "<type>: <message>"."""
    return f"{type(exc).__name__}: {exc}"


class HeliumJcmError(Exception):
    """Base class for all package-specific errors."""


class DegenerateField(HeliumJcmError):
    """A quantity requiring b_z > 0 (magnetic length, Landau splitting) was
    requested at b_z = 0."""


class GridTooSmall(HeliumJcmError):
    """The highest requested state of the finite-difference reference leaks
    into the grid boundary."""


class ConvergenceFailure(HeliumJcmError):
    """The eigensolver failed to converge."""


class BasisMismatch(HeliumJcmError):
    """A product basis asks for more vertical states than the spectrum has,
    or operands were built on different bases."""


class NoCrossingInRange(HeliumJcmError):
    """The requested pair of uncoupled levels does not cross inside the
    searched field interval."""


class BranchTrackingLost(HeliumJcmError):
    """Eigenvector continuity between successive sweep points fell below the
    trust threshold; the sweep step is too coarse to follow branches."""


class NearResonance(HeliumJcmError):
    """A perturbative formula was evaluated too close to a level crossing,
    where its energy denominators blow up.

    Attributes carry the offending denominator and the coupling scale so
    callers can widen the exclusion or switch to exact diagonalization.
    """

    def __init__(self, message, denominator=None, coupling=None):
        super().__init__(message)
        self.denominator = denominator
        self.coupling = coupling


class NotDownward(HeliumJcmError):
    """A spontaneous-emission rate was requested for a transition that does
    not release energy."""


class ConfigError(HeliumJcmError):
    """A run configuration failed validation."""
