"""Exception types shared across the package."""


class SemControlError(Exception):
    """Base class for every error this package raises deliberately."""


class NonFiniteEntry(SemControlError):
    """A matrix or vector contains NaN or infinite entries."""


class ResponseNotDescendant(SemControlError):
    """The response variable is not reachable from the treatment."""


class ControlSetMismatch(SemControlError):
    """A declared control set is not contained in its required block."""


class SingularSystem(SemControlError):
    """A linear system required by the computation is numerically singular."""


class UnstableModel(SemControlError):
    """The coefficient matrix is not convergent, so equilibrium moments do not exist."""


class SingularBlock(SemControlError):
    """A covariance sub-block is singular or too ill-conditioned to invert."""


class ZeroTotalEffect(SemControlError):
    """The treatment has no total effect on the controlled descendants."""


class UnstablePlan(SemControlError):
    """The control plan violates the feedback stability condition."""


class WeakInstrument(SemControlError):
    """The instrument is numerically uncorrelated with the treatment."""


class SingularInstrumentBlock(SemControlError):
    """The instrument covariance block is rank deficient."""


class TooFewRows(SemControlError):
    """The dataset has fewer rows than the operation requires."""


class MissingFixture(SemControlError):
    """A bundled data fixture could not be located."""


class InputFormatError(SemControlError):
    """A model, plan, covariance, or data file violates its schema."""


class WorkerFailed(SemControlError):
    """A worker process that formats or parses a large CSV died or raised."""


class UnstableModelWarning(UserWarning):
    """Sampling from a model whose equilibrium is not reachable by iteration."""
