"""Exception types shared across the package."""


class GwfamError(Exception):
    """Base class for package-specific errors."""


class DimensionMismatch(GwfamError):
    """Vectors of inconsistent length were mixed in one law or model."""


class ZeroVectorInSupport(GwfamError):
    """An offspring law placed positive mass on the all-zero vector."""


class DuplicateSupportPoint(GwfamError):
    """The same offspring vector appeared twice in a law's support."""


class ProbabilitiesDontSumToOne(GwfamError):
    """Support probabilities are further than 1e-9 from summing to one."""


class ParameterOutOfRange(GwfamError):
    """A builtin-model parameter is outside its valid open interval."""


class InvalidArgument(GwfamError, ValueError):
    """An input value is malformed: a non-integral count, a non-numeric
    parameter, or a model or parameter name that does not exist."""


class NotPositivelyRegular(GwfamError):
    """The reproduction matrix has no strictly positive power."""


class ConvergenceFailure(GwfamError):
    """Power iteration exhausted its budget with residual above tolerance."""


class PopulationOverflow(GwfamError):
    """A simulated generation exceeded ``simulate.DEFAULT_POPULATION_CAP``."""


class SampleExceedsPopulation(GwfamError):
    """Requested more distinct individuals than the generation holds."""


class InvalidSampleSize(GwfamError):
    """A sample size was negative or otherwise unusable."""


class EnumerationTooLarge(GwfamError):
    """An exact-enumeration oracle was asked for an infeasible case."""


class EmptySample(GwfamError):
    """An estimator received no (or too few) observations."""


class OptimizerDiverged(GwfamError):
    """Every optimizer start failed to produce a usable fit."""


class ModelConstructionFailed(GwfamError):
    """A parametric family could not build a model at the requested point."""


class ReplicateFailed(GwfamError):
    """One replicate of an experiment raised; carries its index and the error."""

    def __init__(self, replicate: int, error: str):
        super().__init__(replicate, error)
        self.replicate = replicate
        self.error = error

    def __str__(self) -> str:
        return f"replicate {self.replicate}: {self.error}"


class UnknownPreset(GwfamError):
    """Requested experiment preset does not exist."""


class MalformedCsv(GwfamError):
    """A CSV input was empty or missing required columns."""
