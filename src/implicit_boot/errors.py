"""Exception types shared across the package."""


class ImplicitBootError(Exception):
    """Base class for all package-specific errors."""


class EmptyBlock(ImplicitBootError):
    """Requested a noise block of zero length."""


class EmptyData(ImplicitBootError):
    """An estimator was handed an empty dataset."""


class OutOfBox(ImplicitBootError):
    """A parameter vector violates its model's box constraints."""


class DegenerateSample(ImplicitBootError):
    """The sample carries no information for the requested estimator."""


class NonConvergence(ImplicitBootError):
    """A solver exhausted its budget without reaching tolerance."""


class NoZFunction(ImplicitBootError):
    """The switched matching path needs an estimator exposing z_batch."""


class SingularInformation(ImplicitBootError):
    """The numeric information matrix is singular; no delta-method scale."""


class UnsupportedExample(ImplicitBootError):
    """No closed-form matching solution exists for this model."""


class DomainError(ImplicitBootError):
    """A noise summary or quantile argument lies outside its support."""


class ConfigError(ImplicitBootError):
    """A scenario configuration file is malformed."""


class ExcessExclusions(ImplicitBootError):
    """Too many replicates failed for the coverage estimate to be honest."""


class ParseError(ImplicitBootError):
    """A results CSV could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
