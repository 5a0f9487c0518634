"""Exception types shared across the package."""


class RelInfoError(Exception):
    """Base class for all package errors."""


class ValidationError(RelInfoError):
    """Invalid configuration or malformed input."""


class DomainError(RelInfoError):
    """Parameter or argument outside the model's declared domain."""


class BoundaryError(DomainError):
    """MLE sits on the parameter-domain boundary; measure refused."""


class UndefinedMeasureError(RelInfoError):
    """Observed lod is zero (a Cox lod: not positive or not finite), so the ratio is undefined."""


class InstabilityError(RelInfoError):
    """Monte Carlo denominator estimate is nonpositive or unusable."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class DegenerateDataError(RelInfoError):
    """Data carry no usable signal (e.g. no events in a survival dataset)."""


class DataIntegrityError(RelInfoError):
    """Internally inconsistent data (e.g. empty risk set at an event time)."""


class SeparationError(RelInfoError):
    """Monotone partial likelihood: the coefficient estimate diverges."""


class RankDeficiencyError(RelInfoError):
    """Singular information matrix; covariates carry no contrast."""


class OracleUnavailableError(RelInfoError):
    """Exact enumeration oracle refused (cap exceeded)."""


class EstimationFailureError(RelInfoError):
    """No estimate could be formed: Newton did not converge, or every simulated dataset failed."""
