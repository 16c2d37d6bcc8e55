"""Exception hierarchy for the GitTables reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library-specific failures without masking programming
errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class CSVParseError(ReproError):
    """Raised when a CSV payload cannot be parsed into a table."""


class SnifferError(CSVParseError):
    """Raised when the delimiter of a CSV payload cannot be determined."""


class TableValidationError(ReproError):
    """Raised when a :class:`~repro.dataframe.table.Table` is malformed."""


class SearchQueryError(ReproError):
    """Raised for malformed GitHub search queries."""


class RateLimitExceeded(ReproError):
    """Raised by the GitHub simulator when the client exceeds its rate limit."""

    def __init__(self, retry_after: float, message: str | None = None) -> None:
        super().__init__(message or f"rate limit exceeded, retry after {retry_after:.1f}s")
        self.retry_after = retry_after


class ResultWindowExceeded(SearchQueryError):
    """Raised when pagination goes past the simulated 1000-result window."""


class OntologyError(ReproError):
    """Raised for unknown semantic types or malformed ontology data."""


class AnnotationError(ReproError):
    """Raised when the annotation pipeline receives invalid input."""


class PipelineConfigError(ReproError):
    """Raised for inconsistent pipeline configuration values."""


class ModelNotFittedError(ReproError):
    """Raised when predicting with an unfitted ML model."""


class FeatureExtractionError(ReproError):
    """Raised when column featurisation fails."""


class CorpusError(ReproError):
    """Raised for invalid corpus operations (e.g. duplicate table ids)."""


class ServingError(ReproError):
    """Base class for errors raised by the concurrent query service."""


class ServiceOverloaded(ServingError):
    """Raised when a request is rejected because the queue is full."""


class DeadlineExceeded(ServingError):
    """Raised when a request's deadline expires before its result lands."""


class ServiceClosed(ServingError):
    """Raised for requests submitted to (or stranded in) a closed service."""


class WorkerCrashed(ServingError):
    """Raised when a request's worker died and the retry budget is spent."""
