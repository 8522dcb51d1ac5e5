"""Exception hierarchy for the dcqe package."""

from __future__ import annotations


class DcqeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDataError(DcqeError):
    """Input data is malformed: wrong rank, empty, or non-finite."""


class DimensionError(DcqeError):
    """Shapes or requested dimensions are inconsistent."""


class DegenerateLabelsError(InvalidDataError):
    """Binary labels hold a single class; an ``InvalidDataError`` like any other bad labels."""


class PartitionError(DcqeError):
    """A partition specification does not match the dataset."""


class ScopeError(DcqeError):
    """A collaboration scope is invalid for its partition."""


class AnchorError(DcqeError):
    """Anchor-data generation received invalid bounds or sizes."""


class CollaborationError(DcqeError):
    """Intermediate representations cannot be integrated or assembled."""


class InfiniteImbalanceError(DcqeError):
    """A covariate has zero variance in both groups but unequal means."""


class ConfigError(DcqeError):
    """A run configuration is malformed or violates dimension rules."""


class IngestionError(DcqeError):
    """A tabular input file is missing, malformed, or misaligned."""
