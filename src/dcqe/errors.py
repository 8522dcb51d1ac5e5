"""The package's four exception classes. ``dcqe`` exits 2 on a ``ConfigError``, 3 on an
``IngestionError`` and 4 on any other ``DcqeError``, such as an ``InvalidDataError``."""

from __future__ import annotations


class DcqeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidDataError(DcqeError):
    """Arrays, partitions, scopes or sizes the method cannot run on; the message names the rule."""


class ConfigError(DcqeError):
    """A run configuration is malformed or violates dimension rules."""


class IngestionError(DcqeError):
    """A tabular input file is missing, malformed, or misaligned."""
