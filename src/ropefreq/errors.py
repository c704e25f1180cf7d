"""Exception types shared across the package."""

__all__ = ["RopeFreqError", "ConfigurationError", "ShapeError", "UnsupportedReportError"]


class RopeFreqError(ValueError):
    """Base class for all errors raised by this package."""


class ConfigurationError(RopeFreqError):
    """Invalid parameter values or inconsistent configuration."""


class ShapeError(RopeFreqError):
    """Array shape or layout does not match what an operation requires."""


class UnsupportedReportError(RopeFreqError):
    """An attention report lacks the data a diagnostic needs."""
