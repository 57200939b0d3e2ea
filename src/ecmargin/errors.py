"""Exception hierarchy shared by all ecmargin modules."""

from __future__ import annotations


class EcmError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(EcmError, ValueError):
    """An argument or data structure violates a documented precondition."""


class InputFormatError(EcmError, ValueError):
    """A file could not be parsed under its declared schema.

    The message carries line/field diagnostics where available.
    """


class ResourceLimitError(EcmError, RuntimeError):
    """A guard on problem size was exceeded (e.g. the O(n^2) oracle)."""


class NumericalError(EcmError, RuntimeError):
    """A numerical procedure failed to converge or detected an inconsistency."""
