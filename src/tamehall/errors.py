"""Exception hierarchy shared by all tamehall modules."""

from __future__ import annotations


class TamehallError(Exception):
    """Base class for every error raised by this package."""


class InvalidInputError(TamehallError):
    """Malformed user input (files, dimension vectors, CLI arguments)."""


class QuiverSyntaxError(InvalidInputError):
    """Unparseable quiver description; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class QuiverStructureError(InvalidInputError):
    """Structurally invalid quiver.  `code` is one of 'loop', 'cycle',
    'disconnected', 'empty'."""

    def __init__(self, message: str, code: str):
        self.code = code
        super().__init__(message)


# The enumeration budget every exhaustive entry point and `--budget` default to.
DEFAULT_BUDGET = 2_000_000


class InfeasibleEnumerationError(TamehallError):
    """An exhaustive enumeration would exceed its budget."""

    def __init__(self, message: str, needed: int | None = None, budget: int | None = None):
        self.needed = needed
        self.budget = budget
        super().__init__(message)


class VerificationError(TamehallError):
    """A cross-check that must hold (held-out evaluation, pinned table) failed."""


class InternalInconsistencyError(TamehallError):
    """Two internal routes that must agree disagreed; indicates a bug."""
