"""Structured errors shared by the library and the command line front end.

Every error carries a stable machine-readable ``code`` and an optional
``hint``.  Validation failures (bad user input) map to process exit code 2,
internal invariant violations to exit code 1; the CLI reads ``exit_code``
off the exception rather than guessing from the type.
"""

from __future__ import annotations


class LlcError(Exception):
    """Base class for all structured errors raised by this package."""

    code = "error"
    exit_code = 2

    def __init__(self, message: str, *, hint: str | None = None, code: str | None = None):
        super().__init__(message)
        self.message = message
        self.hint = hint
        if code is not None:
            self.code = code

    def to_json(self) -> dict:
        # hint is always present (null when there is nothing to suggest) so
        # consumers can rely on the {code, message, hint} shape
        return {"code": self.code, "message": self.message, "hint": self.hint}


class InvalidArgument(LlcError):
    code = "invalid-argument"


class InvalidRank(LlcError):
    code = "invalid-rank"


class InvalidPrime(LlcError):
    code = "invalid-prime"


class InvalidPrimePower(LlcError):
    code = "invalid-prime-power"


class UnsupportedFamily(LlcError):
    code = "unsupported-family"


class CoefficientMismatch(LlcError):
    code = "coefficient-mismatch"


class InternalError(LlcError):
    """An invariant the library promised to maintain was violated."""

    code = "internal-error"
    exit_code = 1
