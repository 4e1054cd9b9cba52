"""Exception types shared across the package.

A class exists only where a caller catches it or needs what it carries:
the CLI catches MonocalError, InvalidArgumentError is also a ValueError,
the two format errors add the line or row to their message, and
NonConvergenceError carries the last iterate. Every other fault raises
one of these with a message that says what went wrong.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np


class MonocalError(Exception):
    """Base class for errors raised by this package."""


class InvalidArgumentError(MonocalError, ValueError):
    """An argument violates a documented precondition."""


class MeshFormatError(MonocalError):
    """A mesh or field file could not be parsed.

    Carries the offending line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DataFormatError(MonocalError):
    """A measurement or configuration file could not be parsed.

    Carries the offending row number when known.
    """

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


@contextmanager
def reported_as(what: str):
    """Turn a missing key or a malformed value met while reading the
    input `what` into a DataFormatError naming it."""
    try:
        yield
    except KeyError as exc:
        raise DataFormatError(f"invalid {what}: missing key {exc}") from exc
    except (DataFormatError, ValueError) as exc:
        raise DataFormatError(f"invalid {what}: {exc}") from exc


class NonConvergenceError(MonocalError):
    """An iterative solve stopped before reaching its tolerance.

    The best iterate found so far is attached so callers can inspect or
    log it.
    """

    def __init__(self, message: str, best: np.ndarray | None = None,
                 residual: float | None = None, iterations: int | None = None):
        super().__init__(message)
        self.best = best
        self.residual = residual
        self.iterations = iterations
