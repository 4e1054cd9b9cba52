"""Exception types shared across the package.

Three classes: MonocalError, the base class and the one the CLI
catches; InvalidArgumentError, an argument that violates a precondition
(also a ValueError); and FormatError, a file that could not be parsed,
with the file line at fault in its message when known. A runtime fault
raises MonocalError with a message that says where it happened: the
time step, and in a calibration the iteration and the conductivities,
and the point group when none of its points activated. `located` is how
a run names where it failed, in the solver and in the search alike.

One naming rule: the function that opens a file names it, by reading
and parsing it inside `reported_as(f"file {path}")`; `FiberField.read`,
which checks what `vtkio.read_fields` returns, names the file the same way.
"""

from __future__ import annotations

from contextlib import contextmanager


class MonocalError(Exception):
    """Base class for errors raised by this package."""


class InvalidArgumentError(MonocalError, ValueError):
    """An argument violates a documented precondition."""


class FormatError(MonocalError):
    """A file could not be parsed; line, when known, is the file line at
    fault and prefixes the message."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


@contextmanager
def reported_as(what: str):
    """Turn a missing key or a malformed value (a non-UTF-8 byte
    included) met while reading the input `what` into a FormatError
    naming it."""
    try:
        yield
    except KeyError as exc:
        raise FormatError(f"invalid {what}: missing key {exc}") from exc
    except (FormatError, ValueError) as exc:
        raise FormatError(f"invalid {what}: {exc}") from exc


@contextmanager
def located(where: str, *args):
    """Raise a MonocalError met inside again with `where % args` in front
    of its message, formatted only then, as `logging` does."""
    try:
        yield
    except MonocalError as exc:
        raise MonocalError(f"{where % args}: {exc}") from exc
