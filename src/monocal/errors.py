"""Exception types shared across the package."""

from __future__ import annotations

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


class AssemblyError(MonocalError):
    """Finite element assembly failed (e.g. an inverted element)."""


class RefinementRequiredError(MonocalError):
    """The requested mesh resolution cannot represent the geometry."""


class DegenerateConfigurationError(MonocalError):
    """Input points are collinear or otherwise do not pin down a transform."""


class InsufficientDataError(MonocalError):
    """Too few usable samples to evaluate the requested quantity."""


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


class SimulationDivergedError(MonocalError):
    """The transmembrane potential left the physically plausible range."""

    def __init__(self, message: str, step: int, time_ms: float):
        super().__init__(message)
        self.step = step
        self.time_ms = time_ms
