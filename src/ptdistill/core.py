"""Probability/logit primitives shared by every other module.

All distributions are represented in natural-log units (nats). Probabilities
are clamped to ``PROB_FLOOR`` before any logarithm so degenerate entries never
produce -inf.

Every argument or computation error raised here derives from ``DomainError``
(CLI exit 1); ``SchemaError``, a malformed input file, does not (exit 2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Single shared clamp applied to probabilities before any log.
PROB_FLOOR = 1e-12
# Absolute tolerance for "sums to one" simplex checks.
SIMPLEX_ATOL = 1e-9


class DomainError(Exception):
    """Base of every argument or computation error the library raises."""


class InvalidInputError(DomainError, ValueError):
    """An argument violates a documented precondition."""


class ConfigurationError(DomainError, ValueError):
    """A configuration is internally inconsistent or insufficient."""


class DegenerateTeacherError(InvalidInputError):
    """A teacher probability sits at the clamp floor where a mapping divides by it."""


class SolverDivergenceError(DomainError, RuntimeError):
    """A nonlinear solve produced non-finite state."""


class SearchFailureError(DomainError, RuntimeError):
    """Every candidate in a coefficient search was discarded."""


class TrainingDivergenceError(DomainError, RuntimeError):
    """Training produced a non-finite loss or parameter."""


class SchemaError(Exception):
    """An input file does not match its documented schema."""


def on_simplex(rows) -> bool:
    """Whether every row (along the last axis) is a probability vector:
    finite entries in [0, 1] that sum to 1 within ``SIMPLEX_ATOL``."""
    rows = np.asarray(rows, dtype=float)
    return bool(np.all(np.isfinite(rows))
                and np.all((rows >= 0.0) & (rows <= 1.0))
                and np.all(np.abs(rows.sum(axis=-1) - 1.0) <= SIMPLEX_ATOL))


@dataclass(frozen=True)
class ProbVector:
    """A point on the C-class probability simplex (C >= 2)."""

    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1:
            raise InvalidInputError(
                f"ProbVector.values must be a 1-d vector, got shape {arr.shape}")
        if arr.size < 2:
            raise InvalidInputError("ProbVector needs at least 2 classes")
        if not on_simplex(arr):
            raise InvalidInputError("ProbVector entries must be finite, in "
                                    f"[0, 1] and sum to 1, got {arr!r}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def num_classes(self) -> int:
        return self.values.size


def clamp_probs(p: np.ndarray) -> np.ndarray:
    """Clamp probabilities to [PROB_FLOOR, 1] ahead of a log."""
    return np.clip(p, PROB_FLOOR, 1.0)


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with the max-subtraction trick (works on 1-d too)."""
    z = np.asarray(z, dtype=float)
    shifted = z - np.max(z, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Row-wise Shannon entropy in nats with the 0*log 0 = 0 convention."""
    p = np.asarray(p, dtype=float)
    logs = np.log(clamp_probs(p))
    return -np.sum(np.where(p > 0.0, p * logs, 0.0), axis=-1)

