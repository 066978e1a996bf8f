"""Truncated power-series machinery for log on (0, 1].

The natural log admits the expansion log(x) = -sum_{m>=1} (1-x)^m / m,
convergent for x in (0, 2). Only (0, 1] is needed here because the series
is evaluated at (clamped) probabilities.
"""
from __future__ import annotations

import numpy as np

from .core import InvalidInputError


def _check_domain(x: float) -> float:
    x = float(x)
    if not np.isfinite(x) or x <= 0.0 or x > 1.0:
        raise InvalidInputError(f"x must lie in (0, 1], got {x!r}")
    return x


def maclaurin_log(x: float, order: int) -> float:
    """Order-M truncation of log(x), accumulated highest-order first.

    Returns -sum_{m=1..M} (1-x)^m / m via Horner evaluation in u = 1-x,
    which keeps rounding growth bounded for large M.
    """
    x = _check_domain(x)
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    u = 1.0 - x
    acc = 0.0
    for m in range(order, 0, -1):
        acc = acc * u + 1.0 / m
    return -u * acc


def truncation_bound(x: float, order: int) -> float:
    """Upper bound on |log x - maclaurin_log(x, M)|.

    The dropped tail sum_{m>M} u^m/m is positive and dominated by the
    geometric tail u^{M+1} / ((M+1)(1-u)) with u = 1-x.
    """
    x = _check_domain(x)
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    u = 1.0 - x
    return u ** (order + 1) / ((order + 1) * x)
