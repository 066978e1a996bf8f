"""Coefficient mappings that reduce other perturbation methods to PT form.

Label smoothing and focal loss map to explicit coefficient matrices; the
truncated series reproduces those losses up to a known additive constant
(zero for focal). Temperature scaling is covered as a containment check:
for each sampled binary (teacher, student, tau) triple the module fits a
coefficient reproducing the temperature-scaled loss value at that point.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    ConfigurationError,
    DegenerateTeacherError,
    InvalidInputError,
    PROB_FLOOR,
    ProbVector,
    entropy_rows,
    softmax_rows,
)
from .losses import (
    PerturbationConfig,
    check_param,
    focal_rows,
    kl_rows,
    make_loss,
    pt_rows,
    smooth_rows,
)
from .rng import derive_rng

METHODS = ("label_smoothing", "focal", "temperature")
# Per-class probabilities are drawn uniform in PROB_RANGE, then normalized;
# the smallest probability that allows sets the series order TOLERANCE needs.
PROB_RANGE = (0.3, 0.7)
TOLERANCE = 1e-6


@dataclass(frozen=True)
class EquivalenceReport:
    method: str
    max_abs_deviation: float
    additive_constant: float
    samples_checked: int

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(f"unknown method {self.method!r}")
        if self.max_abs_deviation < 0:
            raise InvalidInputError("max_abs_deviation must be >= 0")
        if self.samples_checked < 1:
            raise InvalidInputError("samples_checked must be >= 1")


def ls_coefficients(teacher: ProbVector, delta: float,
                    order: int) -> PerturbationConfig:
    """Coefficients reproducing label smoothing: eps_{c,m} = dp_c / (m p_c).

    dp_c = delta/C - delta p_c; the binary case reduces to
    (delta/m)(1/(2 p_c) - 1).
    """
    check_param("delta", delta)
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    p = teacher.values
    if np.any(p <= PROB_FLOOR):
        raise DegenerateTeacherError(
            "teacher probability at the clamp floor; mapping divides by it"
        )
    c = teacher.num_classes
    dp = delta / c - delta * p
    m = np.arange(1, order + 1)
    coeffs = dp[:, None] / (m * p[:, None])
    return PerturbationConfig(order=order, coefficients=coeffs)


def focal_coefficients(student: ProbVector, gamma: float,
                       order: int) -> PerturbationConfig:
    """Coefficients reproducing focal loss at this student point.

    eps_{c,m} = ((1 - p^s_c)^gamma - 1) / m; note the mapping is
    student-dependent and must be recomputed per student output.
    """
    check_param("gamma", gamma)
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    u = 1.0 - student.values
    m = np.arange(1, order + 1)
    coeffs = (u[:, None] ** gamma - 1.0) / m
    return PerturbationConfig(order=order, coefficients=coeffs)


def truncation_bound(x: float, order: int) -> float:
    """Upper bound on the error of the order-M Maclaurin series of log x,
    -sum_{m=1..M} (1-x)^m / m, for x in (0, 1].

    That series is -``perturbation_terms(1, x, eps)`` with eps_m = 1/m,
    the PT loss's own kernel. The dropped tail sum_{m>M} u^m/m is positive
    and dominated by the geometric tail u^{M+1} / ((M+1)(1-u)), u = 1-x.
    """
    x = float(x)
    if not np.isfinite(x) or x <= 0.0 or x > 1.0:
        raise InvalidInputError(f"x must lie in (0, 1], got {x!r}")
    if order < 1:
        raise InvalidInputError("order must be >= 1")
    u = 1.0 - x
    return u ** (order + 1) / ((order + 1) * x)


def required_order(prob_floor: float, tol: float, cap: int = 100_000) -> int:
    """Smallest truncation order whose tail bound at prob_floor is <= tol."""
    for m in range(1, cap + 1):
        if truncation_bound(prob_floor, m) <= tol:
            return m
    raise ConfigurationError(
        f"no order up to {cap} achieves tolerance {tol!r} at {prob_floor!r}"
    )


def _sample_simplex(rng, num_classes: int, lo: float, hi: float) -> np.ndarray:
    raw = rng.uniform(lo, hi, size=num_classes)
    return raw / raw.sum()


def _fit_temperature_coefficient(teacher: np.ndarray, student: np.ndarray,
                                 target: float) -> PerturbationConfig:
    """Tied order-1 coefficient whose PT loss value equals ``target``."""
    kl = float(kl_rows(teacher, student))
    shift = float(np.sum(teacher * (1.0 - student)))
    eps = (target - kl) / shift
    return PerturbationConfig.tied([eps], teacher.size)


def verify_equivalence(method: str, param: float, order: int, trials: int,
                       seed: int, num_classes: int = 2) -> EquivalenceReport:
    """Numerically check one Appendix-style equivalence claim.

    Samples ``trials`` random teacher/student pairs (per-class probabilities
    uniform in ``PROB_RANGE`` then normalized), computes both losses, and
    reports the maximum deviation after removing the analytic additive
    constant.

    The temperature check holds by construction: it fits eps from the
    temperature-scaled loss value and then compares against that same
    value, so its deviation is zero up to rounding whatever the loss.
    """
    if method not in METHODS:
        raise InvalidInputError(f"unknown method {method!r}")
    if trials < 1:
        raise InvalidInputError("trials must be >= 1")
    lo, hi = PROB_RANGE
    if method == "temperature":
        if num_classes != 2:
            raise InvalidInputError(
                "the temperature containment check is defined for 2 classes only"
            )
        temperature = make_loss("temperature", tau=param)
    else:
        prob_floor = lo / (lo + (num_classes - 1) * hi)
        needed = required_order(prob_floor, TOLERANCE)
        if order < needed:
            raise ConfigurationError(
                f"order {order} too small for tolerance {TOLERANCE!r}; "
                f"need at least {needed}"
            )

    deviations = np.zeros(trials)
    constants = np.zeros(trials)
    for i in range(trials):
        rng = derive_rng(seed, "equivalence", i)
        if method == "label_smoothing":
            t = _sample_simplex(rng, num_classes, lo, hi)
            q = _sample_simplex(rng, num_classes, lo, hi)
            cfg = ls_coefficients(ProbVector(t), param, order)
            pt = float(pt_rows(t, q, cfg))
            sm = float(kl_rows(smooth_rows(t, param), q))
            analytic = float(entropy_rows(smooth_rows(t, param))
                             - entropy_rows(t))
            deviations[i] = abs((pt - sm) - analytic)
            constants[i] = pt - sm
        elif method == "focal":
            t = _sample_simplex(rng, num_classes, lo, hi)
            q = _sample_simplex(rng, num_classes, lo, hi)
            cfg = focal_coefficients(ProbVector(q), param, order)
            pt = float(pt_rows(t, q, cfg))
            fl = float(focal_rows(t, q, param))
            deviations[i] = abs(pt - fl)
            constants[i] = 0.0
        else:
            t_logits = rng.uniform(-3.0, 3.0, size=num_classes)
            s_logits = rng.uniform(-3.0, 3.0, size=num_classes)
            target = float(temperature.values_and_grads(t_logits, s_logits)[0])
            t = softmax_rows(t_logits)
            q = softmax_rows(s_logits)
            cfg = _fit_temperature_coefficient(t, q, target)
            deviations[i] = abs(float(pt_rows(t, q, cfg)) - target)
            constants[i] = 0.0

    return EquivalenceReport(
        method=method,
        max_abs_deviation=float(np.max(deviations)),
        additive_constant=float(np.mean(constants)),
        samples_checked=trials,
    )
