"""Distillation losses and their analytic gradients w.r.t. student logits.

Every function works row by row on (N, C) arrays (a 1-d vector is one row),
except the series kernel ``perturbation_terms``, which also serves the proxy
solver's class-major (C, N) arrays; batch risks are arithmetic means computed
by callers. ``LOSSES`` is the one table of training losses by method name.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidInputError, clamp_probs, entropy_rows, softmax_rows


@dataclass(frozen=True)
class PerturbationConfig:
    """Perturbation order M and per-class coefficient matrix (C x M).

    With ``tie_classes`` the matrix was broadcast from a single shared row,
    so its rows must be equal.
    M = 0 carries an empty matrix and makes the perturbed loss collapse to KL.
    """

    order: int
    coefficients: np.ndarray
    tie_classes: bool = False

    def __post_init__(self):
        if self.order < 0:
            raise InvalidInputError("order must be >= 0")
        arr = np.asarray(self.coefficients, dtype=float)
        if arr.ndim != 2:
            raise InvalidInputError(
                f"coefficients must be a (C, M) matrix, got shape {arr.shape}"
            )
        if arr.shape[1] != self.order:
            raise InvalidInputError(
                f"coefficients have {arr.shape[1]} columns but order is {self.order}"
            )
        if arr.size and not np.all(np.isfinite(arr)):
            raise InvalidInputError("coefficients must be finite")
        if self.tie_classes and np.any(arr != arr[:1]):
            raise InvalidInputError("tie_classes needs equal coefficient rows")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coefficients", arr)

    @property
    def num_classes(self) -> int:
        return self.coefficients.shape[0]

    @classmethod
    def zero(cls, num_classes: int, order: int = 0) -> "PerturbationConfig":
        """The KL-equivalent configuration (all coefficients zero)."""
        return cls(order=order, coefficients=np.zeros((num_classes, order)))

    @classmethod
    def tied(cls, row, num_classes: int) -> "PerturbationConfig":
        """Broadcast one row of M coefficients to all classes."""
        row = np.asarray(row, dtype=float).reshape(-1)
        matrix = np.tile(row, (num_classes, 1))
        return cls(order=row.size, coefficients=matrix, tie_classes=True)

    def check_classes(self, num_classes: int) -> None:
        """Raise unless the coefficients are for ``num_classes`` classes."""
        if self.order and self.num_classes != num_classes:
            raise InvalidInputError(
                f"coefficients are for {self.num_classes} classes, inputs have "
                f"{num_classes}"
            )


def _check_same_classes(a: np.ndarray, b: np.ndarray):
    if a.shape[-1] != b.shape[-1]:
        raise InvalidInputError(
            f"class-count mismatch: {a.shape[-1]} vs {b.shape[-1]}"
        )


def kl_rows(teacher: np.ndarray, student: np.ndarray) -> np.ndarray:
    """Row-wise KL(teacher || student) in nats."""
    teacher = np.asarray(teacher, dtype=float)
    student = np.asarray(student, dtype=float)
    _check_same_classes(teacher, student)
    log_ratio = np.log(clamp_probs(teacher)) - np.log(clamp_probs(student))
    terms = np.where(teacher > 0.0, teacher * log_ratio, 0.0)
    return np.sum(terms, axis=-1)


def perturbation_terms(teacher: np.ndarray, q: np.ndarray,
                       coefficients: np.ndarray, derivatives: int = 2):
    """Per-class t P(u), t P'(u) and t P''(u), u = 1 - q, truncated to the
    first ``derivatives`` (0, 1 or 2) derivatives.

    P(u) = sum_m eps_{c,m} u^m is the perturbation series; one Horner pass,
    highest order first, carries its value and derivatives in u.
    ``coefficients`` is the stack eps_{., 1}, ..., eps_{., M}; each entry
    broadcasts against q, so the caller picks the layout: (M, C) for (N, C)
    rows, (M, C, 1) for class-major (C, n) columns. An empty stack (M = 0)
    gives P = 0.

    The result equals Horner's rule started from zero arrays, but a term
    that is still zero (None below) or still constant in u (a coefficient
    entry, or twice one) is carried as such, so no pass over the arrays
    multiplies a zero by u or broadcasts a constant.
    """
    u = 1.0 - np.asarray(q, dtype=float)
    value = slope = curv = None
    # P has no constant term, so the last step (eps None) adds nothing
    for eps in (*coefficients[::-1], None):
        if derivatives > 1:
            curv = _horner_step(curv, u, None if slope is None else 2.0 * slope)
        if derivatives > 0:
            slope = _horner_step(slope, u, value)
        value = _horner_step(value, u, eps)
    shape = np.broadcast_shapes(np.shape(teacher), u.shape)
    return tuple(np.zeros(shape) if term is None else teacher * term
                 for term in (value, slope, curv)[:derivatives + 1])


def _horner_step(term, u, add):
    """term * u + add, where None stands for a zero term or addend."""
    if term is None:
        return add
    out = term * u
    if add is not None:
        out += add
    return out


def pt_rows(teacher: np.ndarray, student: np.ndarray,
            cfg: PerturbationConfig) -> np.ndarray:
    """Row-wise perturbed distillation loss (KL plus the polynomial shift)."""
    teacher = np.asarray(teacher, dtype=float)
    cfg.check_classes(teacher.shape[-1])
    value, = perturbation_terms(teacher, student, cfg.coefficients.T, 0)
    return kl_rows(teacher, student) + np.sum(value, axis=-1)


def smooth_rows(teacher: np.ndarray, delta: float) -> np.ndarray:
    """Mix a distribution with uniform: (1 - delta) p + delta / C."""
    teacher = np.asarray(teacher, dtype=float)
    return (1.0 - delta) * teacher + delta / teacher.shape[-1]


def focal_rows(teacher: np.ndarray, student: np.ndarray,
               gamma: float) -> np.ndarray:
    """Row-wise focal distillation loss: -H(t) + sum_c t_c (1-s_c)^g (-log s_c)."""
    teacher = np.asarray(teacher, dtype=float)
    student = np.asarray(student, dtype=float)
    _check_same_classes(teacher, student)
    neg_log = -np.log(clamp_probs(student))
    modulated = np.sum(teacher * (1.0 - student) ** gamma * neg_log, axis=-1)
    return -entropy_rows(teacher) + modulated


# Each scalar loss parameter's valid range: a test and its wording.
PARAM_RANGES = {"tau": (lambda tau: tau > 0, "be > 0"),
                "delta": (lambda delta: 0.0 <= delta < 1.0, "lie in [0, 1)"),
                "gamma": (lambda gamma: gamma >= 0, "be >= 0")}


def check_param(name: str, value: float) -> float:
    """``value`` if it lies in the range of loss parameter ``name``."""
    test, wording = PARAM_RANGES[name]
    if not test(value):  # NaN fails every test
        raise InvalidInputError(f"{name} must {wording}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# Batched training losses (value per example + gradient w.r.t. student logits)
# ---------------------------------------------------------------------------

class TrainingLoss:
    """A named per-example loss: a subclass defines ``values(targets,
    logits)``, each row's loss, and ``grads``, its gradient w.r.t. the
    logits, which is all an SGD step reads. ``method`` is the name reports
    carry; ``name`` names the loss itself. ``param`` is the one constructor
    argument (None: no argument), and ``targets`` is what the student trains
    against: the training ``labels``, the teacher's ``logits`` or ``probs``.
    """

    name = method = "base"
    param: str | None = None
    targets = "probs"

    def values_and_grads(self, targets: np.ndarray, logits: np.ndarray):
        return self.values(targets, logits), self.grads(targets, logits)


class KLLoss(TrainingLoss):
    """KL(targets || softmax of the logits); targets are probability rows.

    A subclass builds its own pair (t, q) and keeps the gradient q - t;
    cross-entropy overrides only its value."""

    name = method = "kl"

    def pair(self, targets, logits):
        return targets, softmax_rows(logits)

    def values(self, targets, logits):
        return kl_rows(*self.pair(targets, logits))

    def grads(self, targets, logits):
        t, q = self.pair(targets, logits)
        return q - t


class CrossEntropyLoss(KLLoss):
    """One-hot cross-entropy; targets are one-hot rows."""

    name = "cross_entropy"
    method = "onehot"
    targets = "labels"

    def values(self, targets, logits):
        q = softmax_rows(logits)
        return -np.sum(targets * np.log(clamp_probs(q)), axis=-1)


class PTLoss(TrainingLoss):
    """Perturbed distillation loss with a fixed coefficient configuration."""

    name = method = "pt"
    param = "cfg"

    def __init__(self, cfg: PerturbationConfig):
        self.cfg = cfg

    def values(self, targets, logits):
        return pt_rows(targets, softmax_rows(logits), self.cfg)

    def grads(self, targets, logits):
        # the KL part q - t, then the perturbation part through the softmax
        teacher = np.asarray(targets, dtype=float)
        q = softmax_rows(logits)
        _check_same_classes(teacher, q)
        self.cfg.check_classes(teacher.shape[-1])
        _, s = perturbation_terms(teacher, q, self.cfg.coefficients.T, 1)
        qs = np.sum(q * s, axis=-1, keepdims=True)
        return (q - teacher) - (q * s - q * qs)


class TemperatureKLLoss(KLLoss):
    """KL between temperature-scaled softmaxes; targets are teacher logits."""

    name = method = "temperature"
    param = "tau"
    targets = "logits"

    def __init__(self, tau: float):
        self.tau = check_param("tau", tau)

    def pair(self, targets, logits):
        return (softmax_rows(np.asarray(targets, dtype=float) / self.tau),
                softmax_rows(np.asarray(logits, dtype=float) / self.tau))

    def grads(self, targets, logits):
        return super().grads(targets, logits) / self.tau


class SmoothedKLLoss(KLLoss):
    """KL loss against targets smoothed toward uniform by delta."""

    name = method = "label_smoothing"
    param = "delta"

    def __init__(self, delta: float):
        self.delta = check_param("delta", delta)

    def pair(self, targets, logits):
        return smooth_rows(targets, self.delta), softmax_rows(logits)


class FocalKDLoss(TrainingLoss):
    """Focal distillation loss with exact gradients through softmax."""

    name = method = "focal"
    param = "gamma"

    def __init__(self, gamma: float):
        self.gamma = check_param("gamma", gamma)

    def values(self, targets, logits):
        return focal_rows(targets, softmax_rows(logits), self.gamma)

    def grads(self, targets, logits):
        t = np.asarray(targets, dtype=float)
        q = softmax_rows(logits)
        qc = clamp_probs(q)
        u = 1.0 - q
        # dL/dq_c (clamped u keeps u**(gamma-1) finite), then the softmax Jacobian.
        dldq = t * (self.gamma * clamp_probs(u) ** (self.gamma - 1.0)
                    * np.log(qc) - u ** self.gamma / qc)
        inner = np.sum(dldq * q, axis=-1, keepdims=True)
        return q * (dldq - inner)


# Method names and their aliases -> loss class.
LOSSES = {
    "onehot": CrossEntropyLoss, "cross_entropy": CrossEntropyLoss,
    "kl": KLLoss,
    "pt": PTLoss,
    "temperature": TemperatureKLLoss, "temp": TemperatureKLLoss,
    "label_smoothing": SmoothedKLLoss, "ls": SmoothedKLLoss,
    "focal": FocalKDLoss,
}


def loss_class(name: str) -> type[TrainingLoss]:
    """The loss class a method name or alias selects."""
    if name not in LOSSES:
        raise InvalidInputError(f"unknown method {name!r}")
    return LOSSES[name]


def make_loss(name: str, **params) -> TrainingLoss:
    """The loss a method name or alias selects, built from its ``param``."""
    cls = loss_class(name)
    if cls.param is None:
        return cls()
    if cls.param not in params:
        raise InvalidInputError(f"loss {name!r} needs {cls.param!r}")
    return cls(params[cls.param])
