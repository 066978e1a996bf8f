"""Per-example proxy-teacher solver.

Given an original teacher distribution t and perturbation coefficients, the
proxy teacher q minimizes

    g(q) = KL(t || q) + sum_c t_c sum_m eps_{c,m} (1 - q_c)^m

over the simplex. The series term and its first two derivatives come from
``losses.perturbation_terms``, the kernel the PT loss itself evaluates, in
one call per iterate. g is one term per class under the single constraint
sum(q) = 1, so the Newton step on q itself has a closed form: with the
per-class slope g'_c and curvature h_c, d_c = (nu - g'_c) / h_c and the
scalar nu makes sum(d) = 0. That is O(C) per row, with no C x C Hessian.
Where the exact curvature is not positive definite on sum(d) = 0 (a class
term is nonconvex there), the KL curvature t / q^2 stands in. Steps stop
short of the q > 0 boundary and are halved until g does not rise, so each
row reaches the local minimum nearest the teacher.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    InvalidInputError,
    SolverDivergenceError,
    clamp_probs,
    softmax_rows,
)
from .losses import PerturbationConfig, perturbation_terms

# A step goes at most this fraction of the way to the q > 0 boundary.
BOUNDARY_FRACTION = 0.99
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        if self.tolerance <= 0:
            raise InvalidInputError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")


def _local_model(teacher: np.ndarray, q: np.ndarray,
                 cfg: PerturbationConfig):
    """g less its constant sum t log t, dg/dq, the curvature h = d^2 g / dq^2
    and the norm of the logit gradient q * (dg - q.dg), from one series
    evaluation.

    q > 0, so log q needs no clamp; t is clamped in h so exact zeros keep h
    finite.
    """
    value, slope, curv = perturbation_terms(teacher, q, cfg)
    obj = np.sum(value - teacher * np.log(q), axis=-1)
    dg = -teacher / q - slope
    h = clamp_probs(teacher) / q ** 2 + curv
    qdg = np.sum(q * dg, axis=-1, keepdims=True)
    return obj, dg, h, np.linalg.norm(q * (dg - qdg), axis=-1)


def _newton_step(teacher: np.ndarray, q: np.ndarray, dg: np.ndarray,
                 h: np.ndarray):
    """Newton direction on q under sum(d) = 0, and its largest step size."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / h
        # diag(h) is positive definite on sum(d) = 0 iff every h_c > 0, or
        # exactly one h_c < 0 and sum(1 / h) < 0
        nonpos = np.sum(h <= 0.0, axis=-1)
        exact = (nonpos == 0) | ((nonpos == 1) & (np.sum(inv, axis=-1) < 0.0))
        inv = np.where(exact[:, None], inv, q ** 2 / clamp_probs(teacher))
        nu = np.sum(dg * inv, axis=-1, keepdims=True) / np.sum(
            inv, axis=-1, keepdims=True)
        d = (nu - dg) * inv
        to_boundary = np.min(np.where(d < 0.0, -q / d, np.inf), axis=-1)
    return d, np.minimum(1.0, BOUNDARY_FRACTION * to_boundary)


def _solve_rows(teacher: np.ndarray, cfg: PerturbationConfig,
                solver: SolverConfig):
    """Vectorized solve over the rows of ``teacher``, from the teacher itself.

    Returns (proxies, residual_norms, iterations, converged) arrays; the
    residual is the norm of g's gradient w.r.t. the logits of q.
    """
    teacher = np.atleast_2d(np.asarray(teacher, dtype=float))
    if teacher.size == 0:
        raise InvalidInputError("empty teacher batch")
    n = teacher.shape[0]

    q = softmax_rows(np.log(clamp_probs(teacher)))
    obj, dg, h, norm = _local_model(teacher, q, cfg)
    if not np.all(np.isfinite(norm)):
        raise SolverDivergenceError("non-finite gradient at the start point")

    scale = np.ones(n)
    iterations = np.zeros(n, dtype=int)

    for _ in range(solver.max_iterations):
        act = np.flatnonzero(norm > solver.tolerance)
        if act.size == 0:
            break
        iterations[act] += 1

        t = teacher[act]
        d, alpha = _newton_step(t, q[act], dg[act], h[act])
        q_trial = q[act] + (scale[act] * alpha)[:, None] * d
        # sum(d) = 0 holds only up to cancellation, so project back
        q_trial /= np.sum(q_trial, axis=-1, keepdims=True)
        obj_trial, dg_trial, h_trial, norm_trial = _local_model(t, q_trial, cfg)
        # Accept on objective decrease, or on a tie at rounding level that
        # shrinks the residual; otherwise halve this row's next step.
        tie = obj_trial <= obj[act] + 4.0 * EPS * np.abs(obj[act])
        ok = (np.isfinite(norm_trial) & np.isfinite(obj_trial)
              & ((obj_trial < obj[act]) | (tie & (norm_trial < norm[act]))))

        good, bad = act[ok], act[~ok]
        q[good] = q_trial[ok]
        dg[good] = dg_trial[ok]
        h[good] = h_trial[ok]
        norm[good] = norm_trial[ok]
        obj[good] = obj_trial[ok]
        scale[good] = 1.0
        scale[bad] *= 0.5

    if not np.all(np.isfinite(q)):
        raise SolverDivergenceError("solver produced a non-finite proxy")
    converged = norm <= solver.tolerance
    return q, norm, iterations, converged


def solve_proxy_rows(teacher_rows: np.ndarray, cfg: PerturbationConfig,
                     solver: SolverConfig = SolverConfig()):
    """Solve every row's proxy teacher; returns (proxies, converged) arrays."""
    proxies, _, _, conv = _solve_rows(teacher_rows, cfg, solver)
    return proxies, conv
