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
term is nonconvex there), the KL curvature t / q^2 stands in. A step goes at
most halfway to the q > 0 boundary (the fraction-to-boundary rule of
interior-point methods): a full Newton step from the teacher often
overshoots a small class past 0, and a step to 0.99 of the way would leave
that class at 1 % of its value, from where it climbs back about one
doubling per iteration. Rejected steps are halved until g does not rise,
so each row reaches the local minimum nearest the teacher.

The loop keeps compacted arrays of the rows still above the tolerance. A
row that meets it is written back once and dropped; the arrays are
compacted again only on iterations where some row finished. Rows share no
arithmetic, so a row takes the same iterations in any batch.
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
BOUNDARY_FRACTION = 0.5
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


def _local_model(teacher: np.ndarray, floor: np.ndarray, q: np.ndarray,
                 cfg: PerturbationConfig):
    """g less its constant sum t log t, dg/dq, the curvature h = d^2 g / dq^2
    and the norm of the logit gradient q * (dg - q.dg), from one series
    evaluation.

    q > 0, so log q needs no clamp; h takes t from ``floor``, the teacher
    clamped by ``clamp_probs``, so exact zeros keep h finite.
    """
    value, slope, curv = perturbation_terms(teacher, q, cfg)
    obj = np.sum(value - teacher * np.log(q), axis=-1)
    dg = -teacher / q - slope
    h = floor / q ** 2 + curv
    qdg = np.sum(q * dg, axis=-1, keepdims=True)
    return obj, dg, h, np.linalg.norm(q * (dg - qdg), axis=-1)


def _newton_step(floor: np.ndarray, q: np.ndarray, dg: np.ndarray,
                 h: np.ndarray):
    """Newton direction on q under sum(d) = 0, and its largest step size."""
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / h
        # diag(h) is positive definite on sum(d) = 0 iff every h_c > 0, or
        # exactly one h_c < 0 and sum(1 / h) < 0
        nonpos = np.sum(h <= 0.0, axis=-1)
        exact = (nonpos == 0) | ((nonpos == 1) & (np.sum(inv, axis=-1) < 0.0))
        if not np.all(exact):
            inv = np.where(exact[:, None], inv, q ** 2 / floor)
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

    floor = clamp_probs(teacher)
    q = softmax_rows(np.log(floor))
    obj, dg, h, norm = _local_model(teacher, floor, q, cfg)
    if not np.all(np.isfinite(norm)):
        raise SolverDivergenceError("non-finite gradient at the start point")

    proxies, norms = np.empty_like(q), np.empty(n)
    iterations = np.full(n, solver.max_iterations)
    rows, t, scale = np.arange(n), teacher, np.ones(n)
    for step in range(solver.max_iterations):
        live = norm > solver.tolerance
        if not np.all(live):
            # a row within the tolerance is final: write it back, drop it
            done = rows[~live]
            proxies[done], norms[done] = q[~live], norm[~live]
            iterations[done] = step
            rows, t, floor, q, dg, h, obj, norm, scale = (
                a[live] for a in (rows, t, floor, q, dg, h, obj, norm, scale))
            if rows.size == 0:
                break

        d, alpha = _newton_step(floor, q, dg, h)
        q_trial = q + (scale * alpha)[:, None] * d
        # sum(d) = 0 holds only up to cancellation, so project back
        q_trial /= np.sum(q_trial, axis=-1, keepdims=True)
        obj_trial, dg_trial, h_trial, norm_trial = _local_model(
            t, floor, q_trial, cfg)
        # Accept on objective decrease, or on a tie at rounding level that
        # shrinks the residual; otherwise halve this row's next step.
        tie = obj_trial <= obj + 4.0 * EPS * np.abs(obj)
        ok = (np.isfinite(norm_trial) & np.isfinite(obj_trial)
              & ((obj_trial < obj) | (tie & (norm_trial < norm))))

        q, dg, h = (np.where(ok[:, None], new, old) for new, old in
                    ((q_trial, q), (dg_trial, dg), (h_trial, h)))
        obj = np.where(ok, obj_trial, obj)
        norm = np.where(ok, norm_trial, norm)
        scale = np.where(ok, 1.0, 0.5 * scale)
    proxies[rows], norms[rows] = q, norm

    if not np.all(np.isfinite(proxies)):
        raise SolverDivergenceError("solver produced a non-finite proxy")
    return proxies, norms, iterations, norms <= solver.tolerance


def solve_proxy_rows(teacher_rows: np.ndarray, cfg: PerturbationConfig,
                     solver: SolverConfig = SolverConfig()):
    """Solve every row's proxy teacher; returns (proxies, converged) arrays."""
    proxies, _, _, conv = _solve_rows(teacher_rows, cfg, solver)
    return proxies, conv
