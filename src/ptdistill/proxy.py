"""Per-example proxy-teacher solver.

Given an original teacher distribution t and perturbation coefficients, the
proxy teacher q minimizes

    g(q) = KL(t || q) + sum_c t_c sum_m eps_{c,m} (1 - q_c)^m

over the simplex. g is one term per class under the single constraint
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
from .losses import (
    PerturbationConfig,
    _perturbation_rows,
    _perturbation_slope,
)

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


def _curvature_rows(teacher: np.ndarray, q: np.ndarray,
                    cfg: PerturbationConfig) -> np.ndarray:
    """h_c = d^2 g / d q_c^2; t is clamped so exact zeros keep h finite."""
    h = clamp_probs(teacher) / q ** 2
    if cfg.order == 0:
        return h
    u = 1.0 - q
    m = np.arange(1, cfg.order + 1)
    powers = u[..., :, None] ** np.clip(m - 2, 0, None)
    # the m = 1 term is linear in q_c, so its second derivative vanishes
    coeff = m * (m - 1) * cfg.coefficients
    return h + teacher * np.sum(coeff * powers, axis=-1)


def _objective_rows(teacher: np.ndarray, q: np.ndarray,
                    cfg: PerturbationConfig) -> np.ndarray:
    """g(q) less its constant sum t log t; q > 0, so log q needs no clamp."""
    return _perturbation_rows(teacher, q, cfg) - np.sum(teacher * np.log(q),
                                                        axis=-1)


def _slope_rows(teacher: np.ndarray, q: np.ndarray, cfg: PerturbationConfig):
    """dg/dq and the norm of the logit gradient q * (dg - q.dg)."""
    dg = -teacher / q - _perturbation_slope(teacher, q, cfg)
    qdg = np.sum(q * dg, axis=-1, keepdims=True)
    return dg, np.linalg.norm(q * (dg - qdg), axis=-1)


def _newton_step(teacher: np.ndarray, q: np.ndarray, dg: np.ndarray,
                 cfg: PerturbationConfig):
    """Newton direction on q under sum(d) = 0, and its largest step size."""
    h = _curvature_rows(teacher, q, cfg)
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
    n, c = teacher.shape
    if cfg.order > 0 and cfg.num_classes != c:
        raise InvalidInputError("coefficient matrix does not match class count")

    q = softmax_rows(np.log(clamp_probs(teacher)))
    dg, norm = _slope_rows(teacher, q, cfg)
    if not np.all(np.isfinite(norm)):
        raise SolverDivergenceError("non-finite gradient at the start point")
    obj = _objective_rows(teacher, q, cfg)

    scale = np.ones(n)
    iterations = np.zeros(n, dtype=int)

    for _ in range(solver.max_iterations):
        act = np.flatnonzero(norm > solver.tolerance)
        if act.size == 0:
            break
        iterations[act] += 1

        t = teacher[act]
        d, alpha = _newton_step(t, q[act], dg[act], cfg)
        q_trial = q[act] + (scale[act] * alpha)[:, None] * d
        # sum(d) = 0 holds only up to cancellation, so project back
        q_trial /= np.sum(q_trial, axis=-1, keepdims=True)
        dg_trial, norm_trial = _slope_rows(t, q_trial, cfg)
        obj_trial = _objective_rows(t, q_trial, cfg)
        # Accept on objective decrease, or on a tie at rounding level that
        # shrinks the residual; otherwise halve this row's next step.
        tie = obj_trial <= obj[act] + 4.0 * EPS * np.abs(obj[act])
        ok = (np.isfinite(norm_trial) & np.isfinite(obj_trial)
              & ((obj_trial < obj[act]) | (tie & (norm_trial < norm[act]))))

        good, bad = act[ok], act[~ok]
        q[good] = q_trial[ok]
        dg[good] = dg_trial[ok]
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
