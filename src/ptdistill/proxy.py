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
term is nonconvex there), the KL curvature t / q^2 stands in; a batch whose
curvatures are all positive skips that test. A step goes at most halfway to
the q > 0 boundary (the fraction-to-boundary rule of interior-point
methods): its length is min(1, BOUNDARY_FRACTION * s_max), where s_max is
the smallest -q_c / d_c over the classes with d_c < 0 (infinite if there is
none). A full Newton step from the teacher often overshoots a small class
past 0, and a step to 0.99 of the way would leave that class at 1 % of its
value, from where it climbs back about one doubling per iteration. Rejected
steps are halved until g does not rise, so each row reaches the local
minimum nearest the teacher.

The loop works class-major: the teacher and the iterate are transposed once
on entry to (C, n), one column per row, so per-row sums are ``ones @ x``
(one BLAS pass over contiguous classes) and the proxies are transposed back
once on exit. It keeps compacted arrays of the rows still above the
tolerance. A row that meets it is written back once and dropped; the
columns are compacted again only on iterations where some row finished. A
rejected trial is copied back from the previous iterate for that row alone.
Rows share no arithmetic, though BLAS may round a row's class sums
differently with the batch size (by a few units in the last place at C = 100,
not at all at C = 3 in the searches checked).

At order 3 one iteration makes about 46 passes over the (C, n) arrays,
counting each elementwise operation, class sum and reduction once: 16 in
the series kernel, 16 in the rest of the local model (log q, the objective,
slope and curvature, and the gradient norm with its two class sums), 10 in
the Newton step (1 / h, its class sum, the convexity test, the direction
with its class sum, and the step bound q / d with its minimum) and 4 in the
update q + s d and its projection onto sum(q) = 1. Where an expression
allows it, the arithmetic runs in place, so a pass writes no new array.

All-zero coefficients pose the same (KL) problem at every order, so
``selection.run_search`` solves that baseline once per search.
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
    """Stopping rule of the proxy solve.

    A row has converged once the norm of g's gradient w.r.t. the logits of q
    is at most ``tolerance``. That bounds the gradient, not the distance to
    the exact minimizer: where g is flat, converged rows can lie up to about
    2e-6 from it at the default tolerance.
    """

    tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        if not self.tolerance > 0:
            raise InvalidInputError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")


def _local_model(teacher: np.ndarray, floor: np.ndarray, q: np.ndarray,
                 coefficients: np.ndarray):
    """g less its constant sum t log t, dg/dq, the curvature h = d^2 g / dq^2
    and the norm of the logit gradient q * (dg - q.dg), from one series
    evaluation.

    Arrays are class-major, (C, n), and ``coefficients`` is the (M, C, 1)
    stack that ``perturbation_terms`` takes for that layout. q > 0, so log q
    needs no clamp; h takes t from ``floor``, the teacher clamped by
    ``clamp_probs``, so exact zeros keep h finite.
    """
    value, slope, curv = perturbation_terms(teacher, q, coefficients)
    ones = np.ones(len(q))
    value -= teacher * np.log(q)
    obj = ones @ value
    # -(t/q + P') is -t/q - P' to the bit
    dg = np.divide(teacher, q)
    dg += slope
    np.negative(dg, out=dg)
    h = np.square(q)
    np.divide(floor, h, out=h)
    h += curv
    r = q * dg
    np.subtract(dg, ones @ r, out=r)
    r *= q
    np.square(r, out=r)
    return obj, dg, h, np.sqrt(ones @ r)


def _newton_step(floor: np.ndarray, q: np.ndarray, dg: np.ndarray,
                 h: np.ndarray):
    """Newton direction on q under sum(d) = 0, and its largest step size;
    class-major arrays."""
    ones = np.ones(len(q))
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / h
        inv_sum = ones @ inv
        if not np.all(h > 0.0):
            # diag(h) is positive definite on sum(d) = 0 iff every h_c > 0,
            # or exactly one h_c < 0 and sum(1 / h) < 0
            nonpos = ones @ (h <= 0.0)
            exact = (nonpos == 0) | ((nonpos == 1) & (inv_sum < 0.0))
            inv = np.where(exact, inv, q ** 2 / floor)
            inv_sum = ones @ inv
        d = dg * inv
        nu = (ones @ d) / inv_sum
        np.subtract(nu, dg, out=d)
        d *= inv
        # q_c + s d_c reaches 0 at s = -q_c / d_c for d_c < 0, so the
        # boundary is -(the negative q_c / d_c nearest zero). Read as int64,
        # negative floats lie below all others, the nearer zero the lower,
        # so one integer min over the classes finds it if there is one.
        nearest = (q / d).view(np.int64).min(axis=0).view(float)
        to_boundary = np.where(np.signbit(nearest), -nearest, np.inf)
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
    cfg.check_classes(teacher.shape[1])
    n = teacher.shape[0]

    floor = clamp_probs(teacher)
    q = softmax_rows(np.log(floor))
    # class-major from here on: one column per row
    t, floor, q = (np.ascontiguousarray(a.T) for a in (teacher, floor, q))
    coefficients = cfg.coefficients.T[:, :, None]
    obj, dg, h, norm = _local_model(t, floor, q, coefficients)
    if not np.all(np.isfinite(norm)):
        raise SolverDivergenceError("non-finite gradient at the start point")

    proxies, norms = np.empty_like(q), np.empty(n)
    iterations = np.full(n, solver.max_iterations)
    rows, scale = np.arange(n), np.ones(n)
    for step in range(solver.max_iterations):
        live = norm > solver.tolerance
        if not np.all(live):
            # a row within the tolerance is final: write it back, drop it
            done = rows[~live]
            proxies[:, done], norms[done] = q[:, ~live], norm[~live]
            iterations[done] = step
            keep = np.flatnonzero(live)
            rows, obj, norm, scale = (a[keep] for a in (rows, obj, norm, scale))
            t, floor, q, dg, h = (a.take(keep, axis=1)
                                  for a in (t, floor, q, dg, h))
            if rows.size == 0:
                break

        d, alpha = _newton_step(floor, q, dg, h)
        q_trial = np.multiply(scale * alpha, d, out=d)
        q_trial += q
        # sum(d) = 0 holds only up to cancellation, so project back
        q_trial /= np.ones(len(q)) @ q_trial
        obj_trial, dg_trial, h_trial, norm_trial = _local_model(
            t, floor, q_trial, coefficients)
        # Accept on objective decrease, or on a tie at rounding level that
        # shrinks the residual; otherwise halve this row's next step.
        tie = obj_trial <= obj + 4.0 * EPS * np.abs(obj)
        ok = (np.isfinite(norm_trial) & np.isfinite(obj_trial)
              & ((obj_trial < obj) | (tie & (norm_trial < norm))))

        # few rows are rejected: copy them back into the trial arrays
        back = np.flatnonzero(~ok)
        for new, old in ((q_trial, q), (dg_trial, dg), (h_trial, h)):
            new[:, back] = old[:, back]
        obj_trial[back], norm_trial[back] = obj[back], norm[back]
        q, dg, h, obj, norm = q_trial, dg_trial, h_trial, obj_trial, norm_trial
        scale = np.where(ok, 1.0, 0.5 * scale)
    proxies[:, rows], norms[rows] = q, norm

    if not np.all(np.isfinite(proxies)):
        raise SolverDivergenceError("solver produced a non-finite proxy")
    return proxies.T.copy(), norms, iterations, norms <= solver.tolerance


def solve_proxy_rows(teacher_rows: np.ndarray, cfg: PerturbationConfig):
    """Solve every row's proxy teacher under the default ``SolverConfig``;
    returns (proxies, converged) arrays."""
    proxies, _, _, conv = _solve_rows(teacher_rows, cfg, SolverConfig())
    return proxies, conv
