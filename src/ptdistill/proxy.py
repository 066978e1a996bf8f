"""Per-example proxy-teacher solver.

Given an original teacher distribution t and perturbation coefficients, the
proxy teacher q minimizes

    g(q) = KL(t || q) + sum_c t_c sum_m eps_{c,m} (1 - q_c)^m

over the simplex. The solve works in unconstrained logit space (q =
softmax(z)) and drives the analytic gradient of g w.r.t. z to zero with
Newton steps under Levenberg-Marquardt diagonal damping. Logits are
re-centered to zero mean after every step, which removes the softmax
shift-invariance null direction from the (otherwise singular) Hessian.
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
from .losses import PerturbationConfig, _perturbation_slope, pt_rows

# Levenberg-Marquardt damping: the starting value, and the cap at which a
# row whose steps keep being rejected stops.
LAM_INIT = 1e-3
LAM_CAP = 1e12


@dataclass(frozen=True)
class SolverConfig:
    tolerance: float = 1e-8
    max_iterations: int = 100

    def __post_init__(self):
        if self.tolerance <= 0:
            raise InvalidInputError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise InvalidInputError("max_iterations must be >= 1")


def _slope_derivative(teacher: np.ndarray, q: np.ndarray,
                      cfg: PerturbationConfig) -> np.ndarray:
    """d s_c / d q_c with s_c = t_c sum_m m eps_{c,m} (1 - q_c)^{m-1}."""
    if cfg.order == 0:
        return np.zeros_like(q)
    u = 1.0 - q
    m = np.arange(1, cfg.order + 1)
    powers = u[..., :, None] ** np.clip(m - 2, 0, None)
    # the m = 1 term is constant in q_c, so its derivative vanishes
    coeff = m * (m - 1) * cfg.coefficients
    return -teacher * np.sum(coeff * powers, axis=-1)


def _gradient_rows(teacher: np.ndarray, z: np.ndarray,
                   cfg: PerturbationConfig) -> np.ndarray:
    """Gradient of g w.r.t. logits: (q - t) - J_softmax^T s."""
    q = softmax_rows(z)
    s = _perturbation_slope(teacher, q, cfg)
    qs = np.sum(q * s, axis=-1, keepdims=True)
    return (q - teacher) - (q * s - q * qs)


def _hessian_rows(teacher: np.ndarray, z: np.ndarray,
                  cfg: PerturbationConfig) -> np.ndarray:
    """Batched (N, C, C) Hessian of g w.r.t. logits."""
    q = softmax_rows(z)
    n, c = q.shape
    s = _perturbation_slope(teacher, q, cfg)
    ds = _slope_derivative(teacher, q, cfg)
    qs = np.sum(q * s, axis=-1)
    # A = dF/dq, F the gradient above, then H = A @ J with J = diag(q) - q q^T
    diag = 1.0 - s - q * ds + qs[:, None]
    a = np.zeros((n, c, c))
    idx = np.arange(c)
    a[:, idx, idx] = diag
    a += q[:, :, None] * (s + q * ds)[:, None, :]
    j = -q[:, :, None] * q[:, None, :]
    j[:, idx, idx] += q
    return a @ j


def _recenter(z: np.ndarray) -> np.ndarray:
    return z - np.mean(z, axis=-1, keepdims=True)


def _solve_rows(teacher: np.ndarray, cfg: PerturbationConfig,
                solver: SolverConfig):
    """Vectorized solve over the rows of ``teacher``, from the teacher itself.

    Returns (proxies, residual_norms, iterations, converged) arrays.
    """
    teacher = np.atleast_2d(np.asarray(teacher, dtype=float))
    if teacher.size == 0:
        raise InvalidInputError("empty teacher batch")
    n, c = teacher.shape
    if cfg.order > 0 and cfg.num_classes != c:
        raise InvalidInputError("coefficient matrix does not match class count")

    z = _recenter(np.log(clamp_probs(teacher)))
    grad = _gradient_rows(teacher, z, cfg)
    if not np.all(np.isfinite(grad)):
        raise SolverDivergenceError("non-finite gradient at the start point")
    norm = np.linalg.norm(grad, axis=-1)
    obj = pt_rows(teacher, softmax_rows(z), cfg)

    lam = np.full(n, LAM_INIT)
    iterations = np.zeros(n, dtype=int)
    eye = np.eye(c)

    for _ in range(solver.max_iterations):
        active = (norm > solver.tolerance) & (lam < LAM_CAP)
        if not np.any(active):
            break
        iterations[active] += 1

        hess = _hessian_rows(teacher[active], z[active], cfg)
        damped = hess + lam[active, None, None] * eye
        try:
            step = np.linalg.solve(damped, -grad[active][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.stack([
                np.linalg.lstsq(damped[i], -grad[active][i], rcond=None)[0]
                for i in range(damped.shape[0])
            ])

        z_trial = _recenter(z[active] + step)
        grad_trial = _gradient_rows(teacher[active], z_trial, cfg)
        norm_trial = np.linalg.norm(grad_trial, axis=-1)
        obj_trial = pt_rows(teacher[active], softmax_rows(z_trial), cfg)
        # Accept on objective decrease: with large damping the step becomes
        # plain gradient descent on g, so descent is always reachable and the
        # iterate converges to the local minimum nearest the start point.
        ok = (np.isfinite(norm_trial) & np.isfinite(obj_trial)
              & (obj_trial < obj[active]))

        act_idx = np.flatnonzero(active)
        good = act_idx[ok]
        bad = act_idx[~ok]
        z[good] = z_trial[ok]
        grad[good] = grad_trial[ok]
        norm[good] = norm_trial[ok]
        obj[good] = obj_trial[ok]
        lam[good] *= 0.5
        lam[bad] *= 4.0

    proxies = softmax_rows(z)
    if not np.all(np.isfinite(proxies)):
        raise SolverDivergenceError("solver produced a non-finite proxy")
    converged = norm <= solver.tolerance
    return proxies, norm, iterations, converged


def solve_proxy_rows(teacher_rows: np.ndarray, cfg: PerturbationConfig,
                     solver: SolverConfig = SolverConfig()):
    """Solve every row's proxy teacher; returns (proxies, converged) arrays."""
    proxies, _, _, conv = _solve_rows(teacher_rows, cfg, solver)
    return proxies, conv
