"""Quality score, risk-gap diagnostics, and the coefficient random search.

The score for a candidate coefficient set is computed from its solved proxy
distributions on a validation set: the squared mean L2 distance to the
one-hot labels plus the mean squared (negative) entropy. ``run_search``
draws random coefficient sets per order, always injects the all-zero (KL)
baseline as trial 0, and ``best_trial`` picks the argmin of its trajectory,
so the winner is never worse than KL on the validation score.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InvalidInputError, SearchFailureError, entropy_rows
from .losses import PerturbationConfig
from .proxy import solve_proxy_rows
from .rng import derive_rng

# Candidate batches whose proxy-convergence fraction falls below this are
# discarded: unreliable proxies corrupt the score.
MIN_CONVERGED_FRACTION = 0.99


@dataclass(frozen=True)
class QualityScore:
    total: float
    distance_term: float
    entropy_term: float

    def __post_init__(self):
        if self.distance_term < 0 or self.entropy_term < 0:
            raise InvalidInputError("score terms must be >= 0")
        if abs(self.total - (self.distance_term + self.entropy_term)) > 1e-12:
            raise InvalidInputError("total must equal the sum of its terms")


@dataclass(frozen=True)
class SearchSpec:
    max_order: int = 3
    trials_per_order: int = 100
    coefficient_range: tuple[float, float] = (-1.0, 10.0)
    tie_classes: bool = False
    seed: int = 0

    def __post_init__(self):
        lo, hi = self.coefficient_range
        if not lo < hi:
            raise InvalidInputError("coefficient_range lower must be < upper")
        if not np.isfinite(hi - lo):
            raise InvalidInputError("coefficient_range width must be finite")
        if self.max_order < 1 or self.trials_per_order < 1:
            raise InvalidInputError("max_order and trials_per_order must be >= 1")


@dataclass(frozen=True)
class RiskGapTerms:
    l2_distance_mean: float
    entropy_sq_mean: float
    tvd_mean: float

    def __post_init__(self):
        if min(self.l2_distance_mean, self.entropy_sq_mean, self.tvd_mean) < 0:
            raise InvalidInputError("risk-gap terms must be >= 0")
        if self.tvd_mean > 1.0 + 1e-12:
            raise InvalidInputError("tvd_mean must be <= 1")


def _row_pair(first, second, names: tuple[str, str]) -> list[np.ndarray]:
    """Both arguments as nonempty row batches of one shape."""
    pair = [np.atleast_2d(np.asarray(v, dtype=float)) for v in (first, second)]
    for rows, name in zip(pair, names):
        if rows.size == 0:
            raise InvalidInputError(f"{name} must be nonempty")
    if pair[0].shape != pair[1].shape:
        raise InvalidInputError("{} and {} shapes differ: {} vs {}".format(
            *names, pair[0].shape, pair[1].shape))
    return pair


def _row_terms(p: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """Mean L2 distance from p's rows to ref's; p's mean squared entropy."""
    return (float(np.mean(np.linalg.norm(p - ref, axis=1))),
            float(np.mean(entropy_rows(p) ** 2)))


def _check_one_hot(labels: np.ndarray):
    if not (np.all(np.isin(labels, (0.0, 1.0)))
            and np.all(labels.sum(axis=1) == 1.0)):
        raise InvalidInputError("labels must be one-hot")


def quality_score(proxies, labels) -> QualityScore:
    """Score a proxy batch against one-hot validation labels (lower is better)."""
    p, y = _row_pair(proxies, labels, ("proxies", "labels"))
    _check_one_hot(y)
    l2, ent = _row_terms(p, y)
    distance = l2 ** 2
    return QualityScore(total=distance + ent, distance_term=distance,
                        entropy_term=ent)


def risk_gap_terms(model_probs, reference) -> RiskGapTerms:
    """Measurable risk-gap terms plus the TVD diagnostic.

    ``reference`` may be one-hot labels or closed-form posterior rows.
    """
    p, ref = _row_pair(model_probs, reference, ("model_probs", "reference"))
    l2, ent = _row_terms(p, ref)
    return RiskGapTerms(
        l2_distance_mean=l2, entropy_sq_mean=ent,
        tvd_mean=float(np.mean(0.5 * np.sum(np.abs(p - ref), axis=1))),
    )


def _sample_config(rng, spec: SearchSpec, num_classes: int,
                   order: int) -> PerturbationConfig:
    lo, hi = spec.coefficient_range
    if spec.tie_classes:
        return PerturbationConfig.tied(rng.uniform(lo, hi, size=order),
                                       num_classes)
    return PerturbationConfig(order=order,
                              coefficients=rng.uniform(lo, hi,
                                                       size=(num_classes, order)))


@dataclass(frozen=True)
class SearchTrial:
    """One evaluated candidate from the search trajectory."""

    order: int
    trial: int
    config: PerturbationConfig
    score: QualityScore | None
    converged_fraction: float
    discarded: bool


def run_search(teacher_val, labels, spec: SearchSpec) -> list[SearchTrial]:
    """Evaluate every candidate and return the full trajectory.

    Trial 0 of every order is the all-zero baseline, solved once and shared
    by every order; trials 1..N_k are drawn uniformly from the coefficient
    range with per-trial seeds derived from (seed, order, trial), so results
    are order-independent and reproducible.
    """
    teachers, y = _row_pair(teacher_val, labels, ("teacher_val", "labels"))
    _check_one_hot(y)
    num_classes = teachers.shape[1]

    def evaluate(cfg):
        """(score, converged fraction, discarded) of one candidate."""
        proxies, converged = solve_proxy_rows(teachers, cfg)
        frac = float(np.mean(converged))
        if frac < MIN_CONVERGED_FRACTION:
            return None, frac, True
        return quality_score(proxies, y), frac, False

    # all-zero coefficients pose the same (KL) problem at every order, so
    # the baseline is solved and scored once
    baseline = evaluate(PerturbationConfig.zero(num_classes))
    trials = []
    for order in range(1, spec.max_order + 1):
        for k in range(spec.trials_per_order + 1):
            if k == 0:
                cfg = PerturbationConfig.zero(num_classes, order)
                score, frac, discarded = baseline
            else:
                rng = derive_rng(spec.seed, "coeff-search", order, k)
                cfg = _sample_config(rng, spec, num_classes, order)
                score, frac, discarded = evaluate(cfg)
            trials.append(SearchTrial(order=order, trial=k, config=cfg,
                                      score=score, converged_fraction=frac,
                                      discarded=discarded))
    return trials


def best_trial(trials: list[SearchTrial]) -> SearchTrial:
    """The kept trial with the lowest score.

    Ties break toward the lowest order, then the lowest trial index.
    """
    kept = [t for t in trials if not t.discarded]
    if not kept:
        raise SearchFailureError(
            f"all {len(trials)} candidates were discarded "
            f"(convergence below {MIN_CONVERGED_FRACTION})"
        )
    return min(kept, key=lambda t: (t.score.total, t.order, t.trial))
