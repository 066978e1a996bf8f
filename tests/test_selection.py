import numpy as np
import pytest

from ptdistill.core import InvalidInputError, SearchFailureError, entropy_rows
from ptdistill.losses import PerturbationConfig
from ptdistill import selection
from ptdistill.proxy import solve_proxy_rows
from ptdistill.selection import (
    SearchSpec,
    best_trial,
    quality_score,
    risk_gap_terms,
    run_search,
)


class TestQualityScore:
    def test_direct_single_example(self):
        score = quality_score(np.array([[0.8, 0.2]]), np.array([[1.0, 0.0]]))
        assert score.distance_term == pytest.approx(0.08, abs=1e-12)
        assert score.entropy_term == pytest.approx(
            0.25040258548289196, abs=1e-12)
        assert score.total == pytest.approx(0.330402585482892, abs=1e-12)

    def test_perfect_proxies_score_zero(self):
        y = np.eye(3)[[0, 1, 2, 0]]
        score = quality_score(y, y)
        assert score.total == 0.0

    def test_uniform_proxies(self):
        p = np.full((2, 2), 0.5)
        y = np.eye(2)[[0, 1]]
        score = quality_score(p, y)
        assert score.distance_term == pytest.approx(0.5, abs=1e-12)
        assert score.entropy_term == pytest.approx(np.log(2.0) ** 2, abs=1e-12)

    def test_rejects_soft_labels(self):
        with pytest.raises(InvalidInputError):
            quality_score(np.array([[0.5, 0.5]]), np.array([[0.7, 0.3]]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            quality_score(np.full((2, 2), 0.5), np.eye(3))


class TestNegEntropySq:
    def test_zero_log_zero(self):
        out = entropy_rows(np.array([[1.0, 0.0]])) ** 2
        assert out[0] == 0.0

    def test_uniform(self):
        out = entropy_rows(np.array([[0.25] * 4])) ** 2
        assert out[0] == pytest.approx(np.log(4.0) ** 2, abs=1e-12)


class TestRiskGapTerms:
    def test_direct(self):
        p = np.array([[0.8, 0.2]])
        ref = np.array([[1.0, 0.0]])
        terms = risk_gap_terms(p, ref)
        assert terms.l2_distance_mean == pytest.approx(
            np.sqrt(0.08), abs=1e-12)
        assert terms.tvd_mean == pytest.approx(0.2, abs=1e-12)
        assert terms.entropy_sq_mean == pytest.approx(
            0.25040258548289196, abs=1e-12)

    def test_identity_reference(self):
        p = np.array([[0.6, 0.4], [0.1, 0.9]])
        terms = risk_gap_terms(p, p)
        assert terms.l2_distance_mean == 0.0
        assert terms.tvd_mean == 0.0

    @pytest.mark.parametrize("p,ref", [
        # a TVD of 0.55 is in range, but the row sums to 1.1
        ([[0.5, 0.6]], [[1.0, 0.0]]),
        ([[1.0, 0.0]], [[0.5, 0.6]]),
        ([[1.2, -0.2]], [[1.0, 0.0]]),
        ([[np.nan, 1.0]], [[1.0, 0.0]]),
    ], ids=["sum-model", "sum-reference", "negative", "nan"])
    def test_rejects_rows_off_the_simplex(self, p, ref):
        with pytest.raises(InvalidInputError, match="sum to 1"):
            risk_gap_terms(p, ref)


def small_validation_set(seed=0, n=40):
    rng = np.random.default_rng(seed)
    labels = np.eye(2)[rng.integers(0, 2, size=n)]
    noise = rng.uniform(0.05, 0.35, size=n)
    teachers = labels * (1 - noise[:, None]) + (1 - labels) * noise[:, None]
    return teachers, labels


class TestRunSearch:
    def test_trajectory_structure(self):
        teachers, labels = small_validation_set()
        spec = SearchSpec(max_order=2, trials_per_order=3, seed=0)
        traj = run_search(teachers, labels, spec)
        assert len(traj) == 2 * 4
        for order in (1, 2):
            first = next(t for t in traj if t.order == order and t.trial == 0)
            np.testing.assert_array_equal(first.config.coefficients, 0.0)

    def test_baseline_is_solved_once(self, monkeypatch):
        calls = []

        def counted(teachers, cfg):
            calls.append(cfg)
            return solve_proxy_rows(teachers, cfg)

        monkeypatch.setattr(selection, "solve_proxy_rows", counted)
        teachers, labels = small_validation_set()
        spec = SearchSpec(max_order=3, trials_per_order=4, seed=3)
        traj = run_search(teachers, labels, spec)
        assert len(calls) == 1 + spec.max_order * spec.trials_per_order
        baselines = [t for t in traj if t.trial == 0]
        assert [t.order for t in baselines] == [1, 2, 3]
        for t in baselines[1:]:
            assert t.score == baselines[0].score
            assert t.converged_fraction == baselines[0].converged_fraction

    def test_deterministic_and_order_independent_draws(self):
        teachers, labels = small_validation_set()
        a = run_search(teachers, labels,
                       SearchSpec(max_order=2, trials_per_order=3, seed=5))
        b = run_search(teachers, labels,
                       SearchSpec(max_order=2, trials_per_order=5, seed=5))
        # shared (order, trial) cells see identical draws
        for ta in a:
            tb = next(t for t in b
                      if t.order == ta.order and t.trial == ta.trial)
            np.testing.assert_array_equal(ta.config.coefficients,
                                          tb.config.coefficients)

    def test_coefficients_respect_range(self):
        teachers, labels = small_validation_set()
        spec = SearchSpec(max_order=2, trials_per_order=10, seed=1,
                          coefficient_range=(-0.5, 0.5))
        for t in run_search(teachers, labels, spec):
            assert np.all(t.config.coefficients >= -0.5)
            assert np.all(t.config.coefficients <= 0.5)

    def test_tied_rows_identical(self):
        teachers, labels = small_validation_set()
        spec = SearchSpec(max_order=1, trials_per_order=5, seed=2,
                          tie_classes=True)
        for t in run_search(teachers, labels, spec):
            rows = t.config.coefficients
            np.testing.assert_array_equal(rows[0], rows[1])


class TestSearchCoefficients:
    def test_never_worse_than_kl_baseline(self):
        for seed in range(5):
            teachers, labels = small_validation_set(seed=seed)
            spec = SearchSpec(max_order=2, trials_per_order=10, seed=seed)
            best = best_trial(run_search(teachers, labels, spec))
            baseline = quality_score(teachers, labels)
            assert best.score.total <= baseline.total + 1e-12

    def test_tie_breaks_to_zero_baseline(self):
        # a degenerate range forces every draw to equal the zero baseline,
        # so the winner must be the order-1 trial-0 candidate
        teachers, labels = small_validation_set()
        spec = SearchSpec(max_order=2, trials_per_order=3, seed=0,
                          coefficient_range=(-1e-300, 1e-300))
        cfg = best_trial(run_search(teachers, labels, spec)).config
        assert cfg.order == 1
        np.testing.assert_allclose(cfg.coefficients, 0.0, atol=1e-299)

    def test_all_discarded_raises(self, monkeypatch):
        # every solve reports no converged row, so every candidate is dropped
        def unconverged(teachers, cfg):
            return teachers, np.zeros(len(teachers), dtype=bool)

        monkeypatch.setattr(selection, "solve_proxy_rows", unconverged)
        teachers, labels = small_validation_set()
        spec = SearchSpec(max_order=1, trials_per_order=2, seed=0)
        with pytest.raises(SearchFailureError):
            best_trial(run_search(teachers, labels, spec))

    def test_reproducible(self):
        teachers, labels = small_validation_set()
        spec = SearchSpec(max_order=2, trials_per_order=5, seed=9)
        a, b = (best_trial(run_search(teachers, labels, spec))
                for _ in range(2))
        np.testing.assert_array_equal(a.config.coefficients,
                                      b.config.coefficients)
        assert a.score == b.score


class TestSearchSpec:
    def test_bad_range(self):
        with pytest.raises(InvalidInputError):
            SearchSpec(coefficient_range=(2.0, 1.0))

    def test_bad_counts(self):
        with pytest.raises(InvalidInputError):
            SearchSpec(max_order=0)
