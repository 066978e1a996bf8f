from dataclasses import asdict

import numpy as np
import pytest

from ptdistill.core import (
    ConfigurationError,
    DegenerateTeacherError,
    InvalidInputError,
    ProbVector,
    entropy_rows,
)
from ptdistill.equivalence import (
    EquivalenceReport,
    focal_coefficients,
    ls_coefficients,
    required_order,
    truncation_bound,
    verify_equivalence,
)
from ptdistill.losses import (
    focal_rows,
    kl_rows,
    perturbation_terms,
    pt_rows,
    smooth_rows,
)


def log_series(x, order):
    """The order-M Maclaurin series of log x, -sum_{m<=M} (1-x)^m / m, as
    the PT kernel evaluates it: -P(1 - x) with eps_m = 1/m and t = 1."""
    value, = perturbation_terms(1.0, x, 1.0 / np.arange(1, order + 1), 0)
    return -float(value)


class TestLsCoefficients:
    def test_binary_closed_form(self):
        # (delta/m)(1/(2p) - 1) for the binary case
        cfg = ls_coefficients(ProbVector([0.8, 0.2]), 0.1, 3)
        m = np.arange(1, 4)
        np.testing.assert_allclose(
            cfg.coefficients[0], (0.1 / m) * (1 / 1.6 - 1), atol=1e-15)
        np.testing.assert_allclose(
            cfg.coefficients[1], (0.1 / m) * (1 / 0.4 - 1), atol=1e-15)

    def test_delta_zero_gives_zero(self):
        cfg = ls_coefficients(ProbVector([0.6, 0.4]), 0.0, 2)
        np.testing.assert_array_equal(cfg.coefficients, 0.0)

    def test_uniform_teacher_gives_zero(self):
        cfg = ls_coefficients(ProbVector([0.25] * 4), 0.3, 2)
        np.testing.assert_allclose(cfg.coefficients, 0.0, atol=1e-15)

    def test_degenerate_teacher(self):
        with pytest.raises(DegenerateTeacherError):
            ls_coefficients(ProbVector([1.0, 0.0]), 0.1, 2)

    def test_bad_delta(self):
        with pytest.raises(InvalidInputError):
            ls_coefficients(ProbVector([0.5, 0.5]), 1.0, 2)


class TestFocalCoefficients:
    def test_closed_form(self):
        cfg = focal_coefficients(ProbVector([0.7, 0.3]), 2.0, 2)
        np.testing.assert_allclose(
            cfg.coefficients,
            [[(0.3 ** 2 - 1) / 1, (0.3 ** 2 - 1) / 2],
             [(0.7 ** 2 - 1) / 1, (0.7 ** 2 - 1) / 2]],
            atol=1e-15)

    def test_gamma_zero_gives_zero(self):
        cfg = focal_coefficients(ProbVector([0.6, 0.4]), 0.0, 3)
        np.testing.assert_array_equal(cfg.coefficients, 0.0)

    def test_bad_gamma(self):
        with pytest.raises(InvalidInputError):
            focal_coefficients(ProbVector([0.5, 0.5]), -0.5, 2)


class TestTruncationBound:
    def test_zero_at_one(self):
        assert truncation_bound(1.0, 7) == 0.0

    def test_half_order_three(self):
        assert truncation_bound(0.5, 3) == pytest.approx(0.03125, abs=1e-15)
        actual = abs(np.log(0.5) - log_series(0.5, 3))
        assert actual == pytest.approx(0.026480513893278657, abs=1e-12)
        assert actual <= 0.03125

    def test_loose_near_boundary(self):
        # 0.9^4 / (4 * 0.1): loose but valid
        assert truncation_bound(0.1, 3) == pytest.approx(1.640250, abs=1e-6)
        assert abs(np.log(0.1) - log_series(0.1, 3)) <= truncation_bound(0.1, 3)

    def test_bound_holds_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = rng.uniform(0.05, 1.0)
            m = int(rng.integers(1, 101))
            err = abs(np.log(x) - log_series(x, m))
            # allow rounding noise when the analytic bound is below epsilon
            assert err <= truncation_bound(x, m) + 1e-14

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.01])
    def test_domain_errors(self, bad):
        with pytest.raises(InvalidInputError):
            truncation_bound(bad, 3)


class TestRequiredOrder:
    def test_monotone_tolerance(self):
        assert required_order(0.3, 1e-3) <= required_order(0.3, 1e-6)

    def test_matches_direct_scan(self):
        m = required_order(0.3, 1e-6)
        assert truncation_bound(0.3, m) <= 1e-6
        assert truncation_bound(0.3, m - 1) > 1e-6

    def test_unreachable(self):
        with pytest.raises(ConfigurationError):
            required_order(0.3, 1e-6, cap=3)


class TestPointwiseEquivalence:
    def test_label_smoothing_matches_up_to_constant(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            t = rng.uniform(0.3, 0.7, size=3)
            t /= t.sum()
            q = rng.uniform(0.3, 0.7, size=3)
            q /= q.sum()
            delta = rng.uniform(0.0, 0.3)
            cfg = ls_coefficients(ProbVector(t), delta, 200)
            smoothed = (1 - delta) * t + delta / 3
            const = float(entropy_rows(smoothed) - entropy_rows(t))
            lhs = pt_rows(t, q, cfg)
            rhs = kl_rows(smooth_rows(t, delta), q) + const
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_focal_matches_exactly(self):
        rng = np.random.default_rng(53)
        for _ in range(30):
            t = rng.uniform(0.3, 0.7, size=2)
            t /= t.sum()
            q = rng.uniform(0.3, 0.7, size=2)
            q /= q.sum()
            gamma = rng.uniform(0.0, 4.0)
            cfg = focal_coefficients(ProbVector(q), gamma, 200)
            lhs = pt_rows(t, q, cfg)
            rhs = focal_rows(t, q, gamma)
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestVerifyEquivalence:
    def test_label_smoothing_report(self):
        rep = verify_equivalence("label_smoothing", 0.1, order=200,
                                 trials=100, seed=0)
        assert rep.samples_checked == 100
        assert rep.max_abs_deviation <= 1e-6
        # smoothing raises entropy, so the offset is positive
        assert rep.additive_constant > 0

    def test_focal_report(self):
        rep = verify_equivalence("focal", 2.0, order=200, trials=100, seed=0)
        assert rep.max_abs_deviation <= 1e-6
        assert rep.additive_constant == 0.0

    def test_temperature_report(self):
        rep = verify_equivalence("temperature", 4.0, order=1, trials=100,
                                 seed=0)
        assert rep.max_abs_deviation <= 1e-6

    def test_temperature_multiclass_rejected(self):
        with pytest.raises(InvalidInputError):
            verify_equivalence("temperature", 2.0, order=1, trials=10,
                               seed=0, num_classes=3)

    def test_order_too_small(self):
        with pytest.raises(ConfigurationError) as e:
            verify_equivalence("label_smoothing", 0.1, order=3, trials=10,
                               seed=0)
        assert "order" in str(e.value)

    def test_deterministic_in_seed(self):
        a = verify_equivalence("focal", 1.5, order=200, trials=20, seed=7)
        b = verify_equivalence("focal", 1.5, order=200, trials=20, seed=7)
        assert a == b

    def test_unknown_method(self):
        with pytest.raises(InvalidInputError):
            verify_equivalence("banana", 1.0, order=1, trials=1, seed=0)


class TestEquivalenceReport:
    def test_asdict_round_trip(self):
        rep = EquivalenceReport("focal", 1e-9, 0.0, 10)
        d = asdict(rep)
        assert d["method"] == "focal"
        assert d["samples_checked"] == 10

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            EquivalenceReport("focal", -1.0, 0.0, 10)
