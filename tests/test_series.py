import numpy as np
import pytest

from ptdistill.core import InvalidInputError
from ptdistill.series import maclaurin_log, truncation_bound


class TestMaclaurinLog:
    def test_exact_at_one(self):
        for m in (1, 5, 50):
            assert maclaurin_log(1.0, m) == 0.0

    def test_direct_summation(self):
        # -(0.5 + 0.125 + 1/24) by direct summation
        assert maclaurin_log(0.5, 3) == pytest.approx(
            -(0.5 + 0.125 + 0.125 / 3), abs=1e-15)

    def test_converges_to_log(self):
        assert maclaurin_log(0.9, 50) == pytest.approx(np.log(0.9), abs=1e-12)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(0.05, 0.999)
            m = int(rng.integers(1, 40))
            assert maclaurin_log(x, m + 1) <= maclaurin_log(x, m)

    def test_limit_high_order(self):
        for x in (0.5, 0.7, 0.9, 0.99):
            assert maclaurin_log(x, 1000) == pytest.approx(np.log(x), abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, np.nan])
    def test_domain_errors(self, bad):
        with pytest.raises(InvalidInputError):
            maclaurin_log(bad, 3)

    def test_order_error(self):
        with pytest.raises(InvalidInputError):
            maclaurin_log(0.5, 0)


class TestTruncationBound:
    def test_zero_at_one(self):
        assert truncation_bound(1.0, 7) == 0.0

    def test_half_order_three(self):
        assert truncation_bound(0.5, 3) == pytest.approx(0.03125, abs=1e-15)
        actual = abs(np.log(0.5) - maclaurin_log(0.5, 3))
        assert actual == pytest.approx(0.026480513893278657, abs=1e-12)
        assert actual <= 0.03125

    def test_loose_near_boundary(self):
        # 0.9^4 / (4 * 0.1): loose but valid
        assert truncation_bound(0.1, 3) == pytest.approx(1.640250, abs=1e-6)
        assert abs(np.log(0.1) - maclaurin_log(0.1, 3)) <= truncation_bound(0.1, 3)

    def test_bound_holds_randomized(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            x = rng.uniform(0.05, 1.0)
            m = int(rng.integers(1, 101))
            err = abs(np.log(x) - maclaurin_log(x, m))
            # allow rounding noise when the analytic bound is below epsilon
            assert err <= truncation_bound(x, m) + 1e-14

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1.01])
    def test_domain_errors(self, bad):
        with pytest.raises(InvalidInputError):
            truncation_bound(bad, 3)

