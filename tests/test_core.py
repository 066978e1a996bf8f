import math

import numpy as np
import pytest

from ptdistill.core import (
    InvalidInputError,
    ProbVector,
    entropy_rows,
    softmax_rows,
)
from ptdistill.losses import FocalKDLoss, SmoothedKLLoss, TemperatureKLLoss
from ptdistill.nn import TrainConfig
from ptdistill.proxy import SolverConfig
from ptdistill.selection import SearchSpec


class TestProbVector:
    def test_valid(self):
        p = ProbVector([0.25, 0.75])
        assert p.num_classes == 2

    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            ProbVector([-0.1, 1.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(InvalidInputError):
            ProbVector([0.5, 0.6])

    def test_rejects_single_class(self):
        with pytest.raises(InvalidInputError):
            ProbVector([1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            ProbVector([np.nan, 1.0])

    def test_rejects_matrix(self):
        with pytest.raises(InvalidInputError, match="1-d vector"):
            ProbVector([[0.5, 0.5]])

    def test_immutable(self):
        p = ProbVector([0.5, 0.5])
        with pytest.raises(ValueError):
            p.values[0] = 0.9


class TestSoftmax:
    def test_symmetry(self):
        p = softmax_rows([0.0, 0.0, 0.0])
        np.testing.assert_allclose(p, [1 / 3, 1 / 3, 1 / 3])

    def test_analytic_ratio(self):
        p = softmax_rows([np.log(2.0), 0.0])
        np.testing.assert_allclose(p, [2 / 3, 1 / 3], atol=1e-15)

    def test_large_logit_stable(self):
        p = softmax_rows([1000.0, 0.0])
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)
        assert p[1] == pytest.approx(0.0, abs=1e-300)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            z = rng.uniform(-50, 50, size=rng.integers(2, 8))
            c = rng.uniform(-100, 100)
            a = softmax_rows(z)
            b = softmax_rows(z + c)
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_output_always_valid(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            z = rng.uniform(-50, 50, size=int(rng.integers(2, 12)))
            ProbVector(softmax_rows(z))  # constructor enforces invariants


class TestEntropy:
    def test_degenerate(self):
        assert entropy_rows([1.0, 0.0, 0.0]) == 0.0

    def test_uniform_maximum(self):
        assert entropy_rows([0.25] * 4) == pytest.approx(np.log(4.0))

    def test_direct_summation(self):
        assert entropy_rows([0.8, 0.2]) == pytest.approx(
            0.5004024235381879, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = rng.dirichlet(np.ones(5))
            shuffled = rng.permutation(p)
            assert entropy_rows(p) == pytest.approx(
                entropy_rows(shuffled), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            c = int(rng.integers(2, 10))
            h = entropy_rows(rng.dirichlet(np.ones(c)))
            assert 0.0 <= h <= np.log(c) + 1e-12

    def test_rows_helper_matches(self):
        rng = np.random.default_rng(9)
        rows = rng.dirichlet(np.ones(4), size=10)
        hs = entropy_rows(rows)
        for row, h in zip(rows, hs):
            assert h == pytest.approx(entropy_rows(row), abs=1e-12)


def test_softmax_rows_batched():
    z = np.array([[0.0, 0.0], [np.log(2.0), 0.0]])
    out = softmax_rows(z)
    np.testing.assert_allclose(out, [[0.5, 0.5], [2 / 3, 1 / 3]], atol=1e-15)


@pytest.mark.parametrize("build", [
    lambda: TrainConfig(learning_rate=math.nan),
    lambda: SolverConfig(tolerance=math.nan),
    lambda: TemperatureKLLoss(math.nan),
    lambda: SmoothedKLLoss(math.nan),
    lambda: FocalKDLoss(math.nan),
    lambda: SearchSpec(coefficient_range=(math.nan, 1.0)),
    lambda: SearchSpec(coefficient_range=(-1e308, 1e308)),
], ids=["lr", "tolerance", "tau", "delta", "gamma", "range-nan",
        "range-width-overflows"])
def test_non_finite_parameter_is_invalid(build):
    with pytest.raises(InvalidInputError):
        build()
