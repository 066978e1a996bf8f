import numpy as np
import pytest

from ptdistill.core import InvalidInputError, softmax_rows
from ptdistill.losses import (
    CrossEntropyLoss,
    PerturbationConfig,
    SmoothedKLLoss,
    TemperatureKLLoss,
    focal_rows,
    kl_rows,
    make_loss,
    perturbation_terms,
    pt_grad_rows,
    pt_rows,
    smooth_rows,
)


def random_simplex(rng, c, floor=1e-3):
    p = rng.dirichlet(np.ones(c))
    p = np.clip(p, floor, None)
    return p / p.sum()


def random_config(rng, c, max_order=5, scale=10.0):
    m = int(rng.integers(0, max_order + 1))
    return PerturbationConfig(m, rng.uniform(-scale, scale, size=(c, m)))


class TestKlLoss:
    def test_identity(self):
        p = np.array([0.5, 0.5])
        assert kl_rows(p, p) == 0.0

    def test_direct_evaluation(self):
        got = kl_rows([0.8, 0.2], [0.7, 0.3])
        assert got == pytest.approx(0.025732092477985358, abs=1e-15)

    def test_asymmetry_witness(self):
        got = kl_rows([0.7, 0.3], [0.8, 0.2])
        assert got == pytest.approx(0.02816755759528336, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            kl_rows([0.5, 0.5], [0.4, 0.3, 0.3])

    def test_gibbs_inequality(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            c = int(rng.integers(2, 8))
            p = random_simplex(rng, c)
            q = random_simplex(rng, c)
            v = kl_rows(p, q)
            assert v >= 0.0
            if np.allclose(p, q, atol=1e-12):
                assert v == pytest.approx(0.0, abs=1e-10)
            if v == 0.0:
                np.testing.assert_allclose(p, q, atol=1e-9)


class TestPtLoss:
    def test_zero_coefficients_fall_back_to_kl(self):
        rng = np.random.default_rng(8)
        for c in (2, 3, 10):
            for _ in range(50):
                t = random_simplex(rng, c)
                s = random_simplex(rng, c)
                m = int(rng.integers(0, 5))
                cfg = PerturbationConfig.zero(c, m)
                assert abs(pt_rows(t, s, cfg) - kl_rows(t, s)) <= 1e-12

    def test_direct_evaluation(self):
        t = np.array([0.8, 0.2])
        s = np.array([0.7, 0.3])
        cfg = PerturbationConfig.tied([1.0], 2)
        # kl + 0.8*0.3 + 0.2*0.7
        assert pt_rows(t, s, cfg) == pytest.approx(
            0.025732092477985358 + 0.38, abs=1e-15)

    def test_equal_distributions_pure_perturbation(self):
        t = np.array([0.8, 0.2])
        cfg = PerturbationConfig.tied([1.0], 2)
        assert pt_rows(t, t, cfg) == pytest.approx(0.32, abs=1e-15)

    def test_shape_mismatch(self):
        cfg = PerturbationConfig.tied([1.0], 3)
        with pytest.raises(InvalidInputError):
            pt_rows(np.array([0.5, 0.5]), np.array([0.5, 0.5]), cfg)

    def test_tied_flag_needs_equal_rows(self):
        with pytest.raises(InvalidInputError, match="equal coefficient rows"):
            PerturbationConfig(1, np.array([[1.0], [2.0], [3.0]]),
                               tie_classes=True)
        cfg = PerturbationConfig(2, np.tile([0.5, -1.0], (3, 1)),
                                 tie_classes=True)
        assert cfg.tie_classes and cfg.num_classes == 3
        assert PerturbationConfig.tied([], 3).order == 0

    def test_affine_in_coefficients(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            c = int(rng.integers(2, 6))
            m = int(rng.integers(1, 5))
            t = random_simplex(rng, c)
            s = random_simplex(rng, c)
            a = rng.uniform(-5, 5, size=(c, m))
            b = rng.uniform(-5, 5, size=(c, m))
            kl = kl_rows(t, s)
            lhs = (pt_rows(t, s, PerturbationConfig(m, a))
                   + pt_rows(t, s, PerturbationConfig(m, b)) - kl)
            rhs = pt_rows(t, s, PerturbationConfig(m, a + b))
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestPerturbationTerms:
    @pytest.mark.parametrize("c", [2, 3, 10])
    @pytest.mark.parametrize("order", range(7))
    def test_matches_power_sums(self, order, c):
        rng = np.random.default_rng(10 * order + c)
        t = rng.dirichlet(np.ones(c), size=50)
        q = rng.dirichlet(np.ones(c), size=50)
        # positive terms do not cancel, so a relative bound holds everywhere
        eps = rng.uniform(0.1, 10.0, size=(c, order))
        u = (1.0 - q)[..., None]
        m = np.arange(1, order + 1)
        expected = (t * np.sum(eps * u ** m, axis=-1),
                    t * np.sum(m * eps * u ** (m - 1), axis=-1),
                    t * np.sum(m * (m - 1) * eps * u ** (m - 2), axis=-1))
        got = perturbation_terms(t, q, eps.T)
        for g, e in zip(got, expected):
            np.testing.assert_allclose(g, e, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("order", range(6))
    def test_matches_horner_from_zero_in_both_layouts(self, order):
        rng = np.random.default_rng(40 + order)
        for c in (3, 100):
            t = rng.dirichlet(np.ones(c), size=20)
            q = rng.dirichlet(np.ones(c), size=20)
            eps = rng.uniform(-1.0, 10.0, size=(c, order))
            # plain Horner from zero: one step per coefficient, then the
            # series' zero constant term
            u = 1.0 - q
            value = slope = curv = np.zeros_like(u)
            for e in (*eps.T[::-1], 0.0):
                curv = curv * u + 2.0 * slope
                slope = slope * u + value
                value = value * u + e
            expected = (t * value, t * slope, t * curv)
            rows = perturbation_terms(t, q, eps.T)
            columns = perturbation_terms(t.T, q.T, eps.T[:, :, None])
            for r, col, e in zip(rows, columns, expected):
                assert np.array_equal(r, e)
                assert np.array_equal(col.T, e)
            # fewer derivatives: the same leading terms, to the bit
            for derivatives in (0, 1):
                got = perturbation_terms(t, q, eps.T, derivatives)
                assert len(got) == derivatives + 1
                for g, e in zip(got, expected):
                    assert np.array_equal(g, e)


def log_series(x, order):
    """The order-M Maclaurin series of log x, -sum_{m<=M} (1-x)^m / m, as
    the PT kernel evaluates it: -P(1 - x) with eps_m = 1/m and t = 1."""
    value, = perturbation_terms(1.0, x, 1.0 / np.arange(1, order + 1), 0)
    return -float(value)


class TestLogSeries:
    def test_exact_at_one(self):
        for m in (1, 5, 50):
            assert log_series(1.0, m) == 0.0

    def test_direct_summation(self):
        # -(0.5 + 0.125 + 1/24) by direct summation
        assert log_series(0.5, 3) == pytest.approx(
            -(0.5 + 0.125 + 0.125 / 3), abs=1e-15)

    def test_converges_to_log(self):
        assert log_series(0.9, 50) == pytest.approx(np.log(0.9), abs=1e-12)

    def test_monotone_in_order(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(0.05, 0.999)
            m = int(rng.integers(1, 40))
            assert log_series(x, m + 1) <= log_series(x, m)

    def test_limit_high_order(self):
        for x in (0.5, 0.7, 0.9, 0.99):
            assert log_series(x, 1000) == pytest.approx(np.log(x), abs=1e-9)


class TestPtLossGrad:
    """PT loss values and logit gradients from ``pt_grad_rows``."""

    def test_zero_at_kl_minimum(self):
        z = np.array([0.4, -0.1, 0.2])
        t = softmax_rows(z)
        _, grad = pt_grad_rows(t, z, PerturbationConfig.zero(3))
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_kl_gradient_analytic(self):
        t = np.array([0.8, 0.2])
        z = np.log([0.7, 0.3])
        _, grad = pt_grad_rows(t, z, PerturbationConfig.zero(2))
        np.testing.assert_allclose(grad, [-0.1, 0.1], atol=1e-12)
        assert abs(grad.sum()) <= 1e-9

    def test_full_gradient_analytic(self):
        t = np.array([0.8, 0.2])
        z = np.log([0.7, 0.3])
        _, grad = pt_grad_rows(t, z, PerturbationConfig.tied([1.0], 2))
        np.testing.assert_allclose(grad, [-0.226, 0.226], atol=1e-12)
        assert abs(grad.sum()) <= 1e-9

    def test_value_matches_pt_rows(self):
        t = np.array([0.6, 0.4])
        z = np.array([1.0, -0.5])
        cfg = PerturbationConfig(2, np.array([[0.5, -0.3], [1.2, 0.7]]))
        value, grad = pt_grad_rows(t, z, cfg)
        s = softmax_rows(z)
        assert float(value) == pytest.approx(pt_rows(t, s, cfg), abs=1e-14)
        assert abs(grad.sum()) <= 1e-9

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(31)
        h = 1e-6
        for _ in range(200):
            c = int(rng.integers(2, 6))
            t = random_simplex(rng, c)
            z = rng.uniform(-2, 2, size=c)
            cfg = random_config(rng, c)
            _, grad = pt_grad_rows(t, z, cfg)
            fd = np.zeros(c)
            for j in range(c):
                e = np.zeros(c)
                e[j] = h
                up, _ = pt_grad_rows(t, z + e, cfg)
                dn, _ = pt_grad_rows(t, z - e, cfg)
                fd[j] = (up - dn) / (2 * h)
            scale = max(np.max(np.abs(fd)), 1.0)
            assert np.max(np.abs(grad - fd)) / scale <= 1e-5

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            c = int(rng.integers(2, 8))
            t = random_simplex(rng, c)
            z = rng.uniform(-3, 3, size=c)
            cfg = random_config(rng, c)
            _, grad = pt_grad_rows(t, z, cfg)
            assert abs(grad.sum()) <= 1e-9


def temperature_kl(zt, zs, tau):
    """KL between the temperature-scaled softmaxes of two logit vectors."""
    value, _ = make_loss("temperature", tau=tau).values_and_grads(zt, zs)
    return value


class TestTemperatureKl:
    def test_tau_one_is_identity_scaling(self):
        zt = np.array([2.0, -1.0, 0.5])
        zs = np.array([0.3, 0.1, -0.2])
        t = softmax_rows(zt)
        s = softmax_rows(zs)
        assert temperature_kl(zt, zs, 1.0) == pytest.approx(
            kl_rows(t, s), abs=1e-15)

    def test_tau_two_teacher_probs(self):
        # softmax_rows([1, 0]) feeds the KL
        zt = np.array([2.0, 0.0])
        zs = np.array([0.0, 0.0])
        expect_t = softmax_rows(np.array([1.0, 0.0]))
        np.testing.assert_allclose(expect_t, [0.731059, 0.268941], atol=1e-6)
        got = temperature_kl(zt, zs, 2.0)
        manual = float(np.sum(expect_t * np.log(expect_t / 0.5)))
        assert got == pytest.approx(manual, abs=1e-12)

    def test_infinite_temperature_limit(self):
        zt = np.array([5.0, -3.0, 1.0])
        zs = np.array([2.0, 2.0, 2.0])
        t = softmax_rows(zt / 1e6)
        np.testing.assert_allclose(t, 1 / 3, atol=1e-5)
        assert temperature_kl(zt, zs, 1e6) == pytest.approx(0.0, abs=1e-5)

    def test_bad_tau(self):
        with pytest.raises(InvalidInputError):
            make_loss("temperature", tau=0.0)


class TestSmoothedKl:
    def test_delta_zero(self):
        t = np.array([0.8, 0.2])
        s = np.array([0.6, 0.4])
        assert kl_rows(smooth_rows(t, 0.0), s) == pytest.approx(
            kl_rows(t, s), abs=1e-15)

    def test_smoothed_teacher(self):
        t = np.array([1.0, 0.0])
        s = np.array([0.6, 0.4])
        got = kl_rows(smooth_rows(t, 0.1), s)
        expect = kl_rows([0.95, 0.05], s)
        assert got == pytest.approx(expect, abs=1e-15)

    def test_uniform_fixed_point(self):
        t = np.array([0.5, 0.5])
        s = np.array([0.7, 0.3])
        for delta in (0.0, 0.3, 0.9):
            assert kl_rows(smooth_rows(t, delta), s) == pytest.approx(
                kl_rows(t, s), abs=1e-15)

    def test_bad_delta(self):
        with pytest.raises(InvalidInputError):
            make_loss("label_smoothing", delta=1.0)


class TestFocalKd:
    def test_gamma_zero_is_kl(self):
        t = np.array([0.7, 0.3])
        s = np.array([0.4, 0.6])
        assert focal_rows(t, s, 0.0) == pytest.approx(
            kl_rows(t, s), abs=1e-12)

    def test_direct_evaluation(self):
        got = focal_rows([1.0, 0.0], [0.5, 0.5], 2.0)
        assert got == pytest.approx(0.25 * np.log(2.0), abs=1e-12)

    def test_perfect_match(self):
        t = np.array([1.0, 0.0])
        for gamma in (0.0, 1.0, 5.0):
            assert focal_rows(t, t, gamma) == pytest.approx(0.0, abs=1e-10)

    def test_bad_gamma(self):
        with pytest.raises(InvalidInputError):
            make_loss("focal", gamma=-1.0)

    def test_gamma_zero_training_loss_is_kl(self):
        rng = np.random.default_rng(47)
        targets = np.stack([random_simplex(rng, 4) for _ in range(6)])
        z = rng.uniform(-2, 2, size=(6, 4))
        values, grads = make_loss("focal", gamma=0.0).values_and_grads(
            targets, z)
        kl_values, _ = make_loss("kl").values_and_grads(targets, z)
        np.testing.assert_allclose(values, kl_values, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads, softmax_rows(z) - targets, rtol=0,
                                   atol=1e-12)


class TestTrainingLosses:
    @pytest.mark.parametrize("name,params", [
        ("cross_entropy", {}),
        ("kl", {}),
        ("label_smoothing", {"delta": 0.1}),
        ("focal", {"gamma": 2.0}),
        ("focal", {"gamma": 0.5}),
        ("focal", {"gamma": 0.0}),
    ])
    def test_batched_grads_match_finite_differences(self, name, params):
        rng = np.random.default_rng(41)
        loss = make_loss(name, **params)
        c = 4
        if name == "cross_entropy":
            targets = np.eye(c)[rng.integers(0, c, size=6)]
        else:
            targets = np.stack([random_simplex(rng, c) for _ in range(6)])
        z = rng.uniform(-2, 2, size=(6, c))
        _, grads = loss.values_and_grads(targets, z)
        h = 1e-6
        for n in range(6):
            for j in range(c):
                zp, zm = z.copy(), z.copy()
                zp[n, j] += h
                zm[n, j] -= h
                up, _ = loss.values_and_grads(targets, zp)
                dn, _ = loss.values_and_grads(targets, zm)
                fd = (up[n] - dn[n]) / (2 * h)
                assert grads[n, j] == pytest.approx(fd, abs=2e-6, rel=1e-5)

    def test_temperature_grads_match_finite_differences(self):
        rng = np.random.default_rng(43)
        loss = make_loss("temperature", tau=2.5)
        targets = rng.uniform(-2, 2, size=(5, 3))
        z = rng.uniform(-2, 2, size=(5, 3))
        _, grads = loss.values_and_grads(targets, z)
        h = 1e-6
        for n in range(5):
            for j in range(3):
                zp, zm = z.copy(), z.copy()
                zp[n, j] += h
                zm[n, j] -= h
                up, _ = loss.values_and_grads(targets, zp)
                dn, _ = loss.values_and_grads(targets, zm)
                assert grads[n, j] == pytest.approx(
                    (up[n] - dn[n]) / (2 * h), abs=2e-6, rel=1e-5)

    def test_unknown_name(self):
        with pytest.raises(InvalidInputError):
            make_loss("nope")

    @pytest.mark.parametrize("alias,params,cls,targets", [
        ("onehot", {}, CrossEntropyLoss, "labels"),
        ("temp", {"tau": 2.0}, TemperatureKLLoss, "logits"),
        ("ls", {"delta": 0.1}, SmoothedKLLoss, "probs"),
    ])
    def test_alias(self, alias, params, cls, targets):
        loss = make_loss(alias, **params)
        assert type(loss) is cls
        assert loss.targets == targets
