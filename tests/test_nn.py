import numpy as np
import pytest

from ptdistill import nn
from ptdistill.core import InvalidInputError, TrainingDivergenceError
from ptdistill.losses import PerturbationConfig, make_loss


def flat_params(model):
    return np.concatenate([w.ravel() for w in model.weights]
                          + [b.ravel() for b in model.biases])


class TestInit:
    def test_shapes(self):
        model = nn.init([4, 8, 3], seed=0)
        assert [w.shape for w in model.weights] == [(4, 8), (8, 3)]
        assert [b.shape for b in model.biases] == [(8,), (3,)]

    def test_fan_in_bounds_and_zero_biases(self):
        model = nn.init([9, 5, 2], seed=1)
        assert np.all(np.abs(model.weights[0]) <= 1.0 / 3.0)
        assert np.all(model.biases[0] == 0.0)

    def test_deterministic(self):
        a = nn.init([3, 4, 2], seed=7)
        b = nn.init([3, 4, 2], seed=7)
        np.testing.assert_array_equal(a.weights[0], b.weights[0])

    def test_seed_sensitivity(self):
        a = nn.init([3, 4, 2], seed=7)
        b = nn.init([3, 4, 2], seed=8)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_rejects_bad_dims(self):
        with pytest.raises(InvalidInputError):
            nn.init([4], seed=0)


class TestForward:
    def test_linear_network_is_affine(self):
        # no hidden layer: logits must equal x W + b exactly
        model = nn.init([3, 2], seed=0)
        x = np.array([[1.0, -2.0, 0.5]])
        expect = x @ model.weights[0] + model.biases[0]
        np.testing.assert_allclose(nn.forward_rows(model, x), expect,
                                   atol=1e-15)

    def test_relu_kills_negative_preactivations(self):
        model = nn.init([2, 2, 2], seed=0)
        model.weights[0] = np.array([[1.0, -1.0], [0.0, 0.0]])
        model.weights[1] = np.eye(2)
        out = nn.forward_rows(model, np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[1.0, 0.0]], atol=1e-15)

    def test_batch_matches_single(self):
        model = nn.init([5, 7, 3], seed=3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 5))
        rows = nn.forward_rows(model, x)
        for i in range(6):
            np.testing.assert_allclose(rows[i], nn.forward_rows(model, x[i])[0],
                                       atol=1e-15)

    def test_dim_mismatch(self):
        model = nn.init([3, 2], seed=0)
        with pytest.raises(InvalidInputError):
            nn.forward_rows(model, np.zeros((1, 4)))


class TestBackprop:
    @pytest.mark.parametrize("loss_name,params,soft", [
        ("cross_entropy", {}, False),
        ("kl", {}, True),
        ("pt", {"cfg": PerturbationConfig.tied([1.0, -0.5], 3)}, True),
        ("focal", {"gamma": 2.0}, True),
    ])
    def test_network_grads_match_finite_differences(self, loss_name, params,
                                                    soft):
        rng = np.random.default_rng(81)
        model = nn.init([4, 6, 3], seed=0)
        loss = make_loss(loss_name, **params)
        x = rng.normal(size=(5, 4))
        if soft:
            targets = rng.dirichlet(np.ones(3), size=5)
        else:
            targets = np.eye(3)[rng.integers(0, 3, size=5)]
        value, dws, dbs = nn.loss_and_param_grads(model, x, targets, loss)
        h = 1e-6
        checks = 0
        for li in range(len(model.weights)):
            idxs = [(0, 0), (model.weights[li].shape[0] - 1,
                             model.weights[li].shape[1] - 1)]
            for (i, j) in idxs:
                pert = model.copy()
                pert.weights[li][i, j] += h
                up, _, _ = nn.loss_and_param_grads(pert, x, targets, loss)
                pert.weights[li][i, j] -= 2 * h
                dn, _, _ = nn.loss_and_param_grads(pert, x, targets, loss)
                fd = (up - dn) / (2 * h)
                assert dws[li][i, j] == pytest.approx(fd, abs=2e-6, rel=1e-4)
                checks += 1
            pert = model.copy()
            pert.biases[li][0] += h
            up, _, _ = nn.loss_and_param_grads(pert, x, targets, loss)
            pert.biases[li][0] -= 2 * h
            dn, _, _ = nn.loss_and_param_grads(pert, x, targets, loss)
            assert dbs[li][0] == pytest.approx((up - dn) / (2 * h),
                                               abs=2e-6, rel=1e-4)
        assert checks == 4


class TestTrain:
    def make_toy(self, n=64, seed=0):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, size=n)
        x = rng.normal(size=(n, 2)) + np.where(y[:, None] == 1, 2.0, -2.0)
        labels = np.eye(2)[y]
        return x, labels

    def test_loss_decreases(self):
        x, labels = self.make_toy()
        model = nn.init([2, 8, 2], seed=0)
        tc = nn.TrainConfig(learning_rate=0.05, epochs=30, seed=0)
        trained, history = nn.train(model, x, labels,
                                    make_loss("cross_entropy"), tc)
        assert history[-1]["loss"] < history[0]["loss"]
        assert history[-1]["accuracy"] >= 0.95

    def test_history_schema(self):
        x, labels = self.make_toy(n=16)
        model = nn.init([2, 2], seed=0)
        tc = nn.TrainConfig(epochs=3, seed=0)
        _, history = nn.train(model, x, labels, make_loss("cross_entropy"), tc)
        assert [h["epoch"] for h in history] == [0, 1, 2]
        assert all(set(h) == {"epoch", "loss", "accuracy"} for h in history)

    def test_does_not_mutate_input_model(self):
        x, labels = self.make_toy(n=16)
        model = nn.init([2, 4, 2], seed=0)
        before = flat_params(model).copy()
        nn.train(model, x, labels, make_loss("cross_entropy"),
                 nn.TrainConfig(epochs=2, seed=0))
        np.testing.assert_array_equal(flat_params(model), before)

    def test_deterministic(self):
        x, labels = self.make_toy()
        tc = nn.TrainConfig(epochs=5, seed=3)
        a, ha = nn.train(nn.init([2, 4, 2], seed=1), x, labels,
                         make_loss("kl"),
                         tc)
        b, hb = nn.train(nn.init([2, 4, 2], seed=1), x, labels,
                         make_loss("kl"),
                         tc)
        np.testing.assert_array_equal(flat_params(a), flat_params(b))
        assert ha == hb

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        x, labels = self.make_toy(n=32)
        model = nn.init([2, 4, 2], seed=0)
        tc = nn.TrainConfig(learning_rate=1e12, epochs=50, seed=0)
        with pytest.raises(TrainingDivergenceError):
            nn.train(model, x, labels, make_loss("cross_entropy"), tc)

    def test_zero_epochs_is_identity(self):
        x, labels = self.make_toy(n=8)
        model = nn.init([2, 2], seed=0)
        trained, history = nn.train(model, x, labels,
                                    make_loss("cross_entropy"),
                                    nn.TrainConfig(epochs=0, seed=0))
        np.testing.assert_array_equal(flat_params(trained), flat_params(model))
        assert history == []

    def test_length_mismatch(self):
        model = nn.init([2, 2], seed=0)
        with pytest.raises(InvalidInputError):
            nn.train(model, np.zeros((3, 2)), np.zeros((4, 2)),
                     make_loss("kl"), nn.TrainConfig(epochs=1))


class TestEvaluateAndAccuracy:
    def test_accuracy_perfect_separable(self):
        model = nn.init([2, 2], seed=0)
        model.weights[0] = np.array([[1.0, -1.0], [0.0, 0.0]])
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        labels = np.eye(2)
        assert nn.accuracy(model, x, labels) == 1.0

    def test_evaluate_matches_parts(self):
        rng = np.random.default_rng(91)
        model = nn.init([3, 4, 2], seed=0)
        x = rng.normal(size=(10, 3))
        targets = rng.dirichlet(np.ones(2), size=10)
        loss = make_loss("kl")
        mean_loss, acc = nn.evaluate(model, x, targets, loss)
        values, _ = loss.values_and_grads(targets, nn.forward_rows(model, x))
        assert mean_loss == pytest.approx(float(np.mean(values)), abs=1e-14)
        assert acc == nn.accuracy(model, x, targets)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        model = nn.init([3, 5, 2], seed=4)
        path = tmp_path / "model.json"
        nn.save_model(model, path)
        again = nn.load_model(path)
        assert again.layer_dims == model.layer_dims
        assert again.seed == model.seed
        np.testing.assert_array_equal(flat_params(again), flat_params(model))
