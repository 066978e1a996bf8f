import copy
import tracemalloc

import numpy as np
import pytest

from ptdistill import nn
from ptdistill.core import InvalidInputError, TrainingDivergenceError
from ptdistill.losses import PerturbationConfig, TrainingLoss, make_loss
from ptdistill.rng import derive_rng


def flat_params(model):
    return np.concatenate([w.ravel() for w in model.weights]
                          + [b.ravel() for b in model.biases])


def reference_train(model, inputs, targets, loss, tc):
    """SGD as a plain loop with fresh arrays for every batch, layer,
    gradient and update; returns (weights, biases, history)."""
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]

    def forward(x):
        layers = [x]
        for i, (w, b) in enumerate(zip(weights, biases)):
            a = layers[-1] @ w + b
            if i != len(weights) - 1:
                np.maximum(a, 0.0, out=a)
            layers.append(a)
        return layers

    n = inputs.shape[0]
    history = []
    for epoch in range(tc.epochs):
        order = derive_rng(tc.seed, "epoch-shuffle", epoch).permutation(n)
        for start in range(0, n, tc.batch_size):
            idx = order[start:start + tc.batch_size]
            layers = forward(inputs[idx])
            _, dlogits = loss.values_and_grads(targets[idx], layers[-1])
            delta = dlogits / len(idx)
            dws, dbs = [None] * len(weights), [None] * len(weights)
            for i in range(len(weights) - 1, -1, -1):
                dws[i] = layers[i].T @ delta
                dbs[i] = delta.sum(axis=0)
                if i > 0:
                    delta = (delta @ weights[i].T) * (layers[i] > 0.0)
            for w, b, dw, db in zip(weights, biases, dws, dbs):
                w -= tc.learning_rate * dw
                b -= tc.learning_rate * db
        logits = forward(inputs)[-1]
        values, _ = loss.values_and_grads(targets, logits)
        acc = np.mean(np.argmax(logits, axis=1) == np.argmax(targets, axis=1))
        history.append({"epoch": epoch, "loss": float(np.mean(values)),
                        "accuracy": float(acc)})
    return weights, biases, history


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

    def test_peak_memory_is_two_hidden_arrays(self):
        # the bias is added in place: a layer costs one array of its output
        # size, not a product plus a sum
        model = nn.init([30, 128, 128, 3], seed=0)
        x = np.random.default_rng(0).normal(size=(20_000, 30))
        hidden_bytes = x.shape[0] * 128 * x.itemsize
        tracemalloc.start()
        try:
            nn.forward_rows(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * hidden_bytes

    @pytest.mark.parametrize("n,longest", [
        (16_383, 16_383), (16_384, 8_192), (50_000, 8_334), (100_000, 8_334)])
    def test_blocks_match_full_batch_in_bounded_memory(self, n, longest):
        # inference runs in max(1, n // 8192) near-equal blocks that share
        # their hidden buffers: 16,383 rows is the last single block, 16,384
        # rows run as two blocks of 8,192, and past the logits the peak is
        # one block's, whatever n is. On OpenBLAS 0.3.31 the blocked logits
        # are bit-equal to one full-batch pass; the 1e-12 bound leaves room
        # for a BLAS whose kernels split rows differently.
        model = nn.init([30, 128, 128, 3], seed=2)
        x = np.random.default_rng(n).normal(size=(n, 30))
        tracemalloc.start()
        try:
            logits = nn.forward_rows(model, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * longest * 128 * x.itemsize + logits.nbytes
        full = nn._forward_layers(model, x)[-1]
        np.testing.assert_array_equal(np.argmax(logits, axis=1),
                                      np.argmax(full, axis=1))
        assert np.max(np.abs(logits - full)) <= 1e-12


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
        # the step train takes; a second one evaluates the perturbed models
        step, probe = (nn._Step(model.layer_dims, len(x)) for _ in range(2))
        step.loss_and_grads(model, x, targets, loss)
        dws, dbs = step.dws, step.dbs
        h = 1e-6
        checks = 0
        for li in range(len(model.weights)):
            idxs = [(0, 0), (model.weights[li].shape[0] - 1,
                             model.weights[li].shape[1] - 1)]
            for (i, j) in idxs:
                pert = copy.deepcopy(model)
                pert.weights[li][i, j] += h
                up = probe.loss_and_grads(pert, x, targets, loss)
                pert.weights[li][i, j] -= 2 * h
                dn = probe.loss_and_grads(pert, x, targets, loss)
                fd = (up - dn) / (2 * h)
                assert dws[li][i, j] == pytest.approx(fd, abs=2e-6, rel=1e-4)
                checks += 1
            pert = copy.deepcopy(model)
            pert.biases[li][0] += h
            up = probe.loss_and_grads(pert, x, targets, loss)
            pert.biases[li][0] -= 2 * h
            dn = probe.loss_and_grads(pert, x, targets, loss)
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

    @pytest.mark.parametrize("loss_name,params,soft", [
        ("cross_entropy", {}, False),
        ("kl", {}, True),
        ("pt", {"cfg": PerturbationConfig(3, np.array(
            [[0.5, -0.3, 0.2], [-0.4, 0.1, 0.3], [0.2, 0.2, -0.6]]))}, True),
    ])
    @pytest.mark.parametrize("n,batch_size", [(50, 16), (10, 32)],
                             ids=["short-last-batch", "batch-above-n"])
    def test_bit_identical_to_reference_loop(self, loss_name, params, soft,
                                             n, batch_size):
        rng = np.random.default_rng(17)
        x = rng.normal(size=(n, 4))
        if soft:
            targets = rng.dirichlet(np.ones(3), size=n)
        else:
            targets = np.eye(3)[rng.integers(0, 3, size=n)]
        model = nn.init([4, 16, 8, 3], seed=2)
        loss = make_loss(loss_name, **params)
        tc = nn.TrainConfig(learning_rate=0.05, batch_size=batch_size,
                            epochs=4, seed=1)
        trained, history = nn.train(model, x, targets, loss, tc)
        weights, biases, want = reference_train(model, x, targets, loss, tc)
        for got, ref in zip(trained.weights + trained.biases,
                            weights + biases):
            assert got.tobytes() == ref.tobytes()
        assert history == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        x, labels = self.make_toy(n=32)
        model = nn.init([2, 4, 2], seed=0)
        tc = nn.TrainConfig(learning_rate=1e12, epochs=50, seed=0)
        with pytest.raises(TrainingDivergenceError,
                           match="^non-finite loss at epoch 13, batch start 0$"):
            nn.train(model, x, labels, make_loss("cross_entropy"), tc)

    class HugeGradient(TrainingLoss):
        def values_and_grads(self, targets, logits):
            return np.zeros(len(logits)), np.full(logits.shape, 1e308)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_weight_detected(self):
        model = nn.init([2, 4, 2], 0)
        tc = nn.TrainConfig(learning_rate=5.0, batch_size=1, epochs=1)
        with pytest.raises(TrainingDivergenceError,
                           match="^non-finite parameter at epoch 0, "
                                 "batch start 0$"):
            nn.train(model, np.ones((2, 2)), np.eye(2), self.HugeGradient(),
                     tc)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_bias_detected(self):
        # a zero input row gives every weight a zero gradient, so only the
        # biases take the huge step and overflow
        model = nn.init([2, 4, 2], 0)
        tc = nn.TrainConfig(learning_rate=5.0, batch_size=1, epochs=1)
        with pytest.raises(TrainingDivergenceError,
                           match="^non-finite parameter at epoch 0, "
                                 "batch start 0$"):
            nn.train(model, np.zeros((1, 2)), np.eye(2)[:1],
                     self.HugeGradient(), tc)

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
