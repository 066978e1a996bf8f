"""Small feed-forward classifier with exact analytic backpropagation.

Hidden layers use ReLU, the output layer is linear (logits). Training is
plain minibatch SGD; gradients flow through the analytic derivatives of the
losses module, so the whole pipeline is finite-difference checkable.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import InvalidInputError, SchemaError, TrainingDivergenceError
from .data import read_json
from .losses import TrainingLoss
from .rng import derive_rng


@dataclass
class MlpModel:
    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int = 0

    def copy(self) -> "MlpModel":
        return MlpModel(layer_dims=list(self.layer_dims),
                        weights=[w.copy() for w in self.weights],
                        biases=[b.copy() for b in self.biases],
                        seed=self.seed)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise InvalidInputError("invalid training configuration")


def init(layer_dims, seed: int) -> MlpModel:
    """Uniform fan-in-scaled weights, zero biases, deterministic in the seed."""
    dims = [int(d) for d in layer_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidInputError(f"invalid layer dims {layer_dims!r}")
    rng = derive_rng(seed, "mlp-init")
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MlpModel(layer_dims=dims, weights=weights, biases=biases, seed=seed)


def _forward_layers(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's output for an (N, d) input: the input first, logits last.

    Backprop reads the ReLU masks off the hidden outputs (> 0 where the
    pre-activation is > 0), so one forward pass serves both.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.layer_dims[0]:
        raise InvalidInputError(
            f"input dim {x.shape[1]} != model input dim {model.layer_dims[0]}"
        )
    layers = [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = layers[-1] @ w + b
        if i != last:
            np.maximum(a, 0.0, out=a)
        layers.append(a)
    return layers


def forward_rows(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Batched logits for an (N, d) input matrix."""
    return _forward_layers(model, x)[-1]


def _backprop(model: MlpModel, layers: list[np.ndarray], dlogits: np.ndarray):
    """Parameter gradients given the batch's layer outputs and
    d(mean loss)/d(logits)."""
    dws = [None] * len(model.weights)
    dbs = [None] * len(model.biases)
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        dws[i] = layers[i].T @ delta
        dbs[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (layers[i] > 0.0)
    return dws, dbs


def loss_and_param_grads(model: MlpModel, x: np.ndarray, targets: np.ndarray,
                         loss: TrainingLoss):
    """Mean loss over the batch and its exact parameter gradients."""
    layers = _forward_layers(model, x)
    values, dlogits = loss.values_and_grads(targets, layers[-1])
    dws, dbs = _backprop(model, layers, dlogits / layers[0].shape[0])
    return float(np.mean(values)), dws, dbs


def evaluate(model: MlpModel, x: np.ndarray, targets: np.ndarray,
             loss: TrainingLoss):
    """Full-batch mean loss and argmax accuracy against the targets."""
    logits = forward_rows(model, x)
    values, _ = loss.values_and_grads(targets, logits)
    acc = float(np.mean(np.argmax(logits, axis=1) == np.argmax(targets, axis=1)))
    return float(np.mean(values)), acc


def accuracy(model: MlpModel, x: np.ndarray, labels: np.ndarray) -> float:
    logits = forward_rows(model, x)
    return float(np.mean(np.argmax(logits, axis=1) == np.argmax(labels, axis=1)))


def _all_finite(model: MlpModel) -> bool:
    return all(np.isfinite(p).all() for p in (*model.weights, *model.biases))


def train(model: MlpModel, inputs: np.ndarray, targets: np.ndarray,
          loss: TrainingLoss, tc: TrainConfig):
    """Minibatch SGD; returns (trained copy, per-epoch history).

    History rows are dicts with full-dataset mean loss and accuracy evaluated
    after each epoch; epoch shuffling is driven by (seed, epoch).
    """
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if inputs.shape[0] != targets.shape[0]:
        raise InvalidInputError("inputs and targets must have equal length")
    model = model.copy()
    n = inputs.shape[0]
    history = []
    for epoch in range(tc.epochs):
        order = derive_rng(tc.seed, "epoch-shuffle", epoch).permutation(n)
        for start in range(0, n, tc.batch_size):
            idx = order[start:start + tc.batch_size]
            value, dws, dbs = loss_and_param_grads(
                model, inputs[idx], targets[idx], loss)
            if not np.isfinite(value):
                raise TrainingDivergenceError(
                    f"non-finite loss at epoch {epoch}, batch start {start}"
                )
            for w, b, dw, db in zip(model.weights, model.biases, dws, dbs):
                w -= tc.learning_rate * dw
                b -= tc.learning_rate * db
            if not _all_finite(model):
                raise TrainingDivergenceError(
                    f"non-finite parameter at epoch {epoch}, batch start {start}"
                )
        mean_loss, acc = evaluate(model, inputs, targets, loss)
        history.append({"epoch": epoch, "loss": mean_loss, "accuracy": acc})
    return model, history


# ---------------------------------------------------------------------------
# JSON serialization; round-trips are bit-exact at double precision.
# ---------------------------------------------------------------------------

def save_model(model: MlpModel, path) -> None:
    doc = {
        "layer_dims": model.layer_dims,
        "weights": [w.tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "seed": model.seed,
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_model(path) -> MlpModel:
    doc = read_json(path)
    try:
        model = MlpModel(
            layer_dims=[int(d) for d in doc["layer_dims"]],
            weights=[np.asarray(w, dtype=float) for w in doc["weights"]],
            biases=[np.asarray(b, dtype=float) for b in doc["biases"]],
            seed=int(doc["seed"]),
        )
    except (KeyError, TypeError, ValueError):
        raise SchemaError(f"{path}: not a model file") from None
    shapes = list(zip(model.layer_dims[:-1], model.layer_dims[1:]))
    if (not shapes or [w.shape for w in model.weights] != shapes
            or [b.shape for b in model.biases] != [(o,) for _, o in shapes]):
        raise SchemaError(f"{path}: weight and bias shapes do not match "
                          f"layer_dims {model.layer_dims}")
    if not _all_finite(model):
        raise SchemaError(f"{path}: weights and biases must be finite")
    return model
