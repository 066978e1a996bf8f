"""Small feed-forward classifier with exact analytic backpropagation.

Hidden layers use ReLU, the output layer is linear (logits). Training is
plain minibatch SGD; gradients flow through the analytic derivatives of the
losses module, so the whole pipeline is finite-difference checkable.

Memory layout:

* ``train`` copies the weights and biases into one contiguous float64
  buffer, laid out w_0, b_0, w_1, b_1, ...; the returned model's arrays are
  views into it, and the gradients fill a second buffer with the same
  layout. A step updates every parameter with one in-place multiply and one
  subtract, and tests finiteness with one pass over the buffer.
* The activations, back-propagated deltas and ReLU masks of a step live in
  buffers allocated once per ``train`` call for a full batch; the last,
  shorter batch uses their leading rows.
* The forward pass adds the bias in place (``a = h @ w; a += b``), so a
  layer costs one array of its output size, never a second temporary.
* ``forward_rows`` runs N rows as the ``inference_blocks(N)``:
  ``max(1, N // 8192)`` near-equal blocks of 8,192 to 16,383 rows that
  share one set of hidden buffers, and the last layer writes into the
  block's rows of the logits. Inference memory is then bounded by the
  block, not N. Blocks that long take the same BLAS kernel path as one
  full-batch product, so the logits are the same bits; short blocks (a
  few thousand rows) can move their last bits. Each block is its own
  single block, so rows handed to ``forward_rows`` one of those blocks at
  a time get the same logits. ``train`` allocates one set of these
  buffers for all of its epochs' evaluations.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import InvalidInputError, SchemaError, TrainingDivergenceError
# forward_rows's shortest block (see "Memory layout" above) is data's,
# bound at import so that patching data._BLOCK_ROWS leaves it as it is
from .data import _BLOCK_ROWS, json_array, json_number, read_json
from .losses import TrainingLoss
from .rng import derive_rng


@dataclass
class MlpModel:
    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    seed: int = 0


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-4
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate > 0 or self.batch_size < 1 or self.epochs < 0:
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


def _param_views(layer_dims: list[int], flat: np.ndarray):
    """Weight and bias views into a flat buffer laid out w_0, b_0, w_1, ..."""
    weights, biases, start = [], [], 0
    for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
        stop = start + fan_in * fan_out
        weights.append(flat[start:stop].reshape(fan_in, fan_out))
        biases.append(flat[stop:stop + fan_out])
        start = stop + fan_out
    return weights, biases


def _check_inputs(model: MlpModel, x) -> np.ndarray:
    """The input as an (N, d) float array whose d is the model's input dim."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.layer_dims[0]:
        raise InvalidInputError(
            f"input dim {x.shape[1]} != model input dim {model.layer_dims[0]}"
        )
    return x


def _forward_layers(model: MlpModel, x: np.ndarray,
                    outputs: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Every layer's output for an (N, d) input: the input first, logits last.

    Layer i writes into ``outputs[i]`` (N rows) when given, else into a new
    array. Backprop reads the ReLU masks off the hidden outputs (> 0 where
    the pre-activation is > 0), so one forward pass serves both.
    """
    layers = [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = np.matmul(layers[-1], w, out=None if outputs is None else outputs[i])
        a += b
        if i != last:
            np.maximum(a, 0.0, out=a)
        layers.append(a)
    return layers


def _block_count(n: int) -> int:
    return max(1, n // _BLOCK_ROWS)


def inference_blocks(n: int):
    """The row blocks ``forward_rows`` runs n rows in: ``max(1, n // 8192)``
    near-equal slices, made one at a time."""
    count = _block_count(n)
    return (slice(k * n // count, (k + 1) * n // count) for k in range(count))


def inference_buffers(model: MlpModel, n: int) -> list[np.ndarray]:
    """Hidden-layer buffers for the longest of ``inference_blocks(n)``."""
    longest = -(-n // _block_count(n))
    return [np.empty((longest, d)) for d in model.layer_dims[1:-1]]


def forward_rows(model: MlpModel, x: np.ndarray,
                 hidden: list[np.ndarray] | None = None) -> np.ndarray:
    """Batched logits for an (N, d) input matrix, computed in row blocks;
    ``hidden``, if given, holds ``inference_buffers`` for at least N rows."""
    x = _check_inputs(model, x)
    logits = np.empty((x.shape[0], model.layer_dims[-1]))
    if hidden is None:
        hidden = inference_buffers(model, x.shape[0])
    for rows in inference_blocks(x.shape[0]):
        _forward_layers(model, x[rows], [h[:rows.stop - rows.start]
                                         for h in hidden] + [logits[rows]])
    return logits


class _Step:
    """Forward and backprop buffers for batches of up to ``rows`` rows, and
    the flat gradient buffer (``_param_views`` layout) a step fills. A step
    reads the loss's logit gradients (``loss.grads``), never its values."""

    def __init__(self, layer_dims: list[int], rows: int):
        hidden = layer_dims[1:-1]
        self.outputs = [np.empty((rows, d)) for d in layer_dims[1:]]
        self.deltas = [np.empty((rows, d)) for d in hidden]
        self.masks = [np.empty((rows, d), dtype=bool) for d in hidden]
        self.grad = np.empty(sum((fan_in + 1) * fan_out for fan_in, fan_out
                                 in zip(layer_dims[:-1], layer_dims[1:])))
        self.dws, self.dbs = _param_views(layer_dims, self.grad)

    def backprop(self, model: MlpModel, x: np.ndarray, targets: np.ndarray,
                 loss: TrainingLoss) -> None:
        """Fill ``grad`` (``dws`` and ``dbs``) with the exact parameter
        gradients of the batch's mean loss."""
        m = x.shape[0]
        layers = _forward_layers(model, x, [a[:m] for a in self.outputs])
        delta = loss.grads(targets, layers[-1])
        delta /= m
        for i in range(len(model.weights) - 1, -1, -1):
            np.matmul(layers[i].T, delta, out=self.dws[i])
            np.sum(delta, axis=0, out=self.dbs[i])
            if i > 0:
                mask = np.greater(layers[i], 0.0, out=self.masks[i - 1][:m])
                delta = np.matmul(delta, model.weights[i].T,
                                  out=self.deltas[i - 1][:m])
                delta *= mask


def evaluate(model: MlpModel, x: np.ndarray, targets: np.ndarray,
             loss: TrainingLoss, hidden: list[np.ndarray] | None = None):
    """Full-batch mean loss and argmax accuracy against the targets;
    ``hidden`` as for ``forward_rows``."""
    logits = forward_rows(model, x, hidden)
    # values_and_grads, not values: the traced benchmark's loss spans wrap
    # only this call until they wrap values and grads (ROADMAP step 1c)
    values, _ = loss.values_and_grads(targets, logits)
    acc = float(np.mean(np.argmax(logits, axis=1) == np.argmax(targets, axis=1)))
    return float(np.mean(values)), acc


def train(model: MlpModel, inputs: np.ndarray, targets: np.ndarray,
          loss: TrainingLoss, tc: TrainConfig, record_history: bool = True):
    """Minibatch SGD; returns (trained copy, per-epoch history).

    History rows are dicts with full-dataset mean loss and accuracy evaluated
    after each epoch; with ``record_history`` false no epoch is evaluated
    and the history is empty. Epoch shuffling is driven by (seed, epoch).
    The trained copy's weights and biases are views into one flat parameter
    buffer. ``TrainingDivergenceError`` is raised on the step that leaves a
    parameter non-finite; no loss diverges while the logits are finite.
    """
    inputs = _check_inputs(model, inputs)
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if inputs.shape[0] != targets.shape[0]:
        raise InvalidInputError("inputs and targets must have equal length")
    dims = list(model.layer_dims)
    params = np.concatenate([p.ravel() for layer in zip(model.weights,
                                                        model.biases)
                             for p in layer], dtype=float)
    model = MlpModel(dims, *_param_views(dims, params), seed=model.seed)
    n = inputs.shape[0]
    step = _Step(dims, min(tc.batch_size, n))
    # one set of inference buffers serves every epoch's evaluation
    hidden = inference_buffers(model, n) if record_history else None
    history = []
    for epoch in range(tc.epochs):
        order = derive_rng(tc.seed, "epoch-shuffle", epoch).permutation(n)
        epoch_inputs, epoch_targets = inputs[order], targets[order]
        for start in range(0, n, tc.batch_size):
            batch = slice(start, start + tc.batch_size)
            step.backprop(model, epoch_inputs[batch], epoch_targets[batch],
                          loss)
            step.grad *= tc.learning_rate
            params -= step.grad
            if not np.isfinite(params).all():
                raise TrainingDivergenceError(
                    f"non-finite parameter at epoch {epoch}, batch start {start}"
                )
        if record_history:
            mean_loss, acc = evaluate(model, inputs, targets, loss, hidden)
            history.append({"epoch": epoch, "loss": mean_loss,
                            "accuracy": acc})
    return model, history


# ---------------------------------------------------------------------------
# JSON serialization; round-trips are bit-exact at double precision.
# ---------------------------------------------------------------------------

def save_model(model: MlpModel, path) -> None:
    doc = {**asdict(model), "weights": [w.tolist() for w in model.weights],
           "biases": [b.tolist() for b in model.biases]}
    with open(path, "w") as f:
        json.dump(doc, f)


def load_model(path) -> MlpModel:
    doc = read_json(path)
    try:
        model = MlpModel(
            layer_dims=[json_number(path, "layer_dims", d)
                        for d in doc["layer_dims"]],
            weights=[json_array(path, f"weights[{i}]", w, 2)
                     for i, w in enumerate(doc["weights"])],
            biases=[json_array(path, f"biases[{i}]", b, 1)
                    for i, b in enumerate(doc["biases"])],
            seed=json_number(path, "seed", doc["seed"]),
        )
    except (KeyError, TypeError, ValueError):
        raise SchemaError(f"{path}: not a model file") from None
    shapes = list(zip(model.layer_dims[:-1], model.layer_dims[1:]))
    if (not shapes or [w.shape for w in model.weights] != shapes
            or [b.shape for b in model.biases] != [(o,) for _, o in shapes]):
        raise SchemaError(f"{path}: weight and bias shapes do not match "
                          f"layer_dims {model.layer_dims}")
    if not all(np.isfinite(p).all() for p in (*model.weights, *model.biases)):
        raise SchemaError(f"{path}: weights and biases must be finite")
    return model
