"""Synthetic Gaussian-mixture classification data with a closed-form posterior.

Labels are drawn uniformly over classes; inputs follow x | y=k ~ N(mu_k,
sigma^2 I) with class means whose entries come from {-1, 0, 1}. Under
uniform priors and shared isotropic variance the exact Bayes posterior is
softmax_c(-||x - mu_c||^2 / (2 sigma^2)).
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .core import InvalidInputError, SchemaError, softmax_rows
from .rng import derive_rng

SPLIT_NAMES = ("train", "validation", "test")


@dataclass(frozen=True)
class GaussianMixtureSpec:
    num_classes: int = 3
    dim: int = 30
    sigma: float = 2.0
    means: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        if self.sigma <= 0:
            raise InvalidInputError("sigma must be > 0")
        if self.num_classes < 2 or self.dim < 1:
            raise InvalidInputError("need num_classes >= 2 and dim >= 1")
        means = np.asarray(self.means, dtype=float)
        if means.shape != (self.num_classes, self.dim):
            raise InvalidInputError(
                f"means must have shape {(self.num_classes, self.dim)}, "
                f"got {means.shape}"
            )
        if not np.all(np.isin(means, (-1.0, 0.0, 1.0))):
            raise InvalidInputError("mean entries must come from {-1, 0, 1}")
        means = means.copy()
        means.setflags(write=False)
        object.__setattr__(self, "means", means)

    @classmethod
    def sample(cls, seed: int, num_classes: int = 3, dim: int = 30,
               sigma: float = 2.0) -> "GaussianMixtureSpec":
        """Draw class means from {-1, 0, 1}^dim, re-drawing on collisions."""
        rng = derive_rng(seed, "gaussian-means")
        while True:
            means = rng.integers(-1, 2, size=(num_classes, dim)).astype(float)
            if len({tuple(row) for row in means}) == num_classes:
                return cls(num_classes=num_classes, dim=dim, sigma=sigma,
                           means=means, seed=seed)

    def to_dict(self) -> dict:
        return {
            "num_classes": self.num_classes,
            "dim": self.dim,
            "sigma": self.sigma,
            "means": self.means.tolist(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianMixtureSpec":
        return cls(num_classes=d["num_classes"], dim=d["dim"], sigma=d["sigma"],
                   means=np.asarray(d["means"], dtype=float), seed=d["seed"])


@dataclass(frozen=True)
class LabeledDataset:
    """Inputs, one-hot labels, and a disjoint train/validation/test partition."""

    inputs: np.ndarray            # (N, d)
    labels: np.ndarray            # (N, C) one-hot
    split_sizes: dict = field(default_factory=dict)
    spec: GaussianMixtureSpec | None = None

    def __post_init__(self):
        if sum(self.split_sizes.values()) != self.inputs.shape[0]:
            raise InvalidInputError("split sizes must sum to N")

    def _bounds(self, name: str):
        if name not in self.split_sizes:
            raise InvalidInputError(f"unknown split {name!r}")
        start = 0
        for n in SPLIT_NAMES:
            if n == name:
                return start, start + self.split_sizes[n]
            start += self.split_sizes[n]
        raise InvalidInputError(f"unknown split {name!r}")

    def split(self, name: str):
        """(inputs, labels) for one named partition, which must hold rows."""
        lo, hi = self._bounds(name)
        if lo == hi:
            raise InvalidInputError(f"the {name} split is empty")
        return self.inputs[lo:hi], self.labels[lo:hi]


def _split_counts(n: int, split_ratio) -> dict:
    ratio = np.asarray(split_ratio, dtype=float)
    if ratio.shape != (3,) or np.any(ratio < 0) or abs(ratio.sum() - 1.0) > 1e-9:
        raise InvalidInputError(
            "split_ratio must be three nonnegative reals summing to 1"
        )
    n_val = int(round(n * ratio[1]))
    n_test = int(round(n * ratio[2]))
    n_train = n - n_val - n_test
    if n_train < 0:
        raise InvalidInputError("split ratio leaves no training data")
    return {"train": n_train, "validation": n_val, "test": n_test}


def generate(spec: GaussianMixtureSpec, n: int,
             split_ratio=(0.9, 0.05, 0.05)) -> LabeledDataset:
    """Draw n labeled points from the mixture, deterministically in the seed."""
    if n < spec.num_classes:
        raise InvalidInputError("need at least one example per class")
    counts = _split_counts(n, split_ratio)
    rng = derive_rng(spec.seed, "gaussian-samples")
    y = rng.integers(0, spec.num_classes, size=n)
    noise = rng.standard_normal(size=(n, spec.dim))
    inputs = spec.means[y] + spec.sigma * noise
    labels = np.zeros((n, spec.num_classes))
    labels[np.arange(n), y] = 1.0
    return LabeledDataset(inputs=inputs, labels=labels, split_sizes=counts,
                          spec=spec)


def true_posterior_rows(spec: GaussianMixtureSpec, x: np.ndarray) -> np.ndarray:
    """Exact Bayes posterior rows for a batch of inputs."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sq = np.sum((x[:, None, :] - spec.means[None, :, :]) ** 2, axis=-1)
    return softmax_rows(-sq / (2.0 * spec.sigma ** 2))


# ---------------------------------------------------------------------------
# Serialization: one CSV per split plus a JSON sidecar with the full spec.
# ---------------------------------------------------------------------------

def csv_rows(path, ndmin: int) -> np.ndarray:
    """The numbers below a CSV's header line; none for a header-only file."""
    try:
        with warnings.catch_warnings():
            # a file with no rows is an empty split, as generate-data writes
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=ndmin)
    except ValueError as exc:  # a cell that is not a number, or ragged rows
        raise SchemaError(f"{path}: {exc}") from None
    if rows.size == 0 and ndmin == 2:
        with open(path) as f:
            return np.empty((0, len(f.readline().split(","))))
    return rows


def read_json(path):
    """The document in a JSON file; text that is not JSON is a SchemaError."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # a syntax error, or bytes that are not text
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None


def one_hot(labels: np.ndarray, num_classes: int | None = None) -> np.ndarray:
    """One-hot rows for class indices, which must be integers in [0, C)."""
    whole = np.isfinite(labels) & (labels == np.floor(labels))
    if num_classes is None:
        num_classes = int(labels[whole].max(initial=0)) + 1
    if not np.all(whole & (labels >= 0) & (labels < num_classes)):
        raise SchemaError(f"labels must be integers in [0, {num_classes})")
    out = np.zeros((labels.size, num_classes))
    out[np.arange(labels.size), labels.astype(int)] = 1.0
    return out


def write_csv(path, header, rows) -> None:
    """Rows of numbers under a header of column names, at full precision."""
    np.savetxt(path, rows, delimiter=",", header=",".join(header),
               comments="", fmt="%.17g")


def save_dataset(ds: LabeledDataset, out_dir) -> list[Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    header = [f"x_{i}" for i in range(ds.inputs.shape[1])] + ["label"]
    for name in SPLIT_NAMES:
        lo, hi = ds._bounds(name)
        path = out_dir / f"{name}.csv"
        write_csv(path, header, np.column_stack(
            [ds.inputs[lo:hi], np.argmax(ds.labels[lo:hi], axis=1)]))
        written.append(path)
    sidecar = out_dir / "spec.json"
    with open(sidecar, "w") as f:
        json.dump({"spec": ds.spec.to_dict() if ds.spec else None,
                   "split_sizes": ds.split_sizes}, f, indent=2)
    written.append(sidecar)
    return written


def load_dataset(in_dir) -> LabeledDataset:
    in_dir = Path(in_dir)
    sidecar = in_dir / "spec.json"
    meta = read_json(sidecar)
    try:
        spec = (None if meta["spec"] is None
                else GaussianMixtureSpec.from_dict(meta["spec"]))
        sizes = {name: int(meta["split_sizes"][name]) for name in SPLIT_NAMES}
    except (KeyError, TypeError, ValueError):  # ValueError: bad spec values
        raise SchemaError(f"{sidecar}: expected an object with a split_sizes "
                          f"object and a spec that is null or a spec object"
                          ) from None
    n = sum(sizes.values())
    splits = []
    for name in SPLIT_NAMES:
        path = in_dir / f"{name}.csv"
        rows = csv_rows(path, ndmin=2)
        if rows.shape[0] != sizes[name]:
            raise SchemaError(f"{sidecar}: split_sizes gives {name} "
                              f"{sizes[name]} rows, {path} has {rows.shape[0]}")
        # without a spec the largest label sets the class count
        top = np.max(rows[:, -1], initial=0)
        if spec is None and top >= n:
            raise SchemaError(f"{path}: label {top:g} implies more classes "
                              f"than the dataset's {n} rows")
        splits.append(rows)
    inputs = np.concatenate([rows[:, :-1] for rows in splits])
    labels = one_hot(np.concatenate([rows[:, -1] for rows in splits]),
                     spec.num_classes if spec else None)
    return LabeledDataset(inputs=inputs, labels=labels, split_sizes=sizes,
                          spec=spec)
