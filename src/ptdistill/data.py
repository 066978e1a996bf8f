"""Synthetic Gaussian-mixture classification data with a closed-form posterior.

Labels are drawn uniformly over classes; inputs follow x | y=k ~ N(mu_k,
sigma^2 I) with class means whose entries come from {-1, 0, 1}. Under
uniform priors and shared isotropic variance the exact Bayes posterior is
softmax_c(-||x - mu_c||^2 / (2 sigma^2)).

A saved dataset is a directory of one CSV per split and a JSON sidecar
with the spec. Beside each split CSV, ``save_dataset`` writes a binary
copy of its rows (``train.csv`` -> ``train.rows``): a seal, the SHA-256
of the CSV's digest followed by the rows, then the rows as raw
little-endian float64 values. ``load_dataset`` reads the copy in place of
parsing the text only while the seal matches the CSV on disk and the rows
read, so an edited CSV is parsed again, and so is a damaged copy; the
same checks run on the rows either way. The CSV stays the interchange
format; deleting the copies only makes the next load parse.
"""
from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import InvalidInputError, SchemaError, softmax_rows
from .rng import derive_rng

SPLIT_NAMES = ("train", "validation", "test")
# GaussianMixtureSpec.sample gives up after this many draws of class means
# that collide.
MAX_MEAN_DRAWS = 100_000
# A split's binary copy: a SHA-256 seal, then its rows in this dtype.
_SEAL_BYTES = 32
_COPY_DTYPE = np.dtype("<f8")


def _check_sizes(num_classes: int, dim: int) -> None:
    """Raise unless dim >= 1 and 2 <= num_classes <= 3 ** dim, the number of
    distinct means."""
    # the exponent stops at the class count's bit length, past which 3 ** dim
    # exceeds the count anyway
    if num_classes < 2 or dim < 1 or num_classes > 3 ** min(
            dim, int(num_classes).bit_length()):
        raise InvalidInputError(f"need num_classes >= 2, dim >= 1 and "
                                f"num_classes <= 3 ** dim, got {num_classes} "
                                f"classes in dim {dim}")


@dataclass(frozen=True)
class GaussianMixtureSpec:
    num_classes: int = 3
    dim: int = 30
    sigma: float = 2.0
    means: np.ndarray = None
    seed: int = 0

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidInputError("sigma must be > 0")
        _check_sizes(self.num_classes, self.dim)
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
    def sample(cls, seed: int, num_classes: int = num_classes, dim: int = dim,
               sigma: float = sigma) -> "GaussianMixtureSpec":
        """Draw class means from {-1, 0, 1}^dim, re-drawing on collisions
        (the defaults are the fields')."""
        _check_sizes(num_classes, dim)
        rng = derive_rng(seed, "gaussian-means")
        for _ in range(MAX_MEAN_DRAWS):
            means = rng.integers(-1, 2, size=(num_classes, dim)).astype(float)
            # entries are whole numbers, never -0.0, so equal rows are
            # equal bytes
            if len(set(map(bytes, means))) == num_classes:
                return cls(num_classes=num_classes, dim=dim, sigma=sigma,
                           means=means, seed=seed)
        raise InvalidInputError(f"no {num_classes} distinct class means in "
                                f"{MAX_MEAN_DRAWS} draws")

    def to_dict(self) -> dict:
        return {**asdict(self), "means": self.means.tolist()}

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
        if name not in SPLIT_NAMES or name not in self.split_sizes:
            raise InvalidInputError(f"unknown split {name!r}")
        before = SPLIT_NAMES[:SPLIT_NAMES.index(name)]
        start = sum(self.split_sizes[n] for n in before)
        return start, start + self.split_sizes[name]

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
    """Draw n labeled points from the mixture, deterministically in the seed.

    The inputs are built in place from the noise draw (scale, then add the
    class means), the same values as ``means[y] + sigma * noise``.
    """
    if n < spec.num_classes:
        raise InvalidInputError("need at least one example per class")
    counts = _split_counts(n, split_ratio)
    rng = derive_rng(spec.seed, "gaussian-samples")
    y = rng.integers(0, spec.num_classes, size=n)
    inputs = rng.standard_normal(size=(n, spec.dim))
    inputs *= spec.sigma
    inputs += spec.means[y]
    return LabeledDataset(inputs=inputs, labels=one_hot(y, spec.num_classes),
                          split_sizes=counts, spec=spec)


def true_posterior_rows(spec: GaussianMixtureSpec, x: np.ndarray) -> np.ndarray:
    """Exact Bayes posterior rows for a batch of inputs."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sq = np.sum((x[:, None, :] - spec.means[None, :, :]) ** 2, axis=-1)
    return softmax_rows(-sq / (2.0 * spec.sigma ** 2))


# ---------------------------------------------------------------------------
# Serialization: one CSV per split plus a JSON sidecar with the full spec.
# ---------------------------------------------------------------------------

def read_csv(path, copy=None) -> tuple[list[str], np.ndarray]:
    """A CSV's header names and the (rows, columns) numbers below it.

    Every row must hold one number per header name; a header-only file is
    an empty table. The caller checks the names. ``copy`` names the binary
    copy of the rows that ``save_dataset`` writes; it is read in place of
    the text while it matches the file (see ``_read_copy``).
    """
    try:
        with open(path) as f:
            header = f.readline().strip().split(",")
        rows = _read_copy(copy, path, len(header)) if copy else None
        if rows is None:
            with warnings.catch_warnings():
                # a file with no rows is an empty split, as generate-data
                # writes
                warnings.filterwarnings("ignore",
                                        "loadtxt: input contained no data")
                rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:  # not text, a cell not a number, ragged rows
        raise SchemaError(f"{path}: {exc}") from None
    if rows.size == 0:
        rows = np.empty((0, len(header)))
    elif rows.shape[1] != len(header):
        raise SchemaError(f"{path}: rows have {rows.shape[1]} columns, "
                          f"the header {len(header)}")
    return header, rows


def _read_copy(copy, path, width: int) -> np.ndarray | None:
    """The rows in the binary copy ``copy`` of the CSV ``path``, or None.

    The copy is used only if its size is a seal plus a whole number of rows
    of ``width`` columns, and the seal is ``_seal`` of the digest of
    ``path`` as it is now and of the rows, which are read straight into
    the returned array. Nothing in the copy is parsed or unpickled.
    """
    try:
        with open(copy, "rb") as f:
            seal = f.read(_SEAL_BYTES)
            n, rest = divmod(os.fstat(f.fileno()).st_size - len(seal),
                             width * 8)
            if len(seal) < _SEAL_BYTES or rest:
                return None
            # hashed first, so its read buffers are freed before the rows
            csv_digest = file_digest(path)
            rows = np.empty((n, width), dtype=_COPY_DTYPE)
            if (f.readinto(rows) != rows.nbytes
                    or _seal(csv_digest, rows) != seal):
                return None
            return rows
    except OSError:  # no copy
        return None


def _seal(csv_digest: bytes, rows: np.ndarray) -> bytes:
    """The digest a binary copy opens with: the SHA-256 of its CSV's
    digest followed by its rows, so that it holds only while both do."""
    h = hashlib.sha256(csv_digest)
    h.update(rows)
    return h.digest()


def file_digest(path) -> bytes:
    """The SHA-256 digest of a file's bytes, read 1 MiB at a time."""
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.digest()


def read_json(path):
    """The document in a JSON file; text that is not JSON, or nests too
    deeply to read, is a SchemaError."""
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as exc:  # a syntax error, or bytes that are not text
            raise SchemaError(f"{path}: not valid JSON: {exc}") from None
        except RecursionError:
            raise SchemaError(f"{path}: JSON nested too deeply to read"
                              ) from None


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


def _copy_path(csv_path) -> Path:
    """The binary copy of a split CSV's rows: ``train.csv`` -> ``train.rows``."""
    return Path(csv_path).with_suffix(".rows")


def save_dataset(ds: LabeledDataset, out_dir) -> list[Path]:
    """Write ``dataset_files(out_dir)`` and a binary copy of each split's
    rows; returns the split CSVs, then the spec, then the copies."""
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    sidecar, *paths = dataset_files(out_dir)
    copies = [_copy_path(path) for path in paths]
    header = [f"x_{i}" for i in range(ds.inputs.shape[1])] + ["label"]
    for name, path, copy in zip(SPLIT_NAMES, paths, copies):
        lo, hi = ds._bounds(name)
        rows = np.column_stack(
            [ds.inputs[lo:hi], np.argmax(ds.labels[lo:hi], axis=1)]
        ).astype(_COPY_DTYPE, copy=False)
        write_csv(path, header, rows)
        with open(copy, "wb") as f:
            f.write(_seal(file_digest(path), rows))
            rows.tofile(f)
    with open(sidecar, "w") as f:
        json.dump({"spec": ds.spec.to_dict() if ds.spec else None,
                   "split_sizes": ds.split_sizes}, f, indent=2)
    return paths + [sidecar] + copies


def dataset_files(in_dir) -> list[Path]:
    """The files ``load_dataset`` reads: the spec sidecar, then each split."""
    in_dir = Path(in_dir)
    return [in_dir / "spec.json"] + [in_dir / f"{name}.csv"
                                     for name in SPLIT_NAMES]


def load_dataset(in_dir) -> LabeledDataset:
    """The dataset ``save_dataset`` wrote to ``in_dir``.

    Each split's rows come from its binary copy while that matches the
    CSV, else from the CSV's text; the checks below hold either way. Each
    split's header must be ``x_0..x_{d-1},label``, with d the spec's
    dim, or the first split's when the spec is null.
    """
    sidecar, *paths = dataset_files(in_dir)
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
    dim = spec.dim if spec else None
    splits = []
    for name, path in zip(SPLIT_NAMES, paths):
        header, rows = read_csv(path, _copy_path(path))
        if dim is None:
            dim = len(header) - 1
        if header != [f"x_{i}" for i in range(dim)] + ["label"]:
            raise SchemaError(f"{path}: expected header x_0..x_{dim - 1},label, "
                              f"got {','.join(header)}")
        if rows.shape[0] != sizes[name]:
            raise SchemaError(f"{sidecar}: split_sizes gives {name} "
                              f"{sizes[name]} rows, {path} has {rows.shape[0]}")
        if not np.isfinite(rows[:, :-1]).all():
            raise SchemaError(f"{path}: feature cells must be finite")
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
