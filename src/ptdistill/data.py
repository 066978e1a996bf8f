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

A dataset is held once: ``generate``, ``save_dataset`` and
``load_dataset`` work in blocks of ``_BLOCK_ROWS`` rows beside it, and
only the CSV-parse fallback holds a split's parsed rows too. The CSV
digests the seals take are handed back in a ``digests`` dict, so a caller
that records them need not hash the files again.
"""
from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .core import InvalidInputError, SchemaError, on_simplex, softmax_rows
from .rng import derive_rng

SPLIT_NAMES = ("train", "validation", "test")
SPLIT_RATIO = (0.9, 0.05, 0.05)  # generate's default, in SPLIT_NAMES order
# GaussianMixtureSpec.sample gives up after this many draws of class means
# that collide.
MAX_MEAN_DRAWS = 100_000
# A split's binary copy: a SHA-256 seal, then its rows in this dtype.
_SEAL_BYTES = 32
_COPY_DTYPE = np.dtype("<f8")
# Rows per block when the dataset is generated, written and read; nn's
# shortest inference block too.
_BLOCK_ROWS = 8192


def _row_blocks(lo: int, hi: int):
    """Slices of the rows lo..hi, ``_BLOCK_ROWS`` at a time."""
    return (slice(start, min(start + _BLOCK_ROWS, hi))
            for start in range(lo, hi, _BLOCK_ROWS))


def _distinct_rows(means: np.ndarray) -> bool:
    """Whether no two class means are equal, -0.0 counting as 0.0."""
    return len(set(map(bytes, means + 0.0))) == len(means)


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
        if not _distinct_rows(means):
            raise InvalidInputError("class means must be distinct")
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
            if _distinct_rows(means):
                return cls(num_classes=num_classes, dim=dim, sigma=sigma,
                           means=means, seed=seed)
        raise InvalidInputError(f"no {num_classes} distinct class means in "
                                f"{MAX_MEAN_DRAWS} draws")

    def to_dict(self) -> dict:
        return {**asdict(self), "means": self.means.tolist()}

    @classmethod
    def from_dict(cls, d: dict, source="spec") -> "GaussianMixtureSpec":
        """Inverse of ``to_dict``; ``source`` names the input in errors."""
        ints = {key: json_number(source, key, d[key])
                for key in ("num_classes", "dim", "seed")}
        return cls(**ints, means=json_array(source, "means", d["means"], 2),
                   sigma=json_number(source, "sigma", d["sigma"], (int, float)))


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
    if ratio.shape != (3,) or not on_simplex(ratio):
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
             split_ratio=SPLIT_RATIO) -> LabeledDataset:
    """Draw n labeled points from the mixture, deterministically in the seed.

    The inputs are built in place from the noise draw (scale, then add the
    class means block by block), the same values as
    ``means[y] + sigma * noise``.
    """
    if n < spec.num_classes:
        raise InvalidInputError("need at least one example per class")
    counts = _split_counts(n, split_ratio)
    rng = derive_rng(spec.seed, "gaussian-samples")
    y = rng.integers(0, spec.num_classes, size=n)
    inputs = rng.standard_normal(size=(n, spec.dim))
    inputs *= spec.sigma
    for rows in _row_blocks(0, n):
        inputs[rows] += spec.means[y[rows]]
    return LabeledDataset(inputs=inputs, labels=one_hot(y, spec.num_classes),
                          split_sizes=counts, spec=spec)


def true_posterior_rows(spec: GaussianMixtureSpec, x: np.ndarray) -> np.ndarray:
    """Exact Bayes posterior rows for a batch of inputs."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    sq = np.empty((len(x), spec.num_classes))
    for rows in _row_blocks(0, len(x)):  # one block's (rows, C, d) at a time
        sq[rows] = np.sum((x[rows, None, :] - spec.means) ** 2, axis=-1)
    return softmax_rows(-sq / (2.0 * spec.sigma ** 2))


# ---------------------------------------------------------------------------
# Serialization: one CSV per split plus a JSON sidecar with the full spec.
# ---------------------------------------------------------------------------

def _read_header(path) -> list[str]:
    """The column names on a CSV's first line."""
    try:
        with open(path) as f:
            return f.readline().strip().split(",")
    except ValueError as exc:  # bytes that are not text
        raise SchemaError(f"{path}: {exc}") from None


def read_csv(path) -> tuple[list[str], np.ndarray]:
    """A CSV's header names and the (rows, columns) numbers below it.

    Every row must hold one number per header name; a header-only file is
    an empty table. The caller checks the names.
    """
    header = _read_header(path)
    try:
        with warnings.catch_warnings():
            # a file with no rows is an empty split, as generate-data writes
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


def _copy_holds(path, n: int, width: int) -> bool:
    """Whether the binary copy of the CSV ``path`` is, by its size, a seal
    and ``n`` rows of ``width`` columns."""
    try:
        size = os.stat(_copy_path(path)).st_size
    except OSError:  # no copy
        return False
    return n >= 0 and size == _SEAL_BYTES + n * width * _COPY_DTYPE.itemsize


def _read_copy(path, digests: dict | None, inputs, labels) -> bool:
    """Whether the binary copy of the CSV ``path`` opens with the seal of
    the CSV as it is now and of as many rows as ``inputs`` holds after it.

    The rows are read a block at a time into one buffer and hashed, and
    each block's features and last column are copied into their rows of
    ``inputs`` and ``labels``. The CSV's digest is recorded in
    ``digests``. Nothing in the copy is parsed or unpickled.
    """
    # hashed first, so its read buffers are freed before the block buffer
    csv_digest = file_digest(path)
    if digests is not None:
        digests[Path(path)] = csv_digest
    seal = hashlib.sha256(csv_digest)
    n, dim = inputs.shape
    block = np.empty((min(n, _BLOCK_ROWS), dim + 1), dtype=_COPY_DTYPE)
    try:
        with open(_copy_path(path), "rb") as f:
            expected = f.read(_SEAL_BYTES)
            for rows in _row_blocks(0, n):
                read = block[:rows.stop - rows.start]
                if f.readinto(read) != read.nbytes:
                    return False
                seal.update(read)
                inputs[rows], labels[rows] = read[:, :-1], read[:, -1]
    except OSError:  # the copy went away
        return False
    return seal.digest() == expected


def file_digest(path) -> bytes:
    """The SHA-256 digest of a file's bytes, read through one 1 MiB buffer."""
    h = hashlib.sha256()
    chunk = memoryview(bytearray(1 << 20))
    with open(path, "rb") as f:
        while size := f.readinto(chunk):
            h.update(chunk[:size])
    return h.digest()


def json_number(source, name: str, value, kinds=(int,)):
    """``value`` if its type is one of ``kinds``, by default a JSON integer;
    else a SchemaError naming ``source`` and the field ``name``.

    Types are compared exactly, so a bool, an int subclass, is neither an
    integer nor a number here.
    """
    if type(value) not in kinds:
        raise SchemaError(f"{source}: {name} must be "
                          f"{'an integer' if kinds == (int,) else 'a number'}, "
                          f"got {value!r}")
    return value


def json_array(source, name: str, value, ndim: int) -> np.ndarray:
    """``value`` as a float array if it is an ``ndim``-level rectangular
    list of JSON numbers (ints or floats, not bools or strings); else a
    SchemaError naming ``source`` and the field ``name``."""
    # as objects, a ragged or deeper list shows in the shape or the entries
    arr = np.array(value, dtype=object)
    if arr.ndim != ndim or any(type(v) not in (int, float) for v in arr.flat):
        raise SchemaError(f"{source}: {name} must be a rectangular {ndim}-d "
                          f"list of numbers")
    try:
        return arr.astype(float)
    except OverflowError:  # an integer beyond the float range
        raise SchemaError(f"{source}: {name} entries must be finite") from None


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


def write_csv(path, header, blocks) -> None:
    """Rows of numbers under a header of column names, at full precision.

    ``blocks`` is an iterable of 2-D row blocks, a list of one table or a
    generator, written in turn with one ``np.savetxt`` call each; it
    formats row by row, so the bytes are those of one call on all rows.
    """
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for rows in blocks:
            np.savetxt(f, rows, delimiter=",", fmt="%.17g")


def _copy_path(csv_path) -> Path:
    """The binary copy of a split CSV's rows: ``train.csv`` -> ``train.rows``."""
    return Path(csv_path).with_suffix(".rows")


def _split_blocks(ds: LabeledDataset, name: str):
    """A split's rows as saved, its inputs then its label, in blocks of up
    to ``_BLOCK_ROWS`` rows that share one buffer: a block is overwritten
    when the next is made."""
    lo, hi = ds._bounds(name)
    block = np.empty((min(hi - lo, _BLOCK_ROWS), ds.inputs.shape[1] + 1),
                     dtype=_COPY_DTYPE)
    for rows in _row_blocks(lo, hi):
        out = block[:rows.stop - rows.start]
        out[:, :-1] = ds.inputs[rows]
        out[:, -1] = np.argmax(ds.labels[rows], axis=1)
        yield out


def save_dataset(ds: LabeledDataset, out_dir,
                 digests: dict | None = None) -> list[Path]:
    """Write ``dataset_files(out_dir)`` and a binary copy of each split's
    rows; returns the split CSVs, then the spec, then the copies.

    Each split is written a block at a time, so the writes hold one block
    beside the dataset. ``digests``, if given, gains each CSV's digest,
    keyed by its path.
    """
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    sidecar, *paths = dataset_files(out_dir)
    header = [f"x_{i}" for i in range(ds.inputs.shape[1])] + ["label"]
    for name, path in zip(SPLIT_NAMES, paths):
        write_csv(path, header, _split_blocks(ds, name))
        csv_digest = file_digest(path)
        if digests is not None:
            digests[path] = csv_digest
        seal = hashlib.sha256(csv_digest)
        with open(_copy_path(path), "wb") as f:
            # the seal opens the copy; it is written once the rows are hashed
            f.seek(_SEAL_BYTES)
            for rows in _split_blocks(ds, name):
                seal.update(rows)
                rows.tofile(f)
            f.seek(0)
            f.write(seal.digest())
    with open(sidecar, "w") as f:
        json.dump({"spec": ds.spec.to_dict() if ds.spec else None,
                   "split_sizes": ds.split_sizes}, f, indent=2)
    return paths + [sidecar] + [_copy_path(path) for path in paths]


def dataset_files(in_dir) -> list[Path]:
    """The files ``load_dataset`` reads: the spec sidecar, then each split."""
    in_dir = Path(in_dir)
    return [in_dir / "spec.json"] + [in_dir / f"{name}.csv"
                                     for name in SPLIT_NAMES]


def load_dataset(in_dir, digests: dict | None = None) -> LabeledDataset:
    """The dataset ``save_dataset`` wrote to ``in_dir``.

    Each split's rows come from its binary copy while that matches the
    CSV, else from the CSV's text; the checks below hold either way. Each
    split's header must be ``x_0..x_{d-1},label``, with d the spec's
    dim, or the first split's when the spec is null, and its row count
    must be the spec's ``split_sizes`` entry. The inputs and labels are
    allocated once, after every count has been checked against the
    files, and each copy is read into them a block at a time.
    ``digests``, if given, gains the digest of each CSV that a copy was
    checked against, keyed by its path.
    """
    sidecar, *paths = dataset_files(in_dir)
    meta = read_json(sidecar)
    try:
        spec = (None if meta["spec"] is None
                else GaussianMixtureSpec.from_dict(meta["spec"], sidecar))
        sizes = {name: json_number(sidecar, f"split_sizes.{name}",
                                   meta["split_sizes"][name])
                 for name in SPLIT_NAMES}
    except InvalidInputError as exc:  # a spec value breaks one of its rules
        raise SchemaError(f"{sidecar}: {exc}") from None
    except (KeyError, TypeError):
        raise SchemaError(f"{sidecar}: expected an object with a split_sizes "
                          f"object and a spec that is null or a spec object"
                          ) from None

    def parse(name, path):  # a split's CSV rows, as many as its size
        rows = read_csv(path)[1]
        if len(rows) != sizes[name]:
            raise SchemaError(f"{sidecar}: split_sizes gives {name} "
                              f"{sizes[name]} rows, {path} has {len(rows)}")
        return rows

    n = sum(sizes.values())
    dim = spec.dim if spec else None
    parsed = {}  # the rows of each split read from its text
    for name, path in zip(SPLIT_NAMES, paths):
        header = _read_header(path)
        if dim is None:
            dim = len(header) - 1
        if header != [f"x_{i}" for i in range(dim)] + ["label"]:
            raise SchemaError(f"{path}: expected header x_0..x_{dim - 1},label, "
                              f"got {','.join(header)}")
        # a copy of another size is not read; its CSV gives the count
        if not _copy_holds(path, sizes[name], dim + 1):
            parsed[name] = parse(name, path)
    inputs = np.empty((n, dim))
    labels = np.empty(n)
    lo = 0
    for name, path in zip(SPLIT_NAMES, paths):
        hi = lo + sizes[name]
        if name not in parsed and not _read_copy(
                path, digests, inputs[lo:hi], labels[lo:hi]):
            parsed[name] = parse(name, path)  # the CSV changed since its copy
        if name in parsed:
            rows = parsed.pop(name)
            inputs[lo:hi], labels[lo:hi] = rows[:, :-1], rows[:, -1]
        # one block's flags at a time
        if not all(np.isfinite(inputs[rows]).all()
                   for rows in _row_blocks(lo, hi)):
            raise SchemaError(f"{path}: feature cells must be finite")
        # without a spec the largest label sets the class count
        top = np.max(labels[lo:hi], initial=0)
        if spec is None and top >= n:
            raise SchemaError(f"{path}: label {top:g} implies more classes "
                              f"than the dataset's {n} rows")
        lo = hi
    return LabeledDataset(inputs=inputs,
                          labels=one_hot(labels,
                                         spec.num_classes if spec else None),
                          split_sizes=sizes, spec=spec)
