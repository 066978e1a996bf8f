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

A saved dataset need not be held: ``save_dataset`` writes each block of
``_BLOCK_ROWS`` rows as it comes from a ``DatasetDraw``, which holds only
the labels, or from a held ``LabeledDataset``. ``generate`` fills held
arrays by the same rule, and ``load_dataset`` reads into them a block at
a time; only the CSV-parse fallback holds a split's parsed rows too.
``load_dataset`` can leave splits on disk: each stays a ``SplitFile``
whose ``read`` hands its rows to a function a block at a time. The CSV
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
    """Inputs, one-hot labels, and a disjoint train/validation/test partition.

    ``inputs`` and ``labels`` hold the rows of each split in SPLIT_NAMES
    order, except the splits in ``files``, which ``load_dataset`` left on
    disk; ``split_sizes`` counts every split.
    """

    inputs: np.ndarray            # (N, d)
    labels: np.ndarray            # (N, C) one-hot
    split_sizes: dict = field(default_factory=dict)
    spec: GaussianMixtureSpec | None = None
    files: dict = field(default_factory=dict)  # split name -> SplitFile

    def __post_init__(self):
        held = [n for n in self.split_sizes if n not in self.files]
        if sum(self.split_sizes[n] for n in held) != self.inputs.shape[0]:
            raise InvalidInputError("split sizes must sum to N")

    def _bounds(self, name: str):
        if name not in SPLIT_NAMES or name not in self.split_sizes:
            raise InvalidInputError(f"unknown split {name!r}")
        if name in self.files:
            raise InvalidInputError(f"the {name} split was left on disk")
        before = SPLIT_NAMES[:SPLIT_NAMES.index(name)]
        start = sum(self.split_sizes[n] for n in before if n not in self.files)
        return start, start + self.split_sizes[name]

    def rows(self, name: str) -> int:
        """The row count of one named partition, held or on disk, which
        must hold rows."""
        if name not in SPLIT_NAMES or name not in self.split_sizes:
            raise InvalidInputError(f"unknown split {name!r}")
        if not self.split_sizes[name]:
            raise InvalidInputError(f"the {name} split is empty")
        return self.split_sizes[name]

    def split(self, name: str):
        """(inputs, labels) for one named partition, which must hold rows."""
        self.rows(name)
        lo, hi = self._bounds(name)
        return self.inputs[lo:hi], self.labels[lo:hi]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]

    def blocks(self, name: str):
        """One held split's rows as (inputs, class indices) blocks of up to
        ``_BLOCK_ROWS`` rows."""
        lo, hi = self._bounds(name)
        for rows in _row_blocks(lo, hi):
            yield self.inputs[rows], np.argmax(self.labels[rows], axis=1)


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


class DatasetDraw:
    """n labeled points being drawn from the mixture, deterministically in
    the seed: the labels in full, then each input row, a block at a time,
    as its class mean plus sigma times the next dim standard normals (the
    values of ``means[y] + sigma * noise`` from one (n, dim) draw)."""

    def __init__(self, spec: GaussianMixtureSpec, n: int,
                 split_ratio=SPLIT_RATIO):
        if n < spec.num_classes:
            raise InvalidInputError("need at least one example per class")
        self.spec, self.dim = spec, spec.dim
        self.split_sizes = _split_counts(n, split_ratio)
        self._rng = derive_rng(spec.seed, "gaussian-samples")
        # int64, as the dtype fixes the stream
        self.labels = self._rng.integers(0, spec.num_classes, size=n)
        self._starts: dict = {}  # split name -> generator state at its start

    def fill(self, rows: slice, out: np.ndarray) -> None:
        """Draw the inputs of the labels ``rows`` into ``out``, a contiguous
        (rows, dim) array."""
        self._rng.standard_normal(out=out)
        out *= self.spec.sigma
        out += self.spec.means[self.labels[rows]]

    def blocks(self, name: str):
        """A split's (inputs, labels) blocks, drawn into one buffer. Splits
        are drawn in SPLIT_NAMES order; one drawn again restarts the stream
        where its first pass began."""
        before = SPLIT_NAMES[:SPLIT_NAMES.index(name)]
        lo = sum(self.split_sizes[n] for n in before)
        hi = lo + self.split_sizes[name]
        self._rng.bit_generator.state = self._starts.setdefault(
            name, self._rng.bit_generator.state)
        buffer = np.empty((min(hi - lo, _BLOCK_ROWS), self.dim))
        for rows in _row_blocks(lo, hi):
            inputs = buffer[:rows.stop - rows.start]
            self.fill(rows, inputs)
            yield inputs, self.labels[rows]


def generate(spec: GaussianMixtureSpec, n: int,
             split_ratio=SPLIT_RATIO) -> LabeledDataset:
    """Draw n labeled points from the mixture, held (see ``DatasetDraw``)."""
    draw = DatasetDraw(spec, n, split_ratio)
    inputs = np.empty((n, spec.dim))
    for rows in _row_blocks(0, n):
        draw.fill(rows, inputs[rows])
    return LabeledDataset(inputs=inputs,
                          labels=one_hot(draw.labels, spec.num_classes),
                          split_sizes=draw.split_sizes, spec=spec)


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
    return size == _SEAL_BYTES + n * width * _COPY_DTYPE.itemsize


@dataclass(frozen=True)
class SplitFile:
    """A split CSV of a saved dataset, with the row count spec.json gives
    it and its feature count, read a block at a time.

    Every row read must have finite features and, given ``num_classes``,
    a label that is an integer in [0, num_classes). ``digests``, if
    given, gains the CSV's digest, keyed by ``path``, whenever the binary
    copy is checked against it.
    """

    path: Path
    rows: int
    dim: int
    num_classes: int | None = None
    digests: dict | None = None

    def parse(self) -> np.ndarray:
        """The CSV's (rows, dim + 1) numbers, as many rows as spec.json gives."""
        rows = read_csv(self.path)[1]
        if len(rows) != self.rows:
            raise SchemaError(f"{self.path.with_name('spec.json')}: split_sizes "
                              f"gives {self.path.stem} {self.rows} rows, "
                              f"{self.path} has {len(rows)}")
        return rows

    def read(self, blocks, fn, parsed: np.ndarray | None = None) -> list:
        """``[fn(rows, inputs, labels) for rows in blocks]``, ``blocks``
        being consecutive slices that cover the split, taken only once its
        row count has been checked.

        The blocks come from the binary copy, if its size fits, and the
        results stand only if the seal matches the CSV as it is now and
        exactly the bytes handed to ``fn``; otherwise they come from the
        CSV's text, or ``parsed``, its rows already parsed. So ``fn`` must
        have no effect that a pass over the text does not overwrite. A
        block that breaks a check raises SchemaError once it is accepted.
        """
        if parsed is None and _copy_holds(self.path, self.rows, self.dim + 1):
            blocks = list(blocks)
            results = self._read_copy(blocks, fn)
            if results is not None:
                return results
        if parsed is None:
            parsed = self.parse()
        return [self._checked(rows, parsed[rows], fn) for rows in blocks]

    def _checked(self, rows: slice, block: np.ndarray, fn):
        inputs, labels = block[:, :-1], block[:, -1]
        if not np.isfinite(inputs).all():
            raise SchemaError(f"{self.path}: feature cells must be finite")
        if self.num_classes is not None:
            _check_labels(labels, self.num_classes)
        return fn(rows, inputs, labels)

    def _read_copy(self, blocks: list, fn) -> list | None:
        """The results over the binary copy's blocks, read into one buffer
        and hashed (never parsed or unpickled), or None unless the copy
        opens with the seal of the CSV as it is now and of the bytes read."""
        # hashed first, so its read buffers are freed before the block buffer
        csv_digest = file_digest(self.path)
        if self.digests is not None:
            self.digests[self.path] = csv_digest
        seal = hashlib.sha256(csv_digest)
        block = np.empty((max((rows.stop - rows.start for rows in blocks),
                              default=0), self.dim + 1), dtype=_COPY_DTYPE)
        results, error = [], None
        try:
            with open(_copy_path(self.path), "rb") as f:
                expected = f.read(_SEAL_BYTES)
                for rows in blocks:
                    read = block[:rows.stop - rows.start]
                    if f.readinto(read) != read.nbytes:
                        return None
                    seal.update(read)
                    if error is None:
                        try:
                            results.append(self._checked(rows, read, fn))
                        except SchemaError as exc:  # stands if the seal does
                            error = exc
        except OSError:  # the copy went away
            return None
        if seal.digest() != expected:
            return None
        if error is not None:
            raise error
        return results


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


def _check_labels(labels: np.ndarray, num_classes: int) -> None:
    """Raise SchemaError unless every label is an integer in [0, C)."""
    whole = np.isfinite(labels) & (labels == np.floor(labels))
    if not np.all(whole & (labels >= 0) & (labels < num_classes)):
        raise SchemaError(f"labels must be integers in [0, {num_classes})")


def one_hot(labels: np.ndarray, num_classes: int | None = None) -> np.ndarray:
    """One-hot rows for class indices, which must be integers in [0, C);
    without a C, the largest whole label sets it."""
    if num_classes is None:
        whole = np.isfinite(labels) & (labels == np.floor(labels))
        num_classes = int(labels[whole].max(initial=0)) + 1
    _check_labels(labels, num_classes)
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


def save_dataset(ds, out_dir, digests: dict | None = None) -> list[Path]:
    """Write ``dataset_files(out_dir)`` and a binary copy of each split's
    rows; returns the split CSVs, then the spec, then the copies.

    ``ds``, a ``LabeledDataset`` or a ``DatasetDraw``, gives its ``spec``,
    ``split_sizes``, ``dim`` and each split's rows as ``blocks(name)``,
    written as they come, so the writes hold one block beside ``ds``.
    ``digests``, if given, gains each CSV's digest, keyed by its path.
    """
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    sidecar, *paths = dataset_files(out_dir)
    header = [f"x_{i}" for i in range(ds.dim)] + ["label"]
    block = np.empty((min(sum(ds.split_sizes.values()), _BLOCK_ROWS),
                      ds.dim + 1), dtype=_COPY_DTYPE)

    def saved_rows(name):  # a split's rows as saved: inputs, then label
        for inputs, labels in ds.blocks(name):
            out = block[:len(inputs)]
            out[:, :-1] = inputs
            out[:, -1] = labels
            yield out
    for name, path in zip(SPLIT_NAMES, paths):
        write_csv(path, header, saved_rows(name))
        csv_digest = file_digest(path)
        if digests is not None:
            digests[path] = csv_digest
        seal = hashlib.sha256(csv_digest)
        with open(_copy_path(path), "wb") as f:
            # the seal opens the copy; it is written once the rows are hashed
            f.seek(_SEAL_BYTES)
            for rows in saved_rows(name):
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


def load_dataset(in_dir, digests: dict | None = None,
                 splits=SPLIT_NAMES) -> LabeledDataset:
    """The dataset ``save_dataset`` wrote to ``in_dir``, holding the rows
    of the ``splits`` named; every other split stays on disk as a
    ``SplitFile`` in the dataset's ``files``, read when it is used.

    Without a spec every split is held, since the labels of all of them
    set the class count. Each split's rows come from its binary copy
    while that matches the CSV, else from the CSV's text; the checks
    below hold either way. Each split's header must be
    ``x_0..x_{d-1},label``, with d the spec's dim, or the first split's
    when the spec is null, and its row count must be the spec's
    ``split_sizes`` entry. Every header is checked first, and the
    inputs and labels are allocated once, after the count of each held
    split has been checked against the files; each copy is read into
    them a block at a time. ``digests``, if given, gains the digest of
    each CSV that a copy was checked against, keyed by its path.
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
    for name, size in sizes.items():
        if size < 0:
            raise SchemaError(f"{sidecar}: split_sizes.{name} must be >= 0, "
                              f"got {size}")
    if spec is None:
        splits = SPLIT_NAMES

    dim = spec.dim if spec else None
    files, parsed = {}, {}  # parsed: the rows of a held split read from text
    for name, path in zip(SPLIT_NAMES, paths):
        header = _read_header(path)
        if dim is None:
            dim = len(header) - 1
        if header != [f"x_{i}" for i in range(dim)] + ["label"]:
            raise SchemaError(f"{path}: expected header x_0..x_{dim - 1},label, "
                              f"got {','.join(header)}")
        files[name] = SplitFile(path, sizes[name], dim,
                                spec.num_classes if spec else None, digests)
        # a copy of another size is not read; its CSV gives the count
        if name in splits and not _copy_holds(path, sizes[name], dim + 1):
            parsed[name] = files[name].parse()
    held = [name for name in SPLIT_NAMES if name in splits]
    n = sum(sizes[name] for name in held)
    inputs = np.empty((n, dim))
    labels = np.empty(n)
    lo = 0
    for name in held:
        hi = lo + sizes[name]

        def fill(rows, block_inputs, block_labels, at=lo):
            inputs[at + rows.start:at + rows.stop] = block_inputs
            labels[at + rows.start:at + rows.stop] = block_labels
        split = files.pop(name)
        split.read(_row_blocks(0, split.rows), fill, parsed.pop(name, None))
        # without a spec the largest label sets the class count
        top = np.max(labels[lo:hi], initial=0)
        if spec is None and top >= n:
            raise SchemaError(f"{split.path}: label {top:g} implies more "
                              f"classes than the dataset's {n} rows")
        lo = hi
    return LabeledDataset(inputs=inputs,
                          labels=one_hot(labels,
                                         spec.num_classes if spec else None),
                          split_sizes=sizes, spec=spec, files=files)
