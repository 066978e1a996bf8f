import hashlib
import io
import json
import math
import pickle
import tracemalloc

from pathlib import Path

import numpy as np
import pytest

from ptdistill import cli, data, nn
from ptdistill.core import InvalidInputError, SchemaError, softmax_rows
from ptdistill.data import (
    SPLIT_NAMES,
    SPLIT_RATIO,
    DatasetDraw,
    GaussianMixtureSpec,
    LabeledDataset,
    _check_sizes,
    _split_counts,
    generate,
    load_dataset,
    read_csv,
    save_dataset,
    true_posterior_rows,
    write_csv,
)
from ptdistill.distill import score_split
from ptdistill.rng import derive_rng


def default_spec(seed=0, **kw):
    return GaussianMixtureSpec.sample(seed=seed, **kw)


def save_drawn(out_dir, spec, n, split_ratio=SPLIT_RATIO):
    """Save the dataset ``generate`` draws, as generate-data does; return
    it held."""
    save_dataset(DatasetDraw(spec, n, split_ratio), out_dir)
    return generate(spec, n, split_ratio)


class TestGaussianMixtureSpec:
    def test_sample_shape_and_alphabet(self):
        spec = default_spec()
        assert spec.means.shape == (3, 30)
        assert set(np.unique(spec.means)) <= {-1.0, 0.0, 1.0}

    def test_sample_deterministic(self):
        a = default_spec(seed=4)
        b = default_spec(seed=4)
        np.testing.assert_array_equal(a.means, b.means)

    def test_sample_distinct_means(self):
        for seed in range(10):
            spec = default_spec(seed=seed, dim=2)
            rows = {tuple(r) for r in spec.means}
            assert len(rows) == spec.num_classes

    def test_rejects_bad_alphabet(self):
        with pytest.raises(InvalidInputError):
            GaussianMixtureSpec(num_classes=2, dim=2,
                                means=np.array([[0.5, 0.0], [1.0, 1.0]]))

    def test_rejects_bad_sigma(self):
        with pytest.raises(InvalidInputError):
            default_spec(sigma=0.0)

    def test_rejects_nan_sigma(self):
        with pytest.raises(InvalidInputError, match="sigma must be > 0"):
            default_spec(sigma=math.nan)

    @pytest.mark.parametrize("classes,dim", [(3, 1), (9, 2), (5, 3), (3, 30)])
    def test_same_means_as_unbounded_redraws(self, classes, dim):
        for seed in range(3):
            rng = derive_rng(seed, "gaussian-means")
            while True:
                means = rng.integers(-1, 2, size=(classes, dim)).astype(float)
                if len({tuple(row) for row in means}) == classes:
                    break
            spec = default_spec(seed=seed, num_classes=classes, dim=dim)
            np.testing.assert_array_equal(spec.means, means)

    @pytest.mark.parametrize("classes,dim", [(1, 3), (2, 0), (4, 1), (10, 2)])
    def test_impossible_sizes_raise_before_drawing(self, monkeypatch,
                                                   classes, dim):
        def no_draws(*parts):
            raise AssertionError("drew means")
        monkeypatch.setattr(data, "derive_rng", no_draws)
        with pytest.raises(InvalidInputError, match="num_classes <= 3"):
            default_spec(num_classes=classes, dim=dim)

    def test_size_check_is_exact_for_large_values(self):
        _check_sizes(3 ** 40, 40)
        _check_sizes(2, 10 ** 12)  # no 3 ** (10 ** 12) is computed
        with pytest.raises(InvalidInputError):
            _check_sizes(3 ** 40 + 1, 40)

    def test_redraws_are_capped(self, monkeypatch):
        monkeypatch.setattr(data, "MAX_MEAN_DRAWS", 1)
        with pytest.raises(InvalidInputError,
                           match="no 9 distinct class means in 1 draws"):
            default_spec(num_classes=9, dim=2)

    def test_dict_round_trip(self):
        spec = default_spec(seed=3)
        again = GaussianMixtureSpec.from_dict(spec.to_dict())
        np.testing.assert_array_equal(again.means, spec.means)
        assert (again.num_classes, again.dim, again.sigma, again.seed) == (
            spec.num_classes, spec.dim, spec.sigma, spec.seed)


class TestGenerate:
    def test_shapes_and_default_split(self):
        ds = generate(default_spec(), 1000)
        assert ds.inputs.shape == (1000, 30)
        assert ds.labels.shape == (1000, 3)
        assert ds.split_sizes == {"train": 900, "validation": 50, "test": 50}

    def test_one_hot_labels(self):
        ds = generate(default_spec(), 200)
        assert np.all(np.isin(ds.labels, (0.0, 1.0)))
        np.testing.assert_array_equal(ds.labels.sum(axis=1), 1.0)

    def test_deterministic(self):
        a = generate(default_spec(seed=5), 300)
        b = generate(default_spec(seed=5), 300)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_splits_partition_data(self):
        ds = generate(default_spec(), 100, (0.6, 0.2, 0.2))
        total = sum(ds.split(n)[0].shape[0] for n in
                    ("train", "validation", "test"))
        assert total == 100
        np.testing.assert_array_equal(
            np.concatenate([ds.split(n)[0] for n in
                            ("train", "validation", "test")]),
            ds.inputs)

    def test_inputs_equal_means_plus_scaled_noise(self):
        spec = default_spec(seed=6)
        ds = generate(spec, 2000)
        rng = derive_rng(spec.seed, "gaussian-samples")
        y = rng.integers(0, spec.num_classes, size=2000)
        noise = rng.standard_normal(size=(2000, spec.dim))
        np.testing.assert_array_equal(ds.inputs,
                                      spec.means[y] + spec.sigma * noise)

    def test_peak_memory_is_inputs_and_gathered_means(self):
        spec = default_spec(seed=7)
        tracemalloc.start()
        try:
            ds = generate(spec, 50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the means are gathered one block of rows at a time
        block = data._BLOCK_ROWS * spec.dim * 8
        assert peak <= ds.inputs.nbytes + ds.labels.nbytes + block + 2 ** 20

    def test_class_balance_near_uniform(self):
        ds = generate(default_spec(seed=1), 30000)
        frac = ds.labels.mean(axis=0)
        np.testing.assert_allclose(frac, 1 / 3, atol=0.02)

    def test_sample_statistics(self):
        # per-class input mean approaches mu_k, variance sigma^2
        spec = default_spec(seed=2, dim=5)
        ds = generate(spec, 60000, (1.0, 0.0, 0.0))
        y = np.argmax(ds.labels, axis=1)
        for k in range(3):
            xk = ds.inputs[y == k]
            np.testing.assert_allclose(xk.mean(axis=0), spec.means[k],
                                       atol=0.06)
            np.testing.assert_allclose(xk.var(axis=0), spec.sigma ** 2,
                                       rtol=0.05)

    def test_bad_ratio(self):
        with pytest.raises(InvalidInputError):
            generate(default_spec(), 100, (0.5, 0.2, 0.2))

    def test_unknown_split(self):
        ds = generate(default_spec(), 100)
        with pytest.raises(InvalidInputError):
            ds.split("dev")


class TestSplitCounts:
    def test_exact(self):
        assert _split_counts(100000, (0.05, 0.05, 0.9)) == {
            "train": 5000, "validation": 5000, "test": 90000}

    def test_remainder_to_train(self):
        counts = _split_counts(10, (0.34, 0.33, 0.33))
        assert counts == {"train": 4, "validation": 3, "test": 3}

    @pytest.mark.parametrize("ratio", [(float("nan"), 0.5, 0.5),
                                       (-0.5, 0.75, 0.75), (0.5, 0.5),
                                       (0.5, 0.25, 0.2)])
    def test_ratio_off_the_simplex(self, ratio):
        # the train count is what the others leave, so a NaN there would
        # otherwise pass unseen
        with pytest.raises(InvalidInputError):
            _split_counts(10, ratio)


class TestTruePosterior:
    def test_rows_sum_to_one(self):
        spec = default_spec()
        x = generate(spec, 100).inputs
        post = true_posterior_rows(spec, x)
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_at_class_mean(self):
        # at mu_k the squared distance to mu_k is minimal, so class k wins
        spec = default_spec(seed=7)
        for k in range(3):
            p = true_posterior_rows(spec, spec.means[k])[0]
            assert int(np.argmax(p)) == k

    def test_analytic_binary_case(self):
        means = np.array([[1.0, 0.0], [-1.0, 0.0]])
        spec = GaussianMixtureSpec(num_classes=2, dim=2, sigma=1.0,
                                   means=means)
        x = np.array([0.5, 3.0])
        d0 = np.sum((x - means[0]) ** 2)
        d1 = np.sum((x - means[1]) ** 2)
        expect = 1.0 / (1.0 + np.exp((d0 - d1) / 2.0))
        assert true_posterior_rows(spec, x)[0, 0] == pytest.approx(
            expect, abs=1e-12)

    def test_bayes_accuracy_beats_chance(self):
        spec = default_spec(seed=9)
        ds = generate(spec, 5000)
        post = true_posterior_rows(spec, ds.inputs)
        acc = np.mean(np.argmax(post, axis=1) == np.argmax(ds.labels, axis=1))
        assert acc > 0.8

    def test_holds_one_block_of_differences(self):
        spec = default_spec(seed=3)
        x = derive_rng(0, "posterior-test").standard_normal((50_000, 30))
        tracemalloc.start()
        try:
            got = true_posterior_rows(spec, x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the whole (N, C, d) difference array would take 36 MB
        block = data._BLOCK_ROWS * 3 * 30 * 8
        assert peak <= block + 4 * got.nbytes
        sq = np.sum((x[:, None, :] - spec.means[None, :, :]) ** 2, axis=-1)
        expect = softmax_rows(-sq / (2.0 * spec.sigma ** 2))
        assert got.tobytes() == expect.tobytes()


class TestStreamedDataset:
    @pytest.mark.parametrize("size", [0, 1, 15, 16, 17])
    def test_generate_data_writes_the_held_bytes(self, tmp_path, monkeypatch,
                                                 size):
        # 16-row blocks: validation and test hold `size` rows, 0, 1 and one
        # block less, exactly and more; train holds two blocks and a row
        monkeypatch.setattr(data, "_BLOCK_ROWS", 16)
        n = 33 + 2 * size
        ratio = [rows / n for rows in (33, size, size)]
        streamed, held = tmp_path / "streamed", tmp_path / "held"
        assert cli.run(["generate-data", "--n", str(n), "--dim", "3",
                        "--seed", "5", "--split", ",".join(map(repr, ratio)),
                        "--out-dir", str(streamed)]) == 0
        spec = default_spec(seed=5, dim=3)
        ds = generate(spec, n, ratio)
        assert ds.split_sizes == {"train": 33, "validation": size,
                                  "test": size}
        assert {p.name for p in streamed.iterdir()} == {
            "spec.json", "train.csv.manifest.json",
            *(f"{name}.{ext}" for name in SPLIT_NAMES for ext in ("csv",
                                                                   "rows"))}
        assert json.loads((streamed / "spec.json").read_text()) == {
            "spec": spec.to_dict(), "split_sizes": ds.split_sizes}
        # each split's CSV, and its copy sealed over its rows and then the
        # CSV's digest, hold generate's rows
        held.mkdir()
        saved = np.column_stack([ds.inputs, np.argmax(ds.labels, axis=1)])
        bounds = np.cumsum([0] + [ds.split_sizes[name] for name in SPLIT_NAMES])
        for name, lo, hi in zip(SPLIT_NAMES, bounds, bounds[1:]):
            write_csv(held / f"{name}.csv", ["x_0", "x_1", "x_2", "label"],
                      [saved[lo:hi]])
            csv = (streamed / f"{name}.csv").read_bytes()
            assert csv == (held / f"{name}.csv").read_bytes()
            rows = saved[lo:hi].tobytes()
            seal = hashlib.sha256(rows + hashlib.sha256(csv).digest())
            assert (streamed / f"{name}.rows").read_bytes() == (
                seal.digest() + rows)
        # both are one (n, d) draw after the labels
        rng = derive_rng(spec.seed, "gaussian-samples")
        y = rng.integers(0, spec.num_classes, size=n)
        x = spec.means[y] + spec.sigma * rng.standard_normal(size=(n, 3))
        assert ds.inputs.tobytes() == x.tobytes()
        copies = b"".join((streamed / f"{name}.rows").read_bytes()[32:]
                          for name in SPLIT_NAMES)
        assert copies == np.column_stack([x, y]).tobytes()

    def test_generate_data_draws_each_row_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(data, "_BLOCK_ROWS", 16)
        drawn = []
        fill = DatasetDraw.fill

        def spy(draw, rows, out):
            drawn.extend(range(rows.start, rows.stop))
            fill(draw, rows, out)
        monkeypatch.setattr(DatasetDraw, "fill", spy)
        assert cli.run(["generate-data", "--n", "100", "--dim", "3",
                        "--split", "0.5,0.25,0.25",
                        "--out-dir", str(tmp_path)]) == 0
        assert drawn == list(range(100))


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = save_drawn(tmp_path, default_spec(seed=11, dim=4), 60,
                        (0.5, 0.25, 0.25))
        again = load_dataset(tmp_path)
        np.testing.assert_allclose(again.inputs, ds.inputs, atol=0)
        np.testing.assert_array_equal(again.labels, ds.labels)
        assert again.split_sizes == ds.split_sizes
        np.testing.assert_array_equal(again.spec.means, ds.spec.means)
        assert again.spec.sigma == ds.spec.sigma

    def test_csv_headers(self, tmp_path):
        save_dataset(DatasetDraw(default_spec(seed=11, dim=3), 30,
                                 (0.5, 0.25, 0.25)), tmp_path)
        first = (tmp_path / "train.csv").read_text().splitlines()[0]
        assert first == "x_0,x_1,x_2,label"

    def test_csv_bytes_match_savetxt(self, tmp_path):
        # blocks written in turn give the bytes of one np.savetxt call on
        # all rows, whatever their lengths; a block may be a list of rows
        special = [[-0.0, 3.0, 1e-300, 1e300], [0.0, -12.0, 0.1, -1e300]]
        table = np.vstack([special,
                           np.random.default_rng(0).normal(size=(2_500, 4))])
        blocks = [table[:0], [], table[:1], table[1:2_501],
                  table[2_501:].tolist()]
        write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"], blocks)
        want = io.StringIO()
        want.write("a,b,c,d\n")
        np.savetxt(want, table, delimiter=",", fmt="%.17g")
        assert (tmp_path / "t.csv").read_text() == want.getvalue()

    @pytest.mark.parametrize("body", ["", "\n"], ids=["header", "blank"])
    def test_header_only_csv_is_empty(self, tmp_path, recwarn, body):
        path = tmp_path / "test.csv"
        path.write_text("x_0,x_1,label\n" + body)
        header, rows = read_csv(path)
        assert header == ["x_0", "x_1", "label"]
        assert rows.shape == (0, 3)
        assert len(recwarn) == 0


class TestSplitSelection:
    def test_specless_class_count_counts_every_split(self, tmp_path):
        # label 2 sits only in test.csv; without a spec it sets C = 3
        ds = generate(default_spec(seed=16, dim=3), 60, (0.5, 0.25, 0.25))
        labels = np.zeros(60)
        labels[45:] = 2
        rows = np.column_stack([ds.inputs, labels])
        for name, lo, hi in zip(SPLIT_NAMES, (0, 30, 45), (30, 45, 60)):
            write_csv(tmp_path / f"{name}.csv", ["x_0", "x_1", "x_2", "label"],
                      [rows[lo:hi]])
        (tmp_path / "spec.json").write_text(json.dumps(
            {"spec": None, "split_sizes": ds.split_sizes}))
        got = load_dataset(tmp_path, None, ("train", "validation"))
        assert got.files == {} and got.labels.shape == (60, 3)


class TestLabeledDataset:
    def test_rejects_inconsistent_sizes(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset(inputs=np.zeros((4, 2)), labels=np.zeros((4, 2)),
                           split_sizes={"train": 3, "validation": 0,
                                        "test": 0})


class TestCheckLabels:
    @pytest.mark.parametrize("labels,num_classes", [
        ([0, 2, 1], 3), ([-0.0, 1.0], 2), ([0, 1e12], None), ([], 3)])
    def test_passes(self, labels, num_classes):
        data.check_labels("f.csv", np.array(labels, dtype=float), num_classes)

    @pytest.mark.parametrize("label,num_classes,rule", [
        (3, 3, "in [0, 3)"), (-1, 3, "in [0, 3)"), (1.5, 3, "in [0, 3)"),
        (math.nan, 3, "in [0, 3)"), (-1, None, ">= 0"),
        (1.5, None, ">= 0"), (math.nan, None, ">= 0"),
        (math.inf, None, ">= 0")])
    def test_names_the_source(self, label, num_classes, rule):
        with pytest.raises(SchemaError) as exc:
            data.check_labels("f.csv", np.array([0.0, label]), num_classes)
        assert str(exc.value) == f"f.csv: labels must be integers {rule}"


def spy_on_parsing(monkeypatch) -> list:
    """The paths np.loadtxt parses from now on, in order."""
    parsed = []
    loadtxt = np.loadtxt

    def spy(path, *args, **kwargs):
        parsed.append(Path(path).name)
        return loadtxt(path, *args, **kwargs)
    monkeypatch.setattr(np, "loadtxt", spy)
    return parsed


def assert_same_dataset(a, b):
    assert a.inputs.tobytes() == b.inputs.tobytes()
    assert a.labels.tobytes() == b.labels.tobytes()
    assert a.split_sizes == b.split_sizes


class TestBinaryCopies:
    """The binary copy of each split's rows beside its CSV."""

    @pytest.fixture
    def saved(self, tmp_path):
        return save_drawn(tmp_path, default_spec(seed=13, dim=4), 300,
                          (0.5, 0.25, 0.25)), tmp_path

    def parsed_only(self, in_dir):
        """The dataset as read from its CSVs alone."""
        copies = {p: p.read_bytes() for p in in_dir.glob("*.rows")}
        for p in copies:
            p.unlink()
        try:
            return load_dataset(in_dir)
        finally:
            for p, raw in copies.items():
                p.write_bytes(raw)

    def test_copies_are_read_bit_equal_to_parsing(self, saved, monkeypatch):
        ds, in_dir = saved
        parsed = spy_on_parsing(monkeypatch)
        from_copies = load_dataset(in_dir)
        assert parsed == []
        from_text = self.parsed_only(in_dir)
        assert parsed == ["train.csv", "validation.csv", "test.csv"]
        assert_same_dataset(from_copies, from_text)
        assert from_copies.inputs.tobytes() == ds.inputs.tobytes()

    def test_copy_is_seal_then_raw_rows(self, saved):
        _, in_dir = saved
        _, rows = read_csv(in_dir / "validation.csv")
        csv_digest = hashlib.sha256(
            (in_dir / "validation.csv").read_bytes()).digest()
        seal = hashlib.sha256(rows.astype("<f8").tobytes() + csv_digest)
        assert (in_dir / "validation.rows").read_bytes() == (
            seal.digest() + rows.astype("<f8").tobytes())

    def test_copy_sealed_digest_first_is_parsed(self, saved, monkeypatch):
        # copies whose seal hashes the CSV's digest before the rows, the
        # order an older save_dataset wrote, are refused, rows and all
        _, in_dir = saved
        for name in SPLIT_NAMES:
            csv = in_dir / f"{name}.csv"
            rows = read_csv(csv)[1].astype("<f8").tobytes()
            seal = hashlib.sha256(hashlib.sha256(csv.read_bytes()).digest()
                                  + rows)
            (in_dir / f"{name}.rows").write_bytes(seal.digest() + rows)
        parsed = spy_on_parsing(monkeypatch)
        got = load_dataset(in_dir)
        assert parsed == ["train.csv", "validation.csv", "test.csv"]
        assert_same_dataset(got, self.parsed_only(in_dir))

    def test_copies_need_no_file_digest_from_hashlib(self, saved,
                                                     monkeypatch):
        # hashlib.file_digest is new in Python 3.11; the package runs on 3.10
        _, in_dir = saved
        monkeypatch.delattr(hashlib, "file_digest", raising=False)
        parsed = spy_on_parsing(monkeypatch)
        load_dataset(in_dir)
        assert parsed == []

    def test_edited_csv_is_parsed(self, saved, monkeypatch):
        _, in_dir = saved
        path = in_dir / "train.csv"
        lines = path.read_text().splitlines()
        lines[1] = "12.5" + lines[1][lines[1].index(","):]
        path.write_text("\n".join(lines) + "\n")
        parsed = spy_on_parsing(monkeypatch)
        assert load_dataset(in_dir).inputs[0, 0] == 12.5
        assert parsed == ["train.csv"]

    @pytest.mark.parametrize("damage", [
        "truncated", "garbage", "flipped-byte", "few-columns",
        "other-run", "object-dtype", "nan-cell", "bad-label",
        # copies that pass the size check, then read short or are gone
        "short-read", "vanished"])
    def test_damaged_copy_is_parsed_never_unpickled(self, saved, tmp_path,
                                                    monkeypatch, recwarn,
                                                    damage):
        _, in_dir = saved
        copy = in_dir / "train.rows"
        raw = copy.read_bytes()
        seal, payload = raw[:32], raw[32:]
        _, rows = read_csv(in_dir / "train.csv")

        def flipped():
            damaged = bytearray(payload)
            damaged[len(damaged) // 2] ^= 1
            return seal + bytes(damaged)

        def other_run():
            # a whole copy, seal and rows, from a dataset of the same shape
            other = tmp_path / "other"
            save_dataset(DatasetDraw(default_spec(seed=14, dim=4), 300,
                                     (0.5, 0.25, 0.25)), other)
            return (other / "train.rows").read_bytes()

        def edited(cell, value):
            # rows that fail a check, under the seal of the rows saved
            bad = rows.copy()
            bad[cell] = value
            return seal + bad.astype("<f8").tobytes()

        def npy(array):
            with io.BytesIO() as f:
                np.save(f, array, allow_pickle=True)
                return seal + f.getvalue()
        damaged = {
            "truncated": lambda: raw[:-8],
            "garbage": lambda: seal + b"garbage!" * len(rows),
            "flipped-byte": flipped,
            # one column short, at a size that is a whole number of rows
            "few-columns": lambda: seal + rows[:, :-1].tobytes(),
            "other-run": other_run,
            "object-dtype": lambda: npy(rows.astype(object)),
            "nan-cell": lambda: edited((0, 0), math.nan),
            "bad-label": lambda: edited((0, -1), 7.0),
            "short-read": lambda: raw[:-8],
            "vanished": lambda: None,
        }[damage]()
        assert damaged != raw
        if damaged is None:
            copy.unlink()
        else:
            copy.write_bytes(damaged)
        if damage in ("short-read", "vanished"):
            monkeypatch.setattr(data, "_copy_holds", lambda *args: True)
        unpickled = []

        def no_unpickling(*args, **kwargs):
            unpickled.append(args)
            raise AssertionError("unpickled a copy")
        monkeypatch.setattr(pickle, "load", no_unpickling)
        monkeypatch.setattr(pickle, "loads", no_unpickling)
        parsed = spy_on_parsing(monkeypatch)
        from_copies = load_dataset(in_dir)
        assert unpickled == [] and parsed == ["train.csv"]
        assert len(recwarn) == 0
        assert_same_dataset(from_copies, self.parsed_only(in_dir))

    def test_save_holds_rows_and_a_small_bound(self, tmp_path, monkeypatch):
        # 64-row blocks, so that both sizes span many blocks and tracing
        # every savetxt allocation stays quick
        monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
        block = 64 * 31 * 8
        peaks = []
        for n in (1000, 4000):
            draw = DatasetDraw(default_spec(seed=12), n, (0.05, 0.05, 0.9))
            tracemalloc.start()
            try:
                save_dataset(draw, tmp_path / str(n))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        # the digest of the CSV just written reads it through 1 MiB
        assert max(peaks) <= block + 2 * 2 ** 20
        # the test split grows by 2,700 rows (670 kB); the peak must not
        assert peaks[1] - peaks[0] <= 2 ** 18

    def test_read_holds_no_second_copy(self, tmp_path, monkeypatch):
        ds = save_drawn(tmp_path, default_spec(seed=14), 50_000,
                        (0.05, 0.05, 0.9))
        parsed = spy_on_parsing(monkeypatch)
        tracemalloc.start()
        try:
            got = load_dataset(tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert parsed == [] and got.inputs.tobytes() == ds.inputs.tobytes()
        block = data._BLOCK_ROWS * 31 * 8
        assert peak <= got.inputs.nbytes + got.labels.nbytes + block + 2 ** 20

    @pytest.mark.parametrize("rows,damage", [
        # one block, the last single blocks and the first two-block splits
        # of nn.inference_blocks, and a criterion-7 test split
        (1, None), (8_191, None), (8_192, None), (16_383, None),
        (16_384, None), (90_000, None),
        # two blocks from a copy that is scored, then refused by its seal
        # (the CSV changed), from a copy refused by its size, and from
        # copies that pass the size check, then read short or are gone
        (16_384, "edited-csv"), (16_384, "truncated-copy"),
        (16_384, "short-copy"), (16_384, "vanished-copy")])
    def test_unheld_split_is_scored_as_read(self, tmp_path, monkeypatch,
                                            rows, damage):
        n = rows + 2
        ds = save_drawn(tmp_path, default_spec(seed=15, dim=4), n,
                        (1 / n, 1 / n, rows / n))
        assert ds.split_sizes == {"train": 1, "validation": 1, "test": rows}
        test_csv = tmp_path / "test.csv"
        if damage == "edited-csv":  # the last 100 labels move class
            lines = test_csv.read_text().splitlines()
            lines[-100:] = [f"{line.rsplit(',', 1)[0]},{(int(line[-1]) + 1) % 3}"
                            for line in lines[-100:]]
            test_csv.write_text("\n".join(lines) + "\n")
        elif damage in ("truncated-copy", "short-copy"):
            copy = tmp_path / "test.rows"
            copy.write_bytes(copy.read_bytes()[:-8])
        model = nn.init([4, 8, 3], seed=rows)
        digests = {}
        parsed = spy_on_parsing(monkeypatch)
        held = load_dataset(tmp_path, digests, ("train", "validation"))
        assert set(held.files) == {"test"} and len(held.inputs) == 2
        assert parsed == [] and test_csv not in digests
        with pytest.raises(InvalidInputError, match="left on disk"):
            held.split("test")
        if damage in ("short-copy", "vanished-copy"):
            monkeypatch.setattr(data, "_copy_holds", lambda *args: True)
        if damage == "vanished-copy":
            (tmp_path / "test.rows").unlink()
        [got] = score_split([model], held, "test")
        # a copy whose size does not fit is never hashed
        assert parsed == ([] if damage is None else ["test.csv"])
        assert (test_csv in digests) == (damage != "truncated-copy")
        from_csv = load_dataset(tmp_path)
        assert [got] == score_split([model], from_csv, "test")
        [saved] = score_split([model], ds, "test")
        assert (got == saved) == (damage != "edited-csv")
        # diagnostics too have the bits of the rows the CSV holds, though a
        # copy refused by its seal was scored before the CSV
        assert (score_split([model], held, "test", diagnose=True)
                == score_split([model], from_csv, "test", diagnose=True))

    def test_negative_split_size_fits_no_copy(self, tmp_path):
        # by its size alone an 8-byte copy would hold -1 rows of 3 columns,
        # and a seal alone holds 0 rows
        save_dataset(DatasetDraw(default_spec(dim=2), 30), tmp_path)
        meta = json.loads((tmp_path / "spec.json").read_text())
        meta["split_sizes"] = {"train": -1, "validation": 0, "test": 0}
        (tmp_path / "spec.json").write_text(json.dumps(meta))
        (tmp_path / "train.rows").write_bytes(bytes(8))
        for name in ("validation", "test"):
            (tmp_path / f"{name}.rows").write_bytes(bytes(32))
        with pytest.raises(SchemaError, match="spec.json"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("case,culprit", [
        ("split-sizes", "spec.json"), ("non-finite-cell", "train.csv")])
    def test_checks_hold_on_copies(self, tmp_path, monkeypatch, capsys,
                                   case, culprit):
        data_dir = tmp_path / "data"
        if case == "non-finite-cell":  # the first input drawn is a NaN
            fill = DatasetDraw.fill

            def nan_first(draw, rows, out):
                fill(draw, rows, out)
                if rows.start == 0:
                    out[0, 0] = math.nan
            monkeypatch.setattr(DatasetDraw, "fill", nan_first)
        assert cli.run(["generate-data", "--n", "60", "--dim", "6",
                        "--out-dir", str(data_dir)]) == 0
        if case == "split-sizes":
            meta = json.loads((data_dir / "spec.json").read_text())
            meta["split_sizes"]["train"] += 1
            meta["split_sizes"]["test"] -= 1
            (data_dir / "spec.json").write_text(json.dumps(meta))
        capsys.readouterr()
        parsed = spy_on_parsing(monkeypatch)
        code = cli.run(["train-teacher", "--data-dir", str(data_dir),
                        "--arch", "6,8,3", "--epochs", "1",
                        "--out", str(tmp_path / "t.json")])
        err = capsys.readouterr().err
        # a split whose copy holds another count than spec.json gives is
        # counted from its CSV, and one whose copy fails a check is
        # checked on its CSV
        assert code == 2 and parsed == ["train.csv"]
        assert len(err.splitlines()) == 1 and str(data_dir / culprit) in err
