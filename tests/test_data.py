import numpy as np
import pytest

from ptdistill.core import InvalidInputError
from ptdistill.data import (
    GaussianMixtureSpec,
    LabeledDataset,
    _split_counts,
    csv_rows,
    generate,
    load_dataset,
    save_dataset,
    true_posterior_rows,
)


def default_spec(seed=0, **kw):
    return GaussianMixtureSpec.sample(seed=seed, **kw)


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


class TestSerialization:
    def test_round_trip(self, tmp_path):
        ds = generate(default_spec(seed=11, dim=4), 60, (0.5, 0.25, 0.25))
        save_dataset(ds, tmp_path)
        again = load_dataset(tmp_path)
        np.testing.assert_allclose(again.inputs, ds.inputs, atol=0)
        np.testing.assert_array_equal(again.labels, ds.labels)
        assert again.split_sizes == ds.split_sizes
        np.testing.assert_array_equal(again.spec.means, ds.spec.means)
        assert again.spec.sigma == ds.spec.sigma

    def test_csv_headers(self, tmp_path):
        ds = generate(default_spec(seed=11, dim=3), 30, (0.5, 0.25, 0.25))
        save_dataset(ds, tmp_path)
        first = (tmp_path / "train.csv").read_text().splitlines()[0]
        assert first == "x_0,x_1,x_2,label"

    @pytest.mark.parametrize("body", ["", "\n"], ids=["header", "blank"])
    def test_header_only_csv_is_empty(self, tmp_path, recwarn, body):
        path = tmp_path / "test.csv"
        path.write_text("x_0,x_1,label\n" + body)
        assert csv_rows(path, ndmin=2).shape == (0, 3)
        assert csv_rows(path, ndmin=1).shape == (0,)
        assert len(recwarn) == 0


class TestLabeledDataset:
    def test_rejects_inconsistent_sizes(self):
        with pytest.raises(InvalidInputError):
            LabeledDataset(inputs=np.zeros((4, 2)), labels=np.zeros((4, 2)),
                           split_sizes={"train": 3, "validation": 0,
                                        "test": 0})
