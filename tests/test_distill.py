from dataclasses import asdict

import numpy as np
import pytest

from ptdistill import nn, selection
from ptdistill.core import InvalidInputError, softmax_rows
from ptdistill.data import GaussianMixtureSpec, generate
from ptdistill.data import true_posterior_rows
from ptdistill.distill import (
    distill_student,
    score_split,
    sweep_proxy_teachers,
    teacher_probs,
    train_teacher,
)
from ptdistill.losses import PerturbationConfig, make_loss
from ptdistill.proxy import solve_proxy_rows
from ptdistill.selection import SearchSpec, risk_gap_terms


@pytest.fixture(scope="module")
def small_setup():
    """A small but learnable mixture with a quickly trained teacher."""
    spec = GaussianMixtureSpec.sample(seed=0, dim=10)
    data = generate(spec, 900, (0.5, 0.25, 0.25))
    tc = nn.TrainConfig(learning_rate=1e-2, epochs=30, seed=0)
    teacher, val_acc = train_teacher(data, [10, 16, 3], tc)
    return spec, data, teacher, val_acc


def quick_tc(seed=1):
    return nn.TrainConfig(learning_rate=5e-3, epochs=10, seed=seed)


class TestTrainTeacher:
    def test_teacher_learns(self, small_setup):
        _, _, _, val_acc = small_setup
        assert val_acc > 0.6

    def test_probs_are_distributions(self, small_setup):
        _, data, teacher, _ = small_setup
        x_val, _ = data.split("validation")
        probs = teacher_probs(teacher, x_val)
        assert np.all(probs >= 0)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_only_the_student_history_is_evaluated(self, small_setup,
                                                   monkeypatch):
        _, data, teacher, _ = small_setup
        evaluated = []
        evaluate = nn.evaluate

        def spy(model, x, *args):
            evaluated.append(len(x))
            return evaluate(model, x, *args)
        monkeypatch.setattr(nn, "evaluate", spy)
        train_teacher(data, [10, 16, 3], quick_tc())
        assert evaluated == []
        report = distill_student(teacher, data, "kl", quick_tc())
        assert evaluated == [450] * 10
        # the history nn.train records after each epoch
        x_train, _ = data.split("train")
        _, history = nn.train(nn.init(teacher.layer_dims, 1), x_train,
                              teacher_probs(teacher, x_train),
                              make_loss("kl"), quick_tc())
        assert report.student_history == history

    @pytest.mark.parametrize("split", ["validation", "test"])
    def test_diagnostics_run_the_network_once(self, small_setup, monkeypatch,
                                              split):
        spec, data, teacher, _ = small_setup
        forwarded = []
        forward_rows = nn.forward_rows

        def spy(model, x, *args):
            forwarded.append(len(x))
            return forward_rows(model, x, *args)
        monkeypatch.setattr(nn, "forward_rows", spy)
        [(acc, vs_labels, vs_truth)] = score_split([teacher], data, split,
                                                   diagnose=True)
        assert forwarded == [225]
        monkeypatch.undo()
        # the bits of a pass without diagnostics, and of one forward_rows
        # call on the whole split
        x, y = data.split(split)
        logits = nn.forward_rows(teacher, x)
        probs = softmax_rows(logits)
        assert [acc] == score_split([teacher], data, split)
        assert acc == np.mean(np.argmax(logits, axis=1) == np.argmax(y, axis=1))
        assert vs_labels == risk_gap_terms(probs, y)
        assert vs_truth == risk_gap_terms(probs, true_posterior_rows(spec, x))

    def test_empty_train_split_rejected(self):
        spec = GaussianMixtureSpec.sample(seed=0, dim=3)
        data = generate(spec, 100, (0.0, 0.5, 0.5))
        with pytest.raises(InvalidInputError):
            train_teacher(data, [3, 4, 3], quick_tc())


class TestDistillStudent:
    @pytest.mark.parametrize("method,params", [
        ("kl", None),
        ("onehot", None),
        ("temperature", {"tau": 4.0}),
        ("label_smoothing", {"delta": 0.1}),
        ("focal", {"gamma": 2.0}),
    ])
    def test_methods_produce_reports(self, small_setup, method, params):
        _, data, teacher, _ = small_setup
        report = distill_student(teacher, data, method, quick_tc(), params)
        assert report.method == method
        assert 0.0 <= report.student_test_accuracy <= 1.0
        assert report.teacher_vs_truth is not None
        assert len(report.student_history) == 10
        d = asdict(report)
        assert d["seeds"]["student_init"] == 1
        assert d["student_history"] == report.student_history

    def test_pt_with_fixed_config(self, small_setup):
        _, data, teacher, _ = small_setup
        cfg = PerturbationConfig.tied([1.0], 3)
        report = distill_student(teacher, data, "pt", quick_tc(),
                                 {"cfg": cfg})
        assert report.chosen_config["order"] == 1
        assert report.chosen_config["coefficients"] == cfg.coefficients.tolist()
        assert "cfg" not in report.chosen_config

    def test_pt_with_search(self, small_setup):
        _, data, teacher, _ = small_setup
        spec = SearchSpec(max_order=1, trials_per_order=3, seed=0)
        report = distill_student(teacher, data, "pt", quick_tc(),
                                 search_spec=spec)
        assert "search_score" in report.chosen_config
        assert report.seeds["search"] == 0
        total = report.chosen_config["search_score"]["total"]
        assert total >= 0.0

    def test_search_goes_through_the_selection_module(self, small_setup,
                                                      monkeypatch):
        # a wrapper set on selection.run_search, as a tracer sets one, must
        # see the search that distill_student runs
        _, data, teacher, _ = small_setup
        calls = []
        run_search = selection.run_search

        def counted(*args, **kwargs):
            calls.append(args)
            return run_search(*args, **kwargs)
        monkeypatch.setattr(selection, "run_search", counted)
        spec = SearchSpec(max_order=1, trials_per_order=2, seed=0)
        distill_student(teacher, data, "pt", quick_tc(), search_spec=spec)
        assert len(calls) == 1

    def test_pt_without_config_or_search(self, small_setup):
        _, data, teacher, _ = small_setup
        with pytest.raises(InvalidInputError):
            distill_student(teacher, data, "pt", quick_tc())

    def test_unknown_method(self, small_setup):
        _, data, teacher, _ = small_setup
        with pytest.raises(InvalidInputError):
            distill_student(teacher, data, "banana", quick_tc())

    def test_deterministic(self, small_setup):
        _, data, teacher, _ = small_setup
        a = distill_student(teacher, data, "kl", quick_tc(seed=5))
        b = distill_student(teacher, data, "kl", quick_tc(seed=5))
        assert a.student_test_accuracy == b.student_test_accuracy
        assert a.student_history == b.student_history

    def test_kl_student_tracks_teacher(self, small_setup):
        # the student should land within a few points of its teacher
        _, data, teacher, _ = small_setup
        report = distill_student(
            teacher, data, "kl", nn.TrainConfig(learning_rate=5e-3,
                                                epochs=30, seed=2))
        [teacher_acc] = score_split([teacher], data, "test")
        assert report.student_test_accuracy >= teacher_acc - 0.1


class TestStudentLearnsTheProxy:
    def test_fitted_student_is_the_proxy_teacher(self):
        """A student trained to convergence on the PT loss outputs the proxy
        teacher q*, not the teacher t: its gap to q* is a tenth of q*'s
        distance from t at most. (An untied draw converged too slowly at
        this budget, so the coefficients are tied.)"""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 8))
        teacher = rng.dirichlet(np.ones(3), size=32)
        cfg = PerturbationConfig.tied([1.5, 0.5], 3)
        proxies, converged = solve_proxy_rows(teacher, cfg)
        assert converged.all()
        tc = nn.TrainConfig(learning_rate=0.05, batch_size=32, epochs=4000,
                            seed=0)
        student, _ = nn.train(nn.init([8, 64, 64, 3], seed=0), x, teacher,
                              make_loss("pt", cfg=cfg), tc,
                              record_history=False)
        fitted = softmax_rows(nn.forward_rows(student, x))
        assert (np.max(np.abs(fitted - proxies))
                <= 0.1 * np.max(np.abs(proxies - teacher)))


class TestSweepProxyTeachers:
    def test_points_align_with_configs(self, small_setup):
        _, data, teacher, _ = small_setup
        configs = [PerturbationConfig.zero(3, 1),
                   PerturbationConfig.tied([1.0], 3),
                   PerturbationConfig.tied([5.0], 3)]
        points = sweep_proxy_teachers(teacher, data, configs, quick_tc())
        assert len(points) == 3
        for p in points:
            assert 0.0 <= p.student_test_accuracy <= 1.0
            assert 0.0 <= p.converged_fraction <= 1.0
            assert p.l2_distance_to_truth >= 0.0
            assert p.tvd_to_truth >= 0.0

    def test_zero_config_reproduces_teacher_distance(self, small_setup):
        spec, data, teacher, _ = small_setup
        from ptdistill.data import true_posterior_rows
        from ptdistill.selection import risk_gap_terms
        x_val, _ = data.split("validation")
        probs = teacher_probs(teacher, x_val)
        expect = risk_gap_terms(probs, true_posterior_rows(spec, x_val))
        points = sweep_proxy_teachers(
            teacher, data,
            [PerturbationConfig.zero(3, 1), PerturbationConfig.tied([1.0], 3)],
            quick_tc())
        assert points[0].l2_distance_to_truth == pytest.approx(
            expect.l2_distance_mean, abs=1e-6)
        assert points[0].tvd_to_truth == pytest.approx(
            expect.tvd_mean, abs=1e-6)

    def test_needs_two_configs(self, small_setup):
        _, data, teacher, _ = small_setup
        with pytest.raises(InvalidInputError):
            sweep_proxy_teachers(teacher, data,
                                 [PerturbationConfig.zero(3)], quick_tc())

    def test_needs_spec(self, small_setup):
        _, data, teacher, _ = small_setup
        from ptdistill.data import LabeledDataset
        bare = LabeledDataset(inputs=data.inputs, labels=data.labels,
                              split_sizes=data.split_sizes, spec=None)
        with pytest.raises(InvalidInputError):
            sweep_proxy_teachers(teacher, bare,
                                 [PerturbationConfig.zero(3, 1),
                                  PerturbationConfig.tied([1.0], 3)],
                                 quick_tc())
