"""End-to-end pipelines: teacher training, distillation, and sweeps.

The student never sees training labels: teacher outputs are computed once
over the train-split inputs and frozen as distillation targets. For the
perturbed loss the coefficient search runs on the validation split first.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import nn, selection
from .core import InvalidInputError, softmax_rows
from .data import SPLIT_NAMES, LabeledDataset, true_posterior_rows
from .losses import PerturbationConfig, loss_class, make_loss
from .nn import MlpModel, TrainConfig
from .proxy import solve_proxy_rows
from .selection import RiskGapTerms, SearchSpec, risk_gap_terms


@dataclass(frozen=True)
class DistillationReport:
    method: str
    student_test_accuracy: float
    teacher_vs_truth: RiskGapTerms | None
    teacher_vs_labels: RiskGapTerms
    chosen_config: dict
    seeds: dict
    teacher_validation_accuracy: float
    student_history: list = field(default_factory=list)


def teacher_probs(model: MlpModel, inputs: np.ndarray) -> np.ndarray:
    return softmax_rows(nn.forward_rows(model, inputs))


def _check_outputs(model: MlpModel, data: LabeledDataset, role: str) -> None:
    """Raise unless the model has one output per class of the dataset."""
    outputs, classes = model.layer_dims[-1], data.labels.shape[1]
    if outputs != classes:
        raise InvalidInputError(f"the {role} has {outputs} outputs but the "
                                f"dataset has {classes} classes")


def train_teacher(data: LabeledDataset, arch, tc: TrainConfig):
    """One-hot cross-entropy teacher; returns (model, validation accuracy).

    The accuracy is None when the validation split is empty.
    """
    x_train, y_train = data.split("train")
    # init validates the dims; the output check runs before any training
    model = nn.init(arch, tc.seed)
    _check_outputs(model, data, "teacher architecture")
    model, _ = nn.train(model, x_train, y_train, make_loss("cross_entropy"), tc,
                        record_history=False)
    if not data.split_sizes["validation"]:
        return model, None
    return model, nn.accuracy(model, *data.split("validation"))


def split_accuracy(model: MlpModel, data: LabeledDataset, name: str) -> float:
    """The model's argmax accuracy on one named split: the held rows, or
    a split ``load_dataset`` left on disk, scored as it is read."""
    if name in data.files:
        split = data.files[name]
        return nn.block_accuracy(model, split.rows, split.read)
    return nn.accuracy(model, *data.split(name))


def teacher_diagnostics(teacher: MlpModel, data: LabeledDataset, split: str):
    """(accuracy, risk-gap terms vs labels, vs truth or None) on one split."""
    x, y = data.split(split)
    # one forward pass for both; the accuracy has nn.accuracy's bits, as
    # forward_rows runs the same blocks
    logits = nn.forward_rows(teacher, x)
    probs = softmax_rows(logits)
    acc = np.count_nonzero(np.argmax(logits, axis=1) == np.argmax(y, axis=1))
    vs_truth = None
    if data.spec is not None:
        vs_truth = risk_gap_terms(probs, true_posterior_rows(data.spec, x))
    return acc / len(x), risk_gap_terms(probs, y), vs_truth


def _train_student(teacher: MlpModel, data: LabeledDataset, loss,
                   tc: TrainConfig, record_history: bool = True):
    """A student trained on the teacher's train-split targets for ``loss``,
    and its history (see ``nn.train``)."""
    x_train, y_train = data.split("train")
    if loss.targets == "labels":
        targets = y_train
    elif loss.targets == "logits":
        targets = nn.forward_rows(teacher, x_train)
    else:
        targets = teacher_probs(teacher, x_train)
    student = nn.init(teacher.layer_dims, tc.seed)
    return nn.train(student, x_train, targets, loss, tc, record_history)


def distill_student(teacher: MlpModel, data: LabeledDataset, method: str,
                    tc: TrainConfig, params: dict | None = None,
                    search_spec: SearchSpec | None = None) -> DistillationReport:
    """Distill one student under the chosen loss and report diagnostics.

    ``method`` is a name or alias in ``losses.LOSSES``; the report carries
    its method name (kl / pt / temperature / label_smoothing / focal /
    onehot). For pt the coefficient search runs on the validation split and
    the winning configuration lands in ``chosen_config``.
    """
    params = dict(params or {})
    method = loss_class(method).method
    # every split is needed; an empty one fails before any training
    for name in SPLIT_NAMES:
        data.rows(name)
    x_val, y_val = data.split("validation")
    _check_outputs(teacher, data, "teacher")
    chosen: dict = {"method": method, **params}
    if method == "pt":
        cfg = chosen.pop("cfg", None)
        if cfg is None:
            if search_spec is None:
                raise InvalidInputError(
                    "method 'pt' needs either a fixed cfg or a SearchSpec"
                )
            # through the module object, like nn's functions, so a wrapper
            # set on selection.run_search sees this search too
            best = selection.best_trial(selection.run_search(
                teacher_probs(teacher, x_val), y_val, search_spec))
            cfg = best.config
            chosen["search_score"] = asdict(best.score)
        chosen.update(order=cfg.order, coefficients=cfg.coefficients.tolist(),
                      tie_classes=cfg.tie_classes)
        params["cfg"] = cfg
    loss = make_loss(method, **params)
    student, history = _train_student(teacher, data, loss, tc)

    test_acc = split_accuracy(student, data, "test")
    teacher_val_acc, vs_labels, vs_truth = teacher_diagnostics(
        teacher, data, "validation")
    seeds = {
        "teacher_init": teacher.seed,
        "student_init": tc.seed,
        "train": tc.seed,
        "data": data.spec.seed if data.spec else None,
    }
    if search_spec is not None:
        seeds["search"] = search_spec.seed
    return DistillationReport(
        method=method,
        student_test_accuracy=test_acc,
        teacher_vs_truth=vs_truth,
        teacher_vs_labels=vs_labels,
        chosen_config=chosen,
        seeds=seeds,
        teacher_validation_accuracy=teacher_val_acc,
        student_history=history,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One proxy-teacher configuration paired with its distilled student."""

    l2_distance_to_truth: float
    tvd_to_truth: float
    student_test_accuracy: float
    converged_fraction: float


def sweep_proxy_teachers(teacher: MlpModel, data: LabeledDataset,
                         configs: list[PerturbationConfig],
                         tc: TrainConfig) -> list[SweepPoint]:
    """Pair each configuration's proxy-to-truth distance with student accuracy.

    Distances are measured on the validation split against the closed-form
    posterior; ordering of the input configurations is preserved.
    """
    if len(configs) < 2:
        raise InvalidInputError("need at least 2 configurations to sweep")
    if data.spec is None:
        raise InvalidInputError("sweep needs a dataset with a generating spec")
    x_val, _ = data.split("validation")
    _check_outputs(teacher, data, "teacher")
    probs_val = teacher_probs(teacher, x_val)
    truth = true_posterior_rows(data.spec, x_val)
    data.rows("test")

    points = []
    for cfg in configs:
        proxies, converged = solve_proxy_rows(probs_val, cfg)
        terms = risk_gap_terms(proxies, truth)
        student, _ = _train_student(teacher, data, make_loss("pt", cfg=cfg), tc,
                                    record_history=False)
        points.append(SweepPoint(
            l2_distance_to_truth=terms.l2_distance_mean,
            tvd_to_truth=terms.tvd_mean,
            student_test_accuracy=split_accuracy(student, data, "test"),
            converged_fraction=float(np.mean(converged)),
        ))
    return points
