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
from .data import SPLIT_NAMES, LabeledDataset, one_hot, true_posterior_rows
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
    return model, score_split([model], data, "validation")[0]


def score_split(models: list[MlpModel], data: LabeledDataset, name: str,
                diagnose: bool = False) -> list:
    """Each model's argmax accuracy on one named split, or with ``diagnose``
    its (accuracy, risk-gap terms vs labels, vs truth or None).

    The split, held or a ``SplitFile``, is read one block of
    ``nn.inference_blocks`` at a time, so the logits have the bits of one
    ``forward_rows`` call over the split; nn's "Memory layout" says for
    which nets those are also one full-batch product's. The models share
    one architecture and, unless diagnosing, one set of hidden buffers
    (diagnosing, each block's are freed before the posterior's temporaries
    are made). Only per-row values outlive a block, and each mean is taken
    once over the split.
    """
    n, spec = data.rows(name), data.spec
    for model in models:
        _check_outputs(model, data, "model")
    if name in data.files:
        read = data.files[name].read
    else:
        x, y = data.split(name)
        classes = np.argmax(y, axis=1)

        def read(blocks, fn):
            return [fn(rows, x[rows], classes[rows]) for rows in blocks]
    hidden = None if diagnose else nn.inference_buffers(models[0], n)

    def score(rows, inputs, labels):
        # returned, not kept, as read may score a block again from the CSV
        logits = [nn.forward_rows(model, inputs, hidden) for model in models]
        counts = [np.count_nonzero(np.argmax(z, axis=1) == labels)
                  for z in logits]
        if not diagnose:
            return counts, None, None, None
        truth = None if spec is None else true_posterior_rows(spec, inputs)
        return (counts, one_hot(labels, data.labels.shape[1]), truth,
                [softmax_rows(z) for z in logits])
    counts, labels, truth, probs = zip(*read(nn.inference_blocks(n), score))
    accuracies = [sum(correct) / n for correct in zip(*counts)]
    if not diagnose:
        return accuracies
    labels = np.concatenate(labels)
    truth = None if spec is None else np.concatenate(truth)
    return [(acc, risk_gap_terms(p, labels),
             None if spec is None else risk_gap_terms(p, truth))
            for acc, p in zip(accuracies, map(np.concatenate, zip(*probs)))]


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
        if cfg is not None:  # here, not first inside nn.train
            cfg.check_classes(y_val.shape[1])
        elif search_spec is None:
            raise InvalidInputError(
                "method 'pt' needs either a fixed cfg or a SearchSpec"
            )
        else:
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

    [test_acc] = score_split([student], data, "test")
    [(teacher_val_acc, vs_labels, vs_truth)] = score_split(
        [teacher], data, "validation", diagnose=True)
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
    for cfg in configs:  # before the first student trains
        cfg.check_classes(probs_val.shape[1])

    # the students are scored together, in one pass over the test split
    solved, students = [], []
    for cfg in configs:
        proxies, converged = solve_proxy_rows(probs_val, cfg)
        solved.append((risk_gap_terms(proxies, truth), np.mean(converged)))
        students.append(_train_student(teacher, data, make_loss("pt", cfg=cfg),
                                       tc, record_history=False)[0])
    return [SweepPoint(terms.l2_distance_mean, terms.tvd_mean, acc, float(frac))
            for (terms, frac), acc in zip(solved,
                                          score_split(students, data, "test"))]
