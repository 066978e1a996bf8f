"""Command-line entry point wiring every module.

Owns the interchange file formats:
  * probability CSV: one row per example, header ``p_0..p_{C-1}``; every
    row finite, in [0, 1], and summing to 1 within ``SIMPLEX_ATOL``
  * label CSV: single ``label`` column of class indices in [0, C)
  * coefficient JSON: ``{"order": M, "tie_classes": bool, "matrix": [[..]]}``,
    or a search-coeffs result, whose ``best`` entry is read

Every command prints a one-line JSON summary. One that writes files also
writes ``<first-output>.manifest.json`` recording the resolved
configuration, seeds, input digests, and output digests, so a run can be
reproduced and checked bit-for-bit.

Exit codes: 0 success, 1 domain error or a size beyond memory (single line
on stderr), 2 usage or file/schema error, or a closed stdout.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, nn
from .core import DomainError, InvalidInputError, SchemaError, on_simplex
from .data import (
    SPLIT_NAMES,
    SPLIT_RATIO,
    DatasetDraw,
    GaussianMixtureSpec,
    dataset_files,
    file_digest,
    json_array,
    json_number,
    load_dataset,
    one_hot,
    read_csv,
    read_json,
    save_dataset,
    write_csv,
)
from .distill import (
    distill_student,
    sweep_proxy_teachers,
    teacher_diagnostics,
    train_teacher,
)
from .equivalence import METHODS, verify_equivalence
from .losses import LOSSES, PARAM_RANGES, PerturbationConfig, loss_class
from .nn import TrainConfig
from .proxy import SolverConfig, _solve_rows
from .selection import SearchSpec, best_trial, run_search


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_probs_csv(path) -> np.ndarray:
    header, rows = read_csv(path)
    if header != [f"p_{i}" for i in range(len(header))]:
        raise SchemaError(f"{path}: expected header p_0..p_{{C-1}}, got {header}")
    if not on_simplex(rows):
        raise SchemaError(f"{path}: rows must be finite, in [0, 1] and sum to 1")
    return rows


def read_labels_csv(path) -> np.ndarray:
    header, rows = read_csv(path)
    if header != ["label"]:
        raise SchemaError(f"{path}: expected header 'label', "
                          f"got {','.join(header)!r}")
    # class indices as written; one_hot checks them against the class count
    return rows[:, 0]


def read_coeffs_json(path) -> PerturbationConfig:
    """A coefficient file, or the ``best`` entry of a search-coeffs result."""
    doc = read_json(path)
    if isinstance(doc, dict) and "best" in doc:
        doc = doc["best"]
    return coeffs_from_dict(doc, path)


def coeffs_to_dict(cfg: PerturbationConfig) -> dict:
    return {"order": cfg.order, "tie_classes": cfg.tie_classes,
            "matrix": cfg.coefficients.tolist()}


def coeffs_from_dict(doc, source) -> PerturbationConfig:
    """Inverse of ``coeffs_to_dict``; ``source`` names the input in errors."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{source}: expected a coefficient object")
    for key in ("order", "tie_classes", "matrix"):
        if key not in doc:
            raise SchemaError(f"{source}: missing key {key!r}")
    if type(doc["tie_classes"]) is not bool:
        raise SchemaError(f"{source}: tie_classes must be a boolean")
    try:
        return PerturbationConfig(
            order=json_number(source, "order", doc["order"]),
            coefficients=json_array(source, "matrix", doc["matrix"], 2),
            tie_classes=doc["tie_classes"])
    except InvalidInputError as exc:  # a wrong width, a NaN, untied rows
        raise SchemaError(f"{source}: {exc}") from None


def write_json(path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def write_manifest(command: str, config: dict, seeds: dict,
                   inputs: list, outputs: list, started: float,
                   digests: dict) -> Path:
    """Write ``<first-output>.manifest.json``; a file's digest is taken
    from ``digests`` (path to SHA-256 digest) when the command computed
    it, else the file is hashed here."""
    inputs = [Path(p) for p in inputs]
    outputs = [Path(p) for p in outputs]
    digests = {p: digests.get(p) or file_digest(p) for p in inputs + outputs}
    doc = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "version": __version__,
        "input_digests": {str(p): digests[p].hex() for p in inputs},
        "outputs": {str(p): digests[p].hex() for p in outputs},
        "duration_seconds": time.time() - started,
    }
    path = outputs[0].with_name(outputs[0].name + ".manifest.json")
    write_json(path, doc)
    return path


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _merge_config(args: argparse.Namespace) -> dict:
    """The command's options: table defaults, then --config values, then flags."""
    options = COMMANDS[args.command][2]
    cfg = {key: default for key, (_, default) in options.items()}
    if args.config:
        doc = read_json(args.config)
        if not isinstance(doc, dict):
            raise SchemaError(f"{args.config}: expected a JSON object of options")
        unknown = set(doc) - set(options)
        if unknown:
            raise SchemaError(f"--config has unknown keys: {sorted(unknown)}")
        for key, value in doc.items():
            cfg[key] = _file_value(args.config, key, options[key][0], value)
    for key in options:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            cfg[key] = value
    missing = [key for key, value in cfg.items() if value is REQUIRED]
    if missing:
        raise SchemaError(f"--{missing[0]} is required")
    for key, value in cfg.items():
        if type(value) is float and not math.isfinite(value):
            raise SchemaError(f"--{key} must be finite, got {value!r}")
    return cfg


def _file_value(source, key: str, kind, value):
    """A --config value, accepted only where the same flag value would be."""
    if kind is float and type(value) is int:
        value = float(value)
    if isinstance(kind, tuple):
        if value not in kind:
            raise SchemaError(f"{source}: {key!r} must be one of "
                              f"{', '.join(kind)}, got {value!r}")
    elif type(value) is not kind:
        raise SchemaError(f"{source}: {key!r} must be of type {kind.__name__}, "
                          f"got {value!r}")
    return value


def _parse_numbers(cfg: dict, key: str, kind=float,
                   count: int | None = None) -> list:
    """Finite comma-separated numbers from option ``key``; ``count``, if
    given, must match."""
    text = cfg[key]
    try:
        parts = [kind(p) for p in text.split(",")]
    except ValueError:
        raise SchemaError(f"--{key}: expected comma-separated numbers, "
                          f"got {text!r}") from None
    if count is not None and len(parts) != count:
        raise SchemaError(f"--{key}: expected {count} comma-separated values, "
                          f"got {text!r}")
    if not all(map(math.isfinite, parts)):
        raise SchemaError(f"--{key}: expected finite numbers, got {text!r}")
    return parts


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(learning_rate=cfg["lr"], batch_size=cfg["batch-size"],
                       epochs=cfg["epochs"], seed=cfg["seed"])


def _search_spec(cfg: dict, seed_key: str) -> SearchSpec:
    return SearchSpec(max_order=cfg["max-order"], trials_per_order=cfg["trials"],
                      coefficient_range=tuple(_parse_numbers(cfg, "range", count=2)),
                      tie_classes=cfg["tie-classes"], seed=cfg[seed_key])


# The splits train-teacher and distill hold in memory
TRAINING_SPLITS = ("train", "validation")


# ---------------------------------------------------------------------------
# Subcommands: each maps its options to (summary, seeds, inputs, outputs),
# and adds the file digests it computes to ``digests`` for the manifest
# ---------------------------------------------------------------------------

def cmd_generate_data(cfg: dict, digests: dict):
    spec = GaussianMixtureSpec.sample(
        seed=cfg["seed"], num_classes=cfg["classes"], dim=cfg["dim"],
        sigma=cfg["sigma"])
    draw = DatasetDraw(spec, cfg["n"], _parse_numbers(cfg, "split", count=3))
    written = save_dataset(draw, cfg["out-dir"], digests)
    summary = {"out_dir": str(cfg["out-dir"]), "split_sizes": draw.split_sizes}
    return summary, {"seed": cfg["seed"]}, [], written


def cmd_train_teacher(cfg: dict, digests: dict):
    ds = load_dataset(cfg["data-dir"], digests, TRAINING_SPLITS)
    tc = _train_config(cfg)
    model, val_acc = train_teacher(ds, _parse_numbers(cfg, "arch", int), tc)
    nn.save_model(model, cfg["out"])
    summary = {"model": str(cfg["out"]), "validation_accuracy": val_acc}
    return (summary, {"seed": tc.seed}, dataset_files(cfg["data-dir"]),
            [cfg["out"]])


def cmd_distill(cfg: dict, digests: dict):
    loss_cls = loss_class(cfg["method"])

    params: dict = {}
    search_spec = None
    if loss_cls.method == "pt":
        if cfg["coeffs"] is not None:
            params["cfg"] = read_coeffs_json(cfg["coeffs"])
        elif cfg["max-order"] is None:
            raise SchemaError("--method pt requires --max-order (or --coeffs)")
        else:
            search_spec = _search_spec(cfg, "search-seed")
    elif loss_cls.param is not None:
        if cfg[loss_cls.param] is None:
            raise SchemaError(f"--method {cfg['method']} requires --{loss_cls.param}")
        params[loss_cls.param] = cfg[loss_cls.param]

    # the student's test accuracy is scored as the test split is read
    ds = load_dataset(cfg["data-dir"], digests, TRAINING_SPLITS)
    teacher = nn.load_model(cfg["teacher"])
    report = distill_student(teacher, ds, loss_cls.method, _train_config(cfg),
                             params=params, search_spec=search_spec)
    doc = asdict(report)
    write_json(cfg["out"], doc)
    return (doc, report.seeds,
            dataset_files(cfg["data-dir"]) + [cfg["teacher"]], [cfg["out"]])


def cmd_search_coeffs(cfg: dict, digests: dict):
    probs = read_probs_csv(cfg["teacher-probs"])
    labels = one_hot(read_labels_csv(cfg["labels"]), probs.shape[1])
    trials = run_search(probs, labels, _search_spec(cfg, "seed"))
    best = best_trial(trials)
    doc = {
        "best": coeffs_to_dict(best.config),
        "score": asdict(best.score),
        "convergence": {
            "candidates": len(trials),
            "discarded": sum(t.discarded for t in trials),
            "best_converged_fraction": best.converged_fraction,
        },
    }
    write_json(cfg["out"], doc)
    return (doc, {"seed": cfg["seed"]}, [cfg["teacher-probs"], cfg["labels"]],
            [cfg["out"]])


def cmd_solve_proxy(cfg: dict, digests: dict):
    probs = read_probs_csv(cfg["teacher-probs"])
    pcfg = read_coeffs_json(cfg["coeffs"])
    solver = SolverConfig(tolerance=cfg["tolerance"],
                          max_iterations=cfg["max-iterations"])
    proxies, norms, iterations, converged = _solve_rows(probs, pcfg, solver)
    header = ([f"p_{i}" for i in range(probs.shape[1])]
              + ["residual_norm", "iterations", "converged"])
    write_csv(cfg["out"], header,
              [np.column_stack([proxies, norms, iterations, converged])])
    summary = {"examples": len(proxies),
               "converged_fraction": float(np.mean(converged))}
    return summary, {}, [cfg["teacher-probs"], cfg["coeffs"]], [cfg["out"]]


def cmd_verify_equivalence(cfg: dict, digests: dict):
    report = verify_equivalence(loss_class(cfg["method"]).method, cfg["param"],
                                cfg["order"], cfg["trials"], cfg["seed"])
    return asdict(report), {}, [], []


def cmd_sweep(cfg: dict, digests: dict):
    doc = read_json(cfg["configs"])
    if not isinstance(doc, list):
        raise SchemaError(f"{cfg['configs']}: expected a JSON list of configs")
    configs = [coeffs_from_dict(d, f"{cfg['configs']}[{i}]")
               for i, d in enumerate(doc)]
    ds = load_dataset(cfg["data-dir"], digests)
    teacher = nn.load_model(cfg["teacher"])
    points = sweep_proxy_teachers(teacher, ds, configs, _train_config(cfg))
    out_doc = [asdict(p) for p in points]
    write_json(cfg["out"], out_doc)
    csv_path = Path(cfg["out"]).with_suffix(".csv")
    rows = [[p.l2_distance_to_truth, p.tvd_to_truth, p.student_test_accuracy]
            for p in points]
    write_csv(csv_path, ["l2_distance_to_truth", "tvd_to_truth",
                         "student_test_accuracy"], [rows])
    inputs = dataset_files(cfg["data-dir"]) + [cfg["teacher"], cfg["configs"]]
    return out_doc, {"seed": cfg["seed"]}, inputs, [cfg["out"], csv_path]


def cmd_eval(cfg: dict, digests: dict):
    ds = load_dataset(cfg["data-dir"], digests)
    acc, vs_labels, vs_truth = teacher_diagnostics(
        nn.load_model(cfg["model"]), ds, cfg["split"])
    doc = {"split": cfg["split"], "accuracy": acc,
           "vs_labels": asdict(vs_labels)}
    if vs_truth is not None:
        doc["vs_truth"] = asdict(vs_truth)
    return doc, {}, [], []


# ---------------------------------------------------------------------------
# Command table: the one declaration of every command and option
# ---------------------------------------------------------------------------

# Each option maps to (kind, default); a default the library holds is read
# from its owner. A kind is a type (int, float, str, or bool for a switch) or
# a tuple of choices. Options keep their order in --help and in a manifest.
REQUIRED = object()  # the default of an option that must be given
TRAINING = {"lr": (float, TrainConfig.learning_rate),
            "batch-size": (int, TrainConfig.batch_size),
            "epochs": (int, TrainConfig.epochs), "seed": (int, TrainConfig.seed)}
SEARCH = {"trials": (int, SearchSpec.trials_per_order),
          "range": (str, "%g,%g" % SearchSpec.coefficient_range),
          "tie-classes": (bool, SearchSpec.tie_classes)}

COMMANDS = {
    "generate-data": (cmd_generate_data, "sample a Gaussian-mixture dataset", {
        "classes": (int, GaussianMixtureSpec.num_classes),
        "dim": (int, GaussianMixtureSpec.dim),
        "sigma": (float, GaussianMixtureSpec.sigma), "n": (int, 10000),
        "split": (str, "%g,%g,%g" % SPLIT_RATIO),
        "seed": (int, GaussianMixtureSpec.seed), "out-dir": (str, REQUIRED)}),
    "train-teacher": (cmd_train_teacher, "train the cross-entropy teacher", {
        "data-dir": (str, REQUIRED), "arch": (str, "30,128,128,3"),
        **TRAINING, "out": (str, REQUIRED)}),
    "distill": (cmd_distill, "distill a student under a chosen loss", {
        "data-dir": (str, REQUIRED), "teacher": (str, REQUIRED),
        "method": (tuple(LOSSES), REQUIRED),
        **TRAINING, "out": (str, REQUIRED), "max-order": (int, None),
        **SEARCH, "search-seed": (int, SearchSpec.seed),
        **{name: (float, None) for name in PARAM_RANGES},
        "coeffs": (str, None)}),
    "search-coeffs": (cmd_search_coeffs,
                      "random search for perturbation coefficients", {
        "teacher-probs": (str, REQUIRED), "labels": (str, REQUIRED),
        "max-order": (int, SearchSpec.max_order), **SEARCH,
        "seed": (int, SearchSpec.seed), "out": (str, REQUIRED)}),
    "solve-proxy": (cmd_solve_proxy, "solve proxy-teacher distributions", {
        "teacher-probs": (str, REQUIRED), "coeffs": (str, REQUIRED),
        "out": (str, REQUIRED), "tolerance": (float, SolverConfig.tolerance),
        "max-iterations": (int, SolverConfig.max_iterations)}),
    "verify-equivalence": (cmd_verify_equivalence,
                           "check a loss-equivalence claim", {
        "method": (tuple(name for name, cls in LOSSES.items()
                         if cls.method in METHODS), REQUIRED),
        "param": (float, REQUIRED), "order": (int, 200), "trials": (int, 100),
        "seed": (int, 0)}),
    "sweep": (cmd_sweep, "sweep proxy-teacher configurations", {
        "data-dir": (str, REQUIRED), "teacher": (str, REQUIRED),
        "configs": (str, REQUIRED), **TRAINING, "out": (str, REQUIRED)}),
    "eval": (cmd_eval, "evaluate a saved model on a dataset split", {
        "data-dir": (str, REQUIRED), "model": (str, REQUIRED),
        "split": (SPLIT_NAMES, "test")}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdistill",
        description="Perturbed distillation loss, proxy-teacher solver, and "
                    "coefficient search on synthetic Gaussian data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON file of defaults; flags override")
        for key, (kind, _) in options.items():
            if kind is bool:
                p.add_argument(f"--{key}", action="store_const", const=True)
            elif isinstance(kind, tuple):
                p.add_argument(f"--{key}", choices=kind)
            else:
                p.add_argument(f"--{key}", type=kind)
    return parser


def run(argv=None) -> int:
    """Run one command; write its manifest, then print its summary."""
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        # a floating-point event surfaces as one of the errors below, if at
        # all, not as numpy warnings ahead of the error line
        with np.errstate(all="ignore"):
            cfg = _merge_config(args)
            digests: dict = {}
            summary, seeds, inputs, outputs = COMMANDS[args.command][0](
                cfg, digests)
            if outputs:
                write_manifest(args.command, cfg, seeds, inputs, outputs,
                               started, digests)
    except (SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, MemoryError) as exc:  # MemoryError: a size too large
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
    except BrokenPipeError as exc:
        # Python flushes stdout again at exit; that flush goes nowhere now
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
