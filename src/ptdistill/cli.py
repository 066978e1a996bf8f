"""Command-line entry point wiring every module.

Owns the interchange file formats:
  * probability CSV: one row per example, header ``p_0..p_{C-1}``; every
    row finite, in [0, 1], and summing to 1 within ``SIMPLEX_ATOL``
  * label CSV: single ``label`` column of class indices in [0, C)
  * coefficient JSON: ``{"order": M, "tie_classes": bool, "matrix": [[..]]}``

Every command that writes files also writes a ``<name>.manifest.json``
recording the resolved configuration, seeds, input digests, and output
digests, so a run can be reproduced and checked bit-for-bit.

Exit codes: 0 success, 1 domain error (single line on stderr), 2 usage or
file/schema error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, nn
from .core import (
    SIMPLEX_ATOL,
    ConfigurationError,
    InvalidInputError,
    SchemaError,
    SearchFailureError,
    SolverDivergenceError,
    TrainingDivergenceError,
)
from .data import (
    GaussianMixtureSpec,
    csv_rows,
    generate,
    load_dataset,
    one_hot,
    save_dataset,
    true_posterior_rows,
)
from .distill import (
    distill_student,
    sweep_proxy_teachers,
    teacher_probs,
    train_teacher,
)
from .equivalence import verify_equivalence
from .losses import PerturbationConfig, loss_class
from .nn import TrainConfig
from .proxy import SolverConfig, _solve_rows
from .selection import SearchSpec, best_trial, risk_gap_terms, run_search

DOMAIN_ERRORS = (InvalidInputError, ConfigurationError, SearchFailureError,
                 SolverDivergenceError, TrainingDivergenceError)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def read_probs_csv(path) -> np.ndarray:
    path = Path(path)
    with open(path) as f:
        header = f.readline().strip().split(",")
    if not header or not all(h == f"p_{i}" for i, h in enumerate(header)):
        raise SchemaError(f"{path}: expected header p_0..p_{{C-1}}, got {header}")
    rows = csv_rows(path, ndmin=2)
    if rows.shape[1] != len(header):
        raise SchemaError(f"{path}: row width does not match header")
    if not (np.all(np.isfinite(rows)) and np.all((rows >= 0.0) & (rows <= 1.0))):
        raise SchemaError(f"{path}: probabilities must be finite and in [0, 1]")
    if np.any(np.abs(rows.sum(axis=1) - 1.0) > SIMPLEX_ATOL):
        raise SchemaError(f"{path}: every row must sum to 1")
    return rows


def write_probs_csv(path, rows: np.ndarray) -> None:
    rows = np.atleast_2d(rows)
    header = ",".join(f"p_{i}" for i in range(rows.shape[1]))
    np.savetxt(path, rows, delimiter=",", header=header, comments="",
               fmt="%.17g")


def read_labels_csv(path) -> np.ndarray:
    path = Path(path)
    with open(path) as f:
        header = f.readline().strip()
    if header != "label":
        raise SchemaError(f"{path}: expected header 'label', got {header!r}")
    # class indices as written; one_hot checks them against the class count
    return csv_rows(path, ndmin=1)


def read_coeffs_json(path) -> PerturbationConfig:
    path = Path(path)
    with open(path) as f:
        return coeffs_from_dict(json.load(f), path)


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
    try:
        order = int(doc["order"])
        matrix = np.asarray(doc["matrix"], dtype=float)
    except (TypeError, ValueError):
        raise SchemaError(f"{source}: order must be an integer and matrix "
                          f"a numeric C x M array") from None
    return PerturbationConfig(order=order, coefficients=matrix,
                              tie_classes=bool(doc["tie_classes"]))


def write_json(path, doc) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------

def _digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(command: str, config: dict, seeds: dict,
                   inputs: list, outputs: list, started: float) -> Path:
    outputs = [Path(p) for p in outputs]
    doc = {
        "command": command,
        "config": config,
        "seeds": seeds,
        "version": __version__,
        "input_digests": {str(p): _digest(p) for p in map(Path, inputs)},
        "outputs": {str(p): _digest(p) for p in outputs},
        "duration_seconds": time.time() - started,
    }
    path = outputs[0].with_name(outputs[0].name + ".manifest.json")
    write_json(path, doc)
    return path


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """Flags override --config file values, which override built-in defaults."""
    merged = dict(defaults)
    if getattr(args, "config", None):
        with open(args.config) as f:
            file_values = json.load(f)
        unknown = set(file_values) - set(defaults)
        if unknown:
            raise SchemaError(f"--config has unknown keys: {sorted(unknown)}")
        merged.update(file_values)
    for key in defaults:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            merged[key] = value
    return merged


def _parse_numbers(text: str, kind=float, count: int | None = None) -> list:
    """Comma-separated numbers from a flag; ``count``, if given, must match."""
    try:
        parts = [kind(p) for p in text.split(",")]
    except ValueError:
        raise SchemaError(f"expected comma-separated numbers, got {text!r}") from None
    if count is not None and len(parts) != count:
        raise SchemaError(f"expected {count} comma-separated values, got {text!r}")
    return parts


def _train_config(cfg: dict, seed_key: str = "seed") -> TrainConfig:
    return TrainConfig(learning_rate=cfg["lr"], batch_size=cfg["batch-size"],
                       epochs=cfg["epochs"], seed=int(cfg[seed_key]))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_generate_data(args) -> int:
    started = time.time()
    cfg = _merge_config(args, {
        "classes": 3, "dim": 30, "sigma": 2.0, "n": 10000,
        "split": "0.9,0.05,0.05", "seed": 0, "out-dir": None,
    })
    if cfg["out-dir"] is None:
        raise SchemaError("--out-dir is required")
    spec = GaussianMixtureSpec.sample(seed=int(cfg["seed"]),
                                     num_classes=int(cfg["classes"]),
                                     dim=int(cfg["dim"]),
                                     sigma=float(cfg["sigma"]))
    ds = generate(spec, int(cfg["n"]), _parse_numbers(cfg["split"], count=3))
    written = save_dataset(ds, cfg["out-dir"])
    write_manifest("generate-data", cfg, {"seed": int(cfg["seed"])},
                   [], written, started)
    print(json.dumps({"out_dir": str(cfg["out-dir"]),
                      "split_sizes": ds.split_sizes}))
    return 0


def cmd_train_teacher(args) -> int:
    started = time.time()
    cfg = _merge_config(args, {
        "data-dir": None, "arch": "30,128,128,3", "lr": 5e-4,
        "batch-size": 32, "epochs": 100, "seed": 0, "out": None,
    })
    if cfg["data-dir"] is None or cfg["out"] is None:
        raise SchemaError("--data-dir and --out are required")
    ds = load_dataset(cfg["data-dir"])
    tc = _train_config(cfg)
    model, val_acc = train_teacher(ds, _parse_numbers(cfg["arch"], int), tc)
    nn.save_model(model, cfg["out"])
    inputs = sorted(Path(cfg["data-dir"]).glob("*.csv"))
    write_manifest("train-teacher", cfg, {"seed": tc.seed}, inputs,
                   [cfg["out"]], started)
    print(json.dumps({"model": str(cfg["out"]),
                      "validation_accuracy": val_acc}))
    return 0


def cmd_distill(args, parser: argparse.ArgumentParser) -> int:
    started = time.time()
    cfg = _merge_config(args, {
        "data-dir": None, "teacher": None, "method": None, "lr": 5e-4,
        "batch-size": 32, "epochs": 100, "seed": 0, "out": None,
        "max-order": None, "trials": 100, "range": "-1,10",
        "tie-classes": False, "search-seed": 0, "coeffs": None,
        "tau": None, "delta": None, "gamma": None,
    })
    for flag in ("data-dir", "teacher", "method", "out"):
        if cfg[flag] is None:
            raise SchemaError(f"--{flag} is required")
    loss_cls = loss_class(cfg["method"])

    params: dict = {}
    search_spec = None
    if loss_cls.method == "pt":
        if cfg["coeffs"] is not None:
            params["cfg"] = read_coeffs_json(cfg["coeffs"])
        elif cfg["max-order"] is None:
            parser.error("--method pt requires --max-order (or --coeffs)")
        else:
            search_spec = SearchSpec(
                max_order=int(cfg["max-order"]),
                trials_per_order=int(cfg["trials"]),
                coefficient_range=tuple(_parse_numbers(cfg["range"], count=2)),
                tie_classes=bool(cfg["tie-classes"]),
                seed=int(cfg["search-seed"]),
            )
    elif loss_cls.param is not None:
        if cfg[loss_cls.param] is None:
            parser.error(f"--method {cfg['method']} requires --{loss_cls.param}")
        params[loss_cls.param] = float(cfg[loss_cls.param])

    ds = load_dataset(cfg["data-dir"])
    teacher = nn.load_model(cfg["teacher"])
    tc = _train_config(cfg)
    report = distill_student(teacher, ds, loss_cls.method, tc, params=params,
                             search_spec=search_spec)
    doc = asdict(report)
    write_json(cfg["out"], doc)
    inputs = sorted(Path(cfg["data-dir"]).glob("*.csv")) + [cfg["teacher"]]
    write_manifest("distill", {k: v for k, v in cfg.items() if k != "coeffs"}
                   | {"coeffs": cfg["coeffs"]},
                   report.seeds, inputs, [cfg["out"]], started)
    print(json.dumps(doc))
    return 0


def cmd_search_coeffs(args) -> int:
    started = time.time()
    cfg = _merge_config(args, {
        "teacher-probs": None, "labels": None, "max-order": 3,
        "trials": 100, "range": "-1,10", "tie-classes": False,
        "seed": 0, "out": None,
    })
    for flag in ("teacher-probs", "labels", "out"):
        if cfg[flag] is None:
            raise SchemaError(f"--{flag} is required")
    probs = read_probs_csv(cfg["teacher-probs"])
    labels = one_hot(read_labels_csv(cfg["labels"]), probs.shape[1])
    spec = SearchSpec(max_order=int(cfg["max-order"]),
                      trials_per_order=int(cfg["trials"]),
                      coefficient_range=tuple(_parse_numbers(cfg["range"], count=2)),
                      tie_classes=bool(cfg["tie-classes"]),
                      seed=int(cfg["seed"]))
    trials = run_search(probs, labels, spec)
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
    write_manifest("search-coeffs", cfg, {"seed": int(cfg["seed"])},
                   [cfg["teacher-probs"], cfg["labels"]], [cfg["out"]], started)
    print(json.dumps(doc))
    return 0


def cmd_solve_proxy(args) -> int:
    started = time.time()
    cfg = _merge_config(args, {
        "teacher-probs": None, "coeffs": None, "out": None,
        "tolerance": 1e-8, "max-iterations": 100,
    })
    for flag in ("teacher-probs", "coeffs", "out"):
        if cfg[flag] is None:
            raise SchemaError(f"--{flag} is required")
    probs = read_probs_csv(cfg["teacher-probs"])
    pcfg = read_coeffs_json(cfg["coeffs"])
    solver = SolverConfig(tolerance=float(cfg["tolerance"]),
                          max_iterations=int(cfg["max-iterations"]))
    proxies, norms, iterations, converged = _solve_rows(probs, pcfg, solver)
    c = probs.shape[1]
    header = ",".join([f"p_{i}" for i in range(c)]
                      + ["residual_norm", "iterations", "converged"])
    rows = np.column_stack([proxies, norms, iterations, converged])
    np.savetxt(cfg["out"], rows, delimiter=",", header=header, comments="",
               fmt="%.17g")
    write_manifest("solve-proxy", cfg, {},
                   [cfg["teacher-probs"], cfg["coeffs"]], [cfg["out"]], started)
    print(json.dumps({
        "examples": len(proxies),
        "converged_fraction": float(np.mean(converged)),
    }))
    return 0


def cmd_verify_equivalence(args) -> int:
    cfg = _merge_config(args, {
        "method": None, "param": None, "order": 200, "trials": 100, "seed": 0,
    })
    if cfg["method"] is None or cfg["param"] is None:
        raise SchemaError("--method and --param are required")
    report = verify_equivalence(loss_class(cfg["method"]).method,
                                float(cfg["param"]), int(cfg["order"]),
                                int(cfg["trials"]), int(cfg["seed"]))
    print(json.dumps(asdict(report)))
    return 0


def cmd_sweep(args) -> int:
    started = time.time()
    cfg = _merge_config(args, {
        "data-dir": None, "teacher": None, "configs": None, "lr": 5e-4,
        "batch-size": 32, "epochs": 100, "seed": 0, "out": None,
    })
    for flag in ("data-dir", "teacher", "configs", "out"):
        if cfg[flag] is None:
            raise SchemaError(f"--{flag} is required")
    with open(cfg["configs"]) as f:
        doc = json.load(f)
    if not isinstance(doc, list):
        raise SchemaError(f"{cfg['configs']}: expected a JSON list of configs")
    configs = [coeffs_from_dict(d, f"{cfg['configs']}[{i}]")
               for i, d in enumerate(doc)]
    ds = load_dataset(cfg["data-dir"])
    teacher = nn.load_model(cfg["teacher"])
    tc = _train_config(cfg)
    points = sweep_proxy_teachers(teacher, ds, configs, tc)
    out_doc = [asdict(p) for p in points]
    write_json(cfg["out"], out_doc)
    csv_path = Path(cfg["out"]).with_suffix(".csv")
    np.savetxt(csv_path, np.array([
        [p.l2_distance_to_truth, p.tvd_to_truth, p.student_test_accuracy]
        for p in points]), delimiter=",",
        header="l2_distance_to_truth,tvd_to_truth,student_test_accuracy",
        comments="", fmt="%.17g")
    inputs = sorted(Path(cfg["data-dir"]).glob("*.csv")) + [cfg["teacher"],
                                                            cfg["configs"]]
    write_manifest("sweep", cfg, {"seed": int(cfg["seed"])}, inputs,
                   [cfg["out"], csv_path], started)
    print(json.dumps(out_doc))
    return 0


def cmd_eval(args) -> int:
    cfg = _merge_config(args, {
        "data-dir": None, "model": None, "split": "test",
    })
    if cfg["data-dir"] is None or cfg["model"] is None:
        raise SchemaError("--data-dir and --model are required")
    ds = load_dataset(cfg["data-dir"])
    model = nn.load_model(cfg["model"])
    x, y = ds.split(cfg["split"])
    probs = teacher_probs(model, x)
    acc = float(np.mean(np.argmax(probs, 1) == np.argmax(y, 1)))
    doc = {"split": cfg["split"], "accuracy": acc,
           "vs_labels": asdict(risk_gap_terms(probs, y))}
    if ds.spec is not None:
        doc["vs_truth"] = asdict(
            risk_gap_terms(probs, true_posterior_rows(ds.spec, x)))
    print(json.dumps(doc))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdistill",
        description="Perturbed distillation loss, proxy-teacher solver, and "
                    "coefficient search on synthetic Gaussian data.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON file of defaults; flags override")
        p.set_defaults(func=func)
        return p

    p = add("generate-data", cmd_generate_data,
            help="sample a Gaussian-mixture dataset")
    p.add_argument("--classes", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--sigma", type=float)
    p.add_argument("--n", type=int)
    p.add_argument("--split")
    p.add_argument("--seed", type=int)
    p.add_argument("--out-dir")

    p = add("train-teacher", cmd_train_teacher,
            help="train the cross-entropy teacher")
    p.add_argument("--data-dir")
    p.add_argument("--arch")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("distill", functools.partial(cmd_distill, parser=parser),
            help="distill a student under a chosen loss")
    p.add_argument("--data-dir")
    p.add_argument("--teacher")
    p.add_argument("--method",
                   choices=["kl", "pt", "temp", "temperature", "ls",
                            "label_smoothing", "focal", "onehot"])
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--max-order", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--range")
    p.add_argument("--tie-classes", action="store_const", const=True)
    p.add_argument("--search-seed", type=int)
    p.add_argument("--coeffs")
    p.add_argument("--tau", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--gamma", type=float)

    p = add("search-coeffs", cmd_search_coeffs,
            help="random search for perturbation coefficients")
    p.add_argument("--teacher-probs")
    p.add_argument("--labels")
    p.add_argument("--max-order", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--range")
    p.add_argument("--tie-classes", action="store_const", const=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("solve-proxy", cmd_solve_proxy,
            help="solve proxy-teacher distributions")
    p.add_argument("--teacher-probs")
    p.add_argument("--coeffs")
    p.add_argument("--out")
    p.add_argument("--tolerance", type=float)
    p.add_argument("--max-iterations", type=int)

    p = add("verify-equivalence", cmd_verify_equivalence,
            help="check a loss-equivalence claim")
    p.add_argument("--method", choices=["ls", "label_smoothing", "focal",
                                        "temperature"])
    p.add_argument("--param", type=float)
    p.add_argument("--order", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)

    p = add("sweep", cmd_sweep, help="sweep proxy-teacher configurations")
    p.add_argument("--data-dir")
    p.add_argument("--teacher")
    p.add_argument("--configs")
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = add("eval", cmd_eval, help="evaluate a saved model on a dataset split")
    p.add_argument("--data-dir")
    p.add_argument("--model")
    p.add_argument("--split", choices=["train", "validation", "test"])

    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
