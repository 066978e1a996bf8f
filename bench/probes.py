"""Checks and spans around calls into ptdistill, made from the benchmark's side.

`Probe` replaces functions at the import sites their callers use (for
example ``ptdistill.selection.solve_proxy_rows``) with wrappers:

* The proxy check is always on, traced or not: every proxy array that a
  solve returns must be finite and on the simplex within ``SIMPLEX_ATOL``.
  It costs O(N*C) per call against the solve's O(iterations*N*C^3).
* With a `Tracer` attached, each wrapped call also records a span (name,
  start, end, parent) in memory, plus counts read from its arguments and
  result.  `layer_metrics` turns the spans into the per-layer numbers.

A name that a later version of the package no longer has is skipped, so it
shows up as an absent span (zero time and zero calls), not as a crash.
"""
from __future__ import annotations

import importlib
import math
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from ptdistill.core import SIMPLEX_ATOL

SPAN_NAME, SPAN_START, SPAN_END, SPAN_PARENT, SPAN_ATTRS = range(5)


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.enabled = True

    def call(self, name, fn, args, kwargs, attrs=None):
        if not self.enabled:
            return fn(*args, **kwargs)
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1, None]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec[SPAN_START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[SPAN_END] = perf_counter()
            self._open.pop()
        if attrs is not None:
            rec[SPAN_ATTRS] = attrs(args, kwargs, result)
        return result


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _attrs_solve(args, kwargs, result):
    proxies, converged = result
    rows = int(np.shape(proxies)[0])
    return {"rows": rows, "unconverged": rows - int(np.count_nonzero(converged))}


def _attrs_search(args, kwargs, result):
    return {"candidates": len(result),
            "discarded": sum(bool(t.discarded) for t in result)}


def _attrs_train(args, kwargs, result):
    rows = int(np.shape(_arg(args, kwargs, 1, "inputs"))[0])
    tc = _arg(args, kwargs, 4, "tc")
    return {"samples": rows * tc.epochs,
            "steps": math.ceil(rows / tc.batch_size) * tc.epochs}


def _attrs_save(args, kwargs, result):
    return {"csv_bytes": _file_bytes(p for p in result if Path(p).suffix == ".csv")}


def _attrs_load(args, kwargs, result):
    return {"csv_bytes": _file_bytes(Path(_arg(args, kwargs, 0, "in_dir")).glob("*.csv"))}


def _attrs_manifest(args, kwargs, result):
    inputs = _arg(args, kwargs, 3, "inputs")
    outputs = _arg(args, kwargs, 4, "outputs")
    return {"bytes": _file_bytes(list(inputs) + list(outputs))}


# (module, attribute, span name, attrs).  Modules that import a name with
# ``from x import f`` get their own site; ``nn.train`` is reached through
# the module object everywhere, so one site covers every caller.
SITES = (
    ("ptdistill.selection", "solve_proxy_rows", "proxy.solve", _attrs_solve),
    ("ptdistill.distill", "solve_proxy_rows", "proxy.solve", _attrs_solve),
    ("ptdistill.selection", "run_search", "selection.run_search", _attrs_search),
    ("ptdistill.distill", "search_coefficients", "selection.search_coefficients", None),
    ("ptdistill.nn", "train", "nn.train", _attrs_train),
    ("ptdistill.nn", "accuracy", "nn.eval", None),
    ("ptdistill.distill", "teacher_probs", "nn.eval", None),
    ("ptdistill.cli", "save_dataset", "data.save_dataset", _attrs_save),
    ("ptdistill.cli", "load_dataset", "data.load_dataset", _attrs_load),
    ("ptdistill.cli", "write_manifest", "cli.write_manifest", _attrs_manifest),
    ("ptdistill.cli", "distill_student", "distill.distill_student", None),
)
SOLVE_SITES = [s for s in SITES if s[2] == "proxy.solve"]
LOSS_SPANS = {"pt": "losses.pt", "kl": "losses.kl", "cross_entropy": "losses.ce"}


def on_simplex(rows) -> bool:
    rows = np.asarray(rows)
    return bool(np.all(np.isfinite(rows)) and np.all(rows >= 0.0)
                and np.all(rows <= 1.0)
                and np.all(np.abs(rows.sum(axis=-1) - 1.0) <= SIMPLEX_ATOL))


class Probe:
    """Installs the wrappers; `remove` puts the original functions back."""

    def __init__(self):
        self.bad_proxy_calls = 0
        self._saved: list[tuple] = []

    def _patch(self, module_name, attr, make_wrapper):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            return
        self._saved.append((module, attr, original))
        setattr(module, attr, make_wrapper(original))

    def install_checks(self):
        """The always-on proxy check at every solve site."""
        def checked(solve):
            def wrapper(*args, **kwargs):
                result = solve(*args, **kwargs)
                proxies, _ = result
                if not on_simplex(proxies):
                    self.bad_proxy_calls += 1
                return result
            return wrapper
        for module_name, attr, _, _ in SOLVE_SITES:
            self._patch(module_name, attr, checked)

    def install_spans(self, tracer: Tracer):
        """Span wrappers over every site, outside the proxy check."""
        def spanned(name, attrs):
            def make(fn):
                def wrapper(*args, **kwargs):
                    return tracer.call(name, fn, args, kwargs, attrs)
                return wrapper
            return make
        for module_name, attr, name, attrs in SITES:
            self._patch(module_name, attr, spanned(name, attrs))

        def traced_make_loss(make_loss):
            def wrapper(name, **params):
                loss = make_loss(name, **params)
                inner = loss.values_and_grads
                span = LOSS_SPANS.get(loss.name, "losses." + loss.name)

                def values_and_grads(targets, logits):
                    return tracer.call(span, inner, (targets, logits), {})
                loss.values_and_grads = values_and_grads
                return loss
            return wrapper
        self._patch("ptdistill.distill", "make_loss", traced_make_loss)

    def remove(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

# (name, unit, better); the benchmark's BENCHMARK.json lists the same.
LAYER_METRICS = (
    ("cli.generate_data_s", "s", "lower"),
    ("cli.train_teacher_s", "s", "lower"),
    ("cli.distill_kl_s", "s", "lower"),
    ("cli.distill_pt_s", "s", "lower"),
    ("cli.manifest_s", "s", "lower"),
    ("cli.bytes_hashed", "bytes", "lower"),
    ("data.save_dataset_s", "s", "lower"),
    ("data.load_dataset_s", "s", "lower"),
    ("data.load_calls", "count", "lower"),
    ("data.csv_bytes", "bytes", "lower"),
    ("nn.train_s", "s", "lower"),
    ("nn.train_calls", "count", "lower"),
    ("nn.sgd_steps", "count", "lower"),
    ("nn.step_us", "us", "lower"),
    ("nn.samples_per_s", "1/s", "higher"),
    ("nn.eval_s", "s", "lower"),
    ("losses.pt_s", "s", "lower"),
    ("losses.kl_s", "s", "lower"),
    ("losses.ce_s", "s", "lower"),
    ("losses.calls", "count", "lower"),
    ("proxy.solve_s", "s", "lower"),
    ("proxy.calls", "count", "lower"),
    ("proxy.rows_per_s", "1/s", "higher"),
    ("proxy.solve_ms_p50", "ms", "lower"),
    ("proxy.solve_ms_max", "ms", "lower"),
    ("proxy.unconverged_frac", "ratio", "lower"),
    ("selection.run_search_s", "s", "lower"),
    ("selection.candidates", "count", "higher"),
    ("selection.candidates_per_s", "1/s", "higher"),
    ("selection.discarded_frac", "ratio", "lower"),
    ("selection.self_s", "s", "lower"),
    ("distill.distill_student_s", "s", "lower"),
    ("distill.self_s", "s", "lower"),
    ("distill.student_acc", "ratio", "higher"),
    ("selection.search_score", "score", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], reps: int) -> dict[str, float]:
    """Per-rep sums of each layer's spans, with rates and ratios over all reps.

    A layer the workload never calls reads 0.  The quality numbers and
    ``trace.overhead_s`` are left to the caller, which holds the workload's
    outputs and the untraced timings.
    """
    duration = [s[SPAN_END] - s[SPAN_START] for s in spans]
    child_time = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[SPAN_PARENT] >= 0:
            child_time[s[SPAN_PARENT]] += duration[i]

    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    self_time: dict[str, float] = {}
    counts: dict[str, float] = {}
    solve_ms = []
    for i, s in enumerate(spans):
        name = s[SPAN_NAME]
        total[name] = total.get(name, 0.0) + duration[i]
        calls[name] = calls.get(name, 0) + 1
        self_time[name] = self_time.get(name, 0.0) + duration[i] - child_time[i]
        for key, value in (s[SPAN_ATTRS] or {}).items():
            counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + value
        if name == "proxy.solve":
            solve_ms.append(duration[i] * 1e3)

    def per_rep(value):
        return value / reps

    t, n, c = total.get, calls.get, counts.get
    return {
        "cli.generate_data_s": per_rep(t("cli.generate_data", 0.0)),
        "cli.train_teacher_s": per_rep(t("cli.train_teacher", 0.0)),
        "cli.distill_kl_s": per_rep(t("cli.distill_kl", 0.0)),
        "cli.distill_pt_s": per_rep(t("cli.distill_pt", 0.0)),
        "cli.manifest_s": per_rep(t("cli.write_manifest", 0.0)),
        "cli.bytes_hashed": per_rep(c("cli.write_manifest.bytes", 0)),
        "data.save_dataset_s": per_rep(t("data.save_dataset", 0.0)),
        "data.load_dataset_s": per_rep(t("data.load_dataset", 0.0)),
        "data.load_calls": per_rep(n("data.load_dataset", 0)),
        "data.csv_bytes": per_rep(c("data.save_dataset.csv_bytes", 0)
                                  + c("data.load_dataset.csv_bytes", 0)),
        "nn.train_s": per_rep(t("nn.train", 0.0)),
        "nn.train_calls": per_rep(n("nn.train", 0)),
        "nn.sgd_steps": per_rep(c("nn.train.steps", 0)),
        "nn.step_us": 1e6 * _ratio(t("nn.train", 0.0), c("nn.train.steps", 0)),
        "nn.samples_per_s": _ratio(c("nn.train.samples", 0), t("nn.train", 0.0)),
        "nn.eval_s": per_rep(t("nn.eval", 0.0)),
        "losses.pt_s": per_rep(t("losses.pt", 0.0)),
        "losses.kl_s": per_rep(t("losses.kl", 0.0)),
        "losses.ce_s": per_rep(t("losses.ce", 0.0)),
        "losses.calls": per_rep(sum(n(v, 0) for v in LOSS_SPANS.values())),
        "proxy.solve_s": per_rep(t("proxy.solve", 0.0)),
        "proxy.calls": per_rep(n("proxy.solve", 0)),
        "proxy.rows_per_s": _ratio(c("proxy.solve.rows", 0), t("proxy.solve", 0.0)),
        "proxy.solve_ms_p50": median(solve_ms) if solve_ms else 0.0,
        "proxy.solve_ms_max": max(solve_ms, default=0.0),
        "proxy.unconverged_frac": _ratio(c("proxy.solve.unconverged", 0),
                                         c("proxy.solve.rows", 0)),
        "selection.run_search_s": per_rep(t("selection.run_search", 0.0)),
        "selection.candidates": per_rep(c("selection.run_search.candidates", 0)),
        "selection.candidates_per_s": _ratio(
            c("selection.run_search.candidates", 0), t("selection.run_search", 0.0)),
        "selection.discarded_frac": _ratio(
            c("selection.run_search.discarded", 0),
            c("selection.run_search.candidates", 0)),
        "selection.self_s": per_rep(self_time.get("selection.run_search", 0.0)),
        "distill.distill_student_s": per_rep(t("distill.distill_student", 0.0)),
        "distill.self_s": per_rep(self_time.get("distill.distill_student", 0.0)),
    }
