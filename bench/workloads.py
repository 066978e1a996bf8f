"""The benchmark's two workloads, each a closed loop of one operation.

Every workload builds its inputs from the seed alone, runs its timed
operation through ptdistill's public entry points, and checks the outputs
afterwards, outside the timed region.

* ``desk_seed``: one criterion-7 seed through ``ptdistill.cli.run`` in
  process (generate-data, train-teacher, distill kl, distill pt with its
  coefficient search).  CSV I/O, manifests, SGD and the C=3 search all
  block the result.
* ``wide_c``: C = 100 with exact-posterior teacher rows (no training); the
  timed operation is ``selection.run_search`` over orders 1-3, where the
  proxy solver's (N, C, C) arrays dominate time and memory.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ptdistill import cli, nn, selection
from ptdistill.core import softmax_rows
from ptdistill.data import GaussianMixtureSpec, generate, true_posterior_rows
from ptdistill.losses import PerturbationConfig
from ptdistill.proxy import solve_proxy_rows
from ptdistill.selection import SearchSpec, quality_score

from probes import on_simplex

ARCH = "30,128,128,3"
SPLIT = "0.05,0.05,0.9"
WIDE_CLASSES = 100
# Replayed quality scores must match the reported ones to this relative gap.
REPLAY_RTOL = 1e-9


@dataclass(frozen=True)
class Scale:
    rows: int       # dataset rows for desk_seed
    epochs: int     # SGD epochs of desk_seed's teacher and students
    trials: int     # search trials per order in desk_seed
    wide_rows: int  # N in wide_c


_STANDARD = Scale(rows=100_000, epochs=40, trials=60, wide_rows=500)
SCALES = {
    # For the smoke test only.
    "tiny": Scale(rows=3000, epochs=1, trials=2, wide_rows=100),
    # What BENCHMARK.json's command runs.
    "standard": _STANDARD,
    # desk_seed at the ROADMAP baseline: 100 epochs and 3 x 101 candidates;
    # wide_c stays at its standard size.
    "baseline": replace(_STANDARD, epochs=100, trials=100),
}


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return np.eye(num_classes)[labels.astype(int)]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REPLAY_RTOL * max(abs(a), abs(b))


class Workload:
    """One seeded workload: set-up, the timed operation, and its checks."""

    ops_per_rep = 1

    def __init__(self, seed: int, scale: Scale, work_dir: Path):
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        # Quality figures the program reports; 0 where it reports none.
        self.student_acc = 0.0
        self.search_score = 0.0
        self._first = None

    def setup(self):
        raise NotImplementedError

    def run(self, tracer):
        """The timed operation; returns what `check` needs."""
        raise NotImplementedError

    def check(self, output, bad_proxy_calls: int) -> int:
        """Checks one operation's outputs; returns the number of failed ops."""
        raise NotImplementedError

    def _same_as_first(self, summary) -> bool:
        """Every rep of a seed must reproduce the first rep exactly."""
        if self._first is None:
            self._first = summary
        return summary == self._first


class DeskSeed(Workload):
    ops_per_rep = 4

    def setup(self):
        shutil.rmtree(self.work_dir, ignore_errors=True)
        self.work_dir.mkdir(parents=True)

    def _paths(self):
        d = self.work_dir
        return {"data": d / "data", "teacher": d / "teacher.json",
                "kl": d / "kl.json", "pt": d / "pt.json"}

    def run(self, tracer):
        p = {k: str(v) for k, v in self._paths().items()}
        s, e, s_student = str(self.seed), str(self.scale.epochs), str(self.seed + 100)
        student = ["--data-dir", p["data"], "--teacher", p["teacher"],
                   "--epochs", e, "--seed", s_student]
        commands = (
            ("generate_data", ["generate-data", "--n", str(self.scale.rows),
                               "--split", SPLIT, "--seed", s,
                               "--out-dir", p["data"]]),
            ("train_teacher", ["train-teacher", "--data-dir", p["data"],
                               "--arch", ARCH, "--epochs", e, "--seed", s,
                               "--out", p["teacher"]]),
            ("distill_kl", ["distill", *student, "--method", "kl",
                            "--out", p["kl"]]),
            ("distill_pt", ["distill", *student, "--method", "pt",
                            "--max-order", "3", "--trials", str(self.scale.trials),
                            "--search-seed", s, "--out", p["pt"]]),
        )
        return {name: _run_cli(argv, tracer, "cli." + name)
                for name, argv in commands}

    def check(self, codes, bad_proxy_calls):
        p = self._paths()
        failed = {name for name, code in codes.items() if code != 0}
        first_outputs = {"generate_data": p["data"] / "train.csv",
                         "train_teacher": p["teacher"],
                         "distill_kl": p["kl"], "distill_pt": p["pt"]}
        digests = {}
        for name, first in first_outputs.items():
            manifest = first.with_name(first.name + ".manifest.json")
            try:
                outputs = json.loads(manifest.read_text())["outputs"]
                if any(_sha256(path) != digest for path, digest in outputs.items()):
                    failed.add(name)
                digests[name] = outputs
            except (OSError, ValueError, KeyError):
                failed.add(name)
        if bad_proxy_calls:
            failed.add("distill_pt")
        try:
            kl = json.loads(p["kl"].read_text())
            pt = json.loads(p["pt"].read_text())
            search_ok = self._check_search(pt)
        except (OSError, ValueError, KeyError):
            failed.update(("distill_kl", "distill_pt"))
        else:
            if not 0.0 <= kl["student_test_accuracy"] <= 1.0:
                failed.add("distill_kl")
            if not (search_ok and 0.0 <= pt["student_test_accuracy"] <= 1.0):
                failed.add("distill_pt")
            self.student_acc = pt["student_test_accuracy"]
            self.search_score = pt["chosen_config"]["search_score"]["total"]
            summary = (digests, kl["student_test_accuracy"],
                       self.student_acc, self.search_score)
            if not self._same_as_first(summary):
                failed.update(codes)
        return len(failed)

    def _check_search(self, pt_report) -> bool:
        """Winner replays to its score, on the simplex, and beats eps = 0."""
        p = self._paths()
        chosen = pt_report["chosen_config"]
        val = np.loadtxt(p["data"] / "validation.csv", delimiter=",",
                         skiprows=1, ndmin=2)
        teacher = nn.load_model(p["teacher"])
        probs = softmax_rows(nn.forward_rows(teacher, val[:, :-1]))
        labels = _one_hot(val[:, -1], probs.shape[1])
        cfg = PerturbationConfig(order=chosen["order"],
                                 coefficients=np.asarray(chosen["coefficients"]),
                                 tie_classes=chosen["tie_classes"])
        proxies, _ = solve_proxy_rows(probs, cfg)
        baseline, _ = solve_proxy_rows(
            probs, PerturbationConfig.zero(probs.shape[1], cfg.order))
        score = chosen["search_score"]["total"]
        return (on_simplex(proxies)
                and _close(quality_score(proxies, labels).total, score)
                and score <= quality_score(baseline, labels).total)


def _run_cli(argv, tracer, span) -> int:
    """One CLI command in process; its stdout is captured, not printed."""
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            if tracer is None:
                return cli.run(argv)
            return tracer.call(span, cli.run, (argv,), {})
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed run
            traceback.print_exc()
            return -1


class WideC(Workload):
    def setup(self):
        spec = GaussianMixtureSpec.sample(seed=self.seed, num_classes=WIDE_CLASSES)
        data = generate(spec, self.scale.wide_rows, (1.0, 0.0, 0.0))
        self.teacher = true_posterior_rows(spec, data.inputs)
        self.labels = data.labels
        self.spec = SearchSpec(max_order=3, trials_per_order=1, seed=self.seed)
        self._replayed = {}

    def run(self, tracer):
        try:
            return selection.run_search(self.teacher, self.labels, self.spec)
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            return None

    def check(self, trials, bad_proxy_calls):
        kept = [t for t in (trials or []) if not t.discarded]
        if bad_proxy_calls or not kept:
            return 1
        best = min(kept, key=lambda t: t.score.total)
        baseline = next(t for t in trials
                        if t.order == best.order and t.trial == 0)
        key = best.config.coefficients.tobytes()
        if key not in self._replayed:
            proxies, _ = solve_proxy_rows(self.teacher, best.config)
            self._replayed[key] = (on_simplex(proxies),
                                   quality_score(proxies, self.labels).total)
        simplex, replay_score = self._replayed[key]
        self.search_score = best.score.total
        ok = (len(trials) == self.spec.max_order * (self.spec.trials_per_order + 1)
              and simplex and _close(replay_score, best.score.total)
              and best.score.total <= baseline.score.total)
        scores = [None if t.score is None else t.score.total for t in trials]
        return int(not (ok and self._same_as_first(scores)))


WORKLOADS = {"desk_seed": DeskSeed, "wide_c": WideC}
