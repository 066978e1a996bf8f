import argparse
import hashlib
import inspect
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from ptdistill import cli, data, nn
from ptdistill.core import (
    ConfigurationError,
    DegenerateTeacherError,
    DomainError,
    InvalidInputError,
    ProbVector,
    SchemaError,
    SearchFailureError,
    SolverDivergenceError,
    TrainingDivergenceError,
    softmax_rows,
)
from ptdistill.data import GaussianMixtureSpec, write_csv
from ptdistill.distill import sweep_proxy_teachers
from ptdistill.equivalence import focal_coefficients, ls_coefficients
from ptdistill.losses import LOSSES, PARAM_RANGES, FocalKDLoss, SmoothedKLLoss
from ptdistill.nn import TrainConfig
from ptdistill.proxy import SolverConfig, solve_proxy_rows
from ptdistill.selection import SearchSpec, best_trial, risk_gap_terms, \
    run_search


def write_probs(path, rows):
    write_csv(path, [f"p_{i}" for i in range(rows.shape[1])], [rows])


def reseal(split_csv):
    """Rewrite a split's binary copy to match its CSV as it is now: the
    seal over the rows and the CSV's digest, then the rows."""
    rows = data.read_csv(split_csv)[1].astype("<f8").tobytes()
    seal = hashlib.sha256(rows + hashlib.sha256(split_csv.read_bytes())
                          .digest()).digest()
    split_csv.with_suffix(".rows").write_bytes(seal + rows)


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus a quickly trained teacher on disk."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert cli.run([
        "generate-data", "--classes", "3", "--dim", "6", "--n", "600",
        "--split", "0.5,0.25,0.25", "--seed", "0",
        "--out-dir", str(data_dir),
    ]) == 0
    teacher = root / "teacher.json"
    assert cli.run([
        "train-teacher", "--data-dir", str(data_dir), "--arch", "6,16,3",
        "--lr", "0.01", "--epochs", "10", "--seed", "0",
        "--out", str(teacher),
    ]) == 0
    return root, data_dir, teacher


class TestFileFormats:
    def test_probs_round_trip(self, tmp_path):
        path = tmp_path / "probs.csv"
        rows = np.array([[0.25, 0.75], [0.5, 0.5]])
        write_probs(path, rows)
        np.testing.assert_allclose(cli.read_probs_csv(path), rows, atol=0)

    def test_probs_bad_header(self, tmp_path):
        path = tmp_path / "probs.csv"
        path.write_text("a,b\n0.5,0.5\n")
        with pytest.raises(cli.SchemaError):
            cli.read_probs_csv(path)

    def test_labels_round_trip(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\n0\n2\n1\n")
        np.testing.assert_array_equal(cli.read_labels_csv(path), [0, 2, 1])

    def test_labels_bad_header(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("y\n0\n")
        with pytest.raises(cli.SchemaError):
            cli.read_labels_csv(path)

    def test_coeffs_round_trip(self, tmp_path):
        from ptdistill.losses import PerturbationConfig
        cfg = PerturbationConfig.tied([1.0, -0.5], 3)
        path = tmp_path / "coeffs.json"
        cli.write_json(path, cli.coeffs_to_dict(cfg))
        again = cli.read_coeffs_json(path)
        assert again.order == 2
        np.testing.assert_array_equal(again.coefficients, cfg.coefficients)

    def test_coeffs_missing_key(self, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps({"order": 1, "matrix": [[0.0]]}))
        with pytest.raises(cli.SchemaError):
            cli.read_coeffs_json(path)

    def test_coeffs_ragged_matrix(self, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text(json.dumps(
            {"order": 1, "tie_classes": False, "matrix": [[1.0], [1.0, 2.0]]}))
        with pytest.raises(cli.SchemaError):
            cli.read_coeffs_json(path)

    def test_one_hot(self):
        out = cli.one_hot(np.array([1, 0]), 3)
        np.testing.assert_array_equal(out, [[0, 1, 0], [1, 0, 0]])


class TestGenerateData:
    def test_outputs_and_manifest(self, workspace):
        _, data_dir, _ = workspace
        for name in ("train.csv", "validation.csv", "test.csv", "spec.json",
                     "train.csv.manifest.json"):
            assert (data_dir / name).exists()
        manifest = json.loads((data_dir / "train.csv.manifest.json").read_text())
        assert manifest["command"] == "generate-data"
        assert manifest["seeds"] == {"seed": 0}
        assert str(data_dir / "test.csv") in manifest["outputs"]

    def test_each_split_csv_is_hashed_once(self, tmp_path, monkeypatch):
        hashed = []
        file_digest = data.file_digest

        def spy(path):
            hashed.append(Path(path))
            return file_digest(path)
        monkeypatch.setattr(data, "file_digest", spy)
        monkeypatch.setattr(cli, "file_digest", spy)
        data_dir, teacher = tmp_path / "data", tmp_path / "teacher.json"
        csvs = data.dataset_files(data_dir)[1:]
        # sweep scores its four students in one pass over the test split
        configs = tmp_path / "configs.json"
        configs.write_text(json.dumps([
            {"order": 1, "tie_classes": True, "matrix": [[c]] * 3}
            for c in (0.0, 1.0, 2.0, 5.0)]))
        for argv, manifest in [
                (["generate-data", "--dim", "6", "--n", "600",
                  "--out-dir", str(data_dir)],
                 data_dir / "train.csv.manifest.json"),
                (["train-teacher", "--data-dir", str(data_dir),
                  "--arch", "6,8,3", "--epochs", "1", "--out", str(teacher)],
                 tmp_path / "teacher.json.manifest.json"),
                (["sweep", "--data-dir", str(data_dir), "--teacher",
                  str(teacher), "--configs", str(configs), "--epochs", "1",
                  "--out", str(tmp_path / "sweep.json")],
                 tmp_path / "sweep.json.manifest.json")]:
            hashed.clear()
            assert cli.run(argv) == 0
            assert [hashed.count(path) for path in csvs] == [1, 1, 1]
            doc = json.loads(manifest.read_text())
            files = {**doc["input_digests"], **doc["outputs"]}
            assert {str(path) for path in csvs} <= set(files)
            for path, digest in files.items():
                assert digest == hashlib.sha256(
                    Path(path).read_bytes()).hexdigest()

    def test_peak_grows_by_the_labels_alone(self, tmp_path, monkeypatch,
                                            capsys):
        # 64-row blocks, so that both sizes span many blocks and tracing
        # every savetxt allocation stays quick
        monkeypatch.setattr(data, "_BLOCK_ROWS", 64)
        peaks = []
        for n in (100, 2000, 8000):  # the first run fills lazy caches
            tracemalloc.start()
            try:
                assert cli.run(["generate-data", "--n", str(n),
                                "--out-dir", str(tmp_path / str(n))]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        capsys.readouterr()
        # the labels are drawn in full, 8 bytes a row, and a block of the
        # inputs at a time. The slack covers the class each savetxt call
        # makes, a reference cycle that waits for the collector; the
        # (8000, 30) inputs alone would take 1.9 MB.
        assert peaks[2] - peaks[1] <= 8 * 6000 + 2 ** 19
        # the digest of the CSV just written reads it through 1 MiB
        assert max(peaks[1:]) <= 8 * 8000 + 2 * 2 ** 20

    def test_missing_out_dir_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "generate-data", "--n", "10")
        assert code == 2
        assert "out-dir" in err

    def test_non_numeric_split_is_schema_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "generate-data", "--n", "10",
                               "--split", "0.5,x,0.25",
                               "--out-dir", str(tmp_path / "data"))
        assert code == 2
        assert len(err.splitlines()) == 1 and "0.5,x,0.25" in err
        assert not (tmp_path / "data").exists()


class TestTrainTeacher:
    def test_model_and_stdout(self, workspace, capsys):
        root, data_dir, teacher = workspace
        assert teacher.exists()
        out = root / "teacher2.json"
        code, stdout, _ = run_cli(
            capsys, "train-teacher", "--data-dir", str(data_dir),
            "--arch", "6,16,3", "--lr", "0.01", "--epochs", "2",
            "--seed", "1", "--out", str(out))
        assert code == 0
        doc = json.loads(stdout)
        assert 0.0 <= doc["validation_accuracy"] <= 1.0

    def test_missing_data_dir_is_file_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "train-teacher", "--data-dir", str(tmp_path / "nope"),
            "--out", str(tmp_path / "m.json"))
        assert code == 2
        assert "error" in err

    def test_non_numeric_arch_is_schema_error(self, workspace, capsys,
                                              tmp_path):
        _, data_dir, _ = workspace
        out = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "train-teacher", "--data-dir", str(data_dir),
            "--arch", "30,x,3", "--epochs", "1", "--out", str(out))
        assert code == 2
        assert len(err.splitlines()) == 1 and "30,x,3" in err
        assert not out.exists()

    def test_last_arch_width_is_domain_error(self, workspace, capsys,
                                             tmp_path):
        _, data_dir, _ = workspace
        out = tmp_path / "m.json"
        code, stdout, err = run_cli(
            capsys, "train-teacher", "--data-dir", str(data_dir),
            "--arch", "6,8,4", "--epochs", "1", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == ("error: InvalidInputError: the teacher architecture "
                       "has 4 outputs but the dataset has 3 classes\n")
        assert not out.exists()


    @pytest.mark.parametrize("bad_label,message,spec", [
        pytest.param("-1", "labels", True, id="-1-labels"),
        pytest.param("1.5", "labels", True, id="1.5-labels"),
        pytest.param("7", "labels", True, id="7-labels"),
        pytest.param("abc", "train.csv", True, id="abc-train.csv"),
        # without a spec the class count comes from the labels themselves
        pytest.param("nan", "labels", False, id="nan-labels-no-spec"),
        # a label that would need a (N, 10^12 + 1) one-hot array
        pytest.param("1e12", "train.csv", False, id="1e12-train.csv-no-spec"),
    ])
    def test_bad_dataset_label_is_schema_error(self, workspace, capsys,
                                               tmp_path, bad_label, message,
                                               spec):
        _, data_dir, _ = workspace
        bad_dir = tmp_path / "data"
        shutil.copytree(data_dir, bad_dir)
        if not spec:
            meta = json.loads((bad_dir / "spec.json").read_text())
            (bad_dir / "spec.json").write_text(
                json.dumps(dict(meta, spec=None)))
        train = bad_dir / "train.csv"
        lines = train.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + bad_label
        train.write_text("\n".join(lines) + "\n")
        out = tmp_path / "m.json"
        code, _, err = run_cli(
            capsys, "train-teacher", "--data-dir", str(bad_dir),
            "--arch", "6,16,3", "--epochs", "1", "--out", str(out))
        assert code == 2
        assert len(err.splitlines()) == 1 and message in err
        assert str(train) in err
        assert not out.exists()


# The rows of the wide_test_split dataset held for training (4,000 inputs
# and one-hot labels), and one 4,500-row inference block's hidden layer
TRAINING_ROWS_BYTES = 4_000 * (30 + 3) * 8
HIDDEN_BLOCK_BYTES = 4_500 * 4 * 8
# One 4,500-row block as read from a split's binary copy (30 inputs and the
# label), and the posterior's (rows, classes, dim) squared differences for
# one 4,096-row block
READ_BLOCK_BYTES = 4_500 * 31 * 8
POSTERIOR_BLOCK_BYTES = 4_096 * 3 * 30 * 8


@pytest.fixture(scope="module")
def wide_test_split(tmp_path_factory):
    """40,000 rows split 0.05/0.05/0.9 and a one-epoch 30,4,3 teacher: a
    command that holds only what it computes on scores the 36,000 test
    rows as the eight 4,500-row inference blocks are read."""
    root = tmp_path_factory.mktemp("wide_test_split")
    data_dir, teacher = root / "data", root / "t.json"
    assert cli.run(["generate-data", "--n", "40000", "--split",
                    "0.05,0.05,0.9", "--out-dir", str(data_dir)]) == 0
    assert cli.run(["train-teacher", "--data-dir", str(data_dir),
                    "--arch", "30,4,3", "--epochs", "1",
                    "--out", str(teacher)]) == 0
    return data_dir, teacher


def traced_run(*argv):
    """A command's exit code and the peak of the memory traced while it
    runs."""
    tracemalloc.start()
    try:
        code = cli.run(list(argv))
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDistill:
    def test_kl(self, workspace, capsys, tmp_path):
        _, data_dir, teacher = workspace
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "distill", "--data-dir", str(data_dir),
            "--teacher", str(teacher), "--method", "kl",
            "--lr", "0.01", "--epochs", "3", "--seed", "1",
            "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["method"] == "kl"
        assert (tmp_path / "report.json.manifest.json").exists()

    def test_each_label_is_checked_once(self, workspace, capsys, tmp_path,
                                        monkeypatch):
        # the readers check the labels, and nothing after them again
        _, data_dir, teacher = workspace
        checked = {}
        check = data.check_labels

        def spy(source, labels, num_classes):
            name = Path(source).name
            checked[name] = checked.get(name, 0) + len(labels)
            check(source, labels, num_classes)
        monkeypatch.setattr(data, "check_labels", spy)
        code, _, err = run_cli(
            capsys, "distill", "--data-dir", str(data_dir), "--teacher",
            str(teacher), "--method", "kl", "--epochs", "1",
            "--out", str(tmp_path / "kl.json"))
        assert code == 0, err
        sizes = json.loads((data_dir / "spec.json").read_text())["split_sizes"]
        assert checked == {f"{name}.csv": rows for name, rows in sizes.items()}

    def test_pt_with_coeffs_file(self, workspace, capsys, tmp_path):
        _, data_dir, teacher = workspace
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps(
            {"order": 1, "tie_classes": True, "matrix": [[1.0]] * 3}))
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "distill", "--data-dir", str(data_dir),
            "--teacher", str(teacher), "--method", "pt",
            "--coeffs", str(coeffs), "--lr", "0.01", "--epochs", "3",
            "--seed", "1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["chosen_config"]["order"] == 1

    def test_pt_with_search(self, workspace, capsys, tmp_path):
        _, data_dir, teacher = workspace
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(
            capsys, "distill", "--data-dir", str(data_dir),
            "--teacher", str(teacher), "--method", "pt",
            "--max-order", "1", "--trials", "2", "--lr", "0.01",
            "--epochs", "2", "--seed", "1", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert "search_score" in doc["chosen_config"]

    def test_pt_without_order_is_usage_error(self, workspace, capsys,
                                             tmp_path):
        _, data_dir, teacher = workspace
        code, _, err = run_cli(
            capsys, "distill", "--data-dir", str(data_dir),
            "--teacher", str(teacher), "--method", "pt",
            "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert err == "error: --method pt requires --max-order (or --coeffs)\n"

    def test_manifest_digests_every_dataset_file(self, workspace, capsys,
                                                 tmp_path):
        _, data_dir, teacher = workspace
        out = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys, "distill", "--data-dir", str(data_dir),
            "--teacher", str(teacher), "--method", "kl", "--epochs", "1",
            "--out", str(out))
        assert code == 0
        manifest = json.loads(
            (tmp_path / "report.json.manifest.json").read_text())
        assert set(manifest["input_digests"]) == {
            str(data_dir / name) for name in
            ("spec.json", "train.csv", "validation.csv", "test.csv")
        } | {str(teacher)}

    @pytest.mark.parametrize("method,canonical,param,value", [
        ("temp", "temperature", "tau", 2.5),
        ("ls", "label_smoothing", "delta", 0.1),
        ("focal", "focal", "gamma", 2.0),
    ])
    def test_scalar_param_method(self, workspace, capsys, tmp_path, method,
                                 canonical, param, value):
        _, data_dir, teacher = workspace
        out = tmp_path / "report.json"
        code, _, err = run_cli(
            capsys, "distill", "--data-dir", str(data_dir),
            "--teacher", str(teacher), "--method", method,
            f"--{param}", str(value), "--epochs", "1", "--out", str(out))
        assert code == 0, err
        manifest = json.loads(
            (tmp_path / "report.json.manifest.json").read_text())
        assert manifest["config"][param] == value
        assert json.loads(out.read_text())["chosen_config"] == {
            "method": canonical, param: value}

    def test_temp_requires_tau(self, workspace, capsys, tmp_path):
        _, data_dir, teacher = workspace
        code, _, err = run_cli(
            capsys, "distill", "--data-dir", str(data_dir),
            "--teacher", str(teacher), "--method", "temp",
            "--out", str(tmp_path / "r.json"))
        assert code == 2
        assert err == "error: --method temp requires --tau\n"

    def test_holds_train_and_validation_rows(self, wide_test_split,
                                             tmp_path):
        data_dir, teacher = wide_test_split
        code, peak = traced_run(
            "distill", "--data-dir", str(data_dir), "--teacher", str(teacher),
            "--method", "kl", "--epochs", "1", "--out", str(tmp_path / "r.json"))
        assert code == 0
        # the slack covers the block read from the test split's copy (31
        # columns against the hidden layer's 4), its logits and the
        # student's training buffers; holding the test rows (36,000 x 33
        # x 8 bytes) breaks it, as every split held took 10.3 times the sum
        assert peak <= 4 * (TRAINING_ROWS_BYTES + HIDDEN_BLOCK_BYTES)


def write_search_inputs(tmp_path, labels, probs):
    write_probs(tmp_path / "probs.csv", probs)
    (tmp_path / "labels.csv").write_text(
        "label\n" + "\n".join(map(str, labels)) + "\n")


def search_cli(capsys, tmp_path, *flags):
    out = tmp_path / "best.json"
    code, _, err = run_cli(
        capsys, "search-coeffs", "--teacher-probs", str(tmp_path / "probs.csv"),
        "--labels", str(tmp_path / "labels.csv"), "--out", str(out), *flags)
    return code, err, out


class TestSearchCoeffs:
    def test_end_to_end(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 2, size=30)
        noise = rng.uniform(0.1, 0.3, size=30)
        probs = np.where(labels[:, None] == np.arange(2),
                         1 - noise[:, None], noise[:, None])
        write_search_inputs(tmp_path, labels, probs)
        out = tmp_path / "best.json"
        code, stdout, _ = run_cli(
            capsys, "search-coeffs", "--teacher-probs",
            str(tmp_path / "probs.csv"), "--labels",
            str(tmp_path / "labels.csv"), "--max-order", "1",
            "--trials", "5", "--seed", "0", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["best"]["order"] == 1
        assert doc["score"]["total"] >= 0.0
        assert doc["convergence"]["candidates"] == 6

    def test_same_winner_as_library_search(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=40)
        probs = rng.dirichlet(np.ones(3), size=40)
        write_search_inputs(tmp_path, labels, probs)
        code, _, out = search_cli(capsys, tmp_path, "--max-order", "2",
                                  "--trials", "6", "--seed", "4")
        assert code == 0
        doc = json.loads(out.read_text())
        best = best_trial(run_search(
            cli.read_probs_csv(tmp_path / "probs.csv"), np.eye(3)[labels],
            SearchSpec(max_order=2, trials_per_order=6, seed=4)))
        assert doc["best"] == cli.coeffs_to_dict(best.config)
        assert doc["score"]["total"] == best.score.total

    @pytest.mark.parametrize("bad_label", ["5", "-1", "1.5"])
    def test_label_outside_classes_is_schema_error(self, capsys, tmp_path,
                                                   bad_label):
        probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        write_search_inputs(tmp_path, ["0", bad_label], probs)
        code, err, out = search_cli(capsys, tmp_path, "--trials", "1")
        assert code == 2
        assert len(err.splitlines()) == 1 and "labels" in err
        assert not out.exists()

    def test_label_error_names_the_label_file(self, capsys, tmp_path):
        write_search_inputs(tmp_path, ["0", "5"],
                            np.array([[0.6, 0.4], [0.3, 0.7]]))
        code, err, out = search_cli(capsys, tmp_path, "--trials", "1")
        assert code == 2
        assert err == (f"error: {tmp_path / 'labels.csv'}: labels must be "
                       f"integers in [0, 2)\n")
        assert not out.exists()

    def test_row_count_mismatch_names_both_files(self, capsys, tmp_path):
        write_search_inputs(tmp_path, ["0", "1", "0"],
                            np.array([[0.6, 0.4], [0.3, 0.7]]))
        code, err, out = search_cli(capsys, tmp_path, "--trials", "1")
        assert code == 2
        assert err == (f"error: {tmp_path / 'labels.csv'} has 3 rows but "
                       f"{tmp_path / 'probs.csv'} has 2\n")
        assert not out.exists()

    def test_non_numeric_range_is_schema_error(self, capsys, tmp_path):
        probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
        write_search_inputs(tmp_path, ["0", "1"], probs)
        code, err, out = search_cli(capsys, tmp_path, "--range", "a,1")
        assert code == 2
        assert len(err.splitlines()) == 1 and "a,1" in err
        assert not out.exists()


class TestSolveProxy:
    def test_end_to_end(self, capsys, tmp_path):
        write_probs(tmp_path / "probs.csv", np.array([[0.8, 0.2], [0.6, 0.4]]))
        (tmp_path / "coeffs.json").write_text(json.dumps(
            {"order": 1, "tie_classes": True, "matrix": [[1.0], [1.0]]}))
        out = tmp_path / "proxies.csv"
        code, stdout, _ = run_cli(
            capsys, "solve-proxy", "--teacher-probs",
            str(tmp_path / "probs.csv"), "--coeffs",
            str(tmp_path / "coeffs.json"), "--out", str(out))
        assert code == 0
        assert json.loads(stdout)["converged_fraction"] == 1.0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[0, 0] == pytest.approx(0.8685170917577956, abs=1e-8)
        header = out.read_text().splitlines()[0]
        assert header == "p_0,p_1,residual_norm,iterations,converged"

    def test_reads_search_coeffs_result(self, capsys, tmp_path, monkeypatch):
        # the README's chain, verbatim: solve-proxy takes search-coeffs' best
        rng = np.random.default_rng(7)
        write_search_inputs(tmp_path, rng.integers(0, 3, size=20),
                            rng.dirichlet(np.ones(3), size=20))
        monkeypatch.chdir(tmp_path)
        for argv in ("search-coeffs --teacher-probs probs.csv --labels "
                     "labels.csv --max-order 3 --out best.json",
                     "solve-proxy --teacher-probs probs.csv --coeffs best.json "
                     "--out proxies.csv"):
            code, _, err = run_cli(capsys, *argv.split())
            assert code == 0, err
        best = json.loads((tmp_path / "best.json").read_text())["best"]
        proxies, _ = solve_proxy_rows(cli.read_probs_csv("probs.csv"),
                                      cli.coeffs_from_dict(best, "best"))
        rows = np.loadtxt("proxies.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(rows[:, :3], proxies)

    @pytest.mark.parametrize("row", ["0.9,0.9,0.2", "nan,0.5,0.5",
                                     "-0.1,0.6,0.5", "inf,0,0", "0.5,abc,0.5"])
    def test_bad_teacher_row_is_schema_error(self, capsys, tmp_path, row):
        (tmp_path / "probs.csv").write_text(
            "p_0,p_1,p_2\n0.2,0.3,0.5\n" + row + "\n")
        (tmp_path / "coeffs.json").write_text(json.dumps(
            {"order": 1, "tie_classes": True, "matrix": [[1.0]] * 3}))
        out = tmp_path / "proxies.csv"
        code, _, err = run_cli(
            capsys, "solve-proxy", "--teacher-probs",
            str(tmp_path / "probs.csv"), "--coeffs",
            str(tmp_path / "coeffs.json"), "--out", str(out))
        assert code == 2
        assert len(err.splitlines()) == 1 and "probs.csv" in err
        assert not out.exists()


class TestVerifyEquivalence:
    def test_focal(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "verify-equivalence", "--method", "focal",
            "--param", "2.0", "--trials", "20")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["max_abs_deviation"] <= 1e-6

    def test_alias_runs_as_its_method(self, capsys):
        """Every registry alias of an equivalence method is accepted."""
        outputs = []
        for method in ("temp", "temperature"):
            code, stdout, err = run_cli(
                capsys, "verify-equivalence", "--method", method,
                "--param", "2.0", "--trials", "5")
            assert code == 0, err
            outputs.append(json.loads(stdout))
        assert outputs[0] == outputs[1]
        assert outputs[0]["method"] == "temperature"

    def test_bad_order_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify-equivalence", "--method", "ls",
            "--param", "0.1", "--order", "2", "--trials", "5")
        assert code == 1
        assert "ConfigurationError" in err


class TestSweep:
    def test_end_to_end(self, workspace, capsys, tmp_path):
        _, data_dir, teacher = workspace
        configs = tmp_path / "configs.json"
        configs.write_text(json.dumps([
            {"order": 1, "tie_classes": True, "matrix": [[0.0]] * 3},
            {"order": 1, "tie_classes": True, "matrix": [[2.0]] * 3},
        ]))
        out = tmp_path / "sweep.json"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--data-dir", str(data_dir),
            "--teacher", str(teacher), "--configs", str(configs),
            "--lr", "0.01", "--epochs", "2", "--seed", "3",
            "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc) == 2
        assert (tmp_path / "sweep.csv").exists()

    def test_config_without_matrix_is_schema_error(self, workspace, capsys,
                                                   tmp_path):
        _, data_dir, teacher = workspace
        configs = tmp_path / "configs.json"
        configs.write_text(json.dumps([
            {"order": 1, "tie_classes": True, "matrix": [[0.0]] * 3},
            {"order": 1, "tie_classes": True},
        ]))
        code, _, err = run_cli(
            capsys, "sweep", "--data-dir", str(data_dir),
            "--teacher", str(teacher), "--configs", str(configs),
            "--out", str(tmp_path / "sweep.json"))
        assert code == 2
        assert len(err.splitlines()) == 1 and "'matrix'" in err

    def test_holds_train_and_validation_rows(self, wide_test_split,
                                             tmp_path):
        data_dir, teacher = wide_test_split
        configs = [{"order": 1, "tie_classes": True, "matrix": [[c]] * 3}
                   for c in (0.0, 2.0)]
        (tmp_path / "configs.json").write_text(json.dumps(configs))
        out = tmp_path / "sweep.json"
        code, peak = traced_run(
            "sweep", "--data-dir", str(data_dir), "--teacher", str(teacher),
            "--configs", str(tmp_path / "configs.json"), "--epochs", "1",
            "--out", str(out))
        assert code == 0
        # the slack as for distill; every split held took 2.6 times the bound
        assert peak <= 4 * (TRAINING_ROWS_BYTES + HIDDEN_BLOCK_BYTES)
        held = sweep_proxy_teachers(
            nn.load_model(teacher), data.load_dataset(data_dir),
            [cli.coeffs_from_dict(c, "configs") for c in configs],
            TrainConfig(epochs=1))
        assert ([p["student_test_accuracy"] for p in json.loads(out.read_text())]
                == [p.student_test_accuracy for p in held])


class TestEval:
    def test_end_to_end(self, workspace, capsys):
        _, data_dir, teacher = workspace
        code, stdout, _ = run_cli(
            capsys, "eval", "--data-dir", str(data_dir),
            "--model", str(teacher), "--split", "test")
        assert code == 0
        doc = json.loads(stdout)
        assert set(doc) == {"split", "accuracy", "vs_labels", "vs_truth"}

    def test_holds_the_scored_split_rows(self, wide_test_split):
        data_dir, teacher = wide_test_split
        code, peak = traced_run("eval", "--data-dir", str(data_dir),
                                "--model", str(teacher), "--split",
                                "validation")
        assert code == 0
        # 2,000 held rows; the slack covers the copy's read block, the
        # posterior's (rows, classes, dim) temporaries and the risk-gap
        # terms; every split held took 4.6 times the bound
        assert peak <= 4 * (TRAINING_ROWS_BYTES // 2 + HIDDEN_BLOCK_BYTES)

    def test_holds_no_test_rows(self, wide_test_split):
        data_dir, teacher = wide_test_split
        code, peak = traced_run("eval", "--data-dir", str(data_dir),
                                "--model", str(teacher), "--split", "test")
        assert code == 0
        # one inference block, and for each of the 36,000 test rows the
        # model's probabilities, the posterior and the one-hot labels (3
        # classes each), kept by block and then joined; holding the test
        # rows took 2.0 times the bound
        per_row = 36_000 * 3 * 3 * 8
        assert peak <= READ_BLOCK_BYTES + POSTERIOR_BLOCK_BYTES + 2 * per_row

    def test_specless_dataset_reports_no_truth(self, workspace, capsys,
                                               tmp_path):
        _, data_dir, teacher = workspace
        bare = tmp_path / "bare"
        shutil.copytree(data_dir, bare)
        meta = json.loads((bare / "spec.json").read_text())
        meta["spec"] = None
        (bare / "spec.json").write_text(json.dumps(meta))
        held, model = data.load_dataset(bare), nn.load_model(teacher)

        def expected(split):
            """Accuracy and terms vs labels on the held rows."""
            x, y = held.split(split)
            logits = nn.forward_rows(model, x)
            return (np.mean(np.argmax(logits, axis=1) == np.argmax(y, axis=1)),
                    asdict(risk_gap_terms(softmax_rows(logits), y)))
        for split in data.SPLIT_NAMES:
            code, stdout, err = run_cli(
                capsys, "eval", "--data-dir", str(bare), "--model",
                str(teacher), "--split", split)
            assert code == 0, err
            doc = json.loads(stdout)
            assert "vs_truth" not in doc
            assert (doc["accuracy"], doc["vs_labels"]) == expected(split)
        out = tmp_path / "kl.json"
        code, _, err = run_cli(
            capsys, "distill", "--data-dir", str(bare), "--teacher",
            str(teacher), "--method", "kl", "--epochs", "1", "--out", str(out))
        assert code == 0, err
        report = json.loads(out.read_text())
        assert report["teacher_vs_truth"] is None
        assert (report["teacher_validation_accuracy"],
                report["teacher_vs_labels"]) == expected("validation")


class TestMalformedDataset:
    """Split CSVs whose header disagrees with the dataset's dim."""

    def test_resealed_copy_is_read(self, workspace, tmp_path, monkeypatch):
        # so the sealed cases below reach their checks through the copy
        _, data_dir, _ = workspace
        resealed = tmp_path / "data"
        shutil.copytree(data_dir, resealed)
        for name in ("train", "validation", "test"):
            copy = resealed / f"{name}.rows"
            saved = copy.read_bytes()
            reseal(resealed / f"{name}.csv")
            assert copy.read_bytes() == saved
        parsed = []
        loadtxt = np.loadtxt

        def spy(path, *args, **kwargs):
            parsed.append(path)
            return loadtxt(path, *args, **kwargs)
        monkeypatch.setattr(np, "loadtxt", spy)
        data.load_dataset(resealed)
        assert parsed == []

    @pytest.mark.parametrize("command", ["eval", "distill"])
    @pytest.mark.parametrize("case,culprit", [
        # spec.json says dim 30 (with 30-entry means); the CSVs hold 6 inputs
        ("spec-dim", "train.csv"),
        # no spec, so train.csv sets the dim; validation.csv lacks a column
        ("dropped-column", "validation.csv"),
        # test.csv keeps its header, its rows lack a column, and its binary
        # copy is gone, so the text is parsed
        ("short-rows", "test.csv"),
        # a NaN test cell, in the CSV and in its sealed copy alike
        ("test-nan", "test.csv"),
    ])
    def test_is_schema_error_naming_the_split(self, workspace, capsys,
                                              tmp_path, command, case,
                                              culprit):
        _, data_dir, teacher = workspace
        bad_dir = tmp_path / "data"
        shutil.copytree(data_dir, bad_dir)
        meta = json.loads((bad_dir / "spec.json").read_text())
        if case == "spec-dim":
            meta["spec"]["dim"] = 30
            meta["spec"]["means"] = [row + [0.0] * 24
                                     for row in meta["spec"]["means"]]
        elif case == "test-nan":
            split = bad_dir / "test.csv"
            lines = split.read_text().splitlines()
            lines[-1] = "nan" + lines[-1][lines[-1].index(","):]
            split.write_text("\n".join(lines) + "\n")
            reseal(split)
        elif case == "short-rows":
            (bad_dir / "test.rows").unlink()
            split = bad_dir / "test.csv"
            header, *rows = split.read_text().splitlines()
            split.write_text("".join(line + "\n" for line in [
                header, *(row.split(",", 1)[1] for row in rows)]))
        else:
            meta["spec"] = None
            val = bad_dir / "validation.csv"
            val.write_text("".join(line.split(",", 1)[1] + "\n" for line
                                   in val.read_text().splitlines()))
        (bad_dir / "spec.json").write_text(json.dumps(meta))
        out = tmp_path / "out.json"
        argv = {"eval": ["--model", str(teacher)],
                "distill": ["--teacher", str(teacher), "--method", "kl",
                            "--epochs", "1", "--out", str(out)]}[command]
        code, stdout, err = run_cli(capsys, command, "--data-dir",
                                    str(bad_dir), *argv)
        assert code == 2 and stdout == ""
        assert len(err.splitlines()) == 1 and str(bad_dir / culprit) in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "distill"])
    @pytest.mark.parametrize("label,sealed", [
        ("3", True), ("-1", True), ("1.5", True), ("3", False)],
        ids=["3-sealed", "-1-sealed", "1.5-sealed", "3-edited-csv"])
    def test_bad_test_label_is_one_line(self, workspace, capsys, tmp_path,
                                        command, label, sealed):
        # the line names the CSV, also when the label reached the check
        # through a sealed copy, which is then refused and the CSV parsed
        _, data_dir, teacher = workspace
        bad_dir = tmp_path / "data"
        shutil.copytree(data_dir, bad_dir)
        split = bad_dir / "test.csv"
        lines = split.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + "," + label
        split.write_text("\n".join(lines) + "\n")
        if sealed:
            reseal(split)
        out = tmp_path / "out.json"
        argv = {"eval": ["--model", str(teacher)],
                "distill": ["--teacher", str(teacher), "--method", "kl",
                            "--epochs", "1", "--out", str(out)]}[command]
        code, stdout, err = run_cli(capsys, command, "--data-dir",
                                    str(bad_dir), *argv)
        assert code == 2 and stdout == ""
        assert err == f"error: {split}: labels must be integers in [0, 3)\n"
        assert list(tmp_path.glob("out.json*")) == []

    @pytest.mark.parametrize("label", ["-1", "1.5", "nan"])
    def test_specless_bad_label_names_the_csv(self, workspace, capsys,
                                              tmp_path, label):
        # without a spec a label must be a whole number >= 0; this one
        # reaches the check through a sealed copy, then through the CSV
        _, data_dir, _ = workspace
        bad_dir = tmp_path / "data"
        shutil.copytree(data_dir, bad_dir)
        meta = json.loads((bad_dir / "spec.json").read_text())
        (bad_dir / "spec.json").write_text(json.dumps(dict(meta, spec=None)))
        train = bad_dir / "train.csv"
        lines = train.read_text().splitlines()
        lines[1] = lines[1].rsplit(",", 1)[0] + "," + label
        train.write_text("\n".join(lines) + "\n")
        reseal(train)
        out = tmp_path / "m.json"
        code, stdout, err = run_cli(
            capsys, "train-teacher", "--data-dir", str(bad_dir),
            "--arch", "6,16,3", "--epochs", "1", "--out", str(out))
        assert code == 2 and stdout == ""
        assert err == f"error: {train}: labels must be integers >= 0\n"
        assert not out.exists()


class TestEmptySplits:
    """A dataset generated with --split 1,0,0: header-only validation and
    test CSVs."""

    @pytest.fixture(scope="class")
    def train_only(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("train-only")
        data_dir = root / "data"
        assert cli.run(["generate-data", "--n", "60", "--dim", "6",
                        "--split", "1,0,0", "--out-dir", str(data_dir)]) == 0
        return root, data_dir

    def test_train_teacher_reports_null_accuracy(self, train_only, capsys,
                                                 recwarn):
        root, data_dir = train_only
        code, stdout, err = run_cli(
            capsys, "train-teacher", "--data-dir", str(data_dir),
            "--arch", "6,8,3", "--epochs", "1", "--out", str(root / "t.json"))
        assert code == 0 and err == ""
        assert json.loads(stdout)["validation_accuracy"] is None
        assert len(recwarn) == 0

    @pytest.fixture(scope="class")
    def no_test(self, tmp_path_factory):
        """A dataset generated with --split 0.5,0.5,0: only test.csv is
        header-only."""
        root = tmp_path_factory.mktemp("no-test")
        data_dir = root / "data"
        assert cli.run(["generate-data", "--n", "60", "--dim", "6",
                        "--split", "0.5,0.5,0", "--out-dir", str(data_dir)]) == 0
        return root, data_dir

    @pytest.mark.parametrize("argv,split,dataset", [
        (["distill", "--teacher", "{t}", "--method", "kl", "--epochs", "1",
          "--out", "{root}/kl.json"], "validation", "train_only"),
        (["eval", "--model", "{t}", "--split", "test"], "test", "train_only"),
        (["distill", "--teacher", "{t}", "--method", "kl", "--epochs", "1",
          "--out", "{root}/kl.json"], "test", "no_test"),
    ], ids=["distill-kl", "eval-test", "distill-kl-no-test"])
    def test_command_needing_rows_is_domain_error(self, capsys, recwarn,
                                                  monkeypatch, request,
                                                  argv, split, dataset):
        root, data_dir = request.getfixturevalue(dataset)
        teacher = root / "t.json"
        if not teacher.exists():
            assert cli.run(["train-teacher", "--data-dir", str(data_dir),
                            "--arch", "6,8,3", "--epochs", "1",
                            "--out", str(teacher)]) == 0
        capsys.readouterr()

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the splits")
        monkeypatch.setattr(nn, "train", no_training)
        argv = [a.format(t=teacher, root=root) for a in argv]
        code, stdout, err = run_cli(capsys, argv[0], "--data-dir",
                                    str(data_dir), *argv[1:])
        assert code == 1 and stdout == ""
        assert len(err.splitlines()) == 1
        assert f"the {split} split is empty" in err
        assert len(recwarn) == 0


class TestTeacherWidth:
    @pytest.mark.parametrize("argv", [
        ["distill", "--method", "kl"],
        ["sweep", "--configs", "{configs}"],
    ], ids=["distill", "sweep"])
    def test_is_domain_error_before_training(self, workspace, capsys,
                                             tmp_path, monkeypatch, argv):
        _, data_dir, _ = workspace
        teacher = tmp_path / "t4.json"
        nn.save_model(nn.init([6, 8, 4], 0), teacher)
        configs = tmp_path / "configs.json"
        configs.write_text(json.dumps([
            {"order": 1, "tie_classes": True, "matrix": [[c]] * 3}
            for c in (0.0, 2.0)]))

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the teacher")
        monkeypatch.setattr(nn, "train", no_training)
        out = tmp_path / "out.json"
        code, stdout, err = run_cli(
            capsys, argv[0], "--data-dir", str(data_dir), "--teacher",
            str(teacher), *[a.format(configs=configs) for a in argv[1:]],
            "--epochs", "1", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == ("error: InvalidInputError: the teacher has 4 outputs "
                       "but the dataset has 3 classes\n")
        assert not out.exists()


class TestCoefficientClasses:
    @pytest.mark.parametrize("argv", [
        ["distill", "--method", "pt", "--coeffs", "{two}"],
        ["sweep", "--configs", "{configs}"],
    ], ids=["distill", "sweep"])
    def test_is_domain_error_before_training(self, workspace, capsys,
                                             tmp_path, monkeypatch, argv):
        # a 2-class matrix for the 3-class dataset; the sweep's comes second
        _, data_dir, teacher = workspace
        three = {"order": 1, "tie_classes": True, "matrix": [[0.5]] * 3}
        two = {"order": 1, "tie_classes": True, "matrix": [[0.5]] * 2}
        files = {"two": tmp_path / "two.json",
                 "configs": tmp_path / "configs.json"}
        files["two"].write_text(json.dumps(two))
        files["configs"].write_text(json.dumps([three, two]))

        def no_training(*args, **kwargs):
            raise AssertionError("trained before checking the coefficients")
        monkeypatch.setattr(nn, "train", no_training)
        out = tmp_path / "out.json"
        code, stdout, err = run_cli(
            capsys, argv[0], "--data-dir", str(data_dir), "--teacher",
            str(teacher), *[a.format(**files) for a in argv[1:]],
            "--epochs", "1", "--out", str(out))
        assert code == 1 and stdout == ""
        assert err == ("error: InvalidInputError: coefficients are for 2 "
                       "classes, inputs have 3\n")
        assert not out.exists()


class TestConfigFile:
    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n": 30, "dim": 4, "split":
                                      "0.5,0.25,0.25"}))
        out_dir = tmp_path / "data"
        code, stdout, _ = run_cli(
            capsys, "generate-data", "--config", str(config),
            "--n", "40", "--out-dir", str(out_dir))
        assert code == 0
        doc = json.loads(stdout)
        assert sum(doc["split_sizes"].values()) == 40

    def test_integer_for_a_float_option_is_recorded_as_float(self, capsys,
                                                             tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sigma": 2}))
        out_dir = tmp_path / "data"
        code, _, err = run_cli(
            capsys, "generate-data", "--config", str(config), "--n", "30",
            "--dim", "4", "--out-dir", str(out_dir))
        assert code == 0, err
        manifest = json.loads(
            (out_dir / "train.csv.manifest.json").read_text())
        assert type(manifest["config"]["sigma"]) is float
        assert manifest["config"]["sigma"] == 2.0

    def test_unknown_key_is_schema_error(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"banana": 1}))
        code, _, err = run_cli(
            capsys, "generate-data", "--config", str(config),
            "--out-dir", str(tmp_path / "d"))
        assert code == 2
        assert "unknown keys" in err

    @pytest.mark.parametrize("argv,doc,message", [
        ("distill --data-dir {data} --teacher {teacher} --method temp "
         "--out {out}", {"tau": "abc"}, "'tau'"),
        ("distill --data-dir {data} --teacher {teacher} --out {out}",
         {"method": "banana"}, "'method'"),
        ("generate-data --out-dir {out}", {"seed": "x"}, "'seed'"),
        ("generate-data --out-dir {out}", {"n": 300.7}, "'n'"),
        ("generate-data --out-dir {out}", {"sigma": None}, "'sigma'"),
        ("generate-data --out-dir {out}", {"split": [0.5, 0.25, 0.25]},
         "'split'"),
        ("train-teacher --data-dir {data} --out {out}", {"epochs": "2"},
         "'epochs'"),
        ("search-coeffs --teacher-probs {out} --labels {out} --out {out}",
         {"tie-classes": 1}, "'tie-classes'"),
        ("eval --data-dir {data} --model {teacher}", {"split": "bogus"},
         "'split'"),
        ("generate-data --out-dir {out}", [1, 2], "JSON object"),
    ], ids=["tau", "method", "seed", "n", "sigma-null", "split-list",
            "epochs", "tie-classes", "eval-split", "list"])
    def test_bad_value_is_schema_error(self, workspace, capsys, tmp_path,
                                       argv, doc, message):
        """A file value passes only where the same flag value would."""
        _, data_dir, teacher = workspace
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code, _, err = run_cli(
            capsys, *argv.format(data=data_dir, teacher=teacher,
                                 out=out).split(), "--config", str(config))
        assert code == 2
        assert len(err.splitlines()) == 1 and message in err
        assert not out.exists()


class TestMalformedJson:
    @pytest.mark.parametrize("argv,culprit", [
        ("generate-data --config {bad} --out-dir {out}", "{bad}"),
        ("distill --data-dir {data} --teacher {teacher} --method pt "
         "--coeffs {bad} --out {out}", "{bad}"),
        ("sweep --data-dir {data} --teacher {teacher} --configs {bad} "
         "--out {out}", "{bad}"),
        # valid JSON, but one coefficient object rather than a list of them
        ("sweep --data-dir {data} --teacher {teacher} --configs {coeffs} "
         "--out {out}", "{coeffs}"),
        ("distill --data-dir {data} --teacher {bad} --method kl --out {out}",
         "{bad}"),
        ("eval --data-dir {data} --model {bad}", "{bad}"),
        ("eval --data-dir {bad_data} --model {teacher}",
         "{bad_data}/spec.json"),
        # valid JSON, but a coefficient file rather than a model
        ("eval --data-dir {data} --model {coeffs}", "{coeffs}"),
        # a weight matrix whose shape disagrees with layer_dims
        ("eval --data-dir {data} --model {misshapen}", "{misshapen}"),
        # a weight written as Infinity, which Python's json reads back
        ("eval --data-dir {data} --model {infinite}", "{infinite}"),
        # valid JSON, but a list rather than the spec.json object
        ("eval --data-dir {list_data} --model {teacher}",
         "{list_data}/spec.json"),
        # split_sizes that do not match the rows of the split CSVs
        ("eval --data-dir {sizes_data} --model {teacher}",
         "{sizes_data}/spec.json"),
        # and sizes no dataset could be allocated at, or none at all; eval
        # holds only the split it scores
        ("eval --data-dir {huge_data} --model {teacher} --split train",
         "{huge_data}/spec.json"),
        ("eval --data-dir {negative_data} --model {teacher}",
         "{negative_data}/spec.json"),
        # the same for the test split, which distill reads after training
        ("distill --data-dir {test_sizes} --teacher {teacher} --method kl "
         "--epochs 1 --out {out}", "{test_sizes}/spec.json"),
        ("distill --data-dir {test_huge} --teacher {teacher} --method kl "
         "--epochs 1 --out {out}", "{test_huge}/spec.json"),
        ("distill --data-dir {test_negative} --teacher {teacher} --method kl "
         "--epochs 1 --out {out}", "{test_negative}/spec.json"),
        # two class means equal as values, so the posterior is another
        # mixture's
        ("eval --data-dir {equal_means} --model {teacher}",
         "{equal_means}/spec.json: class means must be distinct"),
        ("eval --data-dir {signed_zero_means} --model {teacher}",
         "{signed_zero_means}/spec.json: class means must be distinct"),
        # and each other value rule of the spec is named on the line
        ("eval --data-dir {zero_sigma} --model {teacher}",
         "{zero_sigma}/spec.json: sigma must be > 0"),
        ("eval --data-dir {two_mean} --model {teacher}",
         "{two_mean}/spec.json: mean entries must come from {{-1, 0, 1}}"),
        ("eval --data-dir {short_means} --model {teacher}",
         "{short_means}/spec.json: means must have shape (3, 6), got (3, 5)"),
        # a split header that is not text
        ("eval --data-dir {binary_header} --model {teacher}",
         "{binary_header}/train.csv"),
    ], ids=["config", "coeffs", "configs", "configs-not-a-list", "teacher",
            "model", "spec", "model-not-a-model", "model-shapes",
            "model-not-finite", "spec-list", "split-sizes",
            "split-sizes-huge", "split-sizes-negative", "test-size",
            "test-size-huge", "test-size-negative", "means-equal",
            "means-signed-zero", "sigma-zero", "mean-entry-two",
            "means-row-short", "header-not-text"])
    def test_is_schema_error_naming_the_file(self, workspace, capsys,
                                             tmp_path, argv, culprit):
        _, data_dir, teacher = workspace
        bad = tmp_path / "bad.json"
        bad.write_text('{"order": 1,')
        bad_data = tmp_path / "data"
        shutil.copytree(data_dir, bad_data)
        (bad_data / "spec.json").write_text("{not json")
        list_data = tmp_path / "list_data"
        shutil.copytree(data_dir, list_data)
        (list_data / "spec.json").write_text("[1, 2]")
        # the workspace's splits hold 300, 150 and 150 rows
        sized = {}
        for key, sizes in [("sizes_data", {"train": 301, "test": 149}),
                           ("huge_data", {"train": 10 ** 12}),
                           ("negative_data", {"train": -1}),
                           ("test_sizes", {"test": 149}),
                           ("test_huge", {"test": 10 ** 12}),
                           ("test_negative", {"test": -1})]:
            sized[key] = tmp_path / key
            shutil.copytree(data_dir, sized[key])
            meta = json.loads((sized[key] / "spec.json").read_text())
            meta["split_sizes"].update(sizes)
            (sized[key] / "spec.json").write_text(json.dumps(meta))
        # the workspace's first class mean holds zeros; as -0.0 they still
        # equal it
        for key, negate in [("equal_means", False),
                            ("signed_zero_means", True)]:
            sized[key] = tmp_path / key
            shutil.copytree(data_dir, sized[key])
            meta = json.loads((sized[key] / "spec.json").read_text())
            means = meta["spec"]["means"]
            assert 0.0 in means[0]
            means[1] = [-v if negate and v == 0 else v for v in means[0]]
            (sized[key] / "spec.json").write_text(json.dumps(meta))
        for key, field, change in [
                ("zero_sigma", "sigma", lambda spec: 0.0),
                ("two_mean", "means",
                 lambda spec: [[2.0] + row[1:] for row in spec["means"]]),
                ("short_means", "means",
                 lambda spec: [row[:-1] for row in spec["means"]])]:
            sized[key] = tmp_path / key
            shutil.copytree(data_dir, sized[key])
            meta = json.loads((sized[key] / "spec.json").read_text())
            meta["spec"][field] = change(meta["spec"])
            (sized[key] / "spec.json").write_text(json.dumps(meta))
        sized["binary_header"] = tmp_path / "binary_header"
        shutil.copytree(data_dir, sized["binary_header"])
        train_csv = sized["binary_header"] / "train.csv"
        train_csv.write_bytes(b"\xff" + train_csv.read_bytes())
        model = json.loads(teacher.read_text())
        model["weights"][0] = model["weights"][0][:5]
        misshapen = tmp_path / "misshapen.json"
        misshapen.write_text(json.dumps(model))
        model = json.loads(teacher.read_text())
        model["weights"][-1][0][0] = float("inf")
        infinite = tmp_path / "infinite.json"
        infinite.write_text(json.dumps(model))
        coeffs = tmp_path / "coeffs.json"
        coeffs.write_text(json.dumps(
            {"order": 1, "tie_classes": True, "matrix": [[1.0]] * 3}))
        names = {"bad": bad, "bad_data": bad_data, "data": data_dir,
                 "teacher": teacher, "coeffs": coeffs,
                 "list_data": list_data, **sized,
                 "misshapen": misshapen, "infinite": infinite,
                 "out": tmp_path / "out"}
        code, _, err = run_cli(capsys, *argv.format(**names).split())
        assert code == 2
        assert len(err.splitlines()) == 1 and culprit.format(**names) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target,keys,value", [
        ("spec", ("spec", "dim"), 6.0),
        ("spec", ("spec", "num_classes"), 3.0),
        ("spec", ("split_sizes", "train"), 300.5),
        ("spec", ("split_sizes", "train"), "300"),
        ("spec", ("spec", "seed"), 1.5),
        ("spec", ("spec", "seed"), "x"),
        ("spec", ("spec", "seed"), None),
        ("spec", ("spec", "sigma"), True),
        ("model", ("seed",), 1.5),
        ("model", ("seed",), "7"),
        ("model", ("layer_dims",), [6.7, 16, 3]),
        ("spec", ("spec", "means", 2, 0), True),
        ("model", ("weights", 0, 0, 0), "0.5"),
        ("model", ("biases", 0, 0), True),
    ], ids=["spec-dim-float", "spec-classes-float", "split-size-fraction",
            "split-size-string", "spec-seed-fraction", "spec-seed-string",
            "spec-seed-null", "spec-sigma-bool", "model-seed-fraction",
            "model-seed-string", "model-dims-fraction", "spec-mean-bool",
            "model-weight-string", "model-bias-bool"])
    def test_integer_field_must_be_a_json_integer(self, workspace, capsys,
                                                  tmp_path, target, keys,
                                                  value):
        # the workspace's dataset has dim 6, 3 classes, 300 train rows and
        # means[2][0] == 1, its teacher layer_dims [6, 16, 3]; each value
        # truncates to those, and numpy would read each array entry as a
        # number
        _, data_dir, teacher = workspace
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        model = tmp_path / "model.json"
        shutil.copy(teacher, model)
        culprit = data / "spec.json" if target == "spec" else model
        doc = json.loads(culprit.read_text())
        *outer, last = keys
        inner = doc
        for key in outer:
            inner = inner[key]
        inner[last] = value
        culprit.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, "eval", "--data-dir", str(data),
                               "--model", str(model))
        assert code == 2
        assert len(err.splitlines()) == 1 and str(culprit) in err


def _flags(parser: argparse.ArgumentParser) -> dict:
    """Each long flag of a parser and the kind of value it takes."""
    return {flag: tuple(a.choices) if a.choices else
            bool if isinstance(a, argparse._StoreConstAction) else
            a.type or str
            for a in parser._actions for flag in a.option_strings
            if flag.startswith("--") and flag != "--help"}


class TestParserSurface:
    def test_flags_of_every_command(self):
        train = {"--lr": float, "--batch-size": int, "--epochs": int,
                 "--seed": int}
        search = {"--trials": int, "--range": str, "--tie-classes": bool}
        expected = {
            "generate-data": {"--classes": int, "--dim": int,
                              "--sigma": float, "--n": int, "--split": str,
                              "--seed": int, "--out-dir": str},
            "train-teacher": {"--data-dir": str, "--arch": str, **train,
                              "--out": str},
            "distill": {"--data-dir": str, "--teacher": str,
                        "--method": ("onehot", "cross_entropy", "kl", "pt",
                                     "temperature", "temp",
                                     "label_smoothing", "ls", "focal"),
                        **train, "--out": str, "--max-order": int, **search,
                        "--search-seed": int, "--coeffs": str,
                        "--tau": float, "--delta": float, "--gamma": float},
            "search-coeffs": {"--teacher-probs": str, "--labels": str,
                              "--max-order": int, **search, "--seed": int,
                              "--out": str},
            "solve-proxy": {"--teacher-probs": str, "--coeffs": str,
                            "--out": str, "--tolerance": float,
                            "--max-iterations": int},
            "verify-equivalence": {"--method": ("temperature", "temp",
                                                "label_smoothing", "ls",
                                                "focal"),
                                   "--param": float, "--order": int,
                                   "--trials": int, "--seed": int},
            "sweep": {"--data-dir": str, "--teacher": str, "--configs": str,
                      **train, "--out": str},
            "eval": {"--data-dir": str, "--model": str,
                     "--split": ("train", "validation", "test")},
        }
        parser = cli.build_parser()
        assert set(_flags(parser)) == {"--version"}
        sub, = (a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
        assert list(sub.choices) == list(expected)
        for name, flags in expected.items():
            assert _flags(sub.choices[name]) == {"--config": str, **flags}, name

    @pytest.mark.parametrize("argv,says", [
        (["--version"], cli.__version__ + "\n"),
        (["eval", "--help"], "usage: ptdistill eval"),
    ])
    def test_help_and_version_exit_zero(self, capsys, argv, says):
        # only usage errors leave through run's handler
        with pytest.raises(SystemExit) as exit_:
            cli.run(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith(says)


class TestDeterminism:
    def test_rerun_reproduces_digests(self, capsys, tmp_path):
        manifests = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            assert cli.run([
                "generate-data", "--classes", "3", "--dim", "4",
                "--n", "50", "--split", "0.5,0.25,0.25", "--seed", "7",
                "--out-dir", str(out_dir)]) == 0
            capsys.readouterr()
            doc = json.loads(
                (out_dir / "train.csv.manifest.json").read_text())
            manifests.append({k.split("/")[-1]: v
                              for k, v in doc["outputs"].items()})
        assert manifests[0] == manifests[1]


# Malformed option values, dataset cells and paths, each with the exit code
# the README documents. A `hung` case looped forever before the class means
# were checked ahead of drawing, so it runs in a child process with a timeout.
# Coefficient files outside the documented schema; each row that reads one
# must name it in the error line.
GOOD_COEFFS = {"order": 1, "tie_classes": True, "matrix": [[1.0]] * 3}
BAD_COEFFS = {
    "order_float": {**GOOD_COEFFS, "order": 1.5},
    "order_bool": {**GOOD_COEFFS, "order": True},
    "order_string": {**GOOD_COEFFS, "order": "1"},
    "tie_string": {**GOOD_COEFFS, "tie_classes": "no"},
    "flat_matrix": {**GOOD_COEFFS, "matrix": [1.0, 1.0, 1.0]},
    "wrong_width": {**GOOD_COEFFS, "order": 2},
    "negative_order": {**GOOD_COEFFS, "order": -1, "matrix": [[]] * 3},
    "nan_entry": {**GOOD_COEFFS, "matrix": [[float("nan")], [1.0], [1.0]]},
    "bool_entries": {**GOOD_COEFFS, "tie_classes": False,
                     "matrix": [[True], [False], [True]]},
    "tied_rows_differ": {**GOOD_COEFFS, "matrix": [[1], [2], [3]]},
    "ragged_matrix": {**GOOD_COEFFS, "tie_classes": False,
                      "matrix": [[1.0], [1.0, 2.0], [1.0]]},
    "int_beyond_float": {**GOOD_COEFFS, "matrix": [[10 ** 400]] * 3},
    "not_an_object": [GOOD_COEFFS],
    "nan_configs": [GOOD_COEFFS,  # a sweep list
                    {**GOOD_COEFFS, "matrix": [[float("nan")]] * 3}],
}

ONE_LINE_CASES = [
    pytest.param("generate-data --dim 0 --out-dir {out}", 1, True,
                 "", id="dim-0"),
    pytest.param("generate-data --classes 4 --dim 1 --out-dir {out}", 1, True,
                 "", id="more-classes-than-means"),
    pytest.param("generate-data --sigma nan --out-dir {out}", 2, False,
                 "", id="sigma-nan"),
    pytest.param("generate-data --split 0.5,0.5 --out-dir {out}", 2, False,
                 "", id="split-two-values"),
    pytest.param("generate-data --sigma inf --out-dir {out}", 2, False,
                 "", id="sigma-inf"),
    pytest.param("generate-data --config {nan_config} --out-dir {out}", 2,
                 False, "", id="config-sigma-nan"),
    pytest.param("solve-proxy --teacher-probs {probs} --coeffs {coeffs} "
                 "--tolerance nan --out {out}", 2, False, "",
                 id="tolerance-nan"),
    pytest.param("train-teacher --data-dir {data} --arch 6,16,3 --lr nan "
                 "--out {out}", 2, False, "", id="lr-nan"),
    pytest.param("distill --data-dir {data} --teacher {teacher} --method temp "
                 "--tau nan --out {out}", 2, False, "", id="tau-nan"),
    pytest.param("distill --data-dir {data} --teacher {teacher} "
                 "--method focal --gamma nan --out {out}", 2, False,
                 "", id="gamma-nan"),
    pytest.param("search-coeffs --teacher-probs {probs} --labels {labels} "
                 "--range 0,inf --out {out}", 2, False, "", id="range-inf"),
    pytest.param("search-coeffs --teacher-probs {probs} --labels {labels} "
                 "--range 1 --out {out}", 2, False, "", id="range-one-value"),
    pytest.param("search-coeffs --teacher-probs {probs} --labels {labels} "
                 "--range=-1e308,1e308 --out {out}", 1, False,
                 "", id="range-width-overflows"),
    # a non-finite cell in the validation split, the one eval reads
    pytest.param("eval --data-dir {nan_data} --model {teacher} "
                 "--split validation", 2, False, "", id="nan-feature-cell"),
    pytest.param("eval --data-dir {inf_data} --model {teacher} "
                 "--split validation", 2, False, "", id="inf-feature-cell"),
    pytest.param("train-teacher --data-dir {data} --arch 6,16,3 --lr 1e300 "
                 "--epochs 1 --out {out}", 1, False, "", id="lr-overflows"),
    pytest.param("search-coeffs --teacher-probs {probs} --labels {labels} "
                 "--range 1e308,1.7e308 --out {out}", 1, False,
                 "", id="coefficients-overflow"),
    pytest.param("train-teacher --data-dir {data} --arch 6,16,3 --epochs 1 "
                 "--out {a_dir}", 2, False, "", id="out-is-a-directory"),
    pytest.param("eval --data-dir {teacher} --model {teacher}", 2, False,
                 "", id="data-dir-is-a-file"),
    pytest.param("generate-data --n 60 --dim 6 --out-dir {teacher}", 2, False,
                 "", id="out-dir-is-a-file"),
    # 8 bytes a row times 1e16 rows is 71 PiB, past any address space, so
    # the allocation fails at once
    pytest.param("generate-data --n 10000000000000000 --dim 2 --out-dir {out}",
                 1, False, "", id="n-beyond-memory"),
    # a size whose validation and test splits leave no training rows, and
    # fewer rows than classes
    pytest.param("generate-data --n 3 --split 0,0.5,0.5 --out-dir {out}", 1,
                 False, "split ratio leaves no training data",
                 id="split-leaves-no-train"),
    pytest.param("generate-data --n 2 --classes 3 --out-dir {out}", 1, False,
                 "need at least one example per class",
                 id="fewer-rows-than-classes"),
    pytest.param("verify-equivalence --method ls --param 0.1 --trials 0", 1,
                 False, "trials must be >= 1", id="trials-0"),
    pytest.param("search-coeffs --teacher-probs {header_probs} --labels "
                 "{header_labels} --out {out}", 1, False,
                 "teacher_val must be nonempty", id="header-only-inputs"),
    *(pytest.param("solve-proxy --teacher-probs {probs} --coeffs {%s} "
                   "--out {out}" % key, 2, False, "", id=f"coeffs-{key}")
      for key in BAD_COEFFS if key != "nan_configs"),
    pytest.param("sweep --data-dir {data} --teacher {teacher} --configs "
                 "{nan_configs} --epochs 1 --out {out}", 2, False,
                 "", id="sweep-config-nan-entry"),
    # JSON nested past the parser's recursion limit
    pytest.param("solve-proxy --teacher-probs {probs} --coeffs {deep} "
                 "--out {out}", 2, False, "", id="coeffs-deep"),
    pytest.param("generate-data --config {deep} --out-dir {out}", 2, False,
                 "", id="config-deep"),
    pytest.param("solve-proxy --teacher-probs {probs} --coeffs {two_classes} "
                 "--out {out}", 1, False, "", id="coeffs-for-other-classes"),
    pytest.param("eval --data-dir {data} --model {four_outputs}", 1, False,
                 "the model has 4 outputs but the dataset has 3 classes",
                 id="eval-model-outputs"),
    # argparse's own errors, without its usage block
    pytest.param("search-coeffs --trials abc", 2, False,
                 "invalid int value: 'abc'", id="usage-trials-not-int"),
    pytest.param("nope", 2, False, "invalid choice: 'nope'",
                 id="usage-unknown-command"),
    pytest.param("eval --split nope", 2, False, "invalid choice: 'nope'",
                 id="usage-unknown-split"),
    # a value that starts with - is attached with =, as in --range=-1,10
    pytest.param("search-coeffs --range -1,10", 2, False,
                 "--range: expected one argument", id="usage-range-dash"),
]


def _files(root: Path) -> dict:
    """Every file under ``root`` with its bytes."""
    return {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestOneErrorLine:
    @pytest.mark.parametrize("argv,code,hung,says", ONE_LINE_CASES)
    def test_exit_code_one_line_no_file(self, workspace, capsys, recwarn,
                                        tmp_path, argv, code, hung, says):
        _, data_dir, teacher = workspace
        names = {"data": tmp_path / "data", "teacher": tmp_path / "t.json",
                 "out": tmp_path / "out", "a_dir": tmp_path / "a_dir"}
        shutil.copytree(data_dir, names["data"])
        shutil.copy(teacher, names["teacher"])
        names["a_dir"].mkdir()
        for name, value in (("nan_data", "nan"), ("inf_data", "inf")):
            names[name] = tmp_path / name
            shutil.copytree(data_dir, names[name])
            val = names[name] / "validation.csv"
            lines = val.read_text().splitlines()
            lines[1] = value + lines[1][lines[1].index(","):]
            val.write_text("\n".join(lines) + "\n")
        names["nan_config"] = tmp_path / "nan_config.json"
        names["nan_config"].write_text('{"sigma": NaN}')
        names["deep"] = tmp_path / "deep.json"
        names["deep"].write_text("[" * 100_000 + "]" * 100_000)
        for key, doc in {**BAD_COEFFS, "two_classes": {
                **GOOD_COEFFS, "matrix": [[1.0]] * 2}}.items():
            names[key] = tmp_path / f"{key}.json"
            names[key].write_text(json.dumps(doc))
        names["probs"] = tmp_path / "probs.csv"
        write_probs(names["probs"], np.array([[0.6, 0.3, 0.1],
                                              [0.2, 0.5, 0.3]]))
        names["labels"] = tmp_path / "labels.csv"
        names["labels"].write_text("label\n0\n1\n")
        names["header_probs"] = tmp_path / "header_probs.csv"
        names["header_probs"].write_text("p_0,p_1,p_2\n")
        names["header_labels"] = tmp_path / "header_labels.csv"
        names["header_labels"].write_text("label\n")
        names["coeffs"] = tmp_path / "coeffs.json"
        names["coeffs"].write_text(json.dumps(
            {"order": 1, "tie_classes": True, "matrix": [[1.0]] * 3}))
        names["four_outputs"] = tmp_path / "four_outputs.json"
        nn.save_model(nn.init([6, 8, 4], 0), names["four_outputs"])
        before = _files(tmp_path)
        named = [str(names[key]) for key in [*BAD_COEFFS, "deep"]
                 if f"{{{key}}}" in argv]
        argv = argv.format(**names).split()
        if hung:
            env = dict(os.environ,
                       PYTHONPATH=str(Path(cli.__file__).parents[1]))
            proc = subprocess.run([sys.executable, "-m", "ptdistill.cli",
                                   *argv], capture_output=True, text=True,
                                  env=env, timeout=60)
            got, err = proc.returncode, proc.stderr
        else:
            got, _, err = run_cli(capsys, *argv)
            assert len(recwarn) == 0
        assert got == code, err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err and says in err
        assert all(name in err for name in named)
        assert _files(tmp_path) == before
        assert not names["out"].exists()


class TestClosedStdout:
    def test_is_one_error_line(self):
        # stdout is closed before the summary line is printed, as when the
        # command is piped into `true`
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "ptdistill.cli", "verify-equivalence",
             "--method", "ls", "--param", "0.1", "--trials", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
        assert err == "error: [Errno 32] Broken pipe\n"


class TestOneOwnerPerRule:
    @pytest.mark.parametrize("command,option,owner,field", [
        ("train-teacher", "lr", TrainConfig, "learning_rate"),
        ("train-teacher", "batch-size", TrainConfig, "batch_size"),
        ("train-teacher", "epochs", TrainConfig, "epochs"),
        ("train-teacher", "seed", TrainConfig, "seed"),
        ("distill", "trials", SearchSpec, "trials_per_order"),
        ("distill", "tie-classes", SearchSpec, "tie_classes"),
        ("distill", "search-seed", SearchSpec, "seed"),
        ("search-coeffs", "max-order", SearchSpec, "max_order"),
        ("search-coeffs", "seed", SearchSpec, "seed"),
        ("solve-proxy", "tolerance", SolverConfig, "tolerance"),
        ("solve-proxy", "max-iterations", SolverConfig, "max_iterations"),
        ("generate-data", "classes", GaussianMixtureSpec, "num_classes"),
        ("generate-data", "dim", GaussianMixtureSpec, "dim"),
        ("generate-data", "sigma", GaussianMixtureSpec, "sigma"),
        ("generate-data", "seed", GaussianMixtureSpec, "seed"),
    ])
    def test_option_default_is_the_library_field(self, command, option,
                                                 owner, field):
        assert cli.COMMANDS[command][2][option][1] is getattr(owner, field)

    @pytest.mark.parametrize("command,option,values,text", [
        ("distill", "range", SearchSpec.coefficient_range, "-1,10"),
        ("search-coeffs", "range", SearchSpec.coefficient_range, "-1,10"),
        ("generate-data", "split", data.SPLIT_RATIO, "0.9,0.05,0.05"),
    ])
    def test_listed_default_is_the_library_value(self, command, option,
                                                 values, text):
        # the text a manifest records is unchanged
        assert cli.COMMANDS[command][2][option][1] == text
        assert tuple(map(float, text.split(","))) == tuple(values)

    def test_generate_split_default_is_the_constant(self):
        params = inspect.signature(data.generate).parameters
        assert params["split_ratio"].default is data.SPLIT_RATIO

    def test_loss_parameter_options_are_the_ranged_names(self):
        options = cli.COMMANDS["distill"][2]
        assert [key for key in options if key in PARAM_RANGES] == list(
            PARAM_RANGES)
        assert {cls.param for cls in LOSSES.values()} - {None, "cfg"} == set(
            PARAM_RANGES)

    def test_sample_defaults_are_the_spec_fields(self):
        params = inspect.signature(GaussianMixtureSpec.sample).parameters
        for name in ("num_classes", "dim", "sigma"):
            assert params[name].default is getattr(GaussianMixtureSpec, name)

    @pytest.mark.parametrize("cls,base", [
        (InvalidInputError, ValueError), (ConfigurationError, ValueError),
        (DegenerateTeacherError, ValueError),
        (SolverDivergenceError, RuntimeError),
        (SearchFailureError, RuntimeError),
        (TrainingDivergenceError, RuntimeError)])
    def test_domain_errors_share_one_base(self, cls, base):
        assert issubclass(cls, DomainError) and issubclass(cls, base)
        assert not issubclass(SchemaError, DomainError)

    @pytest.mark.parametrize("exc,code,line", [
        (type("NewDomainError", (DomainError,), {})("x"), 1,
         "error: NewDomainError: x"),
        (PermissionError("denied"), 2, "error: denied"),
        (SchemaError("bad file"), 2, "error: bad file"),
    ], ids=["domain", "os", "schema"])
    def test_run_maps_error_families(self, capsys, monkeypatch, exc, code,
                                     line):
        def raises(cfg, digests):
            raise exc
        monkeypatch.setitem(cli.COMMANDS, "eval",
                            (raises, *cli.COMMANDS["eval"][1:]))
        got, stdout, err = run_cli(capsys, "eval", "--data-dir", "d",
                                   "--model", "m")
        assert (got, stdout, err) == (code, "", line + "\n")

    @pytest.mark.parametrize("mapping,loss,accepted,rejected", [
        (lambda v: ls_coefficients(ProbVector([0.3, 0.7]), v, 3),
         SmoothedKLLoss, [0.0, 0.5], [-0.1, 1.0, math.nan]),
        (lambda v: focal_coefficients(ProbVector([0.3, 0.7]), v, 3),
         FocalKDLoss, [0.0, 2.0], [-1.0, math.nan]),
    ], ids=["delta", "gamma"])
    def test_mapping_takes_the_loss_range(self, mapping, loss, accepted,
                                          rejected):
        for value in accepted:
            mapping(value)
            loss(value)
        for value in rejected:
            with pytest.raises(InvalidInputError) as by_mapping:
                mapping(value)
            with pytest.raises(InvalidInputError) as by_loss:
                loss(value)
            assert str(by_mapping.value) == str(by_loss.value)

    def test_save_dataset_writes_dataset_files(self, tmp_path, monkeypatch):
        def renamed(d):
            return [Path(d) / n for n in ("meta.json", "a.csv", "b.csv",
                                          "c.csv")]
        monkeypatch.setattr(data, "dataset_files", renamed)
        spec = GaussianMixtureSpec.sample(seed=0, dim=2)
        written = data.save_dataset(data.DatasetDraw(spec, 20), tmp_path)
        sidecar, *splits = renamed(tmp_path)
        # each split's binary copy of its rows follows the dataset files
        assert written == splits + [sidecar] + [
            tmp_path / n for n in ("a.rows", "b.rows", "c.rows")]
        assert sorted(tmp_path.iterdir()) == sorted(written)


class TestReadmeSketch:
    def test_library_sketch_runs(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        sketch = readme.read_text().split("```python\n")[1].split("```")[0]
        namespace = {}
        exec(sketch, namespace)
        np.testing.assert_allclose(namespace["proxies"][0], [0.8685, 0.1315],
                                   atol=1e-4)
        assert namespace["best"].score.total >= 0.0
