"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a checklist.
The desk-scale reproduction (criterion 7) trains real teachers and students
and takes several minutes; everything else runs in seconds.
"""
import copy
import json

import numpy as np
import pytest
from scipy.stats import spearmanr

from ptdistill import cli, equivalence, nn
from ptdistill.core import softmax_rows
from ptdistill.data import GaussianMixtureSpec, generate, load_dataset, \
    write_csv
from ptdistill.distill import _train_student, score_split, teacher_probs, \
    train_teacher, sweep_proxy_teachers
from ptdistill.equivalence import truncation_bound, verify_equivalence
from ptdistill.losses import (
    PerturbationConfig,
    kl_rows,
    PTLoss,
    make_loss,
    perturbation_terms,
    pt_rows,
)
from ptdistill.proxy import solve_proxy_rows
from ptdistill.selection import (
    SearchSpec,
    best_trial,
    quality_score,
    run_search,
)


def report(criterion: str, ok: bool) -> bool:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}")
    return ok


def random_simplex_rows(rng, n, c):
    return rng.dirichlet(np.ones(c), size=n)


def test_criterion_1_loss_fallback_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for c in (2, 3, 10):
        n = 10_000 // 3 + 1
        t = random_simplex_rows(rng, n, c)
        s = random_simplex_rows(rng, n, c)
        order = int(rng.integers(0, 5))
        cfg = PerturbationConfig.zero(c, order)
        gap = np.max(np.abs(pt_rows(t, s, cfg) - kl_rows(t, s)))
        worst = max(worst, float(gap))
    ok = worst <= 1e-12
    assert report(f"criterion 1: pt(eps=0) == kl, max gap {worst:.2e}", ok)


def test_criterion_2_gradient_correctness():
    rng = np.random.default_rng(102)
    h = 1e-6

    worst_loss = 0.0
    for _ in range(200):
        c = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        t = rng.dirichlet(np.ones(c))
        z = rng.uniform(-3, 3, size=c)
        cfg = PerturbationConfig(m, rng.uniform(-10, 10, size=(c, m)))
        grad = PTLoss(cfg).grads(t, z)
        fd = np.zeros(c)
        for j in range(c):
            e = np.zeros(c)
            e[j] = h
            fd[j] = (PTLoss(cfg).values(t, z + e)
                     - PTLoss(cfg).values(t, z - e)) / (2 * h)
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1.0)
        worst_loss = max(worst_loss, float(rel))

    worst_net = 0.0
    model = nn.init([4, 6, 3], seed=0)
    for _ in range(20):
        m = int(rng.integers(1, 6))
        cfg = PerturbationConfig(m, rng.uniform(-10, 10, size=(3, m)))
        loss = make_loss("pt", cfg=cfg)
        x = rng.normal(size=(5, 4))
        targets = rng.dirichlet(np.ones(3), size=5)
        # the step train takes; the mean loss of the perturbed models
        step = nn._Step(model.layer_dims, len(x))
        step.backprop(model, x, targets, loss)
        dws = step.dws
        for li in range(len(model.weights)):
            i, j = 0, 0
            pert = copy.deepcopy(model)
            pert.weights[li][i, j] += h
            up = np.mean(loss.values(targets, nn.forward_rows(pert, x)))
            pert.weights[li][i, j] -= 2 * h
            dn = np.mean(loss.values(targets, nn.forward_rows(pert, x)))
            fd = (up - dn) / (2 * h)
            rel = abs(dws[li][i, j] - fd) / max(abs(fd), 1.0)
            worst_net = max(worst_net, float(rel))

    ok = worst_loss <= 1e-5 and worst_net <= 1e-4
    assert report(
        f"criterion 2: gradient vs finite differences, loss rel "
        f"{worst_loss:.2e}, network rel {worst_net:.2e}", ok)


def test_criterion_3_series_bound():
    # the order-M Maclaurin series of log x as the PT kernel evaluates it:
    # -perturbation_terms(1, x, eps) with eps_m = 1/m
    violations = 0
    worst_margin = np.inf
    for x in np.linspace(0.05, 1.0, 96):
        x = float(x)
        for m in range(1, 101):
            value, = perturbation_terms(1.0, x, 1.0 / np.arange(1, m + 1), 0)
            err = abs(np.log(x) + value)
            bound = truncation_bound(x, m)
            # allow rounding noise once the analytic bound hits epsilon
            if err > bound + 1e-14:
                violations += 1
            worst_margin = min(worst_margin, bound - err)
    ok = violations == 0
    assert report(
        f"criterion 3: series bound over the (x, M) grid, "
        f"{violations} violations", ok)


def test_criterion_4_equivalence_suite(monkeypatch):
    # the temperature leg holds by construction, so the range of its fitted
    # eps is what it has to show
    fitted = []
    fit = equivalence._fit_temperature_coefficient

    def recording_fit(*args):
        cfg = fit(*args)
        fitted.append(float(cfg.coefficients[0, 0]))
        return cfg

    monkeypatch.setattr(equivalence, "_fit_temperature_coefficient",
                        recording_fit)
    ls = verify_equivalence("label_smoothing", 0.1, order=200, trials=100,
                            seed=0)
    fo = verify_equivalence("focal", 2.0, order=200, trials=100, seed=0)
    te = verify_equivalence("temperature", 4.0, order=1, trials=100, seed=0)
    ok = (ls.max_abs_deviation <= 1e-6 and fo.max_abs_deviation <= 1e-6
          and te.max_abs_deviation <= 1e-6)
    assert report(
        f"criterion 4: equivalence suite, deviations "
        f"ls {ls.max_abs_deviation:.2e} focal {fo.max_abs_deviation:.2e} "
        f"temperature {te.max_abs_deviation:.2e} (holds by construction: "
        f"eps is fitted to the value it is compared against; fitted eps in "
        f"[{min(fitted):.3g}, {max(fitted):.3g}] over {len(fitted)} pairs)",
        ok)


def test_criterion_5_proxy_solver_oracle():
    rng = np.random.default_rng(0)
    worst_obj = 0.0
    worst_sol = 0.0
    q0 = np.arange(1e-6, 1.0, 1e-6)
    grid = np.stack([q0, 1.0 - q0], axis=1)
    for _ in range(50):
        t0 = rng.uniform(0.05, 0.95)
        t = np.array([t0, 1.0 - t0])
        m = int(rng.integers(1, 4))
        cfg = PerturbationConfig(m, rng.uniform(-2, 2, size=(2, m)))
        (proxy,), _ = solve_proxy_rows(t, cfg)
        g = pt_rows(np.tile(t, (q0.size, 1)), grid, cfg)
        i = int(np.argmin(g))
        obj = float(pt_rows(t, proxy, cfg))
        worst_obj = max(worst_obj, abs(obj - float(g[i])))
        worst_sol = max(worst_sol, float(np.max(np.abs(proxy - grid[i]))))

    worst_id = 0.0
    for c in (2, 3, 10):
        for _ in range(20):
            t = rng.dirichlet(np.ones(c))
            t = np.clip(t, 1e-6, None)
            t /= t.sum()
            (proxy,), _ = solve_proxy_rows(t, PerturbationConfig.zero(c))
            worst_id = max(worst_id, float(np.max(np.abs(proxy - t))))

    ok = worst_obj <= 1e-6 and worst_sol <= 1e-4 and worst_id <= 1e-8
    assert report(
        f"criterion 5: proxy solver vs grid oracle, objective gap "
        f"{worst_obj:.2e}, solution gap {worst_sol:.2e}, eps=0 identity "
        f"{worst_id:.2e}", ok)


def test_criterion_6_quality_score_guarantee():
    ok = True
    margins = []
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 60
        labels = np.eye(3)[rng.integers(0, 3, size=n)]
        noise = rng.uniform(0.05, 0.4, size=(n, 1))
        teachers = labels * (1 - noise) + (1 - labels) * noise / 2
        spec = SearchSpec(max_order=2, trials_per_order=10, seed=seed)
        score = best_trial(run_search(teachers, labels, spec)).score
        baseline = quality_score(teachers, labels)
        margins.append(baseline.total - score.total)
        ok = ok and score.total <= baseline.total + 1e-12
    assert report(
        f"criterion 6: searched score never exceeds the eps=0 baseline "
        f"on 5 seeds, min margin {min(margins):.2e}", ok)


# ---------------------------------------------------------------------------
# Criterion 7: desk-scale reproduction on the default Gaussian task.
# ---------------------------------------------------------------------------

ARCH = [30, 128, 128, 3]


@pytest.fixture(scope="module")
def desk_scale():
    """Shared pipeline state: dataset, per-seed students, and the sweep."""
    spec = GaussianMixtureSpec.sample(seed=0)
    data = generate(spec, 100_000, (0.05, 0.05, 0.9))
    x_val, y_val = data.split("validation")

    accs = []
    teachers = {}
    for seed in range(3):
        teacher, _ = train_teacher(data, ARCH,
                                   nn.TrainConfig(epochs=100, seed=seed))
        teachers[seed] = teacher
        stc = nn.TrainConfig(epochs=100, seed=seed + 100)
        # no test reads the students' histories
        kl_student, _ = _train_student(teacher, data, make_loss("kl"), stc,
                                       record_history=False)
        cfg = best_trial(run_search(
            teacher_probs(teacher, x_val), y_val,
            SearchSpec(max_order=3, trials_per_order=100, seed=seed))).config
        pt_student, _ = _train_student(teacher, data,
                                       make_loss("pt", cfg=cfg), stc,
                                       record_history=False)
        accs.append(score_split([kl_student, pt_student], data, "test"))

    # sweep: spread 12 candidates across the score range of a short search
    traj = run_search(teacher_probs(teachers[0], x_val), y_val,
                      SearchSpec(max_order=2, trials_per_order=10, seed=0))
    kept = sorted((t for t in traj if not t.discarded),
                  key=lambda t: t.score.total)
    idx = np.unique(np.linspace(0, len(kept) - 1, 12).astype(int))
    configs = [kept[i].config for i in idx]
    points = sweep_proxy_teachers(teachers[0], data, configs,
                                  nn.TrainConfig(epochs=100, seed=100))
    return accs, points


@pytest.mark.desk_scale
def test_criterion_7a_pt_vs_kl(desk_scale):
    accs, _ = desk_scale
    deltas = [pt - kl for kl, pt in accs]
    ok = all(d >= -0.002 for d in deltas) and sum(d > 0 for d in deltas) >= 2
    assert report(
        "criterion 7a: pt student vs kl student accuracy deltas "
        + ", ".join(f"{d:+.4f}" for d in deltas), ok)


@pytest.mark.desk_scale
def test_criterion_7b_l2_correlation(desk_scale):
    _, points = desk_scale
    assert len(points) >= 10
    rho = float(spearmanr([p.l2_distance_to_truth for p in points],
                          [p.student_test_accuracy for p in points]).statistic)
    ok = rho <= -0.5
    assert report(
        f"criterion 7b: Spearman(L2 distance, accuracy) = {rho:.3f}", ok)


@pytest.mark.desk_scale
def test_criterion_7c_tvd_correlation(desk_scale):
    _, points = desk_scale
    rho = float(spearmanr([p.tvd_to_truth for p in points],
                          [p.student_test_accuracy for p in points]).statistic)
    ok = rho <= -0.5
    assert report(
        f"criterion 7c: Spearman(TVD, accuracy) = {rho:.3f}", ok)


def test_criterion_8_determinism(tmp_path, capsys):
    """Re-running the same pipeline reproduces every output bit-for-bit."""
    digests = []
    for name in ("run-a", "run-b"):
        root = tmp_path / name
        data_dir = root / "data"
        assert cli.run([
            "generate-data", "--dim", "6", "--n", "400",
            "--split", "0.5,0.25,0.25", "--seed", "3",
            "--out-dir", str(data_dir)]) == 0
        teacher = root / "teacher.json"
        assert cli.run([
            "train-teacher", "--data-dir", str(data_dir),
            "--arch", "6,16,3", "--lr", "0.01", "--epochs", "5",
            "--seed", "0", "--out", str(teacher)]) == 0
        probs = root / "probs.csv"
        model = nn.load_model(teacher)
        x_val, _ = load_dataset(data_dir).split("validation")
        write_csv(probs, ["p_0", "p_1", "p_2"],
                  [softmax_rows(nn.forward_rows(model, x_val))])
        coeffs = root / "coeffs.json"
        coeffs.write_text(json.dumps(
            {"order": 1, "tie_classes": True, "matrix": [[1.0]] * 3}))
        proxies = root / "proxies.csv"
        assert cli.run([
            "solve-proxy", "--teacher-probs", str(probs),
            "--coeffs", str(coeffs), "--out", str(proxies)]) == 0
        capsys.readouterr()
        run_digests = {}
        for manifest in root.rglob("*.manifest.json"):
            doc = json.loads(manifest.read_text())
            for path, digest in doc["outputs"].items():
                run_digests[path.split("/")[-1]] = digest
        digests.append(run_digests)
    ok = digests[0] == digests[1] and len(digests[0]) >= 5
    assert report(
        f"criterion 8: repeated runs reproduce {len(digests[0])} output "
        f"files bit-identically", ok)
