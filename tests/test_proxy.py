import numpy as np
import pytest

from ptdistill import proxy
from ptdistill.core import (
    SIMPLEX_ATOL,
    InvalidInputError,
    clamp_probs,
    softmax_rows,
)
from ptdistill.losses import PerturbationConfig, pt_grad_rows, pt_rows
from ptdistill.proxy import (
    SolverConfig,
    _local_model,
    _solve_rows,
    solve_proxy_rows,
)


def solve_one(teacher, cfg, solver=SolverConfig()):
    """One example through the batch solver: (proxy, residual, iters, conv)."""
    proxies, norms, iterations, converged = _solve_rows(
        np.asarray(teacher, dtype=float)[None, :], cfg, solver)
    return proxies[0], norms[0], iterations[0], converged[0]


def grid_oracle(teacher, cfg, step=1e-6):
    """Binary dense grid argmin of the per-example objective."""
    q0 = np.arange(step, 1.0, step)
    q = np.stack([q0, 1.0 - q0], axis=1)
    g = pt_rows(np.tile(teacher, (q0.size, 1)), q, cfg)
    i = int(np.argmin(g))
    return q[i], float(g[i])


class TestCurvature:
    def test_curvature_matches_slope_differences(self):
        # g is separable in q, so d(dg)/dq is diagonal with entries h
        rng = np.random.default_rng(63)
        for _ in range(20):
            c = int(rng.integers(2, 5))
            t = rng.dirichlet(np.ones(c))
            q = softmax_rows(rng.uniform(-2, 2, size=c))
            m = int(rng.integers(1, 4))
            eps = rng.uniform(-2, 2, size=(c, m))
            # _local_model works on class-major columns
            t, stack = t[:, None], eps.T[:, :, None]
            h = _local_model(t, clamp_probs(t), q[:, None], stack)[2][:, 0]
            for j in range(c):
                e = np.zeros(c)
                e[j] = 1e-6 * q[j]
                up = _local_model(t, clamp_probs(t), (q + e)[:, None],
                                  stack)[1][:, 0]
                dn = _local_model(t, clamp_probs(t), (q - e)[:, None],
                                  stack)[1][:, 0]
                fd = (up - dn) / (2 * e[j])
                np.testing.assert_allclose(fd, h[j] * np.eye(c)[j], atol=5e-6)


class TestSolveProxyExample:
    """Single-example solves."""

    def test_zero_coefficients_return_teacher(self):
        rng = np.random.default_rng(65)
        for c in (2, 3, 10):
            for _ in range(20):
                t = rng.dirichlet(np.ones(c))
                t = np.clip(t, 1e-4, None)
                t /= t.sum()
                (proxy,), (converged,) = solve_proxy_rows(
                    t, PerturbationConfig.zero(c))
                assert converged
                np.testing.assert_allclose(proxy, t, atol=1e-8)

    def test_direct_binary_value(self):
        cfg = PerturbationConfig.tied([1.0], 2)
        (proxy,), (converged,) = solve_proxy_rows(np.array([0.8, 0.2]), cfg)
        assert converged
        assert proxy[0] == pytest.approx(0.8685170917577956, abs=1e-8)
        obj = float(pt_rows(np.array([0.8, 0.2]), proxy, cfg))
        assert obj == pytest.approx(0.29703741473093437, abs=1e-10)

    def test_direct_binary_order_two(self):
        cfg = PerturbationConfig.tied([1.0, 1.0], 2)
        (proxy,), _ = solve_proxy_rows(np.array([0.8, 0.2]), cfg)
        assert proxy[0] == pytest.approx(0.8586093362777536, abs=1e-8)

    def test_stationary_gradient(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            c = int(rng.integers(2, 6))
            t = rng.dirichlet(np.ones(c))
            t = np.clip(t, 1e-3, None)
            t /= t.sum()
            m = int(rng.integers(1, 4))
            cfg = PerturbationConfig(m, rng.uniform(-2, 2, size=(c, m)))
            (proxy,), (converged,) = solve_proxy_rows(t, cfg)
            if converged:
                grad = pt_grad_rows(t, np.log(proxy), cfg)[1]
                assert np.linalg.norm(grad) <= 1e-6

    def test_teacher_entries_at_or_near_zero(self):
        # exact zeros need the clamped curvature; an entry just above the
        # 1e-12 clamp is pushed below it by the first, boundary-capped step,
        # where only an unclamped objective still shows the way back
        cases = [
            ([[0.7, 0.3, 0.0], [0.0, 1.0, 0.0], [0.5, 0.0, 0.5]],
             [[1.0, 2.0], [3.0, -1.0], [0.5, 0.5]]),
            ([[0.6, 0.4 - 9e-12, 9e-12]],
             [[5.89, 9.22, 7.21], [0.67, 6.26, 5.76], [1.33, 0.06, 0.38]]),
        ]
        for teachers, eps in cases:
            teachers = np.array(teachers)
            cfg = PerturbationConfig(len(eps[0]), np.array(eps))
            proxies, converged = solve_proxy_rows(teachers, cfg)
            assert np.all(converged) and np.all(np.isfinite(proxies))
            grads = pt_grad_rows(teachers, np.log(proxies), cfg)[1]
            assert np.all(np.linalg.norm(grads, axis=1) <= 1e-6)
            # a class the teacher rules out gets (next to) no proxy mass
            assert np.all(proxies[teachers == 0.0] <= 1e-12)

    def test_nonconvex_class_term(self):
        # a class term that is concave at the solution (first row: h_3 < 0)
        # or where the iterates pass (second row: there diag(h) is indefinite
        # on sum(d) = 0, and without the KL curvature standing in the row
        # does not converge within 100 iterations); the third row converges
        # only if a rejected trial leaves the row where it was
        cases = [
            ([0.002, 0.002, 0.996],
             [[0.21, 1.72], [6.72, 0.19], [-0.91, -0.76]]),
            ([0.38, 0.5, 0.12],
             [[4.5, 4.4, 2.2], [4.7, 1.1, -6.3], [9.0, 1.9, 0.5]]),
            ([0.0003, 0.0032, 0.9965],
             [[0.21, 1.72], [6.72, 0.19], [-0.91, -0.76]]),
        ]
        for i, (t, eps) in enumerate(cases):
            t = np.array(t)
            cfg = PerturbationConfig(len(eps[0]), np.array(eps))
            proxy, norm, _, converged = solve_one(t, cfg)
            assert converged and norm <= 1e-8
            if i == 0:
                t, stack = t[:, None], cfg.coefficients.T[:, :, None]
                h = _local_model(t, clamp_probs(t), proxy[:, None], stack)[2]
                assert h[2, 0] < 0.0

    def test_step_stops_halfway_to_the_boundary(self):
        # a full Newton step from the teacher overshoots a class past q = 0;
        # a step capped at 0.99 of the way there leaves it at 1 % of its
        # value and the row needs 10 and 9 iterations, one capped halfway
        # 7 and 5
        t = np.array([0.14, 0.26, 0.60])
        for eps, most in (([0.0, 0.0, 8.0], 7), ([10.0, 10.0, -1.0], 5)):
            cfg = PerturbationConfig(1, np.array(eps)[:, None])
            proxy, _, iterations, converged = solve_one(t, cfg)
            assert converged and iterations <= most
            grad = pt_grad_rows(t, np.log(proxy), cfg)[1]
            assert np.linalg.norm(grad) <= SolverConfig().tolerance

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t0 = rng.uniform(0.05, 0.95)
            t = np.array([t0, 1.0 - t0])
            m = int(rng.integers(1, 4))
            cfg = PerturbationConfig(m, rng.uniform(-2, 2, size=(2, m)))
            (proxy,), _ = solve_proxy_rows(t, cfg)
            q_star, g_star = grid_oracle(t, cfg)
            obj = float(pt_rows(t, proxy, cfg))
            assert obj == pytest.approx(g_star, abs=1e-6)
            np.testing.assert_allclose(proxy, q_star, atol=1e-4)

    def test_idempotent_restart(self):
        # with eps = 0 the teacher start point is already stationary, so the
        # solve must stop before its first step and return the start point
        rng = np.random.default_rng(69)
        for c in (2, 3, 10):
            t = rng.dirichlet(np.ones(c))
            proxy, norm, iterations, converged = solve_one(
                t, PerturbationConfig.tied([0.0, 0.0], c))
            assert iterations == 0
            assert converged and norm <= 1e-8
            np.testing.assert_allclose(proxy, t, atol=1e-10)

    def test_reports_nonconvergence(self):
        _, norm, _, converged = solve_one(
            [0.8, 0.2], PerturbationConfig.tied([5.0], 2),
            SolverConfig(max_iterations=1))
        assert not converged
        assert norm > 1e-8


class TestBatchSolvers:
    def test_batch_matches_example(self):
        # each row of a batch solve equals that row solved on its own
        rng = np.random.default_rng(71)
        teachers = rng.dirichlet(np.ones(3), size=8)
        cfg = PerturbationConfig(2, rng.uniform(-1, 2, size=(3, 2)))
        proxies, conv = solve_proxy_rows(teachers, cfg)
        assert proxies.shape == (8, 3) and conv.shape == (8,)
        for row, proxy, ok in zip(teachers, proxies, conv):
            single, _, _, single_ok = solve_one(row, cfg)
            np.testing.assert_allclose(proxy, single, atol=1e-9)
            assert ok == single_ok

    def test_wide_rows_stay_on_simplex(self):
        # sum(d) = 0 holds only up to cancellation; at C = 100 the sums
        # must still stay within the simplex tolerance
        rng = np.random.default_rng(75)
        teachers = rng.dirichlet(np.full(100, 0.5), size=40)
        cfg = PerturbationConfig(3, rng.uniform(-1, 10, size=(100, 3)))
        proxies, conv = solve_proxy_rows(teachers, cfg)
        assert np.all(conv) and np.all(proxies > 0.0)
        np.testing.assert_allclose(proxies.sum(axis=1), 1.0, rtol=0,
                                   atol=SIMPLEX_ATOL)

    @pytest.mark.parametrize("c", [3, 100])
    def test_rows_keep_their_own_bookkeeping(self, c):
        # the batch loop drops each row once it meets the tolerance; every
        # row must still report what it reports when solved alone
        rng = np.random.default_rng(77)
        eps = rng.uniform(-1, 10, size=(c, 3))
        eps[c // 2:] = 0.0
        cfg = PerturbationConfig(3, eps)
        # rows with no teacher mass on a perturbed class are stationary
        still = np.zeros((4, c))
        still[:, c // 2:] = rng.dirichlet(np.ones(c - c // 2), size=4)
        teachers = np.concatenate(
            [rng.dirichlet(np.full(c, 0.5), size=12), still])
        teachers = teachers[rng.permutation(len(teachers))]
        for solver in (SolverConfig(), SolverConfig(max_iterations=2)):
            proxies, norms, iterations, converged = _solve_rows(
                teachers, cfg, solver)
            for i, row in enumerate(teachers):
                proxy, norm, iters, conv = solve_one(row, cfg, solver)
                assert iterations[i] == iters and converged[i] == conv
                np.testing.assert_allclose(proxies[i], proxy, atol=1e-9)
                np.testing.assert_allclose(norms[i], norm, atol=1e-9)
            # stationary rows, then rows that finish at different
            # iterations or, at two iterations, rows stopped short
            assert np.sum(iterations == 0) == 4
            if solver.max_iterations == 2:
                assert not np.all(converged)
            else:
                assert np.all(converged) and len(set(iterations)) >= 3

    @pytest.mark.parametrize("eps,teachers", [
        # h_3 < 0 near the first and third rows' solutions, where the exact
        # step still holds
        ([[0.21, 1.72], [6.72, 0.19], [-0.91, -0.76]],
         [[0.002, 0.002, 0.996], [0.2, 0.3, 0.5], [0.0003, 0.0032, 0.9965],
          [0.6, 0.1, 0.3], [0.1, 0.8, 0.1]]),
        # diag(h) indefinite on sum(d) = 0 for the first and third rows: the
        # KL curvature stands in
        ([[4.5, 4.4, 2.2], [4.7, 1.1, -6.3], [9.0, 1.9, 0.5]],
         [[0.38, 0.5, 0.12], [0.5, 0.001, 0.499], [0.2443, 0.549, 0.2067],
          [0.3, 0.01, 0.69], [0.6, 0.05, 0.35]]),
    ], ids=["indefinite-exact", "kl-fallback"])
    def test_convexity_test_keeps_rows_apart(self, monkeypatch, eps,
                                             teachers):
        # a batch skips the all-h-positive shortcut if any row has some
        # h_c <= 0; rows whose h stays positive must still step as they do
        # alone, where the shortcut is taken
        newton_step, saw_nonpositive = proxy._newton_step, []

        def recording_step(floor, q, dg, h):
            saw_nonpositive.append(bool(np.any(h <= 0.0)))
            return newton_step(floor, q, dg, h)

        monkeypatch.setattr(proxy, "_newton_step", recording_step)
        eps = np.array(eps)
        cfg = PerturbationConfig(eps.shape[1], eps)
        alone, curved = [], []
        for row in teachers:
            saw_nonpositive.clear()
            alone.append(solve_one(row, cfg))
            curved.append(any(saw_nonpositive))
        assert curved == [True, False, True, False, False]
        proxies, norms, iterations, converged = _solve_rows(
            np.array(teachers), cfg, SolverConfig())
        assert np.all(converged)
        for i, (proxy_, norm, iters, _) in enumerate(alone):
            assert np.array_equal(proxies[i], proxy_)
            assert norms[i] == norm and iterations[i] == iters

    def test_rows_matches_batch(self):
        # the pipelines' entry point returns the full solve's arrays unchanged
        rng = np.random.default_rng(73)
        teachers = rng.dirichlet(np.ones(4), size=6)
        cfg = PerturbationConfig.tied([0.5, -0.2], 4)
        proxies, conv = solve_proxy_rows(teachers, cfg)
        full, _, _, full_conv = _solve_rows(teachers, cfg, SolverConfig())
        np.testing.assert_array_equal(proxies, full)
        np.testing.assert_array_equal(conv, full_conv)

    def test_empty_batch(self):
        with pytest.raises(InvalidInputError):
            solve_proxy_rows(np.empty((0, 2)), PerturbationConfig.zero(2))

    def test_mismatched_classes(self):
        with pytest.raises(InvalidInputError):
            solve_proxy_rows(np.full((3, 4), 0.25),
                             PerturbationConfig.tied([1.0], 3))


class TestSolverConfig:
    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0},
        {"max_iterations": 0},
        {"tolerance": -1.0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(InvalidInputError):
            SolverConfig(**kwargs)
