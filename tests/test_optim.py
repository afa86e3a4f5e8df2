import numpy as np
import pytest

from normgd import model_gmm, optim
from normgd.model_glm import GlmObjective, glm_grad, glm_hessian
from normgd.model_gmm import GmmObjective
from normgd.numkit import EigenConvergenceError, SymMatrix
from normgd.optim import (
    DegenerateCurvatureError,
    OptimizerConfig,
    Quadratic,
    ScaledObjective,
    RunTrace,
    iterations_to_radius,
    normgd_step,
    run,
)
from normgd.stochastics import rng_new, sample_glm, sample_gmm


def glm_low_snr(n=1000, seed=0):
    ds = sample_glm(n, 4, np.zeros(4), 2, 1.0, rng_new(seed))
    return GlmObjective(ds)


class TestSteps:
    def test_normgd_identity_hessian(self):
        obj = Quadratic(SymMatrix(np.eye(2)))
        theta, lam = normgd_step(obj, np.array([1.0, 1.0]), eta=0.5)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(theta, [0.5, 0.5], atol=1e-12)

    def test_normgd_anisotropic_hessian(self):
        obj = Quadratic(SymMatrix(np.diag([2.0, 1.0])))
        theta, lam = normgd_step(obj, np.array([1.0, 1.0]), eta=1.0)
        assert lam == pytest.approx(2.0, abs=1e-12)
        assert np.allclose(theta, [0.0, 0.5], atol=1e-12)

    def test_normgd_matches_component_composition(self):
        obj = glm_low_snr()
        theta = np.array([0.3, -0.2, 0.1, 0.4])
        got, lam = normgd_step(obj, theta, eta=0.5)
        top = np.linalg.eigvalsh(glm_hessian(obj, theta).a)[-1]
        expected = theta - (0.5 / top) * glm_grad(obj, theta)
        assert lam == pytest.approx(top, abs=1e-10)
        assert np.linalg.norm(got - expected) <= 1e-10

    def test_degenerate_curvature_raises_with_lambda(self):
        obj = Quadratic(SymMatrix(-np.eye(2)))
        with pytest.raises(DegenerateCurvatureError) as exc:
            normgd_step(obj, np.array([1.0, 0.0]), eta=0.5)
        assert exc.value.lam == pytest.approx(-1.0, abs=1e-12)

    def test_gd_exact_newton_coincidence(self):
        obj = Quadratic(SymMatrix(np.eye(2)))
        trace = run(obj, np.array([3.0, -4.0]), OptimizerConfig("gd", eta=1.0, max_iter=1),
                    np.zeros(2))
        assert trace.n_steps == 1
        assert np.allclose(trace.iterates[1], 0.0, atol=1e-15)


class TestLambdaMax:
    @pytest.mark.parametrize("d", [1, 2, 16, 17, 64])
    def test_exact_is_top_of_eigvalsh(self, d):
        rng = np.random.default_rng(d)
        a = rng.standard_normal((d, d))
        for h in (SymMatrix(a + a.T), SymMatrix(a @ a.T), SymMatrix(-(a @ a.T))):
            assert optim.lambda_max(h, "exact") == np.linalg.eigvalsh(h.a)[-1]
            assert optim.lambda_max(h) == np.linalg.eigvalsh(h.a)[-1]

    def test_unconverged_power_iteration_raises(self):
        # A 1e-9 relative top gap needs more iterations than the budget at
        # eig_tol=1e-12; the last estimate (0.99999999947) must not be used.
        h = SymMatrix(np.diag([1.0, 1.0 - 1e-9, 0.5, -0.2]))
        with pytest.raises(EigenConvergenceError):
            optim.lambda_max(h, "power", eig_tol=1e-12)


class TestRun:
    def test_start_at_minimum(self):
        center = np.array([1.0, -2.0])
        obj = Quadratic(SymMatrix(np.eye(2)), center=center)
        for algorithm in ("normgd", "gd"):
            trace = run(obj, center, OptimizerConfig(algorithm, max_iter=50), center)
            assert trace.min_error == 0.0
            assert trace.min_error_iter == 0
            assert trace.n_steps == 0
            assert np.array_equal(trace.iterates, [center])

    def test_quadratic_errors_halve(self):
        obj = Quadratic(SymMatrix(np.eye(2)))
        theta0 = np.array([1.0, 1.0])
        trace = run(obj, theta0, OptimizerConfig("normgd", eta=0.5, max_iter=8), np.zeros(2))
        expected = np.sqrt(2.0) * 0.5 ** np.arange(9)
        assert np.allclose(trace.errors, expected, rtol=1e-12)
        assert trace.termination == "max_iter"

    def test_errors_nonincreasing_on_psd_quadratic(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        obj = Quadratic(SymMatrix(a @ a.T + 0.5 * np.eye(4)))
        theta0 = rng.standard_normal(4)
        trace = run(obj, theta0, OptimizerConfig("normgd", eta=1.0, max_iter=60), np.zeros(4))
        assert np.all(np.diff(trace.errors) <= 1e-14)

    def test_replay_oracle(self):
        obj = glm_low_snr()
        theta0 = np.array([0.25, 0.25, -0.25, 0.25])
        cfg = OptimizerConfig("normgd", eta=0.5, max_iter=50)
        trace = run(obj, theta0, cfg, np.zeros(4))
        theta = theta0.copy()
        replay_errors = [np.linalg.norm(theta)]
        for _ in range(50):
            theta, _ = normgd_step(obj, theta, 0.5)
            replay_errors.append(np.linalg.norm(theta))
        assert np.array_equal(trace.errors, np.array(replay_errors))
        assert trace.min_error == min(replay_errors)

    def test_determinism(self):
        obj = glm_low_snr()
        cfg = OptimizerConfig("normgd", max_iter=40)
        theta0 = np.array([0.1, 0.2, 0.3, -0.2])
        t1 = run(obj, theta0, cfg, np.zeros(4))
        t2 = run(obj, theta0, cfg, np.zeros(4))
        assert np.array_equal(t1.errors, t2.errors)
        assert np.array_equal(t1.lambda_max_seq, t2.lambda_max_seq)

    def test_scale_equivariance(self):
        obj = glm_low_snr()
        scaled = ScaledObjective(obj, 1000.0)
        cfg = OptimizerConfig("normgd", max_iter=30)
        theta0 = np.array([0.2, -0.1, 0.3, 0.1])
        base = run(obj, theta0, cfg, np.zeros(4))
        big = run(scaled, theta0, cfg, np.zeros(4))
        denom = np.maximum(base.errors, 1e-30)
        assert np.max(np.abs(base.errors - big.errors) / denom) <= 1e-10

    def test_em_runs_on_mixture_only(self):
        glm = glm_low_snr()
        with pytest.raises(ValueError):
            run(glm, np.zeros(4), OptimizerConfig("em", max_iter=5), np.zeros(4))
        ds = sample_gmm(200, 2, np.zeros(2), 1.0, rng_new(5))
        obj = GmmObjective(ds)
        trace = run(obj, np.array([0.4, 0.1]), OptimizerConfig("em", eta=1.0, max_iter=20),
                    np.zeros(2))
        assert trace.n_steps == 20

    def test_em_equals_gd_trace(self, monkeypatch):
        # EM steps by -sigma^2 * gradient from the loop's own gradient: it
        # never calls the reference update and ignores cfg.eta.
        def unused(obj, theta):
            raise AssertionError("the run loop called model_gmm.em_step")

        monkeypatch.setattr(model_gmm, "em_step", unused)
        ds = sample_gmm(200, 2, np.array([0.5, 0.5]), 1.3, rng_new(6))
        obj = GmmObjective(ds)
        theta0 = np.array([0.4, 0.1])
        em = run(obj, theta0, OptimizerConfig("em", eta=0.5, max_iter=15), np.zeros(2))
        gd = run(obj, theta0, OptimizerConfig("gd", eta=1.3**2, max_iter=15), np.zeros(2))
        assert em.n_steps == 15
        assert np.array_equal(em.iterates, gd.iterates)

    def test_degenerate_run_flagged_with_partial_trace(self):
        obj = Quadratic(SymMatrix(-np.eye(2)))
        trace = run(obj, np.array([1.0, 0.0]), OptimizerConfig("normgd", max_iter=10),
                    np.zeros(2))
        assert trace.termination == "degenerate"
        assert trace.degenerate_lambda == pytest.approx(-1.0, abs=1e-12)
        assert trace.n_steps == 0
        assert len(trace.errors) == 1

    def test_zero_gradient_stop(self):
        # eta=1 on the identity Hessian lands on the minimum in one step.
        obj = Quadratic(SymMatrix(np.eye(2)))
        cfg = OptimizerConfig("normgd", eta=1.0, max_iter=500)
        trace = run(obj, np.array([1.0, 1.0]), cfg, np.zeros(2))
        assert trace.n_steps == 1
        assert trace.grad_norms[-1] == 0.0
        assert trace.termination == "zero_grad"
        assert trace.degenerate_lambda is None

    def test_divergence_stops_at_first_nonfinite_gradient(self):
        # GD at eta=0.05 on glm strong overflows: the gradient norm is 1.6e66
        # at t=7 and inf at t=8, where the run must stop before any NaN.
        star = np.array([1.0, 2.0, 3.0, 4.0])
        obj = GlmObjective(sample_glm(1000, 4, star, 2, 1.0, rng_new(0)))
        with pytest.warns(RuntimeWarning):
            trace = run(obj, star + 0.15, OptimizerConfig("gd", eta=0.05, max_iter=200), star)
        assert trace.termination == "diverged"
        assert trace.n_steps == 8
        assert np.isinf(trace.grad_norms[-1])
        assert np.all(np.isfinite(trace.grad_norms[:-1]))
        assert np.all(np.isfinite(trace.errors)) and np.all(np.isfinite(trace.iterates))
        assert (trace.min_error, trace.min_error_iter) == (trace.errors[0], 0)

    def test_iterates_are_dense_past_ten_thousand_steps(self):
        obj = Quadratic(SymMatrix(np.eye(2)))
        cfg = OptimizerConfig("gd", eta=1e-4, max_iter=10_050)
        trace = run(obj, np.array([1.0, 1.0]), cfg, np.zeros(2))
        assert trace.iterates.shape == (10_051, 2)
        for t in (10_001, 10_049):
            theta = trace.iterates[t]
            assert np.array_equal(trace.iterates[t + 1], theta - 1e-4 * obj.gradient(theta))

    def test_config_validation(self):
        obj = Quadratic(SymMatrix(np.eye(2)))
        for bad in (
            OptimizerConfig("sgd"),
            OptimizerConfig("gd", eta=0.0),
            OptimizerConfig("gd", max_iter=-1),
        ):
            with pytest.raises(ValueError):
                run(obj, np.zeros(2), bad, np.zeros(2))


class TestTraceUtils:
    def synthetic_trace(self):
        return RunTrace(
            algorithm="normgd",
            iterates=np.array([[1.0], [0.5], [0.25]]),
            errors=np.array([1.0, 0.5, 0.25]),
            grad_norms=np.array([1.0, 0.5, 0.25]),
            lambda_max_seq=np.array([1.0, 1.0]),
            min_error=0.25,
            min_error_iter=2,
            n_steps=2,
            termination="max_iter",
            degenerate_lambda=None,
            wall_time=0.0,
        )

    def test_iterations_to_radius(self):
        trace = self.synthetic_trace()
        assert iterations_to_radius(trace, 0.3) == 2
        assert iterations_to_radius(trace, 2.0) == 0
        assert iterations_to_radius(trace, 0.1) is None

    def test_csv_and_record(self, tmp_path):
        obj = glm_low_snr(n=100)
        trace = run(obj, np.full(4, 0.25), OptimizerConfig("normgd", max_iter=5), np.zeros(4))
        csv_path = tmp_path / "t.csv"
        trace.write_csv(csv_path)
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "iter,error,grad_norm,lambda_max"
        assert len(lines) == trace.n_steps + 2
        assert trace.record() == {
            "algorithm": "normgd",
            "n_steps": 5,
            "min_error": trace.min_error,
            "min_error_iter": trace.min_error_iter,
            "final_error": float(trace.errors[-1]),
            "termination": "max_iter",
            "degenerate_lambda": None,
            "wall_time": trace.wall_time,
        }
