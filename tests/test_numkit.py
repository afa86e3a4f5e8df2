import numpy as np
import pytest

from normgd import numkit
from normgd.checks import random_gapped_symmetric
from normgd.numkit import (
    DegenerateDesignError,
    SymMatrix,
    fd_gradient,
    fd_hessian_from_grad,
    linfit,
    power_iteration,
)
from normgd.stochastics import rng_new


class TestSymMatrix:
    def test_symmetrization_is_exact(self):
        a = np.arange(9.0).reshape(3, 3)
        m = SymMatrix(a)
        assert np.array_equal(m.a, m.a.T)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SymMatrix(np.array([[1.0, np.inf], [np.inf, 1.0]]))


class TestPowerIteration:
    def test_diagonal_dominant(self):
        res = power_iteration(np.diag([3.0, 1.0]), tol=1e-10)
        assert res.converged
        assert abs(res.value - 3.0) < 1e-9
        assert abs(np.linalg.norm(res.vector) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [1, 2, 5, 20])
    def test_identity(self, d):
        res = power_iteration(np.eye(d), tol=1e-10)
        assert res.converged
        assert abs(res.value - 1.0) < 1e-9

    def test_indefinite_returns_largest_algebraic(self):
        # Largest magnitude is -5; the shift must surface +2 instead.
        res = power_iteration(np.diag([-5.0, 2.0]), tol=1e-10)
        assert res.converged
        assert abs(res.value - 2.0) < 1e-8

    def test_negative_definite(self):
        res = power_iteration(np.diag([-4.0, -1.0]), tol=1e-10)
        assert res.converged
        assert abs(res.value - (-1.0)) < 1e-8

    def test_zero_matrix(self):
        res = power_iteration(np.zeros((3, 3)), tol=1e-10)
        assert res.converged
        assert res.value == 0.0

    def test_callable_map_needs_dim(self):
        a = np.diag([2.0, 1.0])
        res = power_iteration(lambda v: a @ v, dim=2, tol=1e-10)
        assert abs(res.value - 2.0) < 1e-8
        with pytest.raises(ValueError):
            power_iteration(lambda v: a @ v)

    def test_agrees_with_eigvalsh_on_gapped_matrices(self):
        rng = rng_new(7)
        for case in range(40):
            mat, _ = random_gapped_symmetric(rng, case)
            top = np.linalg.eigvalsh(mat.a)[-1]
            res = power_iteration(mat, tol=1e-10, seed=case)
            assert abs(res.value - top) <= 1e-8 * max(1.0, abs(top))
            if res.converged:
                resid = np.linalg.norm(mat.matvec(res.vector) - res.value * res.vector)
                assert resid <= 1e-10 * max(1.0, abs(res.value))

    def test_seed_invariance_when_converged(self):
        mat, _ = random_gapped_symmetric(rng_new(3), 1)
        vals = [power_iteration(mat, tol=1e-10, seed=s).value for s in range(5)]
        assert max(vals) - min(vals) <= 1e-9 * max(1.0, abs(vals[0]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            power_iteration(np.eye(2), tol=0.0)


class TestLinfit:
    def test_exact_line(self):
        fit = linfit([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
        assert fit.slope == pytest.approx(2.0, abs=1e-14)
        assert fit.intercept == pytest.approx(1.0, abs=1e-14)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_flat_line(self):
        fit = linfit([1.0, 2.0], [5.0, 5.0])
        assert fit.slope == 0.0

    def test_log_power_law(self):
        n = np.array([500.0, 1000.0, 2000.0, 4000.0])
        ys = np.log(3.7 * n**-0.5)
        fit = linfit(np.log(n), ys)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_random_affine_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = rng.standard_normal(2)
            x = rng.standard_normal(10)
            fit = linfit(x, a * x + b)
            assert fit.slope == pytest.approx(a, rel=1e-10, abs=1e-10)
            assert fit.intercept == pytest.approx(b, rel=1e-10, abs=1e-10)

    def test_degenerate_design(self):
        with pytest.raises(DegenerateDesignError):
            linfit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_length_validation(self):
        with pytest.raises(ValueError):
            linfit([1.0], [2.0])


class TestFiniteDifferences:
    def test_gradient_of_known_polynomial(self):
        def f(t):
            return t[0] ** 3 + 2.0 * t[0] * t[1] + t[1] ** 2

        theta = np.array([0.7, -1.2])
        g = fd_gradient(f, theta)
        expected = np.array([3 * 0.7**2 + 2 * -1.2, 2 * 0.7 + 2 * -1.2])
        assert np.allclose(g, expected, atol=1e-8)

    def test_hessian_of_known_gradient(self):
        def grad(t):
            return np.array([3 * t[0] ** 2 + 2 * t[1], 2 * t[0] + 2 * t[1]])

        theta = np.array([0.7, -1.2])
        h = fd_hessian_from_grad(grad, theta)
        expected = np.array([[6 * 0.7, 2.0], [2.0, 2.0]])
        assert np.allclose(h, expected, atol=1e-8)
        assert np.array_equal(h, h.T)


def test_gershgorin_shift_matches_row_sums():
    a = np.array([[1.0, -2.0], [-2.0, 0.5]])
    m = SymMatrix(a)
    assert m.row_abs_sum_max() == 3.0
    assert numkit._gershgorin_shift(m.matvec, 2) == 3.0
