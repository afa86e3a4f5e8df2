import numpy as np
import pytest

from normgd.model_glm import (
    GlmObjective,
    GlmPopulation,
    SingularPointError,
    double_factorial,
    glm_grad,
    glm_hessian,
    glm_loss,
    glm_pop_hessian_eigs,
    glm_pop_loss,
)
from normgd.numkit import fd_gradient, fd_hessian_from_grad
from normgd.stochastics import GlmDataset, rng_new, rng_normal, rng_uniform, sample_glm


def single_row(x, y, p=2):
    x = np.asarray(x, dtype=float)
    return GlmObjective(
        GlmDataset(X=x[None, :], Y=np.array([float(y)]), p=p, sigma=1.0)
    )


def random_instance(seed, p=None):
    rng = rng_new(seed)
    d = 2 + int(rng_uniform(rng, 1)[0] * 4)
    n = 30 + int(rng_uniform(rng, 1)[0] * 50)
    if p is None:
        p = 2 + int(rng_uniform(rng, 1)[0] * 2)
    theta_star = rng_normal(rng, d) * 0.5
    data = sample_glm(n, d, theta_star, p, 1.0, rng)
    theta = rng_normal(rng, d)
    theta *= (0.3 + rng_uniform(rng, 1)[0]) / np.linalg.norm(theta)
    return GlmObjective(data), theta


class TestDoubleFactorial:
    @pytest.mark.parametrize("m,expected", [(1, 1), (3, 3), (5, 15), (7, 105), (33, 6332659870762850625)])
    def test_values(self, m, expected):
        assert double_factorial(m) == expected

    @pytest.mark.parametrize("m", [0, -1, 2, 4, 35])
    def test_rejects(self, m):
        with pytest.raises(ValueError):
            double_factorial(m)


class TestLoss:
    def test_single_row_at_zero(self):
        obj = single_row([1.0, 0.0], 1.0)
        assert glm_loss(obj, np.zeros(2)) == 0.5

    def test_single_row_perfect_fit(self):
        obj = single_row([1.0, 0.0], 1.0)
        assert glm_loss(obj, np.array([1.0, 0.0])) == 0.0

    def test_matches_naive_summation(self):
        obj, theta = random_instance(21)
        total = 0.0
        for i in range(obj.data.n):
            u = float(obj.data.X[i] @ theta)
            total += (obj.data.Y[i] - u ** obj.p) ** 2
        naive = total / (2.0 * obj.data.n)
        assert glm_loss(obj, theta) == pytest.approx(naive, rel=1e-12)

    def test_nonnegative_and_zero_at_interpolation(self):
        rng = rng_new(4)
        theta_star = np.array([0.5, -1.0, 0.25])
        ds = sample_glm(40, 3, theta_star, 2, 0.0, rng)
        obj = GlmObjective(ds)
        assert glm_loss(obj, theta_star) == pytest.approx(0.0, abs=1e-25)
        assert glm_loss(obj, theta_star + 0.1) > 0.0

    def test_dimension_mismatch(self):
        obj, _ = random_instance(0)
        with pytest.raises(ValueError):
            glm_loss(obj, np.zeros(obj.dim + 1))


class TestGradient:
    def test_zero_at_origin(self):
        obj, _ = random_instance(5)
        assert np.array_equal(glm_grad(obj, np.zeros(obj.dim)), np.zeros(obj.dim))

    def test_zero_at_interpolating_theta(self):
        theta_star = np.array([1.0, -0.5])
        ds = sample_glm(30, 2, theta_star, 3, 0.0, rng_new(9))
        obj = GlmObjective(ds)
        assert np.allclose(glm_grad(obj, theta_star), 0.0, atol=1e-14)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        obj, theta = random_instance(seed)
        g = glm_grad(obj, theta)
        fd = fd_gradient(lambda t: glm_loss(obj, t), theta)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


class TestHessian:
    def test_single_row_frozen_value(self):
        # FD oracle on 0.5*(0 - u^2)^2 at u=1 gives d2/du2 = 6 (see test
        # below); the weight is p(2p-1)u^(2p-2) - p(p-1)Y u^(p-2) = 6.
        obj = single_row([1.0, 0.0], 0.0)
        h = glm_hessian(obj, np.array([1.0, 0.0])).a
        expected = np.zeros((2, 2))
        expected[0, 0] = 6.0
        assert np.allclose(h, expected, atol=1e-14)

    def test_single_row_frozen_value_is_fd_adjudicated(self):
        obj = single_row([1.0, 0.0], 0.0)
        fd = fd_hessian_from_grad(lambda t: glm_grad(obj, t), np.array([1.0, 0.0]))
        assert fd[0, 0] == pytest.approx(6.0, rel=1e-7)

    def test_at_origin_p2(self):
        obj, _ = random_instance(3, p=2)
        h = glm_hessian(obj, np.zeros(obj.dim)).a
        X, Y = obj.data.X, obj.data.Y
        expected = -(2.0 / obj.data.n) * (X.T * Y) @ X
        assert np.allclose(h, 0.5 * (expected + expected.T), atol=1e-14)

    def test_at_origin_p3_is_zero(self):
        obj, _ = random_instance(3, p=3)
        assert np.array_equal(glm_hessian(obj, np.zeros(obj.dim)).a, np.zeros((obj.dim, obj.dim)))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        obj, theta = random_instance(seed + 100)
        h = glm_hessian(obj, theta).a
        fd = fd_hessian_from_grad(lambda t: glm_grad(obj, t), theta)
        assert np.linalg.norm(h - fd) <= 1e-5 * max(1.0, np.linalg.norm(h))


class TestPopulation:
    def make(self, p=2, sigma=1.0, d=3):
        return GlmPopulation(p=p, sigma=sigma, d=d)

    def test_loss_at_zero(self):
        pop = self.make(sigma=0.7)
        assert glm_pop_loss(pop, np.zeros(3)) == pytest.approx(0.7**2 / 2)

    def test_loss_unit_norm_p2(self):
        pop = self.make()
        theta = np.array([1.0, 0.0, 0.0])
        assert glm_pop_loss(pop, theta) == pytest.approx(2.0)

    def test_matches_large_sample_loss(self):
        pop = self.make(p=2, sigma=1.0, d=3)
        ds = sample_glm(10**6, 3, np.zeros(3), 2, 1.0, rng_new(77))
        obj = GlmObjective(ds)
        for theta in (np.array([0.3, 0.0, 0.0]), np.array([0.2, -0.4, 0.1])):
            assert glm_loss(obj, theta) == pytest.approx(glm_pop_loss(pop, theta), rel=0.01)

    def test_gradient_matches_finite_differences(self):
        pop = self.make(p=3)
        theta = np.array([0.4, -0.3, 0.2])
        fd = fd_gradient(lambda t: glm_pop_loss(pop, t), theta)
        assert np.linalg.norm(pop.gradient(theta) - fd) <= 1e-5 * max(
            1.0, np.linalg.norm(fd)
        )

    @pytest.mark.parametrize("p,ratio", [(2, 3.0), (3, 5.0)])
    def test_eig_ratio_is_2p_minus_1(self, p, ratio):
        pop = self.make(p=p)
        lam_min, lam_max = glm_pop_hessian_eigs(pop, np.array([0.3, -0.2, 0.6]))
        assert lam_max / lam_min == pytest.approx(ratio, rel=1e-12)

    @pytest.mark.parametrize("p", [2, 3])
    def test_eigs_adjudicated_by_finite_differences(self, p):
        # The exact Hessian of the closed-form loss decides the eigenvalue
        # prefactors; its spectrum must match the analytic pair.
        pop = self.make(p=p)
        theta = np.array([0.5, -0.1, 0.3])
        lam_min, lam_max = glm_pop_hessian_eigs(pop, theta)
        fd = fd_hessian_from_grad(lambda t: pop.gradient(t), theta)
        fd_eigs = np.linalg.eigvalsh(fd)
        assert fd_eigs[0] == pytest.approx(lam_min, rel=1e-5)
        assert fd_eigs[-1] == pytest.approx(lam_max, rel=1e-5)
        analytic = np.linalg.eigvalsh(pop.hessian(theta).a)
        assert analytic[-1] == pytest.approx(lam_max, rel=1e-10)
        assert analytic[0] == pytest.approx(lam_min, rel=1e-10)

    def test_homogeneous_scaling(self):
        # Eigenvalues scale as ||theta||^(2p-2); ratio test on three radii.
        pop = self.make(p=2)
        direction = np.array([2.0, -1.0, 2.0]) / 3.0
        vals = {}
        for r in (0.25, 0.5, 1.0):
            vals[r] = glm_pop_hessian_eigs(pop, r * direction)
        for r in (0.25, 0.5):
            expected = (r / 1.0) ** 2
            assert vals[r][0] / vals[1.0][0] == pytest.approx(expected, rel=1e-6)
            assert vals[r][1] / vals[1.0][1] == pytest.approx(expected, rel=1e-6)

    def test_singular_point(self):
        with pytest.raises(SingularPointError):
            glm_pop_hessian_eigs(self.make(), np.zeros(3))

    @pytest.mark.parametrize("p", [2, 3])
    def test_normalized_step_contracts_at_fixed_rate(self, p):
        # On the closed-form population loss, gradient and top curvature
        # share the ||theta||^(2p-2) factor, so the normalized update
        # contracts by exactly 1 - eta/(2p-1) per step no matter how
        # degenerate the Hessian is. This is the linear-convergence
        # mechanism the low-regime experiments rely on.
        from normgd.optim import normgd_step

        pop = self.make(p=p)
        theta = np.array([0.31, -0.22, 0.14])
        eta = 0.05
        expected = 1.0 - eta / (2 * p - 1)
        for _ in range(20):
            new, _ = normgd_step(pop, theta, eta)
            ratio = np.linalg.norm(new) / np.linalg.norm(theta)
            assert ratio == pytest.approx(expected, rel=1e-12)
            theta = new
