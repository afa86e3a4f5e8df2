import math

import numpy as np
import pytest

from normgd.model_gmm import (
    GmmObjective,
    em_step,
    gauss_hermite,
    gmm_grad,
    gmm_hessian,
    gmm_nll,
    gmm_pop_hessian_quadrature,
    sech2,
)
from normgd.numkit import fd_gradient, fd_hessian_from_grad
from normgd.stochastics import GmmDataset, rng_new, rng_normal, rng_uniform, sample_gmm


def random_instance(seed):
    rng = rng_new(seed)
    d = 2 + int(rng_uniform(rng, 1)[0] * 4)
    n = 30 + int(rng_uniform(rng, 1)[0] * 50)
    sigma = 0.7 + rng_uniform(rng, 1)[0]
    theta_star = rng_normal(rng, d)
    data = sample_gmm(n, d, theta_star, sigma, rng)
    theta = rng_normal(rng, d)
    return GmmObjective(data), theta


def naive_nll(obj, theta):
    """Direct two-density log-sum oracle (unstable for large arguments)."""
    s2 = obj.sigma**2
    d = obj.dim
    norm_const = (2.0 * math.pi * s2) ** (-d / 2.0)
    X = obj.data.X
    dens = 0.5 * norm_const * (
        np.exp(-np.sum((X - theta) ** 2, axis=1) / (2 * s2))
        + np.exp(-np.sum((X + theta) ** 2, axis=1) / (2 * s2))
    )
    return -float(np.mean(np.log(dens)))


class TestSech2:
    def test_matches_cosh(self):
        x = np.linspace(-20, 20, 101)
        assert np.allclose(sech2(x), 1.0 / np.cosh(x) ** 2, rtol=1e-13)

    def test_underflow_is_exact_zero(self):
        assert sech2(np.array([351.0, -400.0, 1e6])).tolist() == [0.0, 0.0, 0.0]

    def test_no_overflow_warnings(self):
        with np.errstate(over="raise"):
            sech2(np.array([1e308, -1e308]))


class TestNll:
    def test_even_symmetry_exact(self):
        obj, theta = random_instance(1)
        assert gmm_nll(obj, theta) == gmm_nll(obj, -theta)

    def test_single_point_at_origin(self):
        d, sigma = 3, 1.3
        data = GmmDataset(X=np.zeros((1, d)), sigma=sigma)
        obj = GmmObjective(data)
        theta = np.array([0.4, -0.2, 1.0])
        expected = (
            float(theta @ theta) / (2 * sigma**2)
            + math.log(2.0 * (math.sqrt(2 * math.pi)) ** d * sigma**d)
            - math.log(2.0)
        )
        assert gmm_nll(obj, theta) == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_naive_density_sum(self, seed):
        obj, theta = random_instance(seed)
        assert gmm_nll(obj, theta) == pytest.approx(naive_nll(obj, theta), abs=1e-10)

    def test_stable_for_huge_arguments(self):
        obj, _ = random_instance(2)
        theta = np.full(obj.dim, 500.0)
        value = gmm_nll(obj, theta)
        assert np.isfinite(value)

    def test_dimension_mismatch(self):
        obj, _ = random_instance(0)
        with pytest.raises(ValueError):
            gmm_nll(obj, np.zeros(obj.dim + 2))


class TestGrad:
    def test_zero_at_origin(self):
        obj, _ = random_instance(3)
        assert np.array_equal(gmm_grad(obj, np.zeros(obj.dim)), np.zeros(obj.dim))

    def test_odd_symmetry(self):
        obj, theta = random_instance(4)
        assert np.allclose(gmm_grad(obj, -theta), -gmm_grad(obj, theta), rtol=0, atol=1e-16)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        obj, theta = random_instance(seed + 50)
        g = gmm_grad(obj, theta)
        fd = fd_gradient(lambda t: gmm_nll(obj, t), theta)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


class TestHessian:
    def test_even_symmetry_exact(self):
        obj, theta = random_instance(5)
        assert np.array_equal(gmm_hessian(obj, theta).a, gmm_hessian(obj, -theta).a)

    def test_far_field_limit(self):
        obj, _ = random_instance(6)
        theta = np.full(obj.dim, 1e4)
        h = gmm_hessian(obj, theta).a
        assert np.array_equal(h, np.eye(obj.dim) / obj.sigma**2)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_finite_differences(self, seed):
        obj, theta = random_instance(seed + 150)
        h = gmm_hessian(obj, theta).a
        fd = fd_hessian_from_grad(lambda t: gmm_grad(obj, t), theta)
        assert np.linalg.norm(h - fd) <= 1e-5 * max(1.0, np.linalg.norm(h))


class TestEmStep:
    def test_origin_fixed_point(self):
        obj, _ = random_instance(7)
        assert np.array_equal(em_step(obj, np.zeros(obj.dim)), np.zeros(obj.dim))

    @pytest.mark.parametrize("seed", range(20))
    def test_is_gd_with_eta_sigma_squared(self, seed):
        obj, theta = random_instance(seed + 250)
        em = em_step(obj, theta)
        gd = theta - obj.sigma**2 * gmm_grad(obj, theta)
        assert np.linalg.norm(em - gd) <= 1e-12 * max(1.0, np.linalg.norm(theta))

    def test_large_sigma_contracts_to_zero(self):
        rng = rng_new(8)
        data = sample_gmm(50, 2, np.array([1.0, -1.0]), 1.0, rng)
        big = GmmDataset(X=data.X, sigma=1e6)
        obj = GmmObjective(big)
        out = em_step(obj, np.array([5.0, -3.0]))
        assert np.linalg.norm(out) < 1e-9


class TestQuadrature:
    def test_rule_normalization_and_moments(self):
        rule = gauss_hermite(40)
        assert abs(rule.weights.sum() - 1.0) < 1e-12
        assert rule.expect(lambda w: w) == pytest.approx(0.0, abs=1e-12)
        assert rule.expect(lambda w: w**2) == pytest.approx(1.0, rel=1e-12)
        assert rule.expect(lambda w: w**4) == pytest.approx(3.0, rel=1e-12)
        assert rule.expect(lambda w: w**6) == pytest.approx(15.0, rel=1e-12)

    def test_zero_norm_gives_null_hessian(self):
        lam_min, lam_max = gmm_pop_hessian_quadrature(0.0, 1.0, 3)
        assert lam_min == pytest.approx(0.0, abs=1e-14)
        assert lam_max == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("theta_norm", [0.1, 0.25, 0.5])
    def test_eigenvalue_bounds_sigma_one(self, theta_norm):
        lam_min, lam_max = gmm_pop_hessian_quadrature(theta_norm, 1.0, 2)
        assert theta_norm**2 / 2.0 <= lam_min <= lam_max <= 3.0 * theta_norm**2

    def test_quarter_norm_lower_bound(self):
        lam_min, _ = gmm_pop_hessian_quadrature(0.25, 1.0, 2)
        assert lam_min >= 0.03125

    def test_matches_monte_carlo(self):
        rule = gauss_hermite(40)
        w = rng_normal(rng_new(99), 10**6)
        for theta_norm in (0.1, 0.5):
            s = sech2(w * theta_norm)
            for quad, samples in (
                (rule.expect(lambda x: x**2 * sech2(x * theta_norm)), w * w * s),
                (rule.expect(lambda x: sech2(x * theta_norm)), s),
            ):
                mc = samples.mean()
                se = samples.std() / math.sqrt(samples.size)
                assert abs(quad - mc) <= 5.0 * se

    def test_order_validation(self):
        with pytest.raises(ValueError):
            gmm_pop_hessian_quadrature(0.1, 1.0, 2, gauss_hermite(10))
        with pytest.raises(ValueError):
            gmm_pop_hessian_quadrature(-0.1, 1.0, 2)

    def test_dimension_one_has_single_eigenvalue(self):
        lam_min, lam_max = gmm_pop_hessian_quadrature(0.3, 1.0, 1)
        assert lam_min == lam_max
