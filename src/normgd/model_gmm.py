"""Negative log-likelihood of the symmetric two-component Gaussian mixture.

For data X_i and location parameter theta the per-row NLL of the mixture
0.5*N(theta, sigma^2 I) + 0.5*N(-theta, sigma^2 I) is evaluated in the
rearranged form

    (||x||^2 + ||theta||^2) / (2 sigma^2) + (d/2) log(2 pi sigma^2)
      + log 2 - log(exp(u) + exp(-u)),        u = x . theta / sigma^2,

with log(exp(u)+exp(-u)) = |u| + log1p(exp(-2|u|)) so large |u| cannot
overflow. Gradient and Hessian follow in closed form through tanh and
sech^2. One EM update of the location parameter coincides with a fixed-step
gradient step at eta = sigma^2, which is how the optimizer takes it; em_step
writes the update out on its own as the reference that pins the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numkit import SymMatrix, check_theta
from .stochastics import GmmDataset

SECH2_CUTOFF = 350.0


def sech2(x: np.ndarray) -> np.ndarray:
    """sech(x)^2 = (2 / (e^x + e^-x))^2, exact underflow to 0 for |x| > 350."""
    ax = np.abs(np.asarray(x, dtype=float))
    small = ax <= SECH2_CUTOFF
    e = np.exp(-2.0 * np.where(small, ax, 0.0))
    out = np.where(small, 4.0 * e / (1.0 + e) ** 2, 0.0)
    return out


@dataclass
class GmmObjective:
    """Evaluation surface over a fixed sample; sigma comes from the dataset."""

    data: GmmDataset

    @property
    def sigma(self) -> float:
        return self.data.sigma

    @property
    def dim(self) -> int:
        return self.data.d

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return gmm_grad(self, theta)

    def hessian(self, theta: np.ndarray) -> SymMatrix:
        return gmm_hessian(self, theta)


def gmm_nll(obj: GmmObjective, theta) -> float:
    theta = check_theta(obj, theta)
    s2 = obj.sigma**2
    X = obj.data.X
    u = (X @ theta) / s2
    au = np.abs(u)
    log_two_cosh = au + np.log1p(np.exp(-2.0 * au))
    quad = (np.sum(X * X, axis=1) + float(theta @ theta)) / (2.0 * s2)
    const = 0.5 * obj.dim * math.log(2.0 * math.pi * s2) + math.log(2.0)
    return float(np.mean(quad - log_two_cosh)) + const


def gmm_grad(obj: GmmObjective, theta) -> np.ndarray:
    theta = check_theta(obj, theta)
    s2 = obj.sigma**2
    X = obj.data.X
    t = np.tanh((X @ theta) / s2)
    return theta / s2 - (X.T @ t) / (obj.data.n * s2)


def gmm_hessian(obj: GmmObjective, theta) -> SymMatrix:
    theta = check_theta(obj, theta)
    s2 = obj.sigma**2
    X = obj.data.X
    w = sech2((X @ theta) / s2)
    inner = (X.T * w) @ X / (obj.data.n * s2)
    return SymMatrix((np.eye(obj.dim) - inner) / s2)


def em_step(obj: GmmObjective, theta) -> np.ndarray:
    """One EM update of the location estimate; equals theta - sigma^2 * grad."""
    theta = check_theta(obj, theta)
    s2 = obj.sigma**2
    X = obj.data.X
    t = np.tanh((X @ theta) / s2)
    return (X.T @ t) / obj.data.n


@dataclass
class QuadratureRule:
    """Nodes/weights integrating f against N(0, 1): E[f(W)] ~ weights . f(nodes).

    Built from the physicists' Gauss-Hermite rule by scaling nodes with
    sqrt(2) and normalizing the weights by sqrt(pi), so the weights sum to 1
    and polynomials up to degree 2*order - 1 integrate exactly.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int

    def expect(self, f) -> float:
        return float(self.weights @ f(self.nodes))


def gauss_hermite(order: int = 40) -> QuadratureRule:
    if order < 1:
        raise ValueError("order must be >= 1")
    x, w = np.polynomial.hermite.hermgauss(order)
    return QuadratureRule(nodes=x * math.sqrt(2.0), weights=w / math.sqrt(math.pi), order=order)


def gmm_pop_hessian_quadrature(
    theta_norm: float, sigma: float, d: int, rule: QuadratureRule | None = None
) -> tuple[float, float]:
    """Eigenvalue range of the population Hessian in the theta* = 0 regime.

    With the data distribution N(0, sigma^2 I), rotating theta onto the first
    axis diagonalizes the expectation: the Hessian is (1/sigma^2)(I - B) with

        B_11 = E[W^2 sech^2(W ||theta|| / sigma)],
        B_ii = E[sech^2(W ||theta|| / sigma)]   (i >= 2),   W ~ N(0, 1),

    both evaluated by one-dimensional Gauss-Hermite quadrature.
    """
    if theta_norm < 0:
        raise ValueError("theta_norm must be nonnegative")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    if rule is None:
        rule = gauss_hermite()
    if rule.order < 20:
        raise ValueError("quadrature order must be >= 20 for this expectation")
    t = rule.nodes * (theta_norm / sigma)
    s = sech2(t)
    b_par = float(rule.weights @ (rule.nodes**2 * s))
    lam_par = (1.0 - b_par) / sigma**2
    if d == 1:
        return lam_par, lam_par
    b_perp = float(rule.weights @ s)
    lam_perp = (1.0 - b_perp) / sigma**2
    return min(lam_par, lam_perp), max(lam_par, lam_perp)
