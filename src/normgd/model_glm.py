"""Least-squares objective for the polynomial-link regression model.

Sample side: L_n(theta) = (1/2n) sum_i (Y_i - (X_i . theta)^p)^2 with exact
gradient and Hessian. The Hessian weight per row is

    p*(2p-1)*u^(2p-2) - p*(p-1)*Y*u^(p-2),    u = X_i . theta,

which is the second derivative of the implemented loss (the derivative
checker in the test suite holds this to finite differences).

Population side: at theta* = 0 the averaged loss has the closed form
(sigma^2 + dfact(2p-1) * ||theta||^(2p)) / 2, whose Hessian has eigenvalue
p * dfact(2p-1) * ||theta||^(2p-2) with multiplicity d-1 (directions
orthogonal to theta) and (2p-1) times that along theta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numkit import SymMatrix, check_theta
from .stochastics import GlmDataset


class SingularPointError(ValueError):
    """Evaluation at a point where the quantity is degenerate."""


def double_factorial(m: int) -> int:
    """Product m*(m-2)*...*1 for odd m, 1 <= m <= 33."""
    if int(m) != m or m < 1 or m % 2 == 0:
        raise ValueError(f"double factorial needs an odd positive integer, got {m}")
    if m > 33:
        raise ValueError("m > 33 not supported (overflow guard)")
    out = 1
    for k in range(m, 0, -2):
        out *= k
    return out


@dataclass
class GlmObjective:
    """Evaluation surface over a fixed dataset; immutable after construction."""

    data: GlmDataset

    @property
    def p(self) -> int:
        return self.data.p

    @property
    def dim(self) -> int:
        return self.data.d

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return glm_grad(self, theta)

    def hessian(self, theta: np.ndarray) -> SymMatrix:
        return glm_hessian(self, theta)


def glm_loss(obj: GlmObjective, theta) -> float:
    theta = check_theta(obj, theta)
    u = obj.data.X @ theta
    resid = obj.data.Y - u ** obj.p
    return 0.5 * float(np.mean(resid * resid))


def glm_grad(obj: GlmObjective, theta) -> np.ndarray:
    theta = check_theta(obj, theta)
    p = obj.p
    X, Y = obj.data.X, obj.data.Y
    u = X @ theta
    w = p * (u ** p - Y) * u ** (p - 1)
    return (X.T @ w) / obj.data.n


def glm_hessian(obj: GlmObjective, theta) -> SymMatrix:
    theta = check_theta(obj, theta)
    p = obj.p
    X, Y = obj.data.X, obj.data.Y
    u = X @ theta
    w = p * (2 * p - 1) * u ** (2 * p - 2) - p * (p - 1) * Y * u ** (p - 2)
    return SymMatrix((X.T * w) @ X / obj.data.n)


@dataclass
class GlmPopulation:
    """Closed-form population objective at theta* = 0, the only regime with one."""

    p: int
    sigma: float
    d: int

    def __post_init__(self):
        if self.p < 2 or int(self.p) != self.p:
            raise ValueError("link exponent p must be an integer >= 2")

    @property
    def dim(self) -> int:
        return self.d

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        theta = check_theta(self, theta)
        norm = float(np.linalg.norm(theta))
        if norm == 0.0:
            return np.zeros(self.d)
        coef = self.p * double_factorial(2 * self.p - 1)
        return coef * norm ** (2 * self.p - 2) * theta

    def hessian(self, theta: np.ndarray) -> SymMatrix:
        theta = check_theta(self, theta)
        norm = float(np.linalg.norm(theta))
        coef = self.p * double_factorial(2 * self.p - 1)
        if norm == 0.0:
            return SymMatrix(np.zeros((self.d, self.d)))
        outer = np.outer(theta, theta)
        return SymMatrix(
            coef
            * (
                norm ** (2 * self.p - 2) * np.eye(self.d)
                + (2 * self.p - 2) * norm ** (2 * self.p - 4) * outer
            )
        )


def glm_pop_loss(pop: GlmPopulation, theta) -> float:
    theta = check_theta(pop, theta)
    norm = float(np.linalg.norm(theta))
    return 0.5 * (pop.sigma**2 + double_factorial(2 * pop.p - 1) * norm ** (2 * pop.p))


def glm_pop_hessian_eigs(pop: GlmPopulation, theta) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the closed-form population Hessian.

    The ratio lambda_max / lambda_min equals 2p - 1 for every theta != 0.
    """
    theta = check_theta(pop, theta)
    norm = float(np.linalg.norm(theta))
    if norm == 0.0:
        raise SingularPointError("population Hessian eigenstructure undefined at theta = 0")
    lam_min = pop.p * double_factorial(2 * pop.p - 1) * norm ** (2 * pop.p - 2)
    return lam_min, (2 * pop.p - 1) * lam_min
