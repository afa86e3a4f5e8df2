"""Dense linear algebra for small symmetric problems.

Everything here is desk-scale: a shifted power iteration for the largest
eigenvalue of a SymMatrix (the cross-check of the LAPACK exact path in
``optim.lambda_max``), ordinary least squares for slope fitting, central
finite differences used by the derivative-checking suites, and the parameter
shape check shared by the two models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class EigenConvergenceError(RuntimeError):
    """An iterative eigensolver ran out of budget before converging."""


class DegenerateDesignError(ValueError):
    """Regression design has no variation in x."""


class SymMatrix:
    """Square symmetric matrix; symmetry is enforced at construction.

    The stored array satisfies a[i, j] == a[j, i] exactly: construction
    averages the input with its transpose, which is bitwise symmetric.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("dimension must be >= 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        self.a = 0.5 * (a + a.T)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.a @ v

    def row_abs_sum_max(self) -> float:
        """Gershgorin bound: max_i sum_j |a_ij| >= spectral radius."""
        return float(np.max(np.sum(np.abs(self.a), axis=1)))

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


def check_theta(obj, theta) -> np.ndarray:
    """theta as a float array, checked against the objective's dimension."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (obj.dim,):
        raise ValueError(f"theta must have shape ({obj.dim},), got {theta.shape}")
    return theta


@dataclass
class EigResult:
    value: float
    vector: np.ndarray
    iterations: int
    converged: bool


@dataclass
class LineFit:
    slope: float
    intercept: float
    r_squared: float


def power_iteration(h: SymMatrix, tol: float = 1e-8, seed: int = 0) -> EigResult:
    """Dominant-eigenvalue power iteration returning the largest *algebraic*
    eigenvalue of a symmetric matrix.

    Plain power iteration finds the eigenvalue of largest magnitude, which for
    an indefinite matrix may be a large negative one. We therefore iterate on
    A + s*I with the Gershgorin shift s = max_i sum_j |A_ij|, which is
    positive semidefinite and whose dominant eigenvalue is lambda_max(A) + s,
    then subtract s.

    Convergence: ||A v - lam v|| <= tol * max(1, |lam|), within a budget of
    10 * dim * ceil(ln(1/tol)) iterations per start; the start vectors are
    drawn from ``np.random.default_rng(seed)``.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    d = h.dim
    max_iter = 10 * d * math.ceil(math.log(1.0 / tol))
    rng = np.random.default_rng(seed)
    shift = h.row_abs_sum_max()

    def one_round(v, budget):
        # One matrix-vector product per iteration: A*w serves the Rayleigh
        # quotient, the residual test, and the next shifted step.
        av = h.matvec(v)
        lam = float(v @ av)
        for it in range(1, budget + 1):
            w = av + shift * v
            norm_w = np.linalg.norm(w)
            if norm_w <= 1e-300:
                # v is (numerically) an exact null vector of the shifted
                # matrix, hence an eigenvector of A with eigenvalue -shift.
                return EigResult(-shift, v, it, True)
            w /= norm_w
            aw = h.matvec(w)
            lam = float(w @ aw)
            resid = np.linalg.norm(aw - lam * w)
            v, av = w, aw
            if resid <= tol * max(1.0, abs(lam)):
                return EigResult(lam, v, it, True)
        return EigResult(lam, v, budget, False)

    def random_unit():
        v = rng.standard_normal(d)
        return v / np.linalg.norm(v)

    first = one_round(random_unit(), max_iter)
    if first.converged and first.iterations <= 3:
        # Converging this fast means the start was already an eigenvector;
        # if it was a non-dominant one, a random restart finds a larger value.
        second = one_round(random_unit(), max_iter)
        if second.converged and second.value > first.value:
            return EigResult(
                second.value, second.vector, first.iterations + second.iterations, True
            )
        first = EigResult(
            first.value, first.vector, first.iterations + second.iterations, first.converged
        )
    return first


def linfit(xs, ys) -> LineFit:
    """Ordinary least-squares line y = slope*x + intercept with R^2."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("xs and ys must be 1-d and of equal length")
    if x.size < 2:
        raise ValueError("need at least two points")
    if float(np.max(x)) == float(np.min(x)):
        raise DegenerateDesignError("all x values identical")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return LineFit(slope, intercept, min(1.0, max(0.0, r2)))


def fd_gradient(func, theta: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    theta = np.asarray(theta, dtype=float)
    if h is None:
        h = 1e-5 * max(1.0, float(np.linalg.norm(theta)))
    g = np.empty_like(theta)
    for i in range(theta.size):
        e = np.zeros_like(theta)
        e[i] = h
        g[i] = (func(theta + e) - func(theta - e)) / (2.0 * h)
    return g


def fd_hessian_from_grad(grad_func, theta: np.ndarray, h: float | None = None) -> np.ndarray:
    """Central-difference Hessian from a gradient function (symmetrized)."""
    theta = np.asarray(theta, dtype=float)
    if h is None:
        h = 1e-5 * max(1.0, float(np.linalg.norm(theta)))
    d = theta.size
    hess = np.empty((d, d))
    for i in range(d):
        e = np.zeros_like(theta)
        e[i] = h
        hess[:, i] = (grad_func(theta + e) - grad_func(theta - e)) / (2.0 * h)
    return 0.5 * (hess + hess.T)
