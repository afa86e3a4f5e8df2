"""Optimizer steppers and the trace-recording run loop.

Three update rules over any objective exposing gradient/hessian/dim:

  normgd:  theta' = theta - (eta / lambda_max(hessian(theta))) * gradient(theta)
  gd:      theta' = theta - eta * gradient(theta)
  em:      theta' = theta - sigma^2 * gradient(theta)   (objectives with a sigma)

For the symmetric mixture, the EM update is exactly the gradient step at
eta = sigma^2, so em needs nothing beyond the gradient the loop computes.

The run loop records the distance to the true parameter theta*, which every
run takes, at every iteration; the minimum of that sequence is the statistic the slope
experiments consume. Near-zero or negative top curvature is an expected
terminal condition for normgd inside the statistical noise floor, so it ends
a run gracefully (flagged) instead of raising out of the loop.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import numkit
from .numkit import SymMatrix

ALGORITHMS = ("normgd", "gd", "em")
LAMBDA_FLOOR_REL = 1e-12


class DegenerateCurvatureError(RuntimeError):
    """Top Hessian eigenvalue at or below the positivity floor."""

    def __init__(self, lam: float):
        super().__init__(f"maximum Hessian eigenvalue {lam:.6e} is not usably positive")
        self.lam = lam


@dataclass
class Quadratic:
    """Test shim: f(theta) = 0.5 * (theta - center)' H (theta - center)."""

    h: SymMatrix
    center: np.ndarray | None = None

    def __post_init__(self):
        if self.center is None:
            self.center = np.zeros(self.h.dim)

    @property
    def dim(self) -> int:
        return self.h.dim

    def gradient(self, theta):
        return self.h.matvec(theta - self.center)

    def hessian(self, theta):
        return self.h


@dataclass
class ScaledObjective:
    """Wraps an objective with all outputs multiplied by a constant."""

    base: object
    scale: float

    @property
    def dim(self) -> int:
        return self.base.dim

    def gradient(self, theta):
        return self.scale * self.base.gradient(theta)

    def hessian(self, theta):
        return SymMatrix(self.scale * self.base.hessian(theta).a)


@dataclass
class OptimizerConfig:
    algorithm: str = "normgd"
    eta: float = 0.5
    max_iter: int = 500

    def validate(self, obj) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.algorithm == "em" and not hasattr(obj, "sigma"):
            raise ValueError("em is only valid for objectives with a sigma")

    def to_dict(self) -> dict:
        return asdict(self)


def lambda_max(h: SymMatrix, backend: str = "exact", eig_tol: float = 1e-8) -> float:
    """Largest algebraic eigenvalue of h.

    exact, the path every optimizer step takes, reads it from LAPACK
    (``np.linalg.eigvalsh``); eig_tol is unused there. power runs shifted
    power iteration to eig_tol with a fixed internal seed, so that results are
    reproducible, and raises numkit.EigenConvergenceError when it runs out of
    budget; it is kept as a cross-check of exact.
    """
    if backend == "exact":
        return float(np.linalg.eigvalsh(h.a)[-1])
    if backend == "power":
        res = numkit.power_iteration(h, tol=eig_tol, seed=0)
        if not res.converged:
            raise numkit.EigenConvergenceError(
                f"power iteration did not reach tol {eig_tol:g} in {res.iterations} "
                f"iterations (last estimate {res.value:.12g})"
            )
        return res.value
    raise ValueError(f"unknown eig backend {backend!r}")


def normgd_step(
    obj, theta: np.ndarray, eta: float, grad: np.ndarray | None = None
) -> tuple[np.ndarray, float]:
    """One normalized-gradient update; returns (theta', lambda_used)."""
    h = obj.hessian(theta)
    lam = lambda_max(h)
    floor = LAMBDA_FLOOR_REL * max(1.0, h.row_abs_sum_max())
    if lam <= floor:
        raise DegenerateCurvatureError(lam)
    if grad is None:
        grad = obj.gradient(theta)
    return theta - (eta / lam) * grad, lam


@dataclass
class RunTrace:
    """Per-iteration record of one optimizer run, built once when it ends.

    ``iterates`` has shape (n_steps + 1, dim), so ``iterates[t]`` is
    iteration t. ``errors`` (the distance to theta*) and ``grad_norms`` are
    dense over iterations 0..n_steps; ``lambda_max_seq`` holds the eigenvalue
    used by each step taken (empty for gd and em). ``degenerate_lambda`` is
    the top eigenvalue that ended a normgd run, or None.
    """

    algorithm: str
    iterates: np.ndarray
    errors: np.ndarray
    grad_norms: np.ndarray
    lambda_max_seq: np.ndarray
    min_error: float
    min_error_iter: int
    n_steps: int
    degenerate_lambda: float | None
    wall_time: float

    @property
    def degenerate(self) -> bool:
        return self.degenerate_lambda is not None

    @property
    def final_error(self) -> float:
        return float(self.errors[-1])

    def write_csv(self, path) -> None:
        """Columns: iter, error, grad_norm, lambda_max (blank where no eigenvalue was used)."""
        with open(path, "w") as fh:
            fh.write("iter,error,grad_norm,lambda_max\n")
            for t in range(self.n_steps + 1):
                lam = f"{self.lambda_max_seq[t]:.17g}" if t < len(self.lambda_max_seq) else ""
                fh.write(f"{t},{self.errors[t]:.17g},{self.grad_norms[t]:.17g},{lam}\n")

    def write_json(self, path, metadata: dict | None = None) -> None:
        doc = {
            "algorithm": self.algorithm,
            "n_steps": self.n_steps,
            "min_error": self.min_error,
            "min_error_iter": self.min_error_iter,
            "final_error": self.final_error,
            "degenerate": self.degenerate,
            "degenerate_lambda": self.degenerate_lambda,
            "wall_time": self.wall_time,
        }
        if metadata:
            doc.update(metadata)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def run(obj, theta0, cfg: OptimizerConfig, theta_star) -> RunTrace:
    """Iterate from theta0 and record the error ||theta_t - theta*|| at every iteration.

    A run stops in one of three ways: after cfg.max_iter steps, at an
    exactly zero gradient, or (normgd) at degenerate curvature, which sets
    ``degenerate_lambda``. min_error is the minimum over the recorded errors
    (the min-over-iterates statistic).
    """
    cfg.validate(obj)
    theta = numkit.check_theta(obj, theta0).copy()
    theta_star = numkit.check_theta(obj, theta_star)

    iterates = np.empty((cfg.max_iter + 1, obj.dim))
    errors: list[float] = []
    grad_norms: list[float] = []
    lambdas: list[float] = []
    degenerate_lambda = None
    step = obj.sigma**2 if cfg.algorithm == "em" else cfg.eta
    started = time.perf_counter()

    t = 0
    while True:
        iterates[t] = theta
        errors.append(float(np.linalg.norm(theta - theta_star)))
        grad = obj.gradient(theta)
        grad_norms.append(float(np.linalg.norm(grad)))
        if grad_norms[-1] == 0.0 or t >= cfg.max_iter:
            break
        if cfg.algorithm == "normgd":
            try:
                theta, lam = normgd_step(obj, theta, cfg.eta, grad=grad)
            except DegenerateCurvatureError as err:
                degenerate_lambda = err.lam
                break
            lambdas.append(lam)
        else:
            theta = theta - step * grad
        t += 1

    errors = np.asarray(errors)
    best = int(np.argmin(errors))
    return RunTrace(
        algorithm=cfg.algorithm,
        iterates=iterates[: t + 1],
        errors=errors,
        grad_norms=np.asarray(grad_norms),
        lambda_max_seq=np.asarray(lambdas),
        min_error=float(errors[best]),
        min_error_iter=best,
        n_steps=t,
        degenerate_lambda=degenerate_lambda,
        wall_time=time.perf_counter() - started,
    )


def iterations_to_radius(trace: RunTrace, radius: float):
    """First iteration whose recorded error is <= radius, or None."""
    hits = np.nonzero(trace.errors <= radius)[0]
    return int(hits[0]) if hits.size else None
