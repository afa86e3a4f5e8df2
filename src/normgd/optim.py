"""Optimizer steppers and the trace-recording run loop.

Three update rules over any objective exposing value/gradient/hessian/dim:

  normgd:  theta' = theta - (eta / lambda_max(hessian(theta))) * gradient(theta)
  gd:      theta' = theta - eta * gradient(theta)
  em:      theta' = objective's own em_step (mixture model only)

The run loop records the distance to a supplied true parameter at every
iteration; the minimum of that sequence is the statistic the slope
experiments consume. Near-zero or negative top curvature is an expected
terminal condition for normgd inside the statistical noise floor, so it ends
a run gracefully (flagged) instead of raising out of the loop.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import numkit
from .numkit import SymMatrix

ALGORITHMS = ("normgd", "gd", "em")
EIG_BACKENDS = ("exact", "power")
LAMBDA_FLOOR_REL = 1e-12
DENSE_ITERATE_LIMIT = 10_000
THINNED_STRIDE = 10


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

    def value(self, theta):
        r = theta - self.center
        return 0.5 * float(r @ self.h.matvec(r))

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

    def value(self, theta):
        return self.scale * self.base.value(theta)

    def gradient(self, theta):
        return self.scale * self.base.gradient(theta)

    def hessian(self, theta):
        return SymMatrix(self.scale * self.base.hessian(theta).a)


@dataclass
class OptimizerConfig:
    algorithm: str = "normgd"
    eta: float = 0.5
    max_iter: int = 500
    stop_tol: float = 0.0
    eig_backend: str = "exact"
    eig_tol: float = 1e-8

    def validate(self, obj=None) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.stop_tol < 0:
            raise ValueError("stop_tol must be nonnegative")
        if self.eig_backend not in EIG_BACKENDS:
            raise ValueError(f"unknown eig backend {self.eig_backend!r}")
        if self.eig_tol <= 0:
            raise ValueError("eig_tol must be positive")
        if self.algorithm == "em" and obj is not None and not hasattr(obj, "em_step"):
            raise ValueError("em is only valid for objectives with an em_step")

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "eta": self.eta,
            "max_iter": self.max_iter,
            "stop_tol": self.stop_tol,
            "eig_backend": self.eig_backend,
            "eig_tol": self.eig_tol,
        }


def lambda_max(h: SymMatrix, backend: str = "exact", eig_tol: float = 1e-8) -> float:
    """Largest algebraic eigenvalue through the configured backend.

    exact takes it from LAPACK (``np.linalg.eigvalsh``); eig_tol is unused
    there. power runs shifted power iteration to eig_tol with a fixed internal
    seed, so that runs are reproducible, and raises
    numkit.EigenConvergenceError when it runs out of budget.
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
    obj,
    theta: np.ndarray,
    eta: float,
    backend: str = "exact",
    eig_tol: float = 1e-8,
    grad: np.ndarray | None = None,
) -> tuple[np.ndarray, float]:
    """One normalized-gradient update; returns (theta', lambda_used)."""
    h = obj.hessian(theta)
    lam = lambda_max(h, backend, eig_tol)
    floor = LAMBDA_FLOOR_REL * max(1.0, h.row_abs_sum_max())
    if lam <= floor:
        raise DegenerateCurvatureError(lam)
    if grad is None:
        grad = obj.gradient(theta)
    return theta - (eta / lam) * grad, lam


def gd_step(obj, theta: np.ndarray, eta: float, grad: np.ndarray | None = None) -> np.ndarray:
    if grad is None:
        grad = obj.gradient(theta)
    return theta - eta * grad


@dataclass
class RunTrace:
    """Per-iteration record of one optimizer run.

    ``errors`` (present when theta_star was supplied), ``grad_norms`` and
    ``lambda_max_seq`` (normgd only) are dense over iterations 0..n_steps.
    Iterates are stored densely up to 10^4 iterations, every 10th beyond
    that; ``iterate_steps`` carries their iteration indices.
    """

    algorithm: str
    iterates: list = field(default_factory=list)
    iterate_steps: list = field(default_factory=list)
    errors: np.ndarray | None = None
    grad_norms: np.ndarray | None = None
    lambda_max_seq: np.ndarray | None = None
    min_error: float | None = None
    min_error_iter: int | None = None
    n_steps: int = 0
    degenerate: bool = False
    degenerate_lambda: float | None = None
    wall_time: float = 0.0

    @property
    def final(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_error(self) -> float | None:
        return None if self.errors is None else float(self.errors[-1])

    def write_csv(self, path) -> None:
        """Columns: iter, error, grad_norm, lambda_max (blank where absent)."""
        with open(path, "w") as fh:
            fh.write("iter,error,grad_norm,lambda_max\n")
            for t in range(self.n_steps + 1):
                err = "" if self.errors is None else f"{self.errors[t]:.17g}"
                lam = (
                    ""
                    if self.lambda_max_seq is None or t >= len(self.lambda_max_seq)
                    else f"{self.lambda_max_seq[t]:.17g}"
                )
                fh.write(f"{t},{err},{self.grad_norms[t]:.17g},{lam}\n")

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


def run(obj, theta0, cfg: OptimizerConfig, theta_star=None) -> RunTrace:
    """Iterate until max_iter, gradient-norm stop, or degenerate curvature.

    The trace records the error ||theta_t - theta*|| at *every* iteration
    when theta_star is given; min_error is the minimum over the recorded
    sequence (the min-over-iterates statistic).
    """
    cfg.validate(obj)
    theta = np.asarray(theta0, dtype=float).copy()
    if theta.shape != (obj.dim,):
        raise ValueError(f"theta0 must have shape ({obj.dim},)")
    if theta_star is not None:
        theta_star = np.asarray(theta_star, dtype=float)
        if theta_star.shape != (obj.dim,):
            raise ValueError("theta_star dimension mismatch")

    trace = RunTrace(algorithm=cfg.algorithm)
    errors: list[float] = []
    grad_norms: list[float] = []
    lambdas: list[float] = []
    started = time.perf_counter()

    def record(t, th):
        if theta_star is not None:
            errors.append(float(np.linalg.norm(th - theta_star)))
        if t <= DENSE_ITERATE_LIMIT or t % THINNED_STRIDE == 0:
            trace.iterates.append(th.copy())
            trace.iterate_steps.append(t)

    t = 0
    while True:
        record(t, theta)
        grad = obj.gradient(theta)
        grad_norms.append(float(np.linalg.norm(grad)))
        if grad_norms[-1] <= cfg.stop_tol or t >= cfg.max_iter:
            break
        try:
            if cfg.algorithm == "normgd":
                theta, lam = normgd_step(
                    obj, theta, cfg.eta, cfg.eig_backend, cfg.eig_tol, grad=grad
                )
                lambdas.append(lam)
            elif cfg.algorithm == "gd":
                theta = gd_step(obj, theta, cfg.eta, grad=grad)
            else:
                theta = obj.em_step(theta)
        except DegenerateCurvatureError as err:
            trace.degenerate = True
            trace.degenerate_lambda = err.lam
            break
        t += 1

    trace.n_steps = t
    if trace.iterate_steps[-1] != t:
        trace.iterates.append(theta.copy())
        trace.iterate_steps.append(t)
    trace.grad_norms = np.asarray(grad_norms)
    if lambdas:
        trace.lambda_max_seq = np.asarray(lambdas)
    if theta_star is not None:
        trace.errors = np.asarray(errors)
        trace.min_error_iter = int(np.argmin(trace.errors))
        trace.min_error = float(trace.errors[trace.min_error_iter])
    trace.wall_time = time.perf_counter() - started
    return trace


def iterations_to_radius(trace: RunTrace, radius: float):
    """First iteration whose recorded error is <= radius, or None."""
    if trace.errors is None:
        raise ValueError("trace has no recorded errors")
    hits = np.nonzero(trace.errors <= radius)[0]
    return int(hits[0]) if hits.size else None
