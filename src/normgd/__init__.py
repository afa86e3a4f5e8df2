"""Normalized gradient descent for singular parameter-estimation problems.

Optimizers whose step is eta / lambda_max(sample Hessian), plus fixed-step
gradient descent and EM, with the experiment harness that measures their
statistical error against sample size on a polynomial-link regression model
and a symmetric two-component Gaussian mixture.
"""

from .experiments import ExperimentSpec, convergence_experiment, default_spec, slope_experiment
from .model_glm import GlmObjective, GlmPopulation
from .model_gmm import GmmObjective, gauss_hermite
from .numkit import SymMatrix, linfit, power_iteration
from .optim import OptimizerConfig, RunTrace, normgd_step, run
from .stochastics import rng_new, rng_split, sample_glm, sample_gmm

__all__ = [
    "ExperimentSpec",
    "GlmObjective",
    "GlmPopulation",
    "GmmObjective",
    "OptimizerConfig",
    "RunTrace",
    "SymMatrix",
    "convergence_experiment",
    "default_spec",
    "gauss_hermite",
    "linfit",
    "normgd_step",
    "power_iteration",
    "rng_new",
    "rng_split",
    "run",
    "sample_glm",
    "sample_gmm",
    "slope_experiment",
]
