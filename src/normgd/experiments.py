"""Experiment harness: convergence curves, log-log slope studies, and the
iteration-scaling comparison between the normalized and fixed-step methods.

Every trial is a pure function of (spec, seed): the root stream is split per
repeat, and each repeat splits again into a data stream and an initialization
stream. Within a repeat, the datasets across the sample-size grid are nested
prefixes of one master draw (common random numbers): the statistical noise
floor then co-moves across n instead of scattering independently, which is
what makes a 10-repeat log-log fit readable. Repeats stay independent. All
algorithms inside a repeat share the dataset and the starting point. Repeats
can run in a process pool; results are keyed by repeat index, so ordering is
deterministic regardless of scheduling.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import svgplot
from .model_glm import GlmObjective
from .model_gmm import GmmObjective
from .numkit import LineFit, linfit
from .optim import OptimizerConfig, RunTrace, iterations_to_radius, run
from .stochastics import (
    GlmDataset,
    GmmDataset,
    rng_new,
    rng_split,
    rng_unit_sphere,
    sample_glm,
    sample_gmm,
)

GLM_DEFAULT_N_GRID = (500, 1000, 2000, 4000, 8000, 16000)
GMM_DEFAULT_N_GRID = (1000, 2000, 4000, 8000, 16000, 32000)

# Iteration horizons: the fixed-step method needs polynomially many
# iterations in the low regime, the normalized method never does.
DEFAULT_MAX_ITER = {
    ("normgd", "strong"): 500,
    ("normgd", "low"): 500,
    ("em", "strong"): 500,
    ("em", "low"): 500,
    ("gd", "strong"): 2000,
    ("gd", "low"): 20000,
}

# Normalized steps are scale-free, so 0.5 works everywhere. Raw gradient
# steps must respect the curvature scale of each configuration: the
# polynomial-link Hessian near theta* = [1,2,3,4] has top eigenvalue in the
# hundreds (stability needs eta << 1), while the low regimes use a step small
# enough that the sub-linear crawl is still visible at the plotted horizons.
DEFAULT_ETA_NORMGD = 0.5
DEFAULT_ETA_GD = {
    ("glm", "strong"): 0.002,
    ("glm", "low"): 0.005,
    ("gmm", "strong"): 0.5,
    ("gmm", "low"): 0.05,
}


@dataclass
class ExperimentSpec:
    model: str
    regime: str
    d: int
    sigma: float = 1.0
    p: int = 2
    theta_star: np.ndarray | None = None
    n: int | None = None
    n_grid: tuple[int, ...] | None = None
    repeats: int = 10
    algorithms: tuple[str, ...] = ("normgd", "gd")
    seed: int = 0
    eta: float | None = None  # None: per-configuration defaults below
    eta_by_algorithm: dict = field(default_factory=dict)
    max_iter_by_algorithm: dict = field(default_factory=dict)
    init_radius: float = 0.5
    jobs: int = 1

    def __post_init__(self):
        if self.model not in ("glm", "gmm"):
            raise ValueError(f"unknown model {self.model!r}")
        if self.regime not in ("strong", "low"):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.theta_star is None:
            self.theta_star = np.zeros(self.d) if self.regime == "low" else None
        else:
            self.theta_star = np.asarray(self.theta_star, dtype=float)
        if self.theta_star is None:
            raise ValueError("strong regime requires an explicit nonzero theta_star")
        if self.theta_star.shape != (self.d,):
            raise ValueError("theta_star shape disagrees with d")
        star_norm = float(np.linalg.norm(self.theta_star))
        if self.regime == "strong" and star_norm == 0.0:
            raise ValueError("strong regime requires theta_star != 0")
        if self.regime == "low" and star_norm != 0.0:
            raise ValueError("low regime requires theta_star = 0")
        if self.model == "glm" and (self.p < 2 or int(self.p) != self.p):
            raise ValueError("glm link exponent p must be an integer >= 2")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.n_grid is not None:
            grid = tuple(int(v) for v in self.n_grid)
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError("n_grid must be strictly increasing")
            self.n_grid = grid
        bad = [a for a in self.algorithms if a not in ("normgd", "gd", "em")]
        if bad:
            raise ValueError(f"unknown algorithms {bad}")
        if "em" in self.algorithms and self.model != "gmm":
            raise ValueError("em applies only to the mixture model")

    def require_single_n(self) -> int:
        if self.n is None:
            raise ValueError("this experiment needs a single sample size n")
        return int(self.n)

    def require_grid(self, min_len: int = 3) -> tuple[int, ...]:
        if self.n_grid is None or len(self.n_grid) < min_len:
            raise ValueError(f"this experiment needs an n_grid of length >= {min_len}")
        return self.n_grid

    def error_statistic(self) -> str:
        # Min-over-iterates where iterates oscillate inside the noise floor;
        # final iterate where convergence is monotone.
        return "min" if self.regime == "low" else "final"

    def default_eta(self, algorithm: str) -> float:
        if algorithm == "gd":
            return DEFAULT_ETA_GD[(self.model, self.regime)]
        return DEFAULT_ETA_NORMGD

    def optimizer_config(self, algorithm: str) -> OptimizerConfig:
        eta = self.eta_by_algorithm.get(
            algorithm, self.eta if self.eta is not None else self.default_eta(algorithm)
        )
        if algorithm == "em":
            eta = self.sigma**2
        max_iter = self.max_iter_by_algorithm.get(
            algorithm, DEFAULT_MAX_ITER[(algorithm, self.regime)]
        )
        return OptimizerConfig(algorithm=algorithm, eta=eta, max_iter=max_iter)

    def slope_rate(self) -> float:
        """Theoretical low-regime error exponent: error ~ n^(-rate)."""
        return 1.0 / (2.0 * self.p) if self.model == "glm" else 0.25

    def to_dict(self) -> dict:
        return {
            **asdict(self),
            "theta_star": self.theta_star.tolist(),
            "error_statistic": self.error_statistic(),
        }


def default_spec(model: str, regime: str, **overrides) -> ExperimentSpec:
    """Replication configuration for the two studied models."""
    if model == "glm":
        base = dict(
            model="glm",
            regime=regime,
            d=4,
            p=2,
            theta_star=np.array([1.0, 2.0, 3.0, 4.0]) if regime == "strong" else None,
            n=1000,
            n_grid=GLM_DEFAULT_N_GRID,
        )
    elif model == "gmm":
        base = dict(
            model="gmm",
            regime=regime,
            d=2,
            theta_star=np.array([1.0, 2.0]) if regime == "strong" else None,
            n=10000,
            n_grid=GMM_DEFAULT_N_GRID,
        )
    else:
        raise ValueError(f"unknown model {model!r}")
    base.update(overrides)
    return ExperimentSpec(**base)


def _sample_master(spec: ExperimentSpec, n: int, data_rng):
    if spec.model == "glm":
        return sample_glm(n, spec.d, spec.theta_star, spec.p, spec.sigma, data_rng)
    return sample_gmm(n, spec.d, spec.theta_star, spec.sigma, data_rng)


def _prefix_objective(spec: ExperimentSpec, master, n: int):
    if spec.model == "glm":
        return GlmObjective(GlmDataset(master.X[:n], master.Y[:n], spec.p, spec.sigma))
    return GmmObjective(GmmDataset(master.X[:n], spec.sigma))


def _run_repeat(payload) -> tuple[int, dict]:
    """One repeat: a master dataset, one theta0, all grid sizes, all algorithms."""
    spec, grid, r = payload
    repeat_rng = rng_split(rng_new(spec.seed), r)
    master = _sample_master(spec, grid[-1], rng_split(repeat_rng, 0))
    theta0 = spec.theta_star + spec.init_radius * rng_unit_sphere(rng_split(repeat_rng, 1), spec.d)
    runs = {}
    for n in grid:
        obj = _prefix_objective(spec, master, n)
        runs[n] = {
            alg: run(obj, theta0, spec.optimizer_config(alg), spec.theta_star)
            for alg in spec.algorithms
        }
    return r, {"runs": runs, "dataset_hash": master.content_hash()}


def _run_repeats(spec: ExperimentSpec, grid: tuple[int, ...]) -> dict[int, dict]:
    payloads = [(spec, grid, r) for r in range(spec.repeats)]
    if spec.jobs > 1:
        with ProcessPoolExecutor(max_workers=spec.jobs) as pool:
            return dict(pool.map(_run_repeat, payloads))
    return dict(map(_run_repeat, payloads))


def convergence_experiment(spec: ExperimentSpec, outdir=None) -> dict[str, list[RunTrace]]:
    """Per-iteration error curves at a single sample size.

    One dataset per repeat; every requested algorithm starts from the same
    theta0 on the same dataset. Returns algorithm -> list of traces (one per
    repeat) and persists the runs plus an SVG when outdir is given.
    """
    n = spec.require_single_n()
    repeats = _run_repeats(spec, (n,))
    results = {
        alg: [repeats[r]["runs"][n][alg] for r in range(spec.repeats)]
        for alg in spec.algorithms
    }
    if outdir is not None:
        _persist_convergence(spec, results, repeats, outdir)
    return results


@dataclass
class SlopeResult:
    algorithm: str
    regime: str
    statistic: str
    n_grid: tuple[int, ...]
    mean_errors: np.ndarray
    per_repeat_errors: np.ndarray  # shape (len(n_grid), repeats); NaN = diverged, excluded
    fit: LineFit
    excluded: int = 0

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "regime": self.regime,
            "statistic": self.statistic,
            "n_grid": list(self.n_grid),
            "mean_errors": self.mean_errors.tolist(),
            "slope": self.fit.slope,
            "intercept": self.fit.intercept,
            "r_squared": self.fit.r_squared,
            "excluded": self.excluded,
        }


def _statistics(repeats: dict, alg: str, n: int, statistic: str) -> np.ndarray:
    """Per-repeat error statistic at n, NaN where a run diverged; raises if every run did."""
    stats = np.full(len(repeats), np.nan)
    for r in range(len(repeats)):
        trace = repeats[r]["runs"][n][alg]
        if trace.termination != "diverged":
            stats[r] = trace.min_error if statistic == "min" else trace.final_error
    if np.isnan(stats).all():
        raise RuntimeError(f"every {alg} run diverged at n={n}")
    return stats


def padded_errors(trace: RunTrace, horizon: int) -> np.ndarray:
    """Error sequence over 0..horizon, extending an early-stopped run's last value.

    A run that stops early (zero gradient, degenerate curvature or divergence)
    keeps its final recorded error thereafter.
    """
    errs = trace.errors
    if len(errs) >= horizon + 1:
        return errs[: horizon + 1]
    return np.concatenate([errs, np.full(horizon + 1 - len(errs), errs[-1])])


def _collect_grid(spec: ExperimentSpec) -> tuple[tuple[int, ...], dict]:
    grid = spec.require_grid()
    return grid, _run_repeats(spec, grid)


def slope_experiment(spec: ExperimentSpec, outdir=None) -> dict[str, SlopeResult]:
    """Statistical error versus sample size with a fitted log-log slope.

    The per-trial error statistic is min-over-iterates in the low regime and
    the final-iterate error in the strong regime; errors are averaged across
    repeats before logs are taken. A diverged run is left out of the mean and
    counted as excluded; a grid point where every run diverged raises
    RuntimeError.
    """
    grid, repeats = _collect_grid(spec)
    results: dict[str, SlopeResult] = {}
    stat = spec.error_statistic()
    for alg in spec.algorithms:
        per = np.array([_statistics(repeats, alg, n, stat) for n in grid])
        excluded = int(np.sum(np.isnan(per)))
        means = np.nanmean(per, axis=1)
        fit = linfit(np.log(np.asarray(grid, dtype=float)), np.log(means))
        results[alg] = SlopeResult(
            algorithm=alg,
            regime=spec.regime,
            statistic=stat,
            n_grid=grid,
            mean_errors=means,
            per_repeat_errors=per,
            fit=fit,
            excluded=excluded,
        )
    if outdir is not None:
        _persist_slopes(spec, results, repeats, outdir)
    return results


@dataclass
class IterationScalingRow:
    n: int
    algorithm: str
    radius: float
    mean_iterations: float | None
    per_repeat: list
    censored: int


def iteration_scaling_study(spec: ExperimentSpec) -> list[IterationScalingRow]:
    """Iterations needed to first enter the shrinking theoretical radius.

    The target radius at sample size n is c * n^(-rate) with the low-regime
    rate of the model; c is calibrated per algorithm as twice that
    algorithm's mean min-error at the largest n (so the target sits above
    its mean noise floor at every grid point; diverged runs are left out of
    that mean). A repeat that never enters the radius is counted as censored.
    """
    if spec.regime != "low":
        raise ValueError("iteration scaling is a low-regime study")
    grid, repeats = _collect_grid(spec)
    rate = spec.slope_rate()
    rows: list[IterationScalingRow] = []
    for alg in spec.algorithms:
        floor = np.nanmean(_statistics(repeats, alg, grid[-1], "min"))
        c = 2.0 * floor * grid[-1] ** rate
        for n in grid:
            radius = float(c * n ** (-rate))
            hits = []
            censored = 0
            for r in range(spec.repeats):
                hit = iterations_to_radius(repeats[r]["runs"][n][alg], radius)
                if hit is None:
                    censored += 1
                else:
                    hits.append(hit)
            rows.append(
                IterationScalingRow(
                    n=n,
                    algorithm=alg,
                    radius=radius,
                    mean_iterations=float(np.mean(hits)) if hits else None,
                    per_repeat=hits,
                    censored=censored,
                )
            )
    return rows


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------


def _persist_runs(spec: ExperimentSpec, grid: tuple[int, ...], repeats: dict, outdir) -> None:
    """spec.json, one trace CSV per run, and runs.csv: one row per (n, repeat,
    algorithm) holding the run's record and the step size and horizon it ran with."""
    os.makedirs(os.path.join(outdir, "traces"), exist_ok=True)
    with open(os.path.join(outdir, "spec.json"), "w") as fh:
        json.dump(spec.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    rows = []
    for n in grid:
        for r in range(spec.repeats):
            for alg, trace in repeats[r]["runs"][n].items():
                trace.write_csv(os.path.join(outdir, "traces", f"{alg}_n{n}_rep{r}.csv"))
                cfg = spec.optimizer_config(alg)
                rows.append({"n": n, "repeat": r, "dataset_hash": repeats[r]["dataset_hash"],
                             **trace.record(), "eta": cfg.eta, "max_iter": cfg.max_iter})
    with open(os.path.join(outdir, "runs.csv"), "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else str(v) for v in row.values()) + "\n")


def _persist_convergence(spec, results, repeats, outdir) -> None:
    _persist_runs(spec, (spec.require_single_n(),), repeats, outdir)
    series = []
    for alg, traces in results.items():
        horizon = max(t.n_steps for t in traces)
        mean_err = np.mean([padded_errors(t, horizon) for t in traces], axis=0)
        series.append({"name": alg, "xs": np.arange(horizon + 1), "ys": mean_err})
    svgplot.line_plot(
        os.path.join(outdir, "convergence.svg"),
        series,
        title=f"{spec.model} {spec.regime}: error vs iteration (n={spec.n})",
        xlabel="iteration",
        ylabel="log10 error",
        logy=True,
    )


def _persist_slopes(spec, results, repeats, outdir) -> None:
    grid = spec.require_grid()
    _persist_runs(spec, grid, repeats, outdir)
    with open(os.path.join(outdir, "summary.csv"), "w") as fh:
        fh.write("n,algorithm,mean_error,slope,r_squared\n")
        for alg, res in results.items():
            for i, n in enumerate(grid):
                fh.write(
                    f"{n},{alg},{res.mean_errors[i]:.17g},"
                    f"{res.fit.slope:.17g},{res.fit.r_squared:.17g}\n"
                )
    with open(os.path.join(outdir, "slopes.json"), "w") as fh:
        json.dump({alg: res.to_dict() for alg, res in results.items()}, fh, indent=2)
        fh.write("\n")
    series = []
    annotations = []
    for alg, res in results.items():
        logn = np.log(np.asarray(grid, dtype=float))
        series.append({"name": alg, "xs": logn, "ys": np.log(res.mean_errors), "kind": "points"})
        series.append(
            {
                "name": f"{alg} fit",
                "xs": logn,
                "ys": res.fit.slope * logn + res.fit.intercept,
            }
        )
        annotations.append(f"{alg}: slope {res.fit.slope:.3f} (r2 {res.fit.r_squared:.3f})")
    svgplot.line_plot(
        os.path.join(outdir, "slopes.svg"),
        series,
        title=f"{spec.model} {spec.regime}: log error vs log n",
        xlabel="log n",
        ylabel="log error",
        annotations=annotations,
    )
