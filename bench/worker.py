"""The workload process: one study per round, checked, optionally traced.

run.py starts this file with ``src`` on PYTHONPATH and one BLAS thread:

  worker.py setup <workload> <seed> <full|tiny>
      import normgd and draw the workload's master datasets, then time the
      speed clock's kernel and print what that took and the clock's scale;
      run.py times the whole process as the set-up cost.
  worker.py run <workload> <seed> <seconds> <trace 0|1> <full|tiny> <workdir>
      warm up on the tiny configuration, run whole studies until their
      time adds up to <seconds>, check every one, and with trace 1 run one
      more study under the span tracer plus the microbenchmarks. Prints one
      JSON object as its last line.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict

import numpy as np

import checks
from workloads import WORKLOADS, Workload

from normgd import cli, experiments, model_glm, model_gmm, optim, svgplot
from normgd.numkit import SymMatrix
from normgd.stochastics import rng_new, rng_split, rng_unit_sphere, sample_glm, sample_gmm

MICRO_N = (500, 16000)
MICRO_D = (2, 4, 16)
RUN_LOOP_ITERS = 2000
# The speed clock's reference: study_s is in seconds of a machine on which
# one calibration kernel takes this long (about the median on the 2-core
# machine the bounds were set on).
CALIBRATION_REF_S = 1.0e-3


def build_spec(wl: Workload, seed: int) -> experiments.ExperimentSpec:
    return experiments.default_spec(
        wl.model, wl.regime, algorithms=wl.algorithms, repeats=wl.repeats, seed=seed,
        n_grid=wl.n_grid, max_iter_by_algorithm=dict(wl.max_iter),
    )


def draw_masters(spec: experiments.ExperimentSpec) -> list:
    """The master dataset of every repeat, drawn as the studies draw it: by
    experiments' own sampler, from the stream its repeat runner derives."""
    return [experiments._sample_master(spec, spec.n_grid[-1],
                                       rng_split(rng_split(rng_new(spec.seed), r), 0))
            for r in range(spec.repeats)]


# ---------------------------------------------------------------------------
# Rounds: one study call, its optimizer runs and its checks
# ---------------------------------------------------------------------------


class SpeedClock:
    """Wall time of a study, also rescaled to a reference machine speed.

    The machine this benchmark was built on changes speed by up to +-40 %
    over seconds to minutes, so one study's wall time varies by +-15 % from
    run to run. After every optimizer run, and once the study returns, the
    clock times a fixed numpy kernel that does not touch the package. Each
    stretch of study time since the last mark is scaled by
    CALIBRATION_REF_S / (kernel time at its end). The kernel's own time is
    left out of both totals. The kernel is the same for every workload:
    40 small gradient steps in numpy, the mix of Python and BLAS work the
    studies do.
    """

    def __init__(self):
        self._x = np.random.default_rng(0).standard_normal((2000, 4))
        self.wall_s = 0.0
        self.scaled_s = 0.0
        self.kernel_s = []
        self._since = time.perf_counter()

    def kernel(self) -> float:
        x = self._x
        started = time.perf_counter()
        theta = np.full(4, 0.1)
        for _ in range(40):
            u = x @ theta
            theta = theta - 1e-3 * (x.T @ (u * u * u - u)) / 2000
        return time.perf_counter() - started

    def mark(self) -> None:
        stretch = time.perf_counter() - self._since
        kernel = min(self.kernel() for _ in range(3))
        self.wall_s += stretch
        self.scaled_s += stretch * CALIBRATION_REF_S / kernel
        self.kernel_s.append(kernel)
        self._since = time.perf_counter()


def calibrate() -> dict:
    """Ends a set-up probe: the scale of the speed clock at this moment, and
    the time the calibration itself added to the process."""
    started = time.perf_counter()
    clock = SpeedClock()
    kernel_s = min(clock.kernel() for _ in range(5))
    return {"scale": CALIBRATION_REF_S / kernel_s, "spent_s": time.perf_counter() - started}


class RunLog:
    """Stands in for experiments.run: keeps every run's objective and trace."""

    def __init__(self, inner, clock: SpeedClock | None):
        self.inner = inner
        self.clock = clock
        self.records = []
        self.failed = 0
        self.steps = 0

    def __call__(self, obj, theta0, cfg, theta_star=None):
        try:
            trace = self.inner(obj, theta0, cfg, theta_star)
        except Exception:
            self.failed += 1
            raise
        if self.clock:
            self.clock.mark()
        self.steps += trace.n_steps
        if trace.errors is None or not np.all(np.isfinite(trace.errors)):
            self.failed += 1
        self.records.append((obj, cfg, trace))
        return trace


@contextlib.contextmanager
def patched(target, name, replacement):
    original = getattr(target, name)
    setattr(target, name, replacement)
    try:
        yield
    finally:
        setattr(target, name, original)


def call_study(wl: Workload, spec, outdir: str):
    """The timed call. Returns (result, cli exit code or 0)."""
    if wl.kind == "slope":
        return experiments.slope_experiment(spec), 0
    if wl.kind == "scaling":
        return experiments.iteration_scaling_study(spec), 0
    argv = ["slope", "--model", wl.model, "--regime", wl.regime,
            "--algorithms", ",".join(wl.algorithms), "--out", outdir, "--seed", str(spec.seed)]
    if not wl.full_scale:
        argv += ["--repeats", str(wl.repeats), "--n-grid", ",".join(map(str, wl.n_grid)),
                 "--max-iter", str(dict(wl.max_iter)["normgd"])]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return None, cli.main(argv)


def run_round(wl: Workload, seed: int, outdir: str, tracer=None) -> dict:
    """One study. Untraced, it runs on the speed clock; traced, on the bare wall
    clock, since spans and the clock's kernel would disturb each other."""
    spec = build_spec(wl, seed)
    if tracer:
        log = RunLog(tracer.wrap("run_loop", experiments.run), None)
        study = tracer.wrap("experiments", call_study)
    else:
        log = RunLog(experiments.run, SpeedClock())
        study = call_study
    with patched(experiments, "run", log):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        started = time.perf_counter()
        try:
            result, exit_code = study(wl, spec, outdir)
            error = None
        except Exception:
            result, exit_code, error = None, None, traceback.format_exc()
        wall_s = time.perf_counter() - started
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    clock = log.clock
    if clock:
        clock.mark()
    attempted = wl.runs_per_study
    if error is not None or exit_code != 0:
        problems = [error or f"cli exit code {exit_code}"]
        failed = attempted
    else:
        problems = check_round(wl, spec, result, log, outdir)
        failed = log.failed
    shutil.rmtree(outdir, ignore_errors=True)
    return {
        "wall_s": clock.wall_s if clock else wall_s,
        "study_s": clock.scaled_s if clock else wall_s,
        "kernel_s": statistics.median(clock.kernel_s) if clock else None,
        "minor_faults": faults,
        "steps": log.steps, "attempted": attempted, "failed": failed, "problems": problems,
    }


# ---------------------------------------------------------------------------
# Checks of one round
# ---------------------------------------------------------------------------


def step_samples(records) -> list:
    """Iterates 0, mid and last-but-one of every run, with the next iterate."""
    samples = []
    for obj, cfg, trace in records:
        data = {"X": obj.data.X, "sigma": obj.data.sigma}
        model = "gmm" if isinstance(obj, model_gmm.GmmObjective) else "glm"
        if model == "glm":
            data.update(Y=obj.data.Y, p=obj.data.p)
        steps = trace.n_steps
        for t in sorted({0, steps // 2, steps - 1}) if steps else ():
            label = f"{cfg.algorithm} n={obj.data.n} t={t}"
            samples.append((label, model, cfg.algorithm, cfg.eta, data,
                            trace.iterates[t], trace.iterates[t + 1]))
    return samples


def statistics_by_cell(records, statistic: str) -> dict:
    """(algorithm, n) -> per-repeat error statistic, in repeat order."""
    cells = defaultdict(list)
    for obj, cfg, trace in records:
        errs = trace.errors
        cells[(cfg.algorithm, obj.data.n)].append(errs.min() if statistic == "min" else errs[-1])
    return cells


def check_round(wl: Workload, spec, result, log: RunLog, outdir: str) -> list[str]:
    problems = checks.check_steps(step_samples(log.records))
    if len(log.records) != wl.runs_per_study:
        problems.append(f"{len(log.records)} optimizer runs, expected {wl.runs_per_study}")
    if wl.kind == "slope":
        cells = statistics_by_cell(log.records, spec.error_statistic())
        for alg, res in result.items():
            means = [np.mean(cells[(alg, n)]) for n in wl.n_grid]
            if not np.allclose(res.mean_errors, means, rtol=checks.MEAN_TOL, atol=0.0):
                problems.append(f"{alg}: mean errors disagree with the runs' final errors")
            problems += checks.check_fit(alg, wl.n_grid, res.mean_errors, res.fit.slope,
                                         res.fit.intercept)
        if wl.full_scale:
            fit = result["normgd"].fit
            problems += checks.check_slope_band("normgd", fit.slope, fit.r_squared)
    elif wl.kind == "cli":
        found, near_min = checks.check_slope_outdir(
            outdir, wl.algorithms, wl.n_grid, wl.repeats, spec.error_statistic())
        problems += found
        if wl.full_scale and not found:
            problems += checks.check_normgd_faster(near_min, wl.n_grid, "em")
    else:
        rows = {(row.algorithm, row.n): (row.per_repeat, row.censored) for row in result}
        found, censored = check_scaling_rows(log.records, rows, spec)
        problems += found
        if wl.full_scale:
            problems += checks.check_iteration_scaling(
                rows, dict(wl.max_iter), wl.repeats, wl.n_grid[0], wl.n_grid[-1],
                censored["normgd"])
    return problems


def check_scaling_rows(records, rows: dict, spec) -> tuple[list[str], dict]:
    """Hit iterations recomputed from the runs' error sequences.

    The target radius is 2 * (mean min error at the largest n) * (n_max / n)^rate
    for each algorithm, as iteration_scaling_study documents. Also returns,
    per algorithm, (iterations to near its min, min error / radius) of every
    repeat that never reaches the radius.
    """
    problems = []
    censored = defaultdict(list)
    errors = defaultdict(list)
    for obj, cfg, trace in records:
        errors[(cfg.algorithm, obj.data.n)].append(trace.errors)
    n_max = spec.n_grid[-1]
    for alg in spec.algorithms:
        floor = np.mean([e.min() for e in errors[(alg, n_max)]])
        for n in spec.n_grid:
            radius = 2.0 * floor * n_max ** spec.slope_rate() * n ** (-spec.slope_rate())
            firsts = [int(np.argmax(e <= radius)) if np.any(e <= radius) else None
                      for e in errors[(alg, n)]]
            censored[alg] += [(checks.iterations_near_min(e), float(e.min() / radius))
                              for e, first in zip(errors[(alg, n)], firsts) if first is None]
            hits = [f for f in firsts if f is not None]
            if (hits, firsts.count(None)) != (list(rows[(alg, n)][0]), rows[(alg, n)][1]):
                problems.append(f"{alg} n={n}: reported hits {rows[(alg, n)]} but the runs "
                                f"give {(hits, firsts.count(None))}")
    return problems, censored


# ---------------------------------------------------------------------------
# Tracing: spans around the calls into each module, from outside
# ---------------------------------------------------------------------------


class Tracer:
    """Self time and call counts per layer; self = span minus its child spans."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.bytes = defaultdict(int)
        self._child_s = []

    def wrap(self, layer: str, fn, path_arg: int | None = None):
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - started
                self.self_s[layer] += span - self._child_s.pop()
                self.calls[layer] += 1
                if self._child_s:
                    self._child_s[-1] += span
                if path_arg is not None:
                    self.bytes[layer] += os.path.getsize(args[path_arg])

        return traced


# (module or class, attribute, layer, index of the written path among the args)
SPANS = (
    (experiments, "sample_glm", "sample", None),
    (experiments, "sample_gmm", "sample", None),
    (model_glm, "glm_grad", "gradient", None),
    (model_gmm, "gmm_grad", "gradient", None),
    (model_glm, "glm_hessian", "hessian", None),
    (model_gmm, "gmm_hessian", "hessian", None),
    (model_gmm, "em_step", "em_step", None),
    (optim, "lambda_max", "lambda_max", None),
    (optim.RunTrace, "write_csv", "persist", 1),
    (svgplot, "line_plot", "persist", 0),
)


def traced_round(wl: Workload, seed: int, outdir: str) -> tuple[dict, Tracer]:
    tracer = Tracer()
    with contextlib.ExitStack() as stack:
        for target, name, layer, path_arg in SPANS:
            original = getattr(target, name)
            stack.enter_context(patched(target, name, tracer.wrap(layer, original, path_arg)))
        round_ = run_round(wl, seed, outdir, tracer)
    return round_, tracer


def wrapper_cost_s(block_s: float, k: int) -> float:
    """What one traced call costs more than the bare call, in seconds."""
    def bare():
        return None

    traced = Tracer().wrap("probe", bare)
    return max(0.0, best_us(traced, block_s, k) - best_us(bare, block_s, k)) * 1e-6


def layer_metrics(tracer: Tracer, round_: dict, untraced: list[dict], wrapper_s: float) -> dict:
    out = {
        "study_wall_s": (statistics.median(r["wall_s"] for r in untraced), "s"),
        "calibration_us": (statistics.median(r["kernel_s"] for r in untraced) * 1e6, "us"),
        "study_minor_faults": (statistics.median(r["minor_faults"] for r in untraced), "count"),
        "experiments.self_s": (tracer.self_s["experiments"], "s"),
        "sample.self_s": (tracer.self_s["sample"], "s"),
        "run_loop.self_s": (tracer.self_s["run_loop"], "s"),
        "run_loop.steps": (round_["steps"], "count"),
        "persist.self_s": (tracer.self_s["persist"], "s"),
        "persist.bytes": (tracer.bytes["persist"], "bytes"),
        "trace_overhead_s": (sum(tracer.calls.values()) * wrapper_s, "s"),
    }
    for layer in ("gradient", "hessian", "lambda_max", "em_step"):
        out[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        out[f"{layer}.calls"] = (tracer.calls[layer], "count")
    return out


# ---------------------------------------------------------------------------
# Microbenchmarks: microseconds per call, best of k blocks
# ---------------------------------------------------------------------------


def best_us(fn, block_s: float, k: int, per_call: int = 1) -> float:
    calls = 1
    while True:
        started = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - started >= block_s or calls >= 1 << 20:
            break
        calls *= 2
    best = float("inf")
    gc.disable()
    try:
        for _ in range(k):
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            best = min(best, time.perf_counter() - started)
    finally:
        gc.enable()
    return best / (calls * per_call) * 1e6


def microbench(seed: int, block_s: float, k: int) -> dict:
    out = {}
    root = rng_new(seed)
    for d in MICRO_D:
        zero = np.zeros(d)
        theta = 0.5 * rng_unit_sphere(rng_split(root, d), d)
        for n in MICRO_N:
            stream = rng_split(root, 1000 * d + n)
            glm = model_glm.GlmObjective(sample_glm(n, d, zero, 2, 1.0, rng_split(stream, 0)))
            gmm = model_gmm.GmmObjective(sample_gmm(n, d, zero, 1.0, rng_split(stream, 1)))
            cases = {
                "glm.gradient": lambda: model_glm.glm_grad(glm, theta),
                "glm.hessian": lambda: model_glm.glm_hessian(glm, theta),
                "gmm.gradient": lambda: model_gmm.gmm_grad(gmm, theta),
                "gmm.hessian": lambda: model_gmm.gmm_hessian(gmm, theta),
                "gmm.em_step": lambda: model_gmm.em_step(gmm, theta),
                "normgd_step.glm": lambda: optim.normgd_step(glm, theta, 0.5),
            }
            for name, fn in cases.items():
                out[f"us.{name}.n{n}.d{d}"] = (best_us(fn, block_s, k), "us")
        h = model_glm.glm_hessian(glm, theta)
        for backend in ("exact", "power"):
            out[f"us.lambda_max.{backend}.d{d}"] = (
                best_us(lambda: optim.lambda_max(h, backend), block_s, k), "us")
        quad = optim.Quadratic(SymMatrix(np.diag(np.linspace(1.0, 2.0, d))))
        cfg = optim.OptimizerConfig("gd", eta=0.1, max_iter=RUN_LOOP_ITERS)
        out[f"us.run_loop.d{d}"] = (
            best_us(lambda: optim.run(quad, np.ones(d), cfg, zero), block_s, k, RUN_LOOP_ITERS),
            "us")
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def pick(name: str, scale: str) -> Workload:
    wl = WORKLOADS[name]
    return wl if scale == "full" else wl.tiny()


def main_run(name: str, seed: int, seconds: float, trace: bool, scale: str, workdir: str) -> dict:
    wl = pick(name, scale)
    run_round(WORKLOADS[name].tiny(), seed, os.path.join(workdir, "warmup"))
    rounds = []
    while not rounds or sum(r["wall_s"] for r in rounds) < seconds:
        rounds.append(run_round(wl, seed, os.path.join(workdir, f"round{len(rounds)}")))
    out = {
        "metrics": {
            "study_s": (statistics.median(r["study_s"] for r in rounds), "s"),
            "steps_per_s": (statistics.median(r["steps"] / r["study_s"] for r in rounds), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        },
    }
    if trace:
        traced, tracer = traced_round(wl, seed, os.path.join(workdir, "traced"))
        block_s, k = (0.02, 5) if scale == "full" else (0.001, 1)
        out["metrics"] = {**layer_metrics(tracer, traced, rounds, wrapper_cost_s(block_s, k)),
                          **microbench(seed, block_s, k)}
        rounds.append(traced)
    out["attempted"] = sum(r["attempted"] for r in rounds)
    out["failed"] = sum(r["failed"] for r in rounds)
    out["problems"] = [p for r in rounds for p in r["problems"]]
    return out


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "python": sys.version.split()[0]}


def main(argv: list[str]) -> int:
    mode, name, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        draw_masters(build_spec(pick(name, argv[3]), seed))
        print(json.dumps(calibrate()))
        return 0
    seconds, trace, scale, workdir = float(argv[3]), argv[4] == "1", argv[5], argv[6]
    out = main_run(name, seed, seconds, trace, scale, workdir)
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()}
    out["machine"] = machine_facts()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
