"""Output checks for the benchmark workloads.

Every check recomputes what it tests from the inputs with plain numpy, or
tests a property the method must have. None compares against a stored copy
of an earlier output. Each check returns a list of problems; an empty list
is a pass. This module imports only numpy, so the checks can be fed
perturbed results without the package under test.
"""

from __future__ import annotations

import csv
import json
import math
import os
from collections import defaultdict

import numpy as np

# One recomputed step may differ from the program's by rounding only: the
# reference sums in another order and takes the top eigenvalue from LAPACK.
# Below the smallest normal float, iterates that underflow towards an exact
# zero keep too few bits for a relative test.
STEP_REL_TOL = 1e-8
STEP_ABS_TOL = 1e-12
STEP_FLOOR = float(np.finfo(float).tiny)
FIT_TOL = 1e-9
MEAN_TOL = 1e-12

GLM_STRONG_BAND = (-0.65, -0.35)
GLM_STRONG_R2_MIN = 0.9
NEAR_MIN_FACTOR = 1.1
NORMGD_LOG_ITER_SLACK = 3.0
GD_MIN_GROWTH = 2.0
CENSORED_MISS_MAX = 1.5


# ---------------------------------------------------------------------------
# One-step consistency
# ---------------------------------------------------------------------------


def ref_gradient(model: str, data: dict, theta: np.ndarray) -> np.ndarray:
    X = data["X"]
    if model == "glm":
        p = data["p"]
        u = np.einsum("ij,j->i", X, theta)
        return np.mean((p * (u**p - data["Y"]) * u ** (p - 1))[:, None] * X, axis=0)
    s2 = data["sigma"] ** 2
    t = np.tanh(np.einsum("ij,j->i", X, theta) / s2)
    return theta / s2 - np.mean(t[:, None] * X, axis=0) / s2


def ref_hessian(model: str, data: dict, theta: np.ndarray) -> np.ndarray:
    X = data["X"]
    n, d = X.shape
    u = np.einsum("ij,j->i", X, theta)
    if model == "glm":
        p, Y = data["p"], data["Y"]
        w = p * (2 * p - 1) * u ** (2 * p - 2) - p * (p - 1) * Y * u ** (p - 2)
        return np.einsum("i,ij,ik->jk", w, X, X) / n
    s2 = data["sigma"] ** 2
    with np.errstate(over="ignore"):
        w = 1.0 / np.cosh(u / s2) ** 2
    return (np.eye(d) - np.einsum("i,ij,ik->jk", w, X, X) / (n * s2)) / s2


def ref_step(model: str, algorithm: str, eta: float, data: dict, theta: np.ndarray) -> np.ndarray:
    """The next iterate, from the update rule written out independently."""
    if algorithm == "em":
        s2 = data["sigma"] ** 2
        t = np.tanh(np.einsum("ij,j->i", data["X"], theta) / s2)
        return np.mean(t[:, None] * data["X"], axis=0)
    g = ref_gradient(model, data, theta)
    if algorithm == "gd":
        return theta - eta * g
    lam = np.linalg.eigvalsh(ref_hessian(model, data, theta))[-1]
    return theta - (eta / lam) * g


def check_steps(samples) -> list[str]:
    """Each sample is (label, model, algorithm, eta, data, theta_t, theta_next).

    The program's next iterate must match the reference step within
    STEP_REL_TOL of the step length plus STEP_ABS_TOL of |theta_t| plus
    STEP_FLOOR.
    """
    problems = []
    for label, model, algorithm, eta, data, theta, nxt in samples:
        ref = ref_step(model, algorithm, eta, data, theta)
        gap = float(np.linalg.norm(ref - nxt))
        allowed = (STEP_REL_TOL * float(np.linalg.norm(theta - nxt))
                   + STEP_ABS_TOL * float(np.linalg.norm(theta)) + STEP_FLOOR)
        if not gap <= allowed:
            problems.append(f"{label}: next iterate off the reference step by {gap:.3e}")
    return problems


# ---------------------------------------------------------------------------
# Fits and summaries
# ---------------------------------------------------------------------------


def check_fit(label: str, n_grid, mean_errors, slope: float, intercept: float) -> list[str]:
    """The reported line must be np.polyfit on the reported mean errors."""
    ref_slope, ref_icpt = np.polyfit(np.log(np.asarray(n_grid, float)), np.log(mean_errors), 1)
    if abs(ref_slope - slope) <= FIT_TOL * max(1.0, abs(ref_slope)) and abs(
        ref_icpt - intercept
    ) <= FIT_TOL * max(1.0, abs(ref_icpt)):
        return []
    return [f"{label}: fit ({slope:.6g}, {intercept:.6g}) is not polyfit "
            f"({ref_slope:.6g}, {ref_icpt:.6g})"]


def check_slope_band(label: str, slope: float, r_squared: float) -> list[str]:
    """The glm strong-regime slope must show the n^-1/2 rate, with a good fit."""
    lo, hi = GLM_STRONG_BAND
    problems = []
    if not lo <= slope <= hi:
        problems.append(f"{label}: slope {slope:.4f} outside [{lo}, {hi}]")
    if not r_squared >= GLM_STRONG_R2_MIN:
        problems.append(f"{label}: r^2 {r_squared:.4f} below {GLM_STRONG_R2_MIN}")
    return problems


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------


def read_trace_errors(path: str) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row["error"]) for row in csv.DictReader(fh)])


def iterations_near_min(errors: np.ndarray) -> int:
    """First iteration whose error is within NEAR_MIN_FACTOR of the run's minimum."""
    return int(np.argmax(errors <= NEAR_MIN_FACTOR * errors.min()))


def check_slope_outdir(outdir: str, algorithms, n_grid, repeats: int,
                       statistic: str) -> tuple[list[str], dict]:
    """summary.csv and slopes.json against the trace CSVs, and the slopes.json fits.

    Returns the problems and, per (algorithm, n), the list of iterations each
    repeat needed to come within NEAR_MIN_FACTOR of its minimum error.
    """
    problems = []
    near_min = defaultdict(list)
    recomputed = {}
    for alg in algorithms:
        for n in n_grid:
            stats = []
            for r in range(repeats):
                errs = read_trace_errors(os.path.join(outdir, "traces", f"{alg}_n{n}_rep{r}.csv"))
                stats.append(errs.min() if statistic == "min" else errs[-1])
                near_min[(alg, n)].append(iterations_near_min(errs))
            recomputed[(alg, n)] = float(np.mean(stats))
    with open(os.path.join(outdir, "summary.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != len(recomputed):
        problems.append(f"summary.csv has {len(rows)} rows, expected {len(recomputed)}")
    for row in rows:
        key = (row["algorithm"], int(row["n"]))
        got = float(row["mean_error"])
        want = recomputed.get(key, math.nan)
        if not abs(got - want) <= MEAN_TOL * abs(want):
            problems.append(f"summary.csv {key}: mean {got!r} but traces give {want!r}")
    with open(os.path.join(outdir, "slopes.json")) as fh:
        slopes = json.load(fh)
    for alg in algorithms:
        res = slopes[alg]
        means = [recomputed[(alg, n)] for n in n_grid]
        if not np.allclose(res["mean_errors"], means, rtol=MEAN_TOL, atol=0.0):
            problems.append(f"slopes.json {alg}: mean errors disagree with the traces")
        problems += check_fit(f"slopes.json {alg}", res["n_grid"], res["mean_errors"],
                              res["slope"], res["intercept"])
    svg = os.path.join(outdir, "slopes.svg")
    if not (os.path.isfile(svg) and os.path.getsize(svg) > 0):
        problems.append("slopes.svg missing or empty")
    return problems, dict(near_min)


def check_normgd_faster(near_min: dict, n_grid, rival: str) -> list[str]:
    """NormGD's median iterations to near its minimum must beat the rival's at every n."""
    problems = []
    for n in n_grid:
        ng = float(np.median(near_min[("normgd", n)]))
        other = float(np.median(near_min[(rival, n)]))
        if not ng < other:
            problems.append(f"n={n}: normgd median {ng} iterations not below {rival} {other}")
    return problems


# ---------------------------------------------------------------------------
# Iteration scaling
# ---------------------------------------------------------------------------


def check_iteration_scaling(rows: dict, horizons: dict, repeats: int, n_small: int,
                            n_large: int, censored_normgd) -> list[str]:
    """rows maps (algorithm, n) -> (per-repeat hit iterations, censored count).

    NormGD's mean iterations over the repeats that reach the radius grow by at
    most NORMGD_LOG_ITER_SLACK * ln(n_large / n_small). GD's mean iterations,
    with censored repeats counted at the horizon, grow at least GD_MIN_GROWTH
    times.

    censored_normgd holds, for every NormGD repeat that never reaches the
    radius, (iterations to come within NEAR_MIN_FACTOR of its own min error,
    min error / radius). The study calibrates the radius on the mean noise
    floor, so a repeat whose own floor lies just above it is censored however
    fast it gets there. Such a repeat must still reach its floor within the
    NormGD iteration limit above, and that floor must lie within
    CENSORED_MISS_MAX of the radius.
    """
    problems = []
    ng_lo, ng_hi = rows[("normgd", n_small)][0], rows[("normgd", n_large)][0]
    if not ng_lo or not ng_hi:
        return [f"normgd reaches the radius in no repeat at n={n_small} or n={n_large}"]
    ng_lo, ng_hi = float(np.mean(ng_lo)), float(np.mean(ng_hi))
    limit = ng_lo + NORMGD_LOG_ITER_SLACK * math.log(n_large / n_small)
    if not ng_hi <= limit:
        problems.append(f"normgd mean iterations {ng_lo:.1f} -> {ng_hi:.1f} exceed {limit:.1f}")
    for near_min, miss in censored_normgd:
        if not (near_min <= limit and miss <= CENSORED_MISS_MAX):
            problems.append(f"censored normgd repeat: {near_min} iterations to near its min "
                            f"(limit {limit:.1f}), min error {miss:.3f}x the radius "
                            f"(limit {CENSORED_MISS_MAX})")

    def gd_mean(n):
        hits, censored = rows[("gd", n)]
        return (sum(hits) + censored * horizons["gd"]) / repeats

    gd_lo, gd_hi = gd_mean(n_small), gd_mean(n_large)
    if not gd_hi >= GD_MIN_GROWTH * gd_lo:
        problems.append(f"gd mean iterations {gd_lo:.1f} -> {gd_hi:.1f} grow less than "
                        f"{GD_MIN_GROWTH}x")
    return problems
