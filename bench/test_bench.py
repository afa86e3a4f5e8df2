"""Smoke test of the benchmark: tiny runs emit every metric, checks catch faults.

  python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace",
                 str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    assert not list(BENCH.glob(".work-*")), "the run left its work directory behind"


def test_without_the_package_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = bench("--workload", "glm-strong-slope", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# Each check fails on a perturbed result
# ---------------------------------------------------------------------------


def glm_data(n=400, d=3, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    return {"X": X, "Y": (X @ np.arange(1.0, d + 1)) ** 2 + rng.standard_normal(n), "p": 2,
            "sigma": 1.0}


def gmm_data(n=400, d=2, seed=0):
    rng = np.random.default_rng(seed)
    return {"X": rng.standard_normal((n, d)), "sigma": 1.0}


@pytest.mark.parametrize("model,algorithm", [("glm", "normgd"), ("glm", "gd"),
                                             ("gmm", "normgd"), ("gmm", "em")])
def test_step_check_accepts_the_reference_and_rejects_a_perturbed_step(model, algorithm):
    data = glm_data() if model == "glm" else gmm_data()
    theta = np.full(data["X"].shape[1], 0.3)
    nxt = checks.ref_step(model, algorithm, 0.01 if algorithm == "gd" else 0.5, data, theta)
    sample = ("s", model, algorithm, 0.01 if algorithm == "gd" else 0.5, data, theta, nxt)
    assert checks.check_steps([sample]) == []
    moved = theta + (1.0 + 1e-6) * (nxt - theta)
    assert checks.check_steps([sample[:6] + (moved,)])


def test_step_check_rejects_a_wrong_top_eigenvalue():
    data = glm_data()
    theta = np.array([0.9, 2.1, 2.8])
    g = checks.ref_gradient("glm", data, theta)
    lam = np.linalg.eigvalsh(checks.ref_hessian("glm", data, theta))
    assert checks.check_steps([("ok", "glm", "normgd", 0.5, data, theta,
                                theta - 0.5 / lam[-1] * g)]) == []
    assert checks.check_steps([("second", "glm", "normgd", 0.5, data, theta,
                                theta - 0.5 / lam[-2] * g)])


def test_fit_check_rejects_a_fit_not_from_the_mean_errors():
    grid = [500, 1000, 2000, 4000]
    means = np.array([0.1, 0.07, 0.052, 0.036])
    slope, icpt = np.polyfit(np.log(grid), np.log(means), 1)
    assert checks.check_fit("f", grid, means, slope, icpt) == []
    assert checks.check_fit("f", grid, means, slope + 1e-6, icpt)
    assert checks.check_fit("f", grid, means * [1, 1, 1, 1.01], slope, icpt)


def test_slope_band_check():
    assert checks.check_slope_band("s", -0.5, 0.99) == []
    assert checks.check_slope_band("s", -0.30, 0.99)
    assert checks.check_slope_band("s", -0.70, 0.99)
    assert checks.check_slope_band("s", -0.5, 0.85)


def write_cli_outputs(outdir: Path, grid, repeats, errors):
    """A consistent set of the files `normgd slope` writes, from error sequences."""
    (outdir / "traces").mkdir(parents=True)
    means = {}
    for (alg, n), runs in errors.items():
        for r, errs in enumerate(runs):
            lines = ["iter,error,grad_norm,lambda_max"]
            lines += [f"{t},{e!r},1.0," for t, e in enumerate(errs)]
            (outdir / "traces" / f"{alg}_n{n}_rep{r}.csv").write_text("\n".join(lines) + "\n")
        means[(alg, n)] = float(np.mean([min(e) for e in runs]))
    slopes, rows = {}, ["n,algorithm,mean_error,slope,r_squared"]
    for alg in ("normgd", "em"):
        m = [means[(alg, n)] for n in grid]
        slope, icpt = np.polyfit(np.log(grid), np.log(m), 1)
        slopes[alg] = {"n_grid": grid, "mean_errors": m, "slope": slope, "intercept": icpt}
        rows += [f"{n},{alg},{means[(alg, n)]!r},{slope!r},0.99" for n in grid]
    (outdir / "summary.csv").write_text("\n".join(rows) + "\n")
    (outdir / "slopes.json").write_text(json.dumps(slopes))
    (outdir / "slopes.svg").write_text("<svg/>")


def cli_errors(grid, repeats):
    errors = {}
    for i, n in enumerate(grid):
        floor = 0.1 * n ** -0.25
        for alg, rate in (("normgd", 0.5), ("em", 0.9)):
            errors[(alg, n)] = [[0.5 * rate**t + floor * (1 + 0.1 * r) for t in range(40)]
                                for r in range(repeats)]
    return errors


def test_cli_output_checks(tmp_path):
    grid, repeats = [1000, 2000, 4000], 2
    write_cli_outputs(tmp_path / "ok", grid, repeats, cli_errors(grid, repeats))
    problems, near_min = checks.check_slope_outdir(str(tmp_path / "ok"), ("normgd", "em"),
                                                   grid, repeats, "min")
    assert problems == []
    assert checks.check_normgd_faster(near_min, grid, "em") == []
    assert checks.check_normgd_faster(near_min, grid, "normgd")  # not below itself

    write_cli_outputs(tmp_path / "bad", grid, repeats, cli_errors(grid, repeats))
    summary = tmp_path / "bad" / "summary.csv"
    lines = summary.read_text().splitlines()
    n, alg, mean, *rest = lines[1].split(",")
    lines[1] = ",".join([n, alg, repr(float(mean) * 1.001), *rest])
    summary.write_text("\n".join(lines) + "\n")
    problems, _ = checks.check_slope_outdir(str(tmp_path / "bad"), ("normgd", "em"), grid,
                                            repeats, "min")
    assert any("summary.csv" in p for p in problems)


def test_iteration_scaling_check():
    horizons = {"normgd": 500, "gd": 6000}
    good = {("normgd", 1000): ([4, 4], 0), ("normgd", 16000): ([9], 1),
            ("gd", 1000): ([100, 120], 0), ("gd", 16000): ([600], 1)}
    censored = [(10, 1.04)]  # near its floor in 10 iterations, floor 4 % above the radius

    def check(rows, censored=censored):
        return checks.check_iteration_scaling(rows, horizons, 2, 1000, 16000, censored)

    assert check(good) == []
    assert check({**good, ("normgd", 16000): ([20, 20], 0)})  # normgd slows with n
    assert check({**good, ("normgd", 16000): ([], 2)}, censored * 2)
    assert check({**good, ("gd", 16000): ([150, 150], 0)})  # gd does not slow
    # censored gd repeats count at the horizon, so dropping them cannot hide growth
    assert check({**good, ("gd", 16000): ([], 2)}) == []
    # a censored normgd repeat may not be slow, nor stuck far above the radius
    assert check(good, [(40, 1.04)])
    assert check(good, [(0, 3.0)])
