"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. Seeds are fixed so the whole gate is deterministic; tolerance and
threshold constants are frozen from the calibration runs recorded in the
experiment defaults (GD step sizes per configuration, repeat counts, and the
contrast/scaling thresholds below).
"""

import time

import numpy as np
import pytest

from normgd.checks import (
    check_eigensolvers,
    check_em_identity,
    check_glm_derivatives,
    check_gmm_derivatives,
    check_quadrature,
    random_gapped_symmetric,
)
from normgd.experiments import (
    convergence_experiment,
    default_spec,
    iteration_scaling_study,
    padded_errors,
    slope_experiment,
)
from normgd.model_glm import GlmObjective, GlmPopulation, glm_loss, glm_pop_loss
from normgd.optim import OptimizerConfig, ScaledObjective, run
from normgd.stochastics import rng_new, sample_glm


def report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num:02d} PASS - {detail}")


def run_normgd_slope(model: str, regime: str, seed: int):
    spec = default_spec(model, regime, algorithms=("normgd",), repeats=10, seed=seed)
    started = time.perf_counter()
    res = slope_experiment(spec)["normgd"]
    elapsed = time.perf_counter() - started
    violations = int(np.sum(np.diff(res.mean_errors) > 0))
    assert violations <= 1, f"mean errors not monotone: {res.mean_errors}"
    return res, elapsed


def test_c01_glm_strong_snr_slope():
    res, elapsed = run_normgd_slope("glm", "strong", seed=1)
    assert -0.65 <= res.fit.slope <= -0.35
    assert res.fit.r_squared >= 0.9
    assert elapsed < 120.0
    report(1, f"glm strong slope {res.fit.slope:.3f} (r2 {res.fit.r_squared:.3f}, {elapsed:.0f}s)")


def test_c02_glm_low_snr_slope():
    res, elapsed = run_normgd_slope("glm", "low", seed=8)
    assert -0.35 <= res.fit.slope <= -0.15
    assert res.fit.r_squared >= 0.9
    report(2, f"glm low slope {res.fit.slope:.3f} (r2 {res.fit.r_squared:.3f}, {elapsed:.0f}s)")


def test_c03_gmm_slopes():
    started = time.perf_counter()
    strong, t_strong = run_normgd_slope("gmm", "strong", seed=2)
    low, t_low = run_normgd_slope("gmm", "low", seed=1)
    assert -0.65 <= strong.fit.slope <= -0.35
    assert strong.fit.r_squared >= 0.9
    assert -0.35 <= low.fit.slope <= -0.15
    assert low.fit.r_squared >= 0.9
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        3,
        f"gmm slopes strong {strong.fit.slope:.3f} (r2 {strong.fit.r_squared:.3f}) / "
        f"low {low.fit.slope:.3f} (r2 {low.fit.r_squared:.3f}), {elapsed:.0f}s",
    )


@pytest.mark.parametrize(
    "model,n",
    [("glm", 1000), ("gmm", 10000)],
    ids=["glm_n1000", "gmm_n10000"],
)
def test_c04_convergence_shape_contrast(model, n):
    # Thresholds frozen after calibration: mean curves over 5 repeats; the
    # normalized method bottoms out by iteration 100 while the fixed-step
    # crawl is still >= 2x away at iteration 100.
    spec = default_spec(
        model, "low", algorithms=("normgd", "gd"), repeats=5, seed=0, n=n,
        max_iter_by_algorithm={"gd": 150, "normgd": 500},
    )
    res = convergence_experiment(spec)
    mean_ng = np.mean([padded_errors(t, 500) for t in res["normgd"]], axis=0)
    mean_gd = np.mean([padded_errors(t, 150) for t in res["gd"]], axis=0)
    min100 = float(mean_ng[:101].min())
    assert int(mean_ng.argmin()) <= 100
    assert mean_gd[100] >= 2.0 * min100
    report(
        4,
        f"{model} low n={n}: normgd min {min100:.4f} by iter {int(mean_ng.argmin())}, "
        f"gd at 100 = {mean_gd[100]:.4f} ({mean_gd[100] / min100:.2f}x)",
    )


def test_c05_iteration_scaling():
    spec = default_spec(
        "glm", "low", algorithms=("normgd", "gd"), repeats=5, seed=0,
        n_grid=(1000, 4000, 16000), max_iter_by_algorithm={"gd": 6000, "normgd": 500},
    )
    rows = {(r.algorithm, r.n): r for r in iteration_scaling_study(spec)}
    assert all(r.censored == 0 for r in rows.values())
    ng1 = rows[("normgd", 1000)].mean_iterations
    ng16 = rows[("normgd", 16000)].mean_iterations
    gd1 = rows[("gd", 1000)].mean_iterations
    gd16 = rows[("gd", 16000)].mean_iterations
    assert ng16 <= ng1 + 3.0 * np.log(16.0)
    assert gd16 / gd1 >= 2.0
    report(
        5,
        f"normgd iters {ng1:.1f}->{ng16:.1f} (log bound {ng1 + 3 * np.log(16):.1f}); "
        f"gd iters {gd1:.0f}->{gd16:.0f} (ratio {gd16 / gd1:.2f})",
    )


def test_c06_derivative_oracles():
    results = check_glm_derivatives(seed=0, instances=100) + check_gmm_derivatives(
        seed=0, instances=100
    )
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"
    detail = "; ".join(f"{r.name} {r.detail}" for r in results)
    report(6, f"100 instances per model at rel err <= 1e-5 ({detail})")


def test_c07_eigensolver_cross_check():
    results = check_eigensolvers(seed=0, cases=200)
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"
    rng = rng_new(2)  # same stream the checker uses
    flips = sum(
        1
        for case in range(200)
        if abs(random_gapped_symmetric(rng, case)[1][-1])
        > abs(random_gapped_symmetric(rng, case)[1][0])
    )
    assert flips >= 40
    report(7, f"200 gapped matrices, {flips} indefinite magnitude-flips; "
              + "; ".join(f"{r.name} {r.detail}" for r in results))


def test_c08_em_gd_identity():
    results = check_em_identity(seed=0, instances=100)
    assert results[0].passed, results[0].detail
    report(8, f"em == gd(eta=sigma^2) on 100 states ({results[0].detail})")


def test_c09_gmm_population_hessian():
    results = check_quadrature(seed=0, mc_draws=10**7)
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"
    report(9, "; ".join(r.detail for r in results))


def test_c10_glm_population_lln():
    pop = GlmPopulation(p=2, sigma=1.0, d=3)
    ds = sample_glm(10**6, 3, np.zeros(3), 2, 1.0, rng_new(42))
    obj = GlmObjective(ds)
    points = (
        np.array([0.3, 0.0, 0.0]),
        np.array([0.2, -0.4, 0.1]),
        np.array([0.5, 0.2, -0.1]),
    )
    worst = 0.0
    for theta in points:
        sample_val = glm_loss(obj, theta)
        pop_val = glm_pop_loss(pop, theta)
        worst = max(worst, abs(sample_val - pop_val) / pop_val)
    assert worst <= 0.01
    report(10, f"sample loss at n=1e6 within {worst * 100:.2f}% of closed form (3 points)")


def test_c11_normgd_scale_equivariance():
    ds = sample_glm(1000, 4, np.zeros(4), 2, 1.0, rng_new(7))
    obj = GlmObjective(ds)
    theta0 = np.array([0.25, 0.25, -0.25, 0.25])
    cfg = OptimizerConfig("normgd", eta=0.5, max_iter=50)
    base = run(obj, theta0, cfg, np.zeros(4))
    scaled = run(ScaledObjective(obj, 1000.0), theta0, cfg, np.zeros(4))
    worst = max(
        float(np.linalg.norm(x - y)) / max(1.0, float(np.linalg.norm(x)))
        for x, y in zip(base.iterates, scaled.iterates)
    )
    assert worst <= 1e-10
    report(11, f"1000x loss scaling moves no iterate by more than {worst:.2e} relative")
