import csv
import dataclasses
import json
import os
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from normgd import svgplot
from normgd.experiments import (
    ExperimentSpec,
    _collect_grid,
    convergence_experiment,
    default_spec,
    iteration_scaling_study,
    padded_errors,
    slope_experiment,
)


def small_glm_spec(**overrides):
    base = dict(
        model="glm",
        regime="low",
        d=3,
        p=2,
        n=300,
        n_grid=(200, 400, 800),
        repeats=2,
        algorithms=("normgd", "gd"),
        seed=11,
        max_iter_by_algorithm={"normgd": 60, "gd": 120, "em": 60},
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpecValidation:
    def test_low_regime_defaults_theta_star_to_zero(self):
        spec = small_glm_spec()
        assert np.array_equal(spec.theta_star, np.zeros(3))

    def test_strong_regime_needs_nonzero_theta_star(self):
        with pytest.raises(ValueError):
            small_glm_spec(regime="strong")
        with pytest.raises(ValueError):
            small_glm_spec(regime="strong", theta_star=np.zeros(3))

    def test_low_regime_rejects_nonzero_theta_star(self):
        with pytest.raises(ValueError):
            small_glm_spec(theta_star=np.array([1.0, 0.0, 0.0]))

    def test_grid_must_increase(self):
        with pytest.raises(ValueError):
            small_glm_spec(n_grid=(200, 200, 400))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            small_glm_spec(algorithms=("normgd", "adam"))

    def test_em_requires_mixture(self):
        with pytest.raises(ValueError):
            small_glm_spec(algorithms=("em",))

    def test_slope_requires_grid_of_three(self):
        spec = small_glm_spec(n_grid=(200, 400))
        with pytest.raises(ValueError):
            slope_experiment(spec)

    def test_convergence_requires_single_n(self):
        spec = small_glm_spec(n=None)
        with pytest.raises(ValueError):
            convergence_experiment(spec)

    def test_default_specs(self):
        glm = default_spec("glm", "strong")
        assert glm.d == 4 and glm.p == 2
        assert np.array_equal(glm.theta_star, [1.0, 2.0, 3.0, 4.0])
        gmm = default_spec("gmm", "strong")
        assert gmm.d == 2
        assert np.array_equal(gmm.theta_star, [1.0, 2.0])

    def test_eta_defaults_resolve_per_configuration(self):
        low = default_spec("glm", "low")
        assert low.optimizer_config("normgd").eta == 0.5
        assert low.optimizer_config("gd").eta == 0.005
        gmm = default_spec("gmm", "strong")
        assert gmm.optimizer_config("em").eta == gmm.sigma**2
        explicit = default_spec("glm", "low", eta=0.3)
        assert explicit.optimizer_config("gd").eta == 0.3


class TestConvergence:
    def test_shared_start_and_data_across_algorithms(self):
        res = convergence_experiment(small_glm_spec())
        ng, gd = res["normgd"], res["gd"]
        for r in range(2):
            assert ng[r].errors[0] == gd[r].errors[0]

    def test_repeat_determinism(self):
        a = convergence_experiment(small_glm_spec())
        b = convergence_experiment(small_glm_spec())
        for alg in ("normgd", "gd"):
            for r in range(2):
                assert np.array_equal(a[alg][r].errors, b[alg][r].errors)

    def test_repeats_draw_different_data(self):
        res = convergence_experiment(small_glm_spec())
        assert not np.array_equal(res["normgd"][0].errors, res["normgd"][1].errors)

    def test_padded_errors(self):
        res = convergence_experiment(small_glm_spec())
        trace = res["normgd"][0]
        padded = padded_errors(trace, 100)
        assert padded.shape == (101,)
        assert padded[-1] == trace.errors[-1]

    def test_strong_snr_both_algorithms_decay_to_plateau(self):
        # Replication of the strong-regime picture: both methods drop the
        # error by well over an order of magnitude and then flatten.
        spec = default_spec(
            "glm", "strong", algorithms=("normgd", "gd"), repeats=1, seed=0, n=1000,
            max_iter_by_algorithm={"normgd": 300, "gd": 2000},
        )
        res = convergence_experiment(spec)
        for alg in ("normgd", "gd"):
            errs = res[alg][0].errors
            assert errs.min() < errs[0] / 20.0
            plateau = errs[-50:]
            assert plateau.max() / plateau.min() < 1.5


class TestSlope:
    def test_result_shape_and_fit(self):
        res = slope_experiment(small_glm_spec())
        for alg in ("normgd", "gd"):
            out = res[alg]
            assert out.statistic == "min"
            assert out.per_repeat_errors.shape == (3, 2)
            assert np.all(out.mean_errors > 0)
            expected = np.exp(out.fit.slope * np.log(np.array([200.0, 400.0, 800.0]))
                              + out.fit.intercept)
            assert np.all(np.isfinite(expected))
            assert out.excluded == 0

    def test_strong_regime_uses_final_statistic(self):
        spec = small_glm_spec(
            regime="strong", theta_star=np.array([1.0, 2.0, 3.0]),
            max_iter_by_algorithm={"normgd": 60, "gd": 200, "em": 60},
        )
        res = slope_experiment(spec)
        assert res["normgd"].statistic == "final"

    def test_determinism(self):
        a = slope_experiment(small_glm_spec())
        b = slope_experiment(small_glm_spec())
        assert np.array_equal(a["normgd"].per_repeat_errors, b["normgd"].per_repeat_errors)
        assert a["normgd"].fit.slope == b["normgd"].fit.slope

    def test_nested_prefix_data(self):
        # Within a repeat the n=200 dataset is a prefix of the n=400 one, so
        # both runs start from the same theta0 and see common rows.
        res = convergence_experiment(small_glm_spec(n=200))
        res2 = convergence_experiment(small_glm_spec(n=400))
        assert res["normgd"][0].errors[0] == res2["normgd"][0].errors[0]

    def test_diverged_runs_are_excluded_from_the_mean(self):
        # At eta=0.01 repeat 0 diverges at n=500 and repeat 3 at n=1000; each
        # stops with a finite error, so only its termination can exclude it.
        spec = default_spec(
            "glm", "strong", algorithms=("gd",), repeats=4, n_grid=(500, 1000, 2000), seed=0,
            eta_by_algorithm={"gd": 0.01}, max_iter_by_algorithm={"gd": 200},
        )
        with pytest.warns(RuntimeWarning):
            res = slope_experiment(spec)["gd"]
            _, repeats = _collect_grid(spec)
        diverged = np.array([[repeats[r]["runs"][n]["gd"].termination == "diverged"
                              for r in range(4)] for n in spec.n_grid])
        assert diverged.sum() == 2 and diverged[0, 0] and diverged[1, 3]
        assert res.excluded == 2
        assert np.array_equal(np.isnan(res.per_repeat_errors), diverged)
        kept = [[repeats[r]["runs"][n]["gd"].final_error for r in range(4) if not diverged[i, r]]
                for i, n in enumerate(spec.n_grid)]
        assert np.array_equal(res.mean_errors, [np.mean(k) for k in kept])
        assert np.isfinite(res.fit.slope)

    def test_parallel_pool_matches_serial(self):
        serial = slope_experiment(small_glm_spec())
        pooled = slope_experiment(small_glm_spec(jobs=2))
        assert np.array_equal(
            serial["normgd"].per_repeat_errors, pooled["normgd"].per_repeat_errors
        )


class TestIterationScaling:
    def test_requires_low_regime(self):
        spec = small_glm_spec(regime="strong", theta_star=np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            iteration_scaling_study(spec)

    def test_huge_radius_gives_zero_counts(self):
        # With no steps every run's floor is its start distance, so the
        # calibrated radius is at least twice it and every run starts inside.
        spec = small_glm_spec(max_iter_by_algorithm={"normgd": 0, "gd": 0})
        rows = iteration_scaling_study(spec)
        assert all(row.radius > spec.init_radius for row in rows)
        assert all(row.mean_iterations == 0.0 for row in rows)
        assert all(row.censored == 0 for row in rows)

    def test_unreachable_radius_is_censored(self):
        # A repeat is censored exactly when its min error lies above the radius.
        spec = small_glm_spec(seed=15, repeats=6)
        rows = iteration_scaling_study(spec)
        _, repeats = _collect_grid(spec)
        for row in rows:
            floors = [repeats[r]["runs"][row.n][row.algorithm].min_error for r in range(spec.repeats)]
            assert row.censored == sum(floor > row.radius for floor in floors)
        (row,) = [row for row in rows if row.censored]
        assert (row.algorithm, row.n, row.censored) == ("normgd", 200, 1)

    def test_rows_account_for_every_repeat(self):
        # At this seed one normgd repeat at n=200 never enters the radius, so
        # the censored count is exercised as well as the hits.
        spec = small_glm_spec(seed=15, repeats=6)
        rows = iteration_scaling_study(spec)
        assert len(rows) == len(spec.algorithms) * len(spec.n_grid)
        assert any(row.censored for row in rows)
        for row in rows:
            assert len(row.per_repeat) + row.censored == spec.repeats
            if row.per_repeat:
                assert row.mean_iterations == float(np.mean(row.per_repeat))
            else:
                assert row.mean_iterations is None

    def test_diverged_runs_leave_the_floor(self):
        # At eta=1.4 repeat 3 diverges at the largest n; at eta=1.8 every run there does.
        spec = small_glm_spec(algorithms=("gd",), repeats=4, eta_by_algorithm={"gd": 1.4})
        with pytest.warns(RuntimeWarning):
            rows = iteration_scaling_study(spec)
            _, repeats = _collect_grid(spec)
        runs = [repeats[r]["runs"][800]["gd"] for r in range(4)]
        assert [t.termination for t in runs] == ["max_iter"] * 3 + ["diverged"]
        floor = np.mean([t.min_error for t in runs[:3]])
        assert rows[-1].radius == pytest.approx(2.0 * floor, rel=1e-12)
        spec = small_glm_spec(algorithms=("gd",), repeats=4, eta_by_algorithm={"gd": 1.8})
        with pytest.warns(RuntimeWarning), pytest.raises(RuntimeError, match="gd run diverged at n=800"):
            iteration_scaling_study(spec)

    def test_calibrated_radius_scales_with_n(self):
        rows = iteration_scaling_study(small_glm_spec())
        ng = [row for row in rows if row.algorithm == "normgd"]
        radii = [row.radius for row in ng]
        assert radii[0] > radii[1] > radii[2]
        assert radii[0] / radii[2] == pytest.approx(4.0 ** 0.25, rel=1e-12)


class TestPersistence:
    def test_convergence_outputs(self, tmp_path):
        outdir = tmp_path / "conv"
        convergence_experiment(small_glm_spec(), outdir=str(outdir))
        assert (outdir / "spec.json").exists()
        spec_doc = json.loads((outdir / "spec.json").read_text())
        assert spec_doc["model"] == "glm"
        assert spec_doc["error_statistic"] == "min"
        spec_fields = {f.name for f in dataclasses.fields(ExperimentSpec)}
        assert set(spec_doc) == spec_fields | {"error_statistic"}
        assert sorted(p.name for p in (outdir / "traces").iterdir()) == [
            f"{alg}_n300_rep{r}.csv" for alg in ("gd", "normgd") for r in range(2)
        ]
        assert not (outdir / "summary.csv").exists()
        with open(outdir / "runs.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == [
            "n", "repeat", "dataset_hash", "algorithm", "n_steps", "min_error",
            "min_error_iter", "final_error", "termination", "degenerate_lambda", "wall_time",
            "eta", "max_iter",
        ]
        assert [(row["n"], row["repeat"], row["algorithm"]) for row in rows] == [
            ("300", "0", "normgd"), ("300", "0", "gd"), ("300", "1", "normgd"), ("300", "1", "gd")
        ]
        assert rows[0]["dataset_hash"] == rows[1]["dataset_hash"] != rows[2]["dataset_hash"]
        assert {row["termination"] for row in rows} == {"max_iter"}
        assert [(row["eta"], row["max_iter"]) for row in rows[:2]] == [("0.5", "60"), ("0.005", "120")]
        ET.parse(outdir / "convergence.svg")

    def test_convergence_plot_spans_the_longest_run(self, tmp_path, monkeypatch):
        # Repeat 1 of normgd stops at a zero gradient after 75 of 500 steps;
        # its error is held at the last value, not the curve cut at 75.
        plotted = {}
        monkeypatch.setattr(svgplot, "line_plot", lambda path, series, **kw: plotted.update(
            {s["name"]: s for s in series}))
        spec = default_spec("gmm", "low", algorithms=("normgd",), repeats=2, n=2000, seed=0)
        traces = convergence_experiment(spec, outdir=str(tmp_path))["normgd"]
        assert [t.n_steps for t in traces] == [500, 75]
        assert np.array_equal(plotted["normgd"]["xs"], np.arange(501))
        assert np.array_equal(
            plotted["normgd"]["ys"], np.mean([padded_errors(t, 500) for t in traces], axis=0)
        )

    def test_slope_outputs(self, tmp_path):
        outdir = tmp_path / "slope"
        slope_experiment(small_glm_spec(), outdir=str(outdir))
        assert (outdir / "spec.json").exists()
        summary = (outdir / "summary.csv").read_text().strip().split("\n")
        assert summary[0] == "n,algorithm,mean_error,slope,r_squared"
        assert len(summary) == 1 + 3 * 2
        slopes = json.loads((outdir / "slopes.json").read_text())
        assert set(slopes) == {"normgd", "gd"}
        assert (outdir / "traces" / "normgd_n200_rep0.csv").exists()
        assert len((outdir / "runs.csv").read_text().strip().split("\n")) == 1 + 3 * 2 * 2
        ET.parse(outdir / "slopes.svg")

    def test_deterministic_summary_bytes(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        slope_experiment(small_glm_spec(), outdir=str(out1))
        slope_experiment(small_glm_spec(), outdir=str(out2))
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
