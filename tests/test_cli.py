import csv

import numpy as np
import pytest

from normgd import checks, model_glm, optim
from normgd.cli import main
from normgd.numkit import SymMatrix


BASE_CONVERGE = [
    "converge", "--model", "glm", "--regime", "low", "--n", "200", "--p", "2",
    "--d", "4", "--seed", "7", "--max-iter", "40",
]
BASE_SLOPE = [
    "slope", "--model", "glm", "--regime", "low", "--n-grid", "200,400,800",
    "--repeats", "2", "--seed", "7", "--max-iter", "40",
]


def runs_table(outdir) -> list[dict]:
    """runs.csv, after checking every row against its trace CSV."""
    with open(outdir / "runs.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        trace = outdir / "traces" / f"{row['algorithm']}_n{row['n']}_rep{row['repeat']}.csv"
        errors = np.loadtxt(trace, delimiter=",", skiprows=1, usecols=1, ndmin=1)
        assert int(row["n_steps"]) == len(errors) - 1
        assert float(row["min_error"]) == errors.min() == errors[int(row["min_error_iter"])]
        assert float(row["final_error"]) == errors[-1]
    return rows


class TestConverge:
    def test_smoke(self, tmp_path, capsys):
        code = main(BASE_CONVERGE + ["--out", str(tmp_path / "run")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("algorithm\trepeat\t")
        assert "\ttermination\t" in out.split("\n")[0]
        assert (tmp_path / "run" / "traces" / "normgd_n200_rep0.csv").exists()
        assert (tmp_path / "run" / "convergence.svg").exists()

    def test_missing_model_fails_validation(self, tmp_path, capsys):
        code = main(["converge", "--regime", "low", "--n", "100"])
        assert code == 1

    def test_unknown_flag_rejected(self, capsys):
        for flag, value in (("--frobnicate", "1"), ("--eig-backend", "exact"),
                            ("--eig-tol", "1e-8")):
            assert main(BASE_CONVERGE + [flag, value]) == 1

    def test_runs_csv_matches_traces(self, tmp_path, capsys):
        outdir = tmp_path / "g"
        code = main(
            ["converge", "--model", "gmm", "--regime", "low", "--n", "300", "--repeats", "2",
             "--algorithms", "normgd,gd,em", "--max-iter", "60", "--out", str(outdir)]
        )
        assert code == 0
        rows = runs_table(outdir)
        assert [(row["repeat"], row["algorithm"]) for row in rows] == [
            (r, alg) for r in ("0", "1") for alg in ("normgd", "gd", "em")
        ]
        printed = capsys.readouterr().out.strip().split("\n")
        assert len(printed) == 1 + len(rows)

    def test_repeatable_runs_csv(self, tmp_path, capsys):
        # Identical apart from wall_time across two invocations and across --jobs 1 and 2.
        tables = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
            outdir = tmp_path / name
            assert main(BASE_CONVERGE + ["--repeats", "2", "--jobs", jobs, "--out", str(outdir)]) == 0
            tables.append([{k: v for k, v in row.items() if k != "wall_time"}
                           for row in runs_table(outdir)])
        assert len(tables[0]) == 4
        assert tables[0] == tables[1] == tables[2]

    def test_invalid_regime_theta_combination(self, tmp_path, capsys):
        code = main(
            ["converge", "--model", "glm", "--regime", "strong", "--n", "100",
             "--theta-star", "0,0,0,0", "--out", str(tmp_path / "x")]
        )
        assert code == 1

    def test_env_output_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NORMGD_OUT", str(tmp_path / "root"))
        code = main(BASE_CONVERGE)
        assert code == 0
        assert (tmp_path / "root" / "converge_glm_low_seed7" / "runs.csv").exists()

    def test_replication_invocation(self, tmp_path, capsys):
        # The documented replication command at its real sample size.
        code = main(
            ["converge", "--model", "glm", "--regime", "low", "--n", "1000", "--p", "2",
             "--d", "4", "--seed", "7", "--out", str(tmp_path / "rep")]
        )
        assert code == 0
        assert (tmp_path / "rep" / "traces" / "normgd_n1000_rep0.csv").exists()
        assert (tmp_path / "rep" / "traces" / "gd_n1000_rep0.csv").exists()


class TestSlope:
    def test_smoke_prints_slopes(self, tmp_path, capsys):
        code = main(BASE_SLOPE + ["--out", str(tmp_path / "s")])
        assert code == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[0] == "algorithm\tslope\tr_squared\tstatistic\texcluded"
        assert any(line.startswith("normgd\t") for line in lines[1:])
        assert (tmp_path / "s" / "slopes.svg").exists()
        rows = runs_table(tmp_path / "s")
        assert [(row["n"], row["repeat"], row["algorithm"]) for row in rows] == [
            (n, r, alg) for n in ("200", "400", "800") for r in ("0", "1") for alg in ("normgd", "gd")
        ]

    def test_every_run_diverged_exits_2(self, tmp_path, capsys):
        with pytest.warns(RuntimeWarning):
            code = main(
                ["slope", "--model", "glm", "--regime", "strong", "--n-grid", "500,1000,2000",
                 "--repeats", "2", "--algorithms", "gd", "--eta-gd", "0.05", "--max-iter", "200",
                 "--out", str(tmp_path / "d")]
            )
        assert code == 2
        assert "every gd run diverged at n=500" in capsys.readouterr().err

    def test_short_grid_rejected(self, tmp_path, capsys):
        code = main(
            ["slope", "--model", "glm", "--regime", "low", "--n-grid", "200,400",
             "--out", str(tmp_path / "s")]
        )
        assert code == 1

    def test_deterministic_slope_output(self, tmp_path, capsys):
        main(BASE_SLOPE + ["--repeats", "1", "--out", str(tmp_path / "a")])
        first = capsys.readouterr().out
        main(BASE_SLOPE + ["--repeats", "1", "--out", str(tmp_path / "b")])
        second = capsys.readouterr().out
        assert first == second

    def test_gmm_with_em(self, tmp_path, capsys):
        code = main(
            ["slope", "--model", "gmm", "--regime", "low", "--n-grid", "200,400,800",
             "--repeats", "1", "--algorithms", "normgd,em", "--seed", "3",
             "--max-iter", "30", "--out", str(tmp_path / "g")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert any(line.startswith("em\t") for line in out.strip().split("\n"))


class TestCheck:
    def test_healthy_build_passes(self, capsys):
        code = main(["check", "--instances", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("check\tstatus\tdetail")
        assert "FAIL" not in out

    def test_only_eig_runs_subset(self, capsys):
        code = main(["check", "--only", "eig"])
        assert code == 0
        out = capsys.readouterr().out
        names = [line.split("\t")[0] for line in out.strip().split("\n")[1:]]
        assert "exact_vs_constructed" in names
        assert "power_vs_exact" in names
        assert all("glm" not in name for name in names)

    def test_unknown_group_rejected(self, capsys):
        assert main(["check", "--only", "spectral"]) == 1

    def test_injected_hessian_bug_is_caught_and_named(self, capsys, monkeypatch):
        def buggy_hessian(obj, theta):
            theta = np.asarray(theta, dtype=float)
            p = obj.p
            X, Y = obj.data.X, obj.data.Y
            u = X @ theta
            # wrong leading coefficient: p instead of p*(2p-1)
            w = p * u ** (2 * p - 2) - p * (p - 1) * Y * u ** (p - 2)
            return SymMatrix((X.T * w) @ X / obj.data.n)

        monkeypatch.setattr(model_glm, "glm_hessian", buggy_hessian)
        code = main(["check", "--only", "fd", "--instances", "5"])
        assert code == 2
        captured = capsys.readouterr()
        out_lines = captured.out.strip().split("\n")
        assert any(line.startswith("glm_hessian\tFAIL") for line in out_lines)
        assert any(line.startswith("glm_grad\tPASS") for line in out_lines)
        assert "glm_hessian" in captured.err

    def test_injected_eigenvalue_bug_is_caught_and_named(self, capsys, monkeypatch):
        def second_largest(h, *args, **kwargs):
            return float(np.linalg.eigvalsh(h.a)[-2])

        monkeypatch.setattr(optim, "lambda_max", second_largest)
        code = main(["check", "--only", "eig"])
        assert code == 2
        captured = capsys.readouterr()
        out_lines = captured.out.strip().split("\n")
        assert any(line.startswith("exact_vs_constructed\tFAIL") for line in out_lines)
        assert any(line.startswith("power_vs_exact\tPASS") for line in out_lines)
        assert "exact_vs_constructed" in captured.err


class TestCheckSuites:
    def test_run_checks_group_list(self):
        results = checks.run_checks(only=("em",), seed=1)
        assert [r.name for r in results] == ["em_equals_gd_sigma2"]
        assert all(r.passed for r in results)

    def test_eig_suite_includes_indefinite_cases(self):
        from normgd.stochastics import rng_new
        flipped = 0
        rng = rng_new(2 + 0)
        for case in range(20):
            _, eigs = checks.random_gapped_symmetric(rng, case)
            if abs(eigs[-1]) > abs(eigs[0]):
                flipped += 1
        assert flipped >= 4
