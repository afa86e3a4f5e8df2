"""Command-line entry point.

Subcommands:

  converge   per-iteration error curves at one sample size (traces + SVG)
  slope      log-log statistical-error-vs-n study (slopes + SVG)
  check      numerical validation suites (finite differences, eigensolvers,
             quadrature, EM identity)

Exit codes: 0 success, 1 flag/config validation failure, 2 numerical or
runtime failure. All outputs land under --out, or a generated directory
below $NORMGD_OUT (default ./normgd_runs). Stdout tables are tab-separated.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import checks, experiments

ENV_OUT_ROOT = "NORMGD_OUT"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; this tool reserves 2 for numerical
    # failures, so remap validation problems to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _csv_floats(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",") if v.strip() != ""])


def _csv_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip() != "")


def _csv_names(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip() != "")


def _add_model_flags(p: _Parser, slope: bool) -> None:
    p.add_argument("--model", required=True, choices=("glm", "gmm"))
    p.add_argument("--regime", required=True, choices=("strong", "low"))
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--p", type=int, default=None, help="glm link exponent")
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--theta-star", type=_csv_floats, default=None, metavar="V1,V2,...")
    p.add_argument("--algorithms", type=_csv_names, default=None, metavar="A1,A2,...")
    p.add_argument("--eta", type=float, default=None, help="step size for all algorithms")
    p.add_argument("--eta-gd", type=float, default=None, help="step size override for gd")
    p.add_argument("--max-iter", type=int, default=None, help="horizon for all algorithms")
    p.add_argument("--init-radius", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--out", default=None)
    if slope:
        p.add_argument("--n-grid", type=_csv_ints, default=None, metavar="N1,N2,...")
        p.add_argument("--repeats", type=int, default=10)
    else:
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--repeats", type=int, default=1)


def build_parser() -> _Parser:
    parser = _Parser(prog="normgd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    _add_model_flags(sub.add_parser("converge", help="convergence-curve experiment"), slope=False)
    _add_model_flags(sub.add_parser("slope", help="log-log slope experiment"), slope=True)
    chk = sub.add_parser("check", help="run numerical validation suites")
    chk.add_argument(
        "--only",
        type=_csv_names,
        default=None,
        metavar="GROUPS",
        help=f"subset of {','.join(checks.GROUPS)}",
    )
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--instances", type=int, default=25, help="random instances per fd check")
    return parser


def _build_spec(args, slope: bool) -> experiments.ExperimentSpec:
    overrides = {"seed": args.seed, "repeats": args.repeats}
    for flag, key in (
        ("d", "d"),
        ("p", "p"),
        ("sigma", "sigma"),
        ("theta_star", "theta_star"),
        ("algorithms", "algorithms"),
        ("eta", "eta"),
        ("init_radius", "init_radius"),
        ("jobs", "jobs"),
    ):
        value = getattr(args, flag)
        if value is not None:
            overrides[key] = value
    if slope:
        if args.n_grid is not None:
            overrides["n_grid"] = args.n_grid
    else:
        if args.n is not None:
            overrides["n"] = args.n
    if args.eta_gd is not None:
        overrides["eta_by_algorithm"] = {"gd": args.eta_gd}
    if args.max_iter is not None:
        overrides["max_iter_by_algorithm"] = {
            alg: args.max_iter for alg in ("normgd", "gd", "em")
        }
    return experiments.default_spec(args.model, args.regime, **overrides)


def _resolve_outdir(args, kind: str) -> str:
    if args.out:
        outdir = args.out
    else:
        root = os.environ.get(ENV_OUT_ROOT, "normgd_runs")
        outdir = os.path.join(root, f"{kind}_{args.model}_{args.regime}_seed{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    return outdir


def cmd_converge(args) -> int:
    spec = _build_spec(args, slope=False)
    outdir = _resolve_outdir(args, "converge")
    results = experiments.convergence_experiment(spec, outdir=outdir)
    print("algorithm\trepeat\tmin_error\tmin_error_iter\tfinal_error\tn_steps\tdegenerate")
    for alg, traces in results.items():
        for r, t in enumerate(traces):
            print(
                f"{alg}\t{r}\t{t.min_error:.6g}\t{t.min_error_iter}\t"
                f"{t.final_error:.6g}\t{t.n_steps}\t{int(t.degenerate)}"
            )
    print(f"# outputs in {outdir}", file=sys.stderr)
    return 0


def cmd_slope(args) -> int:
    spec = _build_spec(args, slope=True)
    outdir = _resolve_outdir(args, "slope")
    results = experiments.slope_experiment(spec, outdir=outdir)
    print("algorithm\tslope\tr_squared\tstatistic\texcluded")
    for alg, res in results.items():
        print(
            f"{alg}\t{res.fit.slope:.4f}\t{res.fit.r_squared:.4f}\t"
            f"{res.statistic}\t{res.excluded}"
        )
    print(f"# outputs in {outdir}", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    results = checks.run_checks(only=args.only, seed=args.seed, fd_instances=args.instances)
    print("check\tstatus\tdetail")
    failures = []
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}\t{status}\t{res.detail}")
        if not res.passed:
            failures.append(res.name)
    if failures:
        print(f"# FAILED: {', '.join(failures)}", file=sys.stderr)
        return 2
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "converge":
            return cmd_converge(args)
        if args.command == "slope":
            return cmd_slope(args)
        return cmd_check(args)
    except ValueError as exc:
        print(f"normgd: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, FloatingPointError) as exc:
        print(f"normgd: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
