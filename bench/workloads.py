"""The benchmark's workloads: fixed studies whose inputs come from the seed.

Kept free of numpy and of the package under test, so the parent process can
read it without importing either.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "slope": slope_experiment, "cli": normgd slope, "scaling": iteration study
    model: str
    regime: str
    algorithms: tuple[str, ...]
    repeats: int
    n_grid: tuple[int, ...]
    max_iter: tuple[tuple[str, int], ...] = ()  # per-algorithm horizons; () keeps defaults
    full_scale: bool = True

    @property
    def runs_per_study(self) -> int:
        return self.repeats * len(self.n_grid) * len(self.algorithms)

    def tiny(self) -> "Workload":
        """A seconds-long version for warm-up and the smoke test.

        The statistical claims (slope band, iteration growth) do not hold at
        this size, so only the structural checks apply to it.
        """
        return replace(
            self, repeats=2, n_grid=(200, 400, 800),
            max_iter=tuple((alg, 200 if alg == "gd" else 20) for alg in self.algorithms),
            full_scale=False,
        )


WORKLOADS = {
    w.name: w
    for w in (
        # Eigensolver-bound: 10 x 6 x 500 NormGD steps at d=4, each with a
        # Jacobi top eigenvalue.
        Workload("glm-strong-slope", "slope", "glm", "strong", ("normgd",), 10,
                 (500, 1000, 2000, 4000, 8000, 16000)),
        # The command users run: gmm Hessian-bound, with EM, persistence and
        # the CLI entry point; the only workload that writes files.
        Workload("gmm-low-cli", "cli", "gmm", "low", ("normgd", "em"), 10,
                 (1000, 2000, 4000, 8000, 16000, 32000)),
        # Gradient- and loop-bound: 90 000 GD steps need no Hessian.
        Workload("glm-low-scaling", "scaling", "glm", "low", ("normgd", "gd"), 5,
                 (1000, 4000, 16000), (("normgd", 500), ("gd", 6000))),
    )
}
