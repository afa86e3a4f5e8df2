"""On-demand numerical validation suites.

Four groups, runnable individually from the CLI:

  fd    derivative consistency of both models against central differences
  eig   shifted power iteration against LAPACK's eigvalsh
  quad  population-Hessian quadrature against Monte Carlo and analytic bounds
  em    the EM update against a fixed-step gradient step at eta = sigma^2

Model functions are resolved through their modules at call time, so an
injected bug (or a monkeypatched mutant in the test suite) is caught and
named by the owning check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model_glm, model_gmm, numkit
from .stochastics import rng_new, rng_normal, rng_split, rng_uniform, sample_glm, sample_gmm

GROUPS = ("fd", "eig", "quad", "em")

FD_REL_TOL = 1e-5
EIG_MATCH_TOL = 1e-8
EM_IDENTITY_TOL = 1e-12


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(1.0, np.linalg.norm(a)))


def _random_glm_instance(rng, k):
    inst = rng_split(rng, k)
    n = 30 + int(rng_uniform(inst, 1)[0] * 50)
    d = 2 + int(rng_uniform(inst, 1)[0] * 4)
    p = 2 + int(rng_uniform(inst, 1)[0] * 2)
    theta_star = rng_normal(inst, d) * 0.5
    data = sample_glm(n, d, theta_star, p, 1.0, inst)
    theta = rng_normal(inst, d)
    theta *= (0.3 + rng_uniform(inst, 1)[0]) / np.linalg.norm(theta)
    return model_glm.GlmObjective(data), theta


def _random_gmm_instance(rng, k):
    inst = rng_split(rng, k)
    n = 30 + int(rng_uniform(inst, 1)[0] * 50)
    d = 2 + int(rng_uniform(inst, 1)[0] * 4)
    sigma = 0.7 + rng_uniform(inst, 1)[0]
    theta_star = rng_normal(inst, d)
    data = sample_gmm(n, d, theta_star, sigma, inst)
    theta = rng_normal(inst, d)
    return model_gmm.GmmObjective(data), theta


def check_glm_derivatives(seed: int = 0, instances: int = 25) -> list[CheckResult]:
    rng = rng_new(seed)
    worst_g, worst_h = 0.0, 0.0
    for k in range(instances):
        obj, theta = _random_glm_instance(rng, k)
        grad = model_glm.glm_grad(obj, theta)
        fd_g = numkit.fd_gradient(lambda t: model_glm.glm_loss(obj, t), theta)
        worst_g = max(worst_g, _rel_err(grad, fd_g))
        hess = model_glm.glm_hessian(obj, theta).a
        fd_h = numkit.fd_hessian_from_grad(lambda t: model_glm.glm_grad(obj, t), theta)
        worst_h = max(worst_h, _rel_err(hess, fd_h))
    return [
        CheckResult("glm_grad", worst_g <= FD_REL_TOL, f"max rel err {worst_g:.3e}"),
        CheckResult("glm_hessian", worst_h <= FD_REL_TOL, f"max rel err {worst_h:.3e}"),
    ]


def check_gmm_derivatives(seed: int = 0, instances: int = 25) -> list[CheckResult]:
    rng = rng_new(seed + 1)
    worst_g, worst_h = 0.0, 0.0
    for k in range(instances):
        obj, theta = _random_gmm_instance(rng, k)
        grad = model_gmm.gmm_grad(obj, theta)
        fd_g = numkit.fd_gradient(lambda t: model_gmm.gmm_nll(obj, t), theta)
        worst_g = max(worst_g, _rel_err(grad, fd_g))
        hess = model_gmm.gmm_hessian(obj, theta).a
        fd_h = numkit.fd_hessian_from_grad(lambda t: model_gmm.gmm_grad(obj, t), theta)
        worst_h = max(worst_h, _rel_err(hess, fd_h))
    return [
        CheckResult("gmm_grad", worst_g <= FD_REL_TOL, f"max rel err {worst_g:.3e}"),
        CheckResult("gmm_hessian", worst_h <= FD_REL_TOL, f"max rel err {worst_h:.3e}"),
    ]


def random_gapped_symmetric(rng, case: int, max_dim: int = 16):
    """Symmetric test matrix with top-gap >= 0.1*|lambda_1|.

    Every fourth case gets a bottom eigenvalue pushed below -2*|lambda_1| so
    the largest-magnitude eigenvalue differs from the largest-algebraic one.
    """
    inst = rng_split(rng, case)
    d = 2 + int(rng_uniform(inst, 1)[0] * (max_dim - 1))
    eigs = np.sort(rng_uniform(inst, d) * 10.0 - 5.0)[::-1]
    eigs[0] = eigs[1] + 0.15 * max(1.0, abs(eigs[1]))
    if case % 4 == 0:
        eigs[-1] = -2.0 * abs(eigs[0]) - 1.0
    gauss = rng_normal(inst, d * d).reshape(d, d)
    q, _ = np.linalg.qr(gauss)
    return numkit.SymMatrix((q * eigs) @ q.T), eigs


def check_eigensolvers(seed: int = 0, cases: int = 60) -> list[CheckResult]:
    rng = rng_new(seed + 2)
    worst_match = 0.0
    for case in range(cases):
        mat, _ = random_gapped_symmetric(rng, case)
        top = float(np.linalg.eigvalsh(mat.a)[-1])
        res = numkit.power_iteration(mat, tol=1e-10, seed=case)
        worst_match = max(worst_match, abs(res.value - top) / max(1.0, abs(top)))
    return [
        CheckResult(
            "power_vs_exact", worst_match <= EIG_MATCH_TOL, f"max mismatch {worst_match:.3e}"
        ),
    ]


def check_quadrature(seed: int = 0, mc_draws: int = 2_000_000) -> list[CheckResult]:
    rule = model_gmm.gauss_hermite(40)
    rng = rng_new(seed + 3)
    results = []
    worst_gap_sigmas = 0.0
    bounds_ok = True
    detail_bounds = []
    for theta_norm in (0.1, 0.25, 0.5):
        lam_min, lam_max = model_gmm.gmm_pop_hessian_quadrature(theta_norm, 1.0, 2, rule)
        lo, hi = theta_norm**2 / 2.0, 3.0 * theta_norm**2
        if not (lo <= lam_min <= lam_max <= hi):
            bounds_ok = False
        detail_bounds.append(f"|theta|={theta_norm}: [{lam_min:.4f},{lam_max:.4f}]")
        w = rng_normal(rng, mc_draws)
        s = model_gmm.sech2(w * theta_norm)
        for quad_val, samples in ((_b11(rule, theta_norm), w * w * s), (_bii(rule, theta_norm), s)):
            mc = float(np.mean(samples))
            se = float(np.std(samples)) / np.sqrt(mc_draws)
            worst_gap_sigmas = max(worst_gap_sigmas, abs(quad_val - mc) / max(se, 1e-300))
    results.append(
        CheckResult(
            "quad_vs_monte_carlo",
            worst_gap_sigmas <= 5.0,
            f"max |quad - mc| = {worst_gap_sigmas:.2f} standard errors",
        )
    )
    results.append(CheckResult("quad_eig_bounds", bounds_ok, "; ".join(detail_bounds)))
    return results


def _b11(rule, theta_norm):
    return float(rule.weights @ (rule.nodes**2 * model_gmm.sech2(rule.nodes * theta_norm)))


def _bii(rule, theta_norm):
    return float(rule.weights @ model_gmm.sech2(rule.nodes * theta_norm))


def check_em_identity(seed: int = 0, instances: int = 30) -> list[CheckResult]:
    rng = rng_new(seed + 4)
    worst = 0.0
    for k in range(instances):
        obj, theta = _random_gmm_instance(rng, k)
        em = model_gmm.em_step(obj, theta)
        gd = theta - obj.sigma**2 * model_gmm.gmm_grad(obj, theta)
        worst = max(
            worst, float(np.linalg.norm(em - gd) / max(1.0, np.linalg.norm(theta)))
        )
    return [CheckResult("em_equals_gd_sigma2", worst <= EM_IDENTITY_TOL, f"max dev {worst:.3e}")]


def run_checks(only=None, seed: int = 0, fd_instances: int = 25) -> list[CheckResult]:
    groups = GROUPS if not only else tuple(only)
    unknown = [g for g in groups if g not in GROUPS]
    if unknown:
        raise ValueError(f"unknown check groups {unknown}; available: {GROUPS}")
    out: list[CheckResult] = []
    if "fd" in groups:
        out += check_glm_derivatives(seed, fd_instances)
        out += check_gmm_derivatives(seed, fd_instances)
    if "eig" in groups:
        out += check_eigensolvers(seed)
    if "quad" in groups:
        out += check_quadrature(seed)
    if "em" in groups:
        out += check_em_identity(seed)
    return out
