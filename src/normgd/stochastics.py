"""Deterministic seeded randomness and synthetic data sampling.

The generator is counter-based: draw k of stream ``seed`` is the splitmix64
finalizer applied to ``seed + (k+1)*GAMMA`` (64-bit wraparound). That makes
every sample a pure function of (seed, position), reproducible across
platforms and trivially vectorizable. Normals come from Box-Muller on pairs
of uniforms. Child streams are derived by a fixed 64-bit mix of
(parent seed, index), so parallel trials stay deterministic.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_SPLIT_GAMMA = 0xC2B2AE3D27D4EB4F
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_INV_2_53 = 2.0 ** -53


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return (z ^ (z >> 31)) & _MASK


def _finalize(z: np.ndarray) -> np.ndarray:
    # uint64 array version of _mix64; overflow wraps, which is what we want.
    z = z ^ (z >> np.uint64(30))
    z = z * np.uint64(_MIX1)
    z = z ^ (z >> np.uint64(27))
    z = z * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


@dataclass
class RngState:
    """Stream identity (seed) plus current position; not thread-shareable."""

    seed: int
    pos: int = 0

    def _raw(self, count: int) -> np.ndarray:
        counters = np.arange(self.pos + 1, self.pos + count + 1, dtype=np.uint64)
        self.pos += count
        z = np.uint64(self.seed & _MASK) + counters * np.uint64(_GAMMA)
        return _finalize(z)


def rng_new(seed: int) -> RngState:
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    return RngState(seed=seed & _MASK)


def rng_split(r: RngState, index: int) -> RngState:
    """Independent child stream, deterministic in (parent seed, index).

    Split does not consume from or depend on the parent's position.
    """
    if index < 0:
        raise ValueError("split index must be nonnegative")
    child_seed = _mix64(r.seed + ((index + 1) * _SPLIT_GAMMA & _MASK))
    return RngState(seed=child_seed)


def rng_uniform(r: RngState, count: int) -> np.ndarray:
    """i.i.d. uniforms on [0, 1), 53-bit resolution."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.empty(0)
    bits = r._raw(count)
    return (bits >> np.uint64(11)).astype(np.float64) * _INV_2_53


def rng_normal(r: RngState, count: int) -> np.ndarray:
    """i.i.d. standard normals via Box-Muller."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if count == 0:
        return np.empty(0)
    m = (count + 1) // 2
    bits = r._raw(2 * m)
    # u1 in (0, 1] so the log is finite; u2 in [0, 1).
    u1 = ((bits[:m] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (bits[m:] >> np.uint64(11)).astype(np.float64) * _INV_2_53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
    return out[:count]


def rng_unit_sphere(r: RngState, d: int) -> np.ndarray:
    """Uniform direction on the (d-1)-sphere."""
    while True:
        v = rng_normal(r, d)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return v / norm


class _Rows:
    """n and d of a dataset, read from the shape of its X."""

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass
class GlmDataset(_Rows):
    """Rows (X_i, Y_i) with Y_i = (X_i . theta*)^p + noise."""

    X: np.ndarray
    Y: np.ndarray
    p: int
    sigma: float

    def __post_init__(self):
        if self.X.ndim != 2 or len(self.Y) != len(self.X):
            raise ValueError("dataset arrays have inconsistent shapes")
        if not (np.all(np.isfinite(self.X)) and np.all(np.isfinite(self.Y))):
            raise ValueError("dataset contains non-finite values")

    def content_hash(self) -> str:
        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.X).tobytes())
        h.update(np.ascontiguousarray(self.Y).tobytes())
        return h.hexdigest()[:16]


@dataclass
class GmmDataset(_Rows):
    """Rows X_i from the symmetric two-component mixture around +-theta*."""

    X: np.ndarray
    sigma: float

    def __post_init__(self):
        if self.X.ndim != 2:
            raise ValueError("dataset array must be 2-d")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("dataset contains non-finite values")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    def content_hash(self) -> str:
        return hashlib.sha256(np.ascontiguousarray(self.X).tobytes()).hexdigest()[:16]


def sample_glm(n: int, d: int, theta_star, p: int, sigma: float, rng: RngState) -> GlmDataset:
    """Draw X rows i.i.d. N(0, I_d) and Y_i = (X_i . theta*)^p + N(0, sigma^2).

    sigma = 0 is allowed (noise-free responses, handy for exact-fit tests).
    """
    theta_star = np.asarray(theta_star, dtype=float)
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if theta_star.shape != (d,):
        raise ValueError(f"theta_star must have shape ({d},)")
    if p < 2 or int(p) != p:
        raise ValueError("link exponent p must be an integer >= 2")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    X = rng_normal(rng, n * d).reshape(n, d)
    Y = (X @ theta_star) ** p
    if sigma > 0:
        Y = Y + sigma * rng_normal(rng, n)
    return GlmDataset(X=X, Y=Y, p=int(p), sigma=float(sigma))


def sample_gmm(n: int, d: int, theta_star, sigma: float, rng: RngState) -> GmmDataset:
    """Draw rows by a fair coin over components, then Gaussian around +-theta*."""
    theta_star = np.asarray(theta_star, dtype=float)
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")
    if theta_star.shape != (d,):
        raise ValueError(f"theta_star must have shape ({d},)")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    signs = np.where(rng_uniform(rng, n) < 0.5, -1.0, 1.0)
    X = signs[:, None] * theta_star + sigma * rng_normal(rng, n * d).reshape(n, d)
    return GmmDataset(X=X, sigma=float(sigma))
