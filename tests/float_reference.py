"""Floating-point reference routes that only the tests use.

These complement :mod:`hodge_residue.oracle`, whose dense matrices the
float densities also use: a dense-matrix trace of a Clifford word,
Gamma-function sphere moments, Monte-Carlo sphere sampling and adaptive
line quadrature.  Tests compare the exact engine against them at 1e-9
relative (deterministic routes) or three standard errors (Monte Carlo).
"""

import math
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy import integrate

from hodge_residue.oracle import dense_word
from hodge_residue.scalars import sphere_volume_float


def float_trace(word: Sequence[Tuple[str, Sequence]]) -> complex:
    """Dense-matrix trace of a product of Clifford actions."""
    if not word:
        raise ValueError("word must contain at least one letter")
    n = len(word[0][1])
    return complex(np.trace(dense_word(n, word)))


def moment_float(alpha: Sequence[int], n: int) -> float:
    """Gamma-function closed form of the sphere moment (independent route)."""
    if len(alpha) != n:
        raise ValueError("alpha must have length n")
    if any(a % 2 for a in alpha):
        return 0.0
    total = sum(alpha)
    value = 2.0
    for a in alpha:
        value *= math.gamma((a + 1) / 2.0)
    return value / math.gamma((n + total) / 2.0)


def sphere_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    n: int,
    samples: int = 100_000,
    seed: int = 0,
) -> Tuple[complex, float]:
    """Monte-Carlo sphere integral ``integral_{S^{n-1}} f dS`` with std error.

    ``f`` must be vectorized: it receives a ``(k, n)`` array of unit vectors
    and returns a length-``k`` array.  Sampling uses the Gaussian
    normalization method with a fixed seed.
    """
    if samples < 10_000:
        raise ValueError("samples must be >= 10^4")
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((samples, n))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    values = np.asarray(f(points), dtype=np.complex128)
    volume = sphere_volume_float(n - 1)
    mean = complex(values.mean() * volume)
    stderr = float(values.std(ddof=1) / math.sqrt(samples) * volume)
    return mean, stderr


def line_quadrature(f: Callable[[float], complex], cutoff: float = 1.0e6) -> complex:
    """Adaptive quadrature of a decaying function over the real line.

    Integrates ``[-cutoff, cutoff]`` in segments plus the two tails via the
    substitution ``t -> 1/s`` (exact for at-least-quadratic decay); fails if
    the integrand does not decay.
    """
    if abs(f(cutoff)) * cutoff > 1.0e-3 or abs(f(-cutoff)) * cutoff > 1.0e-3:
        raise ValueError("integrand does not decay fast enough for line quadrature")

    def quad_complex(g, a, b):
        re, _ = integrate.quad(lambda t: g(t).real, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)
        im, _ = integrate.quad(lambda t: g(t).imag, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)
        return re + 1j * im

    # Core segment directly; each tail via t -> 1/s, which maps [T, inf) to
    # (0, 1/T] and keeps the transformed integrand bounded for quadratic decay.
    split = 10.0
    total = quad_complex(lambda t: complex(f(t)), -split, split)
    total += quad_complex(lambda s: complex(f(1.0 / s)) / s**2 if s else 0j, 0.0, 1.0 / split)
    total += quad_complex(lambda s: complex(f(-1.0 / s)) / s**2 if s else 0j, 0.0, 1.0 / split)
    return total
