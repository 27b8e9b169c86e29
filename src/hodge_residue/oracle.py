"""Independent floating-point oracle for the exact engine.

Everything in this module recomputes values through a second, structurally
different route: dense complex matrices built directly from the bitmask sign
rule (not converted from the exact operators), their traces and the
cosphere-integrated sandwich traces.  Tests compare the exact engine against
these floats at 1e-9 relative.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .forms import AntiSymForm
from .scalars import sphere_volume_float

MAX_ORACLE_DIMENSION = 10


def _check_oracle_n(n: int) -> None:
    if n > MAX_ORACLE_DIMENSION:
        raise ValueError(f"oracle limited to n <= {MAX_ORACLE_DIMENSION}, got {n}")


# ---------------------------------------------------------------------------
# Dense Clifford operators, built independently from the sign rule
# ---------------------------------------------------------------------------

_DENSE_CACHE: Dict[Tuple[str, int, int], np.ndarray] = {}


def dense_generator(flavor: str, n: int, j: int) -> np.ndarray:
    """Dense matrix of the flavor-``c``/``chat`` generator in direction ``j``."""
    _check_oracle_n(n)
    key = (flavor, n, j)
    cached = _DENSE_CACHE.get(key)
    if cached is not None:
        return cached
    if flavor not in ("c", "chat"):
        raise ValueError(f"flavor must be c or chat, got {flavor!r}")
    dim = 1 << n
    bit = 1 << (j - 1)
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for mask in range(dim):
        sign = -1.0 if bin(mask & (bit - 1)).count("1") % 2 else 1.0
        if mask & bit:
            matrix[mask ^ bit, mask] = -sign if flavor == "c" else sign
        else:
            matrix[mask | bit, mask] = sign
    _DENSE_CACHE[key] = matrix
    return matrix


def dense_clifford(flavor: str, u: Sequence) -> np.ndarray:
    n = len(u)
    _check_oracle_n(n)
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=np.complex128)
    for j, coeff in enumerate(u, start=1):
        c = complex(coeff)
        if c:
            total += c * dense_generator(flavor, n, j)
    return total


def dense_word(n: int, letters: Sequence[Tuple[str, Sequence]]) -> np.ndarray:
    """Product of dense Clifford actions, leftmost letter outermost."""
    _check_oracle_n(n)
    result = np.eye(1 << n, dtype=np.complex128)
    for flavor, u in letters:
        result = result @ dense_clifford(flavor, u)
    return result


# ---------------------------------------------------------------------------
# Dense lifts of antisymmetric forms
# ---------------------------------------------------------------------------


def _dense_generator_product(n: int, letters: Sequence[Tuple[str, int]]) -> np.ndarray:
    result = np.eye(1 << n, dtype=np.complex128)
    for flavor, j in letters:
        result = result @ dense_generator(flavor, n, j)
    return result


def dense_lift_monotone(form: AntiSymForm, flavors: Sequence[str]) -> np.ndarray:
    _check_oracle_n(form.n)
    dim = 1 << form.n
    total = np.zeros((dim, dim), dtype=np.complex128)
    for idx, coeff in form.entries.items():
        total += complex(coeff) * _dense_generator_product(form.n, list(zip(flavors, idx)))
    return total


def dense_lift_ordered(form: AntiSymForm, flavors: Sequence[str]) -> np.ndarray:
    _check_oracle_n(form.n)
    dim = 1 << form.n
    total = np.zeros((dim, dim), dtype=np.complex128)
    for ordered in itertools.permutations(range(1, form.n + 1), form.degree):
        coeff = form.value(ordered)
        if coeff:
            total += complex(coeff) * _dense_generator_product(form.n, list(zip(flavors, ordered)))
    return total


def dense_lift(kind: str, form: Optional[AntiSymForm], n: int) -> np.ndarray:
    """Float twin of the exact operator lifts, keyed by structural kind."""
    if kind == "identity" or kind is None:
        return np.eye(1 << n, dtype=np.complex128)
    if kind == "normal_c":
        return dense_generator("c", n, n)
    if kind == "two_chat":
        return dense_lift_monotone(form, ("chat", "chat"))
    if kind == "three_c":
        return dense_lift_monotone(form, ("c", "c", "c"))
    if kind == "three_mixed":
        return dense_lift_ordered(form, ("c", "chat", "chat"))
    if kind == "torsion_assembly":
        return 1.5 * dense_lift_monotone(form, ("c", "c", "c")) - 0.25 * dense_lift_ordered(
            form, ("c", "chat", "chat")
        )
    if kind == "four_mixed":
        return dense_lift_monotone(form, ("c", "c", "chat", "chat"))
    if kind == "four_chat":
        return dense_lift_monotone(form, ("chat",) * 4)
    raise ValueError(f"unknown lift kind {kind!r}")


# ---------------------------------------------------------------------------
# Float twins of the trace integrals
# ---------------------------------------------------------------------------


def float_plain_trace(word_matrix: np.ndarray, lift_matrix: np.ndarray) -> complex:
    return complex(np.trace(word_matrix @ lift_matrix))


def float_sandwich_integral(
    word_matrix: np.ndarray, lift_matrix: np.ndarray, placement: str, n: int
) -> complex:
    """Float value of the cosphere-integrated sandwich trace (includes volume)."""
    volume = sphere_volume_float(n - 1)
    total = 0j
    for i in range(1, n + 1):
        ci = dense_generator("c", n, i)
        if placement == "before":
            inner = ci @ lift_matrix @ ci
        elif placement == "after":
            inner = lift_matrix @ ci @ ci
        else:
            raise ValueError(f"unknown placement {placement!r}")
        total += np.trace(word_matrix @ inner)
    return complex(total * volume / n)


def float_density(
    arg_flavors: Sequence[str],
    lift_kind: str,
    prefactor: complex,
    form: AntiSymForm,
    vectors: Sequence[Sequence],
    m: int,
) -> complex:
    """Float twin of the interior density assembly."""
    n = 2 * m
    word = dense_word(n, list(zip(arg_flavors, vectors)))
    lift = dense_lift(lift_kind, form, n)
    volume = sphere_volume_float(n - 1)
    plain = float_plain_trace(word, lift) * volume
    sandwich = float_sandwich_integral(word, lift, "before", n) + float_sandwich_integral(
        word, lift, "after", n
    )
    return prefactor * (plain + m * sandwich)
