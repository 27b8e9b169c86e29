"""Sphere moments, cosphere weights by blade grade, and flat-space checks.

The interior residue densities reduce to integrals over the unit cosphere of
operators quadratic in ``xi``.  This module provides:

* :func:`sphere_moment` -- the exact monomial moment
  ``integral_{S^{n-1}} xi^alpha dS`` as a :class:`SymbolicScalar` (a rational
  multiple of ``V(S^{n-1})``),
* :func:`_grade_weight` -- the weight law: the cosphere average of the
  ``before``, ``after`` and ``interior`` integrands of an operator scales
  each blade by a weight read from its grade, so ``integral tr(W . P(xi))
  dS`` is ``V(S^{n-1})`` times a trace with every blade so weighted; every
  blade a compiled kernel traces has one grade class, so
  :meth:`hodge_residue.residue.KernelTable.weight` computes one weight,
* :func:`check_flat_commutators` -- the commutator identities
  ``[d + d*, x_k] = c(e_k)`` and ``[i(d - d*), x_k] = i chat(e_k)`` on
  monomial forms ``x^beta e_mask`` of flat ``R^n``, each packed into one
  integer key, with integer coefficients; each order type of monomial is
  evaluated once and its monomials are counted in closed form.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .exterior import _blade_action, _check_n, _generator_key
from .scalars import SymbolicScalar


def _double_factorial(k: int) -> int:
    result = 1
    while k > 1:
        result *= k
        k -= 2
    return result


def sphere_moment(alpha: Sequence[int], n: int) -> SymbolicScalar:
    """Exact moment ``integral_{S^{n-1}} prod_i xi_i^{alpha_i} dS``.

    Vanishes unless every exponent is even; otherwise equals
    ``V(S^{n-1}) * prod_i (alpha_i - 1)!! / prod_{j<|alpha|/2} (n + 2j)``.
    """
    if len(alpha) != n:
        raise ValueError(f"alpha must have length n={n}, got {len(alpha)}")
    if any(a < 0 for a in alpha):
        raise ValueError("exponents must be nonnegative")
    if any(a % 2 for a in alpha):
        return SymbolicScalar()
    numerator = 1
    for a in alpha:
        numerator *= _double_factorial(a - 1) if a else 1
    denominator = 1
    for j in range(sum(alpha) // 2):
        denominator *= n + 2 * j
    return SymbolicScalar.unit(Fraction(numerator, denominator), spheres=(n - 1,))


def _grade_weight(n: int, placement: str, m: int, grade: Optional[Tuple[int, int]]) -> Fraction:
    """The weight by which a placement's cosphere average scales every blade
    of the grade class ``grade = (|A|, g mod 2)``; 0 for ``None``, no blade.

    The integrands are quadratic in the unit covector ``xi``:

    * ``"before"``: ``sum_{i,j} xi_i xi_j c_i X c_j``,
    * ``"after"``: ``sum_{i,j} xi_i xi_j X c_i c_j``,
    * ``"interior"``: ``X + m sum_{i,j} (c_i X + X c_i) c_j xi_i xi_j``.

    Only the moments ``integral xi_i^2 dS = q V`` survive, with ``q = 1/n``
    (:func:`sphere_moment`'s quadratic moment).  Every blade ``X = c_A chat_B`` of grade
    ``g = |A| + |B|`` is an eigenvector of both sandwiches,
    ``sum_i c_i X c_i = -(-1)^g (n - 2|A|) X`` and ``sum_i X c_i c_i = -n X``,
    so ``(1 / V(S^{n-1})) integral`` of the integrand is ``X`` times: before
    ``-(-1)^g (n - 2|A|) q``, after ``-n q = -1``, and interior ``1 + m
    (before + after)``.  ``m`` is read by ``"interior"`` only; any other placement
    raises ``ValueError``, whatever the grade.
    """
    if placement not in ("before", "after", "interior"):
        raise ValueError(f"placement must be before, after or interior, got {placement!r}")
    if grade is None:
        return Fraction(0)
    a, odd = grade
    before = Fraction(n - 2 * a if odd else 2 * a - n, n)
    after = Fraction(-1)
    if placement == "before":
        return before
    if placement == "after":
        return after
    return 1 + m * (before + after)


# ---------------------------------------------------------------------------
# Flat commutator identities by order type, on packed monomial keys
# ---------------------------------------------------------------------------

# A monomial ``x^beta e_M`` packs into one int: ``M`` in the low ``n`` bits,
# then ``beta_j`` in the 2-bit field at bit ``n + 2j`` (0-based ``j``); the
# check reaches ``beta_j <= 3``, so no field carries into its neighbour


def _flat_derivative(key: int, n: int) -> Tuple[Dict[int, int], Dict[int, int]]:
    """``(d + d*, d - d*)`` of the packed monomial ``key``, with
    ``d = sum_j e_j ^ d/dx_j`` and ``d* = -sum_j iota_j d/dx_j``.

    The ``j``-th term is ``beta_j x^(beta - e_j)`` times ``e_j ^ e_M`` (``j``
    not in ``M``, a ``d`` term) or ``-iota_j e_M`` (``j`` in ``M``, a ``d*``
    term); both are ``+-e_(M xor j)``, signed by the parity of the bits of
    ``M`` below ``j``.  Each ``j`` hits its own key, so nothing accumulates.
    """
    mask = key & ((1 << n) - 1)
    plus: Dict[int, int] = {}
    minus: Dict[int, int] = {}
    fields = key >> n
    while fields:
        low = ((fields & -fields).bit_length() - 1) & ~1
        b = (fields >> low) & 3
        fields ^= b << low
        bit = 1 << (low >> 1)
        out = (key - (1 << (n + low))) ^ bit
        c = -b if (mask & (bit - 1)).bit_count() & 1 else b
        if mask & bit:
            plus[out], minus[out] = -c, c
        else:
            plus[out] = minus[out] = c
    return plus, minus


@lru_cache(maxsize=None)
def _type_mismatches(r: int, t: int, gaps: Tuple[int, ...]) -> Tuple[int, int]:
    """``(c, chat)`` disagreeing types among those with ``r`` indices in ``S =
    supp beta + {k}``, ``k`` at rank ``t`` and ``M``'s parity ``gaps[i]`` below
    ``S``'s ``i``-th index: one per ``beta`` and bits of ``M`` on ``S``, each at
    the representative ``n = 2r``, ``S`` on the odd bits, each gap one bit."""
    n, k = 2 * r, 2 * t + 2
    step = 1 << (n + 2 * k - 2)  # adding it to a key multiplies by x_k
    masks = [sum(g << 2 * i for i, g in enumerate(gaps))]
    for i in range(r):
        masks += [mask | 2 << 2 * i for mask in masks]
    actions = [[_blade_action(n, _generator_key(flavor, n, k), mask) for mask in masks] for flavor in ("c", "chat")]
    bad = [0, 0]
    for beta in itertools.product(range(3), repeat=r):
        if sum(beta) > 2 or not all(beta[:t] + beta[t + 1:]):
            continue
        high = sum(b << (n + 4 * i + 2) for i, b in enumerate(beta))
        for j, mask in enumerate(masks):
            of_omega = _flat_derivative(high | mask, n)
            # D(x_k omega) - x_k D(omega), for D = d + d* and then d - d*
            for i, lhs in enumerate(_flat_derivative(high + step + mask, n)):
                for term, coeff in of_omega[i].items():
                    term += step
                    coeff = lhs.pop(term, 0) - coeff
                    if coeff:
                        lhs[term] = coeff
                sign, row = actions[i][j]
                bad[i] += lhs != {high | row: sign}
    return tuple(bad)


def check_flat_commutators(n: int) -> List[dict]:
    """Verify the commutator identities on all monomial forms of low degree.

    For every coordinate ``k`` and every monomial form ``x^beta e_mask`` with
    ``|beta| <= 2``:

    * ``[d + d*, x_k] omega == c(e_k) omega``
    * ``[d - d*, x_k] omega == chat(e_k) omega``

    The second is the paper's ``[i (d - d*), x_k] = i chat(e_k)`` with the
    factor ``i`` dropped from both sides; multiplication by ``i`` is
    injective, so the verdict is the same.  Both sides of each are integer
    forms ``{packed monomial: int}``: the left side differentiates ``x_k
    omega`` itself (no Leibniz shortcut), with popcount signs, and the right
    side is the generator's signed action on ``e_mask`` (``_blade_action``).

    A monomial's verdict reads only its order type (README, "Order types"),
    so each type is evaluated once per process, at any ``n``, and counted in
    closed form: a gap of length ``L >= 1`` below or between the indices of
    ``S`` holds ``2^(L - 1)`` bit patterns of either parity, an empty one
    only parity 0, and the ``n - 1 - s_r`` bits above ``S`` are free.

    Returns one record per ``(identity, k)`` pair with pass/fail status, the
    number of monomials checked and the number that disagree.
    """
    _check_n(n)
    bad = [[0, 0] for _ in range(n)]
    for r in (1, 2, 3):
        for s in itertools.combinations(range(n), r):
            lengths = [b - a - 1 for a, b in zip((-1,) + s, s)]
            free = n - 1 - s[-1] + sum(length - 1 for length in lengths if length)
            for gaps in itertools.product(*((0, 1) if length else (0,) for length in lengths)):
                for t, index in enumerate(s):
                    for i, mismatches in enumerate(_type_mismatches(r, t, gaps)):
                        bad[index][i] += mismatches << free
    monomials = (1 << n) * (1 + n + n * (n + 1) // 2)  # |beta| = 0, 1, 2
    return [
        {"identity": flavor, "k": k, "ok": not row[i], "monomials": monomials, "mismatches": row[i]}
        for k, row in enumerate(bad, start=1) for i, flavor in enumerate(("c", "chat"))
    ]
