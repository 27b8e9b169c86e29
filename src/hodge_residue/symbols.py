"""Sphere moments, cosphere averages by blade grade, and flat-space checks.

The interior residue densities reduce to integrals over the unit cosphere of
operators quadratic in ``xi``.  This module provides:

* :func:`sphere_moment` -- the exact monomial moment
  ``integral_{S^{n-1}} xi^alpha dS`` as a :class:`SymbolicScalar` (a rational
  multiple of ``V(S^{n-1})``),
* :func:`cosphere_average` -- the cosphere average of the ``before``,
  ``after`` and ``interior`` integrands of an operator, as that operator with
  each blade scaled by a weight read from its grade, so that
  ``integral tr(W . P(xi)) dS`` is one trace against it times ``V(S^{n-1})``,
* :class:`PolyForm` and :func:`check_flat_commutators` -- differential forms
  with polynomial coefficients on flat ``R^n`` and the commutator identities
  ``[d + d*, x_k] = c(e_k)`` and ``[i(d - d*), x_k] = i chat(e_k)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .exterior import (
    LinearOp,
    clifford_generator,
    contract_lower,
    wedge_raise,
)
from .scalars import I, SymbolicScalar


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


_PLACEMENTS = ("before", "after", "interior")


def cosphere_average(op: LinearOp, placement: str, m: int = 1) -> LinearOp:
    """``(1 / V(S^{n-1})) integral_{S^{n-1}}`` of a placement's integrand.

    The integrands are quadratic in the unit covector ``xi``:

    * ``"before"``: ``sum_{i,j} xi_i xi_j c_i op c_j``,
    * ``"after"``: ``sum_{i,j} xi_i xi_j op c_i c_j``,
    * ``"interior"``: ``op + m sum_{i,j} (c_i op + op c_i) c_j xi_i xi_j``.

    Only the moments ``integral xi_i^2 dS = q V`` survive, with ``q = 1/n``
    read from :func:`sphere_moment`.  Every blade ``X = c_A chat_B`` of grade
    ``g = |A| + |B|`` is an eigenvector of both sandwiches,
    ``sum_i c_i X c_i = -(-1)^g (n - 2|A|) X`` and ``sum_i X c_i c_i = -n X``,
    so the average scales each blade of ``op`` by its weight: ``before`` =
    ``-(-1)^g (n - 2|A|) q``, ``after`` = ``-n q``, and ``interior`` =
    ``1 + m (before + after)``.
    """
    if placement not in _PLACEMENTS:
        raise ValueError(f"placement must be one of {_PLACEMENTS}, got {placement!r}")
    n = op.n
    q = sphere_moment((2,) + (0,) * (n - 1), n).coefficient(spheres=(n - 1,)).re

    def weight(a: int, odd: int) -> Fraction:
        before = (n - 2 * a) * q if odd else -(n - 2 * a) * q
        after = -n * q
        if placement == "before":
            return before
        if placement == "after":
            return after
        return 1 + m * (before + after)

    weights = {(a, odd): weight(a, odd) for a in range(n + 1) for odd in (0, 1)}
    low = (1 << n) - 1
    blades = {}
    for key, coeff in op.blades.items():
        w = weights[(key & low).bit_count(), key.bit_count() & 1]
        if w:
            blades[key] = coeff * w
    return LinearOp._of(n, blades)


# ---------------------------------------------------------------------------
# Differential forms with polynomial coefficients on flat R^n
# ---------------------------------------------------------------------------


class PolyForm:
    """A differential form ``sum x^beta * coeff * e_mask`` on flat ``R^n``."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Tuple[Tuple[int, ...], int], object] | None = None):
        self.n = n
        clean: Dict[Tuple[Tuple[int, ...], int], object] = {}
        if terms:
            for (beta, mask), coeff in terms.items():
                beta = tuple(beta)
                if len(beta) != n:
                    raise ValueError("exponent tuple length must equal n")
                if coeff:
                    clean[(beta, mask)] = coeff
        self.terms = clean

    @classmethod
    def monomial(cls, n: int, beta: Sequence[int], mask: int, coeff=1) -> "PolyForm":
        return cls(n, {(tuple(beta), mask): coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "PolyForm") -> "PolyForm":
        if not isinstance(other, PolyForm) or other.n != self.n:
            return NotImplemented
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            total = terms.get(key, 0) + coeff
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        return PolyForm(self.n, terms)

    def __sub__(self, other: "PolyForm") -> "PolyForm":
        return self + other.scale(-1)

    def scale(self, scalar) -> "PolyForm":
        return PolyForm(self.n, {key: scalar * c for key, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, PolyForm):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"PolyForm(n={self.n}, terms={len(self.terms)})"


def _apply_mask_operator(op: LinearOp, form: PolyForm) -> PolyForm:
    terms: Dict[Tuple[Tuple[int, ...], int], object] = {}
    for (beta, mask), coeff in form.terms.items():
        for row, c in op.column(mask).items():
            key = (beta, row)
            total = terms.get(key, 0) + c * coeff
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
    return PolyForm(form.n, terms)


def _partial_derivative(form: PolyForm, j: int) -> PolyForm:
    """``d/dx_j`` of the coefficients (1-based ``j``)."""
    terms: Dict[Tuple[Tuple[int, ...], int], object] = {}
    for (beta, mask), coeff in form.terms.items():
        if not beta[j - 1]:
            continue
        dbeta = list(beta)
        dcoeff = coeff * dbeta[j - 1]
        dbeta[j - 1] -= 1
        terms[(tuple(dbeta), mask)] = terms.get((tuple(dbeta), mask), 0) + dcoeff
    return PolyForm(form.n, terms)


def exterior_derivative(form: PolyForm) -> PolyForm:
    """``d = sum_j wedge_raise(j) . d/dx_j`` on polynomial forms."""
    n = form.n
    result = PolyForm(n)
    for j in range(1, n + 1):
        partial = _partial_derivative(form, j)
        if not partial.is_zero:
            result = result + _apply_mask_operator(wedge_raise(n, j), partial)
    return result


def codifferential(form: PolyForm) -> PolyForm:
    """``d* = -sum_j contract_lower(j) . d/dx_j`` on polynomial forms."""
    n = form.n
    result = PolyForm(n)
    for j in range(1, n + 1):
        partial = _partial_derivative(form, j)
        if not partial.is_zero:
            result = result + _apply_mask_operator(contract_lower(n, j), partial).scale(-1)
    return result


def coordinate_multiply(k: int, form: PolyForm) -> PolyForm:
    """Multiplication by the coordinate function ``x_k`` (1-based)."""
    terms: Dict[Tuple[Tuple[int, ...], int], object] = {}
    for (beta, mask), coeff in form.terms.items():
        nbeta = list(beta)
        nbeta[k - 1] += 1
        terms[(tuple(nbeta), mask)] = coeff
    return PolyForm(form.n, terms)


def check_flat_commutators(n: int, max_degree: int = 3) -> List[dict]:
    """Verify the commutator identities on all monomial forms of low degree.

    For every coordinate ``k`` and every monomial form ``x^beta e_mask`` with
    ``|beta| < max_degree``:

    * ``[d + d*, x_k] omega == c(e_k) omega``
    * ``[i (d - d*), x_k] omega == i chat(e_k) omega``

    Returns one record per ``(identity, k)`` pair with pass/fail status and
    the number of monomials checked.
    """
    results: List[dict] = []
    betas = [
        beta
        for total in range(max_degree)
        for beta in _exponents_with_sum(n, total)
    ]
    # d and d* of a monomial do not depend on k: take them once
    monomials = []
    for beta in betas:
        for mask in range(1 << n):
            omega = PolyForm.monomial(n, beta, mask)
            monomials.append((omega, exterior_derivative(omega), codifferential(omega)))
    for k in range(1, n + 1):
        ck = clifford_generator("c", n, k)
        chatk = clifford_generator("chat", n, k)
        ok_c = True
        ok_chat = True
        count = 0
        for omega, d_omega, dstar_omega in monomials:
            xo = coordinate_multiply(k, omega)
            d_xo = exterior_derivative(xo)
            dstar_xo = codifferential(xo)
            lhs_c = d_xo + dstar_xo - coordinate_multiply(k, d_omega + dstar_omega)
            rhs_c = _apply_mask_operator(ck, omega)
            if lhs_c != rhs_c:
                ok_c = False
            lhs_chat = (d_xo - dstar_xo - coordinate_multiply(k, d_omega - dstar_omega)).scale(I)
            rhs_chat = _apply_mask_operator(chatk, omega).scale(I)
            if lhs_chat != rhs_chat:
                ok_chat = False
            count += 1
        results.append({"identity": "c", "k": k, "ok": ok_c, "monomials": count})
        results.append({"identity": "chat", "k": k, "ok": ok_chat, "monomials": count})
    return results


def _exponents_with_sum(n: int, total: int) -> Iterable[Tuple[int, ...]]:
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponents_with_sum(n - 1, total - first):
            yield (first,) + rest
