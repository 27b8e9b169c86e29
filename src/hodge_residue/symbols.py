"""Operator-valued cotangent polynomials, sphere moments, and flat-space checks.

The interior residue densities reduce to integrals over the unit cosphere of
polynomials in ``xi`` with operator coefficients.  This module provides:

* :func:`sphere_moment` -- the exact monomial moment
  ``integral_{S^{n-1}} xi^alpha dS`` as a :class:`SymbolicScalar` (a rational
  multiple of ``V(S^{n-1})``),
* :class:`XiPolynomialOp` -- a polynomial ``sum_alpha xi^alpha A_alpha`` with
  :class:`LinearOp` coefficients,
* :func:`interior_integrand` -- the quadratic-in-``xi`` integrand produced by
  expanding the resolvent symbol around a zero-order perturbation,
* :func:`trace_integrate` -- moment-gated exact evaluation of
  ``integral tr(W . P(xi)) dS``,
* :class:`PolyForm` and :func:`check_flat_commutators` -- differential forms
  with polynomial coefficients on flat ``R^n`` and the commutator identities
  ``[d + d*, x_k] = c(e_k)`` and ``[i(d - d*), x_k] = i chat(e_k)``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from .exterior import (
    LinearOp,
    clifford_generator,
    contract_lower,
    wedge_raise,
)
from .scalars import GaussianRational, I, SymbolicScalar, sphere_volume


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


class XiPolynomialOp:
    """``sum_alpha xi^alpha A_alpha`` with operator coefficients.

    ``alpha`` is a length-``n`` exponent tuple; coefficients are
    :class:`LinearOp` on the same ``Lambda^*(R^n)``.  Coefficient operators
    may be registered as deferred factories (:meth:`add_deferred`) so that
    exponents whose sphere moment vanishes are never materialized by the
    exact integration path; accessing :attr:`terms` or :meth:`term` builds
    whatever is still pending, so the polynomial always behaves like the
    full sum.
    """

    __slots__ = ("n", "_terms", "_thunks")

    def __init__(self, n: int, terms: Dict[Tuple[int, ...], LinearOp] | None = None):
        self.n = n
        self._terms: Dict[Tuple[int, ...], LinearOp] = {}
        self._thunks: Dict[Tuple[int, ...], list] = {}
        if terms:
            for alpha, op in terms.items():
                self.add_term(alpha, op)

    def _check_alpha(self, alpha: Sequence[int]) -> Tuple[int, ...]:
        alpha = tuple(alpha)
        if len(alpha) != self.n:
            raise ValueError("exponent tuple length must equal n")
        return alpha

    def alphas(self) -> list:
        return sorted(set(self._terms) | set(self._thunks))

    def term(self, alpha: Sequence[int]) -> LinearOp:
        alpha = self._check_alpha(alpha)
        pending = self._thunks.pop(alpha, None)
        if pending is not None:
            op = self._terms.get(alpha)
            for fn in pending:
                piece = fn()
                op = piece if op is None else op + piece
            self._terms[alpha] = op
        existing = self._terms.get(alpha)
        return LinearOp.zero(self.n) if existing is None else existing

    def add_term(self, alpha: Sequence[int], op: LinearOp) -> None:
        alpha = self._check_alpha(alpha)
        if op.n != self.n:
            raise ValueError("operator dimension mismatch")
        existing = self._terms.get(alpha)
        self._terms[alpha] = op if existing is None else existing + op

    def add_deferred(self, alpha: Sequence[int], factory) -> None:
        alpha = self._check_alpha(alpha)
        self._thunks.setdefault(alpha, []).append(factory)

    @property
    def terms(self) -> Dict[Tuple[int, ...], LinearOp]:
        for alpha in list(self._thunks):
            self.term(alpha)
        return self._terms

    def __add__(self, other: "XiPolynomialOp") -> "XiPolynomialOp":
        if not isinstance(other, XiPolynomialOp) or other.n != self.n:
            return NotImplemented
        result = XiPolynomialOp(self.n, dict(self.terms))
        for alpha, op in other.terms.items():
            result.add_term(alpha, op)
        return result

    def scale(self, scalar) -> "XiPolynomialOp":
        return XiPolynomialOp(
            self.n, {alpha: op.scale(scalar) for alpha, op in self.terms.items()}
        )

    def __repr__(self) -> str:
        return f"XiPolynomialOp(n={self.n}, terms={len(self.alphas())})"


def interior_integrand(theta: LinearOp, m: int, prefactor=1) -> XiPolynomialOp:
    """Cosphere integrand of the interior residue density for weight ``theta``.

    Expanding the inverse-symbol power around the zero-order perturbation
    ``theta`` in normal coordinates leaves a constant term and a quadratic
    term in ``xi``:

    ``prefactor * [ theta + m * sum_{i,j} (c_i theta + theta c_i) c_j xi_i xi_j ]``.
    """
    n = theta.n
    poly = XiPolynomialOp(n)
    poly.add_term((0,) * n, theta.scale(prefactor) if prefactor != 1 else theta)
    for i in range(1, n + 1):
        ci = clifford_generator("c", n, i)
        sandwich = ci.compose(theta) + theta.compose(ci)
        scaled = sandwich.scale(prefactor * m)
        for j in range(1, n + 1):
            alpha = [0] * n
            alpha[i - 1] += 1
            alpha[j - 1] += 1
            cj = clifford_generator("c", n, j)
            poly.add_deferred(tuple(alpha), lambda s=scaled, c=cj: s.compose(c))
    return poly


def trace_integrate(word: LinearOp, poly: XiPolynomialOp) -> SymbolicScalar:
    """``integral_{S^{n-1}} tr(word . poly(xi)) dS`` evaluated exactly.

    Moments are computed first so traces are only taken for exponent tuples
    with nonvanishing moment.
    """
    from .exterior import trace_product

    if word.n != poly.n:
        raise ValueError("operator dimension mismatch")
    total = SymbolicScalar()
    for alpha in poly.alphas():
        moment = sphere_moment(alpha, poly.n)
        if moment.is_zero:
            continue
        value = trace_product(word, poly.term(alpha))
        if value:
            total = total + moment * value
    return total


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
