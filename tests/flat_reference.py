"""Reference route for the flat commutator identities: operator columns.

Forms are :class:`PolyForm` dicts ``{(beta, mask): coeff}`` with ``Fraction``
(or Gaussian) coefficients.  ``d`` and ``d*`` apply the columns of the
:func:`wedge_raise` and :func:`contract_lower` operators (sums of half
blades, defined here) to the partial derivatives of the coefficients, so
their signs come from the blade action and not from the popcount rule of
:func:`hodge_residue.symbols.check_flat_commutators`.  The ``chat`` identity
keeps the paper's factor ``i`` on both sides.  The tests hold the two routes
to exact equality.  :func:`pack` and :func:`unpack` convert between these
dicts and the engine's packed monomial keys.

:func:`enumerated_flat_commutators` is the engine's check without its order
types: it walks every ``(k, beta, M)`` through the engine's own helpers, read
from :mod:`hodge_residue.symbols` at call time, so a helper patched there
reaches both routes.  :func:`blade_column` applies a blade one generator at a
time from the definitions of ``e_j ^ .`` and ``iota_j``, a route to the
action on ``Lambda`` that does not read :func:`hodge_residue.exterior._blade_action`.
"""

import itertools
from fractions import Fraction
from typing import Dict, Iterable, List, Sequence, Tuple

from hodge_residue import symbols
from hodge_residue.exterior import LinearOp, _check_index, _check_n, _generator_key, clifford_generator
from hodge_residue.scalars import I
from matrix_reference import column

_HALF = Fraction(1, 2)


def wedge_raise(n: int, j: int) -> LinearOp:
    """Exterior multiplication ``e_j ^ .`` (1-based ``j``): ``(c_j + chat_j) / 2``."""
    _check_n(n)
    _check_index(n, j)
    return LinearOp(n, {_generator_key("c", n, j): _HALF, _generator_key("chat", n, j): _HALF})


def contract_lower(n: int, j: int) -> LinearOp:
    """Interior contraction with ``e_j`` (1-based ``j``): ``(chat_j - c_j) / 2``."""
    _check_n(n)
    _check_index(n, j)
    return LinearOp(n, {_generator_key("c", n, j): -_HALF, _generator_key("chat", n, j): _HALF})


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
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + coeff
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
        return f"PolyForm(n={self.n}, terms={self.terms})"


def pack(n: int, terms: Dict[Tuple[Tuple[int, ...], int], object]) -> Dict[int, object]:
    """``{(beta, mask): coeff}`` as ``{key: coeff}`` in the engine's layout:
    ``mask`` in the low ``n`` bits, ``beta_j`` in the 2-bit field at bit
    ``n + 2j`` (0-based ``j``)."""
    out = {}
    for (beta, mask), coeff in terms.items():
        assert len(beta) == n and all(0 <= b <= 3 for b in beta), beta
        out[mask | sum(b << (n + 2 * j) for j, b in enumerate(beta))] = coeff
    return out


def unpack(n: int, packed: Dict[int, object]) -> Dict[Tuple[Tuple[int, ...], int], object]:
    """The inverse of :func:`pack`; a key with bits above the top field fails."""
    terms = {}
    for key, coeff in packed.items():
        assert key >> (3 * n) == 0, f"key {key:#x} overflows the top field at n={n}"
        terms[(tuple((key >> (n + 2 * j)) & 3 for j in range(n)), key & ((1 << n) - 1))] = coeff
    return terms


def apply_operator(op: LinearOp, form: PolyForm) -> PolyForm:
    """The operator applied to the exterior part of every term."""
    terms: Dict[Tuple[Tuple[int, ...], int], object] = {}
    for (beta, mask), coeff in form.terms.items():
        for row, c in column(op, mask).items():
            terms[(beta, row)] = terms.get((beta, row), 0) + c * coeff
    return PolyForm(form.n, terms)


def partial_derivative(form: PolyForm, j: int) -> PolyForm:
    """``d/dx_j`` of the coefficients (1-based ``j``)."""
    terms: Dict[Tuple[Tuple[int, ...], int], object] = {}
    for (beta, mask), coeff in form.terms.items():
        if beta[j - 1]:
            dbeta = list(beta)
            dbeta[j - 1] -= 1
            key = (tuple(dbeta), mask)
            terms[key] = terms.get(key, 0) + coeff * beta[j - 1]
    return PolyForm(form.n, terms)


def exterior_derivative(form: PolyForm) -> PolyForm:
    """``d = sum_j wedge_raise(j) . d/dx_j``."""
    result = PolyForm(form.n)
    for j in range(1, form.n + 1):
        result = result + apply_operator(wedge_raise(form.n, j), partial_derivative(form, j))
    return result


def codifferential(form: PolyForm) -> PolyForm:
    """``d* = -sum_j contract_lower(j) . d/dx_j``."""
    result = PolyForm(form.n)
    for j in range(1, form.n + 1):
        result = result - apply_operator(contract_lower(form.n, j), partial_derivative(form, j))
    return result


def coordinate_multiply(k: int, form: PolyForm) -> PolyForm:
    """Multiplication by the coordinate function ``x_k`` (1-based)."""
    terms = {}
    for (beta, mask), coeff in form.terms.items():
        nbeta = list(beta)
        nbeta[k - 1] += 1
        terms[(tuple(nbeta), mask)] = coeff
    return PolyForm(form.n, terms)


def monomial_forms(n: int, max_degree: int) -> List[PolyForm]:
    """Every ``x^beta e_mask`` with ``|beta| < max_degree``."""
    betas = [beta for beta in itertools.product(range(max_degree), repeat=n) if sum(beta) < max_degree]
    return [PolyForm.monomial(n, beta, mask) for beta in betas for mask in range(1 << n)]


def check_flat_commutators(n: int, max_degree: int = 3) -> List[dict]:
    """``[d + d*, x_k] = c(e_k)`` and ``[i (d - d*), x_k] = i chat(e_k)``,
    records in the order and shape of the engine's check."""
    forms = [(omega, exterior_derivative(omega), codifferential(omega))
             for omega in monomial_forms(n, max_degree)]
    results = []
    for k in range(1, n + 1):
        ck = clifford_generator("c", n, k)
        chatk = clifford_generator("chat", n, k)
        bad_c = bad_chat = 0
        for omega, d_omega, dstar_omega in forms:
            xo = coordinate_multiply(k, omega)
            d_xo, dstar_xo = exterior_derivative(xo), codifferential(xo)
            lhs_c = d_xo + dstar_xo - coordinate_multiply(k, d_omega + dstar_omega)
            bad_c += lhs_c != apply_operator(ck, omega)
            lhs_chat = (d_xo - dstar_xo - coordinate_multiply(k, d_omega - dstar_omega)).scale(I)
            bad_chat += lhs_chat != apply_operator(chatk, omega).scale(I)
        for identity, bad in (("c", bad_c), ("chat", bad_chat)):
            results.append({"identity": identity, "k": k, "ok": not bad,
                            "monomials": len(forms), "mismatches": bad})
    return results


def _exponents_with_sum(n: int, total: int) -> Iterable[Tuple[int, ...]]:
    if n == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _exponents_with_sum(n - 1, total - first):
            yield (first,) + rest


def enumerated_flat_commutators(n: int) -> List[dict]:
    """The engine's records, from every monomial ``x^beta e_mask`` with
    ``|beta| <= 2`` and every ``k``: ``D(x_k omega) - x_k D(omega)`` on packed
    keys against the generator's action on ``e_mask``."""
    _check_n(n)
    flat_derivative, blade_action, generator_key = (
        symbols._flat_derivative, symbols._blade_action, symbols._generator_key)
    # d + d* and d - d* of a monomial do not depend on k: take them once
    monomials = []
    for total in range(3):
        for beta in _exponents_with_sum(n, total):
            high = sum(b << (n + 2 * j) for j, b in enumerate(beta))
            for mask in range(1 << n):
                monomials.append((high, mask, flat_derivative(high | mask, n)))
    results: List[dict] = []
    for k in range(1, n + 1):
        step = 1 << (n + 2 * k - 2)  # adding it to a key multiplies by x_k
        actions = [
            [blade_action(n, generator_key(flavor, n, k), mask) for mask in range(1 << n)]
            for flavor in ("c", "chat")
        ]
        bad = [0, 0]
        for high, mask, of_omega in monomials:
            for i, lhs in enumerate(flat_derivative(high + step + mask, n)):
                for term, coeff in of_omega[i].items():
                    term += step
                    coeff = lhs.pop(term, 0) - coeff
                    if coeff:
                        lhs[term] = coeff
                sign, row = actions[i][mask]
                bad[i] += lhs != {high | row: sign}
        for flavor, mismatches in zip(("c", "chat"), bad):
            results.append({
                "identity": flavor, "k": k, "ok": not mismatches,
                "monomials": len(monomials), "mismatches": mismatches,
            })
    return results


def generator_column(flavor: str, j: int, mask: int) -> Tuple[int, int]:
    """``(sign, image)`` with ``gen_j e_mask = sign e_image``, from ``c_j =
    eps_j - iota_j`` and ``chat_j = eps_j + iota_j``: ``eps_j`` (on a mask
    without ``j``) and ``iota_j`` (on one with it) both sign by the bits of
    ``mask`` below ``j``."""
    sign = -1 if bin(mask & ((1 << (j - 1)) - 1)).count("1") % 2 else 1
    if flavor == "c" and mask >> (j - 1) & 1:
        sign = -sign
    return sign, mask ^ (1 << (j - 1))


def blade_column(n: int, key: int, mask: int) -> Tuple[int, int]:
    """``(sign, image)`` with ``e_key e_mask = sign e_image``: the blade is
    its generators in increasing bit order (bit ``j - 1`` is ``c_j``, bit ``n
    + j - 1`` is ``chat_j``), so the highest acts first."""
    sign = 1
    for bit in reversed(range(2 * n)):
        if key >> bit & 1:
            s, mask = generator_column("c", bit + 1, mask) if bit < n else generator_column("chat", bit - n + 1, mask)
            sign *= s
    return sign, mask
