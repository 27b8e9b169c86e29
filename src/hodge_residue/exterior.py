"""Exterior algebra over R^n and exact Clifford actions on it.

The exterior algebra ``Lambda^*(R^n)`` has dimension ``2^n``; the wedge
monomial ``e_{i_1} ^ ... ^ e_{i_k}`` (indices increasing, 1-based) is encoded
as the bitmask with bits ``i_1 - 1, ..., i_k - 1`` set.

Two families of Clifford actions are provided for each direction ``j``,
from the exterior multiplication ``eps_j = e_j ^ .`` and the interior
contraction ``iota_j``:

* ``c_j = eps_j - iota_j`` squaring to ``-1``,
* ``chat_j = eps_j + iota_j`` squaring to ``+1``,

with all mixed pairs anticommuting.  They generate the Clifford algebra
``Cl(n,n)``, which is all of ``End(Lambda^*(R^n))``, so every operator is a
unique combination of the ``4^n`` blades.  A blade is a ``2n``-bit key: bit
``j - 1`` stands for ``c_j`` and bit ``n + j - 1`` for ``chat_j``; the blade
``e_X`` is the product of its generators in increasing bit order, so
``e_X = c_A chat_B`` with ``A`` the low and ``B`` the high half of ``X``.
Operators are stored as sparse ``{blade: coefficient}`` dicts, and three
rules do all the work:

* *Product.*  ``e_X e_Y = (-1)^(r + s) e_{X xor Y}``, where ``r`` counts the
  pairs ``x in X``, ``y in Y`` with ``x > y`` (the canonical reordering
  sign) and ``s = |X & Y & c-bits|`` (each shared ``c_j`` squares to ``-1``,
  each shared ``chat_j`` to ``+1``).
* *Trace.*  ``tr(e_X) = 2^n`` for the empty blade and ``0`` otherwise, so
  ``tr(e_X e_Y) = 2^n delta_XY sq(X)`` with ``sq(X) = +-1`` the sign of
  ``e_X^2``; a trace of a product only touches the blades both sides share.
* *Action on Lambda.*  ``c_j`` and ``chat_j`` both flip bit ``j - 1`` of a
  monomial, so ``c_A chat_B`` is the signed permutation
  ``m -> +-(m xor A xor B)`` of the monomial basis; :func:`_blade_action`
  gives the signed image of one monomial under one blade.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from .scalars import GaussianRational, as_gaussian

FLAVORS = ("c", "chat")

MAX_DIMENSION = 14


def _check_n(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"dimension n must be an int, got {n!r}")
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension n must satisfy 1 <= n <= {MAX_DIMENSION}, got {n}")


def _check_flavor(flavor: str) -> None:
    if flavor not in FLAVORS:
        raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")


def _check_index(n: int, j: int) -> None:
    if not 1 <= j <= n:
        raise ValueError(f"direction index must satisfy 1 <= j <= n, got {j}")


# ---------------------------------------------------------------------------
# Blade sign rules (bit tricks valid for keys below 2^32, i.e. n <= 16)
# ---------------------------------------------------------------------------


def _parity_above(x: int) -> int:
    """Bit ``k`` is the parity of the set bits of ``x`` strictly above ``k``."""
    x >>= 1
    x ^= x >> 1
    x ^= x >> 2
    x ^= x >> 4
    x ^= x >> 8
    x ^= x >> 16
    return x


def _parity_below(x: int) -> int:
    """Bit ``k`` (``k <= 16``) is the parity of the set bits of ``x`` below ``k``."""
    x <<= 1
    x ^= x << 1
    x ^= x << 2
    x ^= x << 4
    x ^= x << 8
    return x


def _product_signs(n: int, x: int) -> int:
    """Mask ``t`` with ``e_x e_y = (-1)^popcount(t & y) e_{x xor y}``."""
    return _parity_above(x) ^ (x & ((1 << n) - 1))


def _square_is_negative(n: int, x: int) -> bool:
    """Whether ``e_x^2 = -1`` (it is ``+1`` otherwise)."""
    k = x.bit_count()
    return bool(((k * (k - 1) >> 1) + (x & ((1 << n) - 1)).bit_count()) & 1)


def _blade_action(n: int, key: int, mask: int) -> Tuple[int, int]:
    """``(sign, image)`` with ``e_key |mask> = sign |image>``.

    The ``chat_B`` factors act first, highest index first; each generator
    picks up the parity of the monomial's bits below its own, and each
    ``c_j`` a further ``-1`` when bit ``j - 1`` is set.
    """
    a = key & ((1 << n) - 1)
    b = key >> n
    mid = mask ^ b
    odd = ((_parity_below(mask) & b) ^ ((_parity_below(mid) ^ mid) & a)).bit_count() & 1
    return (-1 if odd else 1), mid ^ a


def _accumulate(target: Dict[int, object], key: int, value) -> None:
    """``target[key] += value``, dropping the key when the sum vanishes."""
    cur = target.get(key)
    if cur is None:
        target[key] = value
    else:
        total = cur + value
        if total:
            target[key] = total
        else:
            del target[key]


class LinearOp:
    """A linear operator on ``Lambda^*(R^n)``, stored as sparse blades.

    ``blades`` is a dict ``{key: coefficient}`` over the ``Cl(n,n)`` blade
    keys described in the module docstring.  Coefficients may be ``int``,
    ``Fraction`` or :class:`~hodge_residue.scalars.GaussianRational`; zeros
    are never stored, so equal operators have equal dicts.  The constructor
    checks ``n`` only: the caller's dict must already hold valid keys and no
    zeros, and it is wrapped, not copied.
    """

    __slots__ = ("n", "blades")

    def __init__(self, n: int, blades: Dict[int, object]):
        _check_n(n)
        self.n = n
        self.blades = blades

    # -- constructors ------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "LinearOp":
        return cls(n, {0: 1})

    # -- structure ----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.blades

    # -- algebra --------------------------------------------------------------
    def compose(self, other: "LinearOp") -> "LinearOp":
        """``self o other`` (``other`` is applied first)."""
        if other.n != self.n:
            raise ValueError("operator dimension mismatch")
        n = self.n
        out: Dict[int, object] = {}
        for x, a in self.blades.items():
            signs = _product_signs(n, x)
            for y, b in other.blades.items():
                _accumulate(out, x ^ y, -a * b if (signs & y).bit_count() & 1 else a * b)
        return LinearOp(n, out)

    def __matmul__(self, other: "LinearOp") -> "LinearOp":
        return self.compose(other)

    def trace(self) -> GaussianRational:
        return as_gaussian(self.blades.get(0, 0) * (1 << self.n))

    def __eq__(self, other):
        if not isinstance(other, LinearOp):
            return NotImplemented
        return self.n == other.n and self.blades == other.blades

    __hash__ = None  # mutable container semantics

    def __repr__(self) -> str:
        return f"LinearOp(n={self.n}, blades={len(self.blades)})"


def trace_product(a: LinearOp, b: LinearOp) -> GaussianRational:
    """``tr(a o b)`` from the blades the two operators share."""
    if a.n != b.n:
        raise ValueError("operator dimension mismatch")
    n = a.n
    other = b.blades
    total = 0
    for key, u in a.blades.items():
        v = other.get(key)
        if v is not None:
            if _square_is_negative(n, key):
                total = total - u * v
            else:
                total = total + u * v
    return as_gaussian(total * (1 << n))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _generator_key(flavor: str, n: int, j: int) -> int:
    return 1 << (j - 1 if flavor == "c" else n + j - 1)


def clifford_generator(flavor: str, n: int, j: int) -> LinearOp:
    """The generator ``c_j`` (flavor ``"c"``) or ``chat_j`` (flavor ``"chat"``)."""
    _check_flavor(flavor)
    _check_n(n)
    _check_index(n, j)
    return LinearOp(n, {_generator_key(flavor, n, j): 1})


def clifford(flavor: str, u: Sequence) -> LinearOp:
    """Clifford action of the vector ``u`` in the requested flavor.

    ``flavor="c"`` gives ``sum_j u_j (eps_j - iota_j)`` (squares to
    ``-|u|^2``); ``flavor="chat"`` gives ``sum_j u_j (eps_j + iota_j)``
    (squares to ``+|u|^2``).
    """
    _check_flavor(flavor)
    n = len(u)
    return LinearOp(n, {
        _generator_key(flavor, n, j): coeff
        for j, coeff in enumerate(u, start=1)
        if coeff
    })


def clifford_word(n: int, letters: Sequence[Tuple[str, Sequence]]) -> LinearOp:
    """Product of Clifford actions, leftmost letter outermost.

    ``letters`` is a sequence of ``(flavor, vector)`` pairs; the returned
    operator is ``clifford(f_1, u_1) o ... o clifford(f_k, u_k)``.
    """
    op = LinearOp.identity(n)
    for flavor, u in letters:
        if len(u) != n:
            raise ValueError("vector length must equal n")
        op = op.compose(clifford(flavor, u))
    return op


def _generator_blade(n: int, letters: Iterable[Tuple[str, int]]) -> Tuple[int, int]:
    """``(key, sign)`` with ``gen(f_1, j_1) o ... o gen(f_k, j_k) = sign e_key``,
    multiplied out by the product rule (the letters are not validated)."""
    key, sign = 0, 1
    for flavor, j in letters:
        g = _generator_key(flavor, n, j)
        if (_product_signs(n, key) & g).bit_count() & 1:
            sign = -sign
        key ^= g
    return key, sign

