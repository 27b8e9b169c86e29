"""Matrix-to-blade route: build an operator from its matrix entries.

The engine never needs it; tests use it to draw random operators and to read
matrix identities back through :func:`column`.  It inverts the
blade action of :mod:`hodge_residue.exterior` (``c_A chat_B`` is the signed
permutation ``m -> +-(m xor A xor B)``) with the trace formula for blade
coefficients.
"""

from fractions import Fraction
from typing import Dict, Iterable, Tuple

from hodge_residue.exterior import (
    LinearOp,
    _accumulate,
    _blade_action,
    _check_n,
    _square_is_negative,
)


def column(op: LinearOp, mask: int) -> Dict[int, object]:
    """``{row: coefficient}``: the image of the basis monomial ``mask``,
    read through the blade action."""
    col: Dict[int, object] = {}
    for key, coeff in op.blades.items():
        sign, row = _blade_action(op.n, key, mask)
        _accumulate(col, row, coeff if sign > 0 else -coeff)
    return col


def from_entries(n: int, entries: Iterable[Tuple[int, int, object]]) -> LinearOp:
    """The operator with matrix entries ``(row, col, coeff)``; repeats add.

    The coefficient of ``e_X`` is ``sq(X) tr(e_X M) / 2^n``, and ``e_X``
    carries ``|row>`` to ``|col>`` only for the ``2^n`` blades whose
    flips give ``row xor col``, so each entry touches ``2^n`` blades.
    """
    _check_n(n)
    dim = 1 << n
    sums: Dict[int, object] = {}
    for row, col, coeff in entries:
        if not (0 <= row < dim and 0 <= col < dim):
            raise ValueError(f"entry ({row}, {col}) out of range for n={n}")
        if not coeff:
            continue
        flip = row ^ col
        for a in range(dim):
            key = a | ((a ^ flip) << n)
            sign, _ = _blade_action(n, key, row)
            _accumulate(sums, key, coeff if sign > 0 else -coeff)
    scale = Fraction(1, dim)
    return LinearOp(n, {
        key: (-total if _square_is_negative(n, key) else total) * scale
        for key, total in sums.items()
    })
