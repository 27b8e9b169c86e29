"""The per-n direct compile of a trace kernel, the reference the package's
order-type tables are held to.

:func:`_compile` builds a shape's tensor ``{(I, j_1, ..., j_k): c}`` at one
``n`` straight from the lift's blades on every basis form and the letter
paths that fold each blade to the empty blade, with no order type in
between.  :func:`_compile_slots` compiles it from any blades, and
:class:`TraceKernel` holds it with its basis, grade class and denominator,
contracts it with integer rows and traces rational inputs.
:func:`table_of` reads the order-type table off the compile at ``n0``, the
table ``hodge_residue.residue._table`` compiles directly, and
:func:`expand` places a table's types at ``n`` as a :class:`TraceKernel`,
the tensor whose contraction ``KernelTable.expand`` returns.
:func:`fresh_memos` gives one test empty table and contraction memos.
"""

import functools
import itertools
from fractions import Fraction
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Dict, List, Optional, Sequence, Tuple

from hodge_residue.exterior import _check_n, _generator_key, _product_signs
from hodge_residue.forms import LIFT_TERMS, AntiSymForm, _reader, _term_blades
import hodge_residue.residue as residue_module
from hodge_residue.residue import (
    KernelTable, _contraction, _letter_paths, _lift_degree, _scaled_rows, _table, _traceable,
)
from hodge_residue.symbols import _grade_weight


class TraceKernel:
    """The trace ``tr(W(u_1 ... u_k) . lift(T))`` of one check or identity
    shape at one ``n``, and the weight of each cosphere placement.

    ``W`` is the Clifford word of ``letters`` letters.  The trace is
    multilinear in the form and in each vector, so it is ``2^n / denominator
    * sum c T_I u_1[j_1] ... u_k[j_k]`` over a sparse integer tensor
    ``{(I, j_1, ..., j_k): c}``: ``columns`` holds one tuple per tensor slot
    (the slot of ``I`` in :attr:`basis`, then each letter's 0-based index)
    and ``coeffs`` the integers, both empty when the tensor is.
    :func:`_compile_slots` compiles it from a lift's blades and
    :func:`expand` from a shape's order types.

    Every entry comes from one blade of the lift, and every traced blade has
    one grade class ``(|A|, g mod 2)``, recorded as :attr:`grade` (``None``
    when no blade is traced).  A cosphere placement scales each blade by the
    weight of its class, so it scales the whole trace by one :meth:`weight`
    and compiles nothing.

    ``basis``, ``columns`` and ``coeffs`` are tuples, so a kernel cannot be
    altered by a check that reads it.  ``n`` past ``MAX_DIMENSION`` raises
    ``ValueError``.
    """

    __slots__ = ("n", "degree", "letters", "basis", "columns", "reads", "coeffs", "denominator", "grade")

    def __init__(self, n: int, degree: int, letters: int, columns: Sequence[Sequence[int]], coeffs: Sequence[int],
                 denominator: int = 1, grade: Optional[Tuple[int, int]] = None):
        _check_n(n)
        self.n, self.degree, self.letters = n, degree, letters
        self.basis = tuple(itertools.combinations(range(1, n + 1), degree)) if degree else ((),)
        self.coeffs = tuple(coeffs)
        # each column read from its row by one C-level call
        self.columns = tuple(map(tuple, columns)) if self.coeffs else ()
        self.reads = tuple(map(_reader, self.columns))
        self.denominator, self.grade = denominator, grade

    def weight(self, placement: str, m: int = 1) -> Fraction:
        """The factor by which a placement ``P`` scales this trace:
        ``tr(W . P(lift(T)))`` is the weight times ``tr(W . lift(T))``.

        ``"plain"`` has weight 1; ``"before"``, ``"after"`` and
        ``"interior"`` (at symbol order ``m``) the weight of :attr:`grade`
        from :func:`~hodge_residue.symbols._grade_weight`, and 0 on a kernel
        with no entry (no grade).  Any other placement raises ``ValueError``.
        """
        if placement == "plain":
            return Fraction(1)
        return _grade_weight(self.n, placement, m, self.grade)

    def contract(self, rows: Sequence[Sequence[int]]) -> int:
        """``sum c * rows[0][I] * rows[1][j_1] ... rows[k][j_k]`` in integers.

        ``rows[0]`` holds the form's values in :attr:`basis` order (``[1]``
        for degree 0) and the other rows the letters' vectors; the trace is
        ``2^n / denominator`` times the result.
        """
        products = self.coeffs
        for read, row in zip(self.reads, rows):
            products = map(mul, products, read(row))
        return sum(products)

    def trace(self, form: Optional[AntiSymForm], vectors: Sequence[Sequence]) -> Fraction:
        """The trace on a form (``None`` for degree 0) and the letters' vectors.

        Each input is scaled to integers by the lcm of its denominators, the
        tensor is contracted by :meth:`contract`, and the result is one
        ``Fraction``.  A form of another ``n`` or degree, another number of
        vectors or a vector of another length raises ``ValueError``.
        """
        if self.degree:
            if form is None or (form.n, form.degree) != (self.n, self.degree):
                raise ValueError(f"the kernel takes a degree-{self.degree} form with n={self.n}")
        elif form is not None:
            raise ValueError("the kernel takes no form")
        if len(vectors) != self.letters:
            raise ValueError(f"the kernel takes {self.letters} vectors, got {len(vectors)}")
        if any(len(u) != self.n for u in vectors):
            raise ValueError(f"every vector must have length n={self.n}")
        rows, scale = _scaled_rows(self.n, form, vectors)
        return Fraction(self.contract(rows) << self.n, self.denominator * scale)


def _compile_slots(n: int, flavors: Sequence[str], slots: Sequence[Dict[int, int]], degree: int,
                   denominator: int = 1) -> TraceKernel:
    """The kernel of the word of the letters ``flavors`` against a lift read
    off basis inputs: ``slots[I]`` is the lift on the basis form ``e_I`` as
    ``{blade: c}`` over ``denominator`` (one slot, and no form, for
    ``degree`` 0), and ``_letter_paths`` gives the index tuples whose
    letters fold each blade to the empty blade (trace = ``2^n`` times the
    identity coefficient).  Blades of two grade classes raise ``ValueError``."""
    _check_n(n)
    signs = [_product_signs(n, 1 << bit) for bit in range(2 * n)]
    low = (1 << n) - 1
    entries, values, grades = [], [], set()
    for slot, blades in enumerate(slots):
        for key, coeff in blades.items():
            grade = ((key & low).bit_count(), key.bit_count() & 1)
            for js, sign in _letter_paths(n, flavors, key, signs):
                entries.append((slot,) + js)
                values.append(coeff if sign > 0 else -coeff)
                grades.add(grade)
    if len(grades) > 1:
        raise ValueError(f"the traced blades span the grade classes {sorted(grades)}, not one")
    return TraceKernel(n, degree, len(flavors), zip(*entries), values, denominator, grades.pop() if grades else None)


def _compile(word_flavors: Tuple[str, ...], lift: Optional[str], n: int) -> TraceKernel:
    """The plain trace kernel of the word against a lift at ``n``, compiled
    directly: a ``LIFT_TERMS`` key, whose terms the word cannot trace are
    skipped, ``"normal_c"`` (the blade ``c_n``) or ``None`` (the identity).
    ``n`` past ``MAX_DIMENSION`` raises before any slot is built."""
    _check_n(n)
    if lift is None:
        return _compile_slots(n, word_flavors, [{0: 1}], 0)
    if lift == "normal_c":
        return _compile_slots(n, word_flavors, [{_generator_key("c", n, n): 1}], 0)
    denominator, terms = LIFT_TERMS[lift]
    traced = [term for term in terms if _traceable(word_flavors, term[1])]
    degree = _lift_degree(lift)
    slots = [_term_blades(n, traced, idx) for idx in itertools.combinations(range(1, n + 1), degree)]
    return _compile_slots(n, word_flavors, slots, degree, denominator)


def n0_of(word_flavors: Tuple[str, ...], lift: Optional[str]) -> int:
    """``b + (k - b) // 2``: the most distinct indices an entry of the shape
    uses, with ``b`` the lift's blade generators and ``k`` the letters."""
    b = 1 if lift == "normal_c" else _lift_degree(lift) or 0
    return b + (len(word_flavors) - b) // 2


def table_of(word_flavors: Tuple[str, ...], lift: Optional[str]) -> KernelTable:
    """The order-type table read off the direct compile at :func:`n0_of`:
    each entry's indices replaced by their ranks among its distinct ones.  Its
    ``unit`` and ``kappa`` are ``None``: the tests hold the package's to the
    decision on the full tensors instead."""
    kernel = _compile(word_flavors, lift, n0_of(word_flavors, lift))
    types = {}
    for (slot, *js), c in zip(zip(*kernel.columns), kernel.coeffs):
        idx = tuple(i - 1 for i in kernel.basis[slot])
        rank = {i: p for p, i in enumerate(sorted({*idx, *js}))}
        types[len(rank), tuple(map(rank.get, idx)), tuple(map(rank.get, js))] = c
    return KernelTable(len(word_flavors), _lift_degree(lift) or 0, kernel.denominator, kernel.grade,
                       lift == "normal_c", MappingProxyType(types), None, None)


def expand(table: KernelTable, n: int) -> TraceKernel:
    """The kernel at ``n``: each type with ``r <= n`` placed at every
    increasing ``r``-subset of ``range(n)`` (of ``range(n - 1)``, then
    ``n - 1``, when pinned).  ``n`` past ``MAX_DIMENSION`` raises first."""
    _check_n(n)
    slot_of = {idx: slot for slot, idx in enumerate(itertools.combinations(range(n), table.degree))}
    columns: List[List[int]] = [[] for _ in range(table.letters + 1)]
    coeffs: List[int] = []
    for (r, idx, js), c in table.types.items():
        # no subset when r > n
        if table.pinned:
            subsets = [s + (n - 1,) for s in itertools.combinations(range(n - 1), r - 1)]
        else:
            subsets = list(itertools.combinations(range(n), r))
        columns[0].extend(map(slot_of.__getitem__, map(_reader(idx), subsets)) if idx else [0] * len(subsets))
        for column, j in zip(columns[1:], js):
            column.extend(map(itemgetter(j), subsets))
        coeffs.extend([c] * len(subsets))
    return TraceKernel(n, table.degree, table.letters, columns, coeffs, table.denominator,
                       table.grade if coeffs else None)


def fresh_memos(monkeypatch) -> None:
    """Empty ``_table`` and ``_contraction`` memos in ``hodge_residue.residue``
    for one test, so that a patched ratio, unit table or expansion reaches the
    tables and contractions it builds; the process's memos are back after it."""
    for memo in (_table, _contraction):
        monkeypatch.setattr(residue_module, memo.__name__, functools.lru_cache(maxsize=None)(memo.__wrapped__))
