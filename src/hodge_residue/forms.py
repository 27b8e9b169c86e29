"""Antisymmetric multilinear forms and their Clifford operator lifts.

A degree-``k`` antisymmetric form on ``R^n`` is stored by its values on
increasing index tuples (1-based); values at arbitrary tuples follow by
permutation sign.  The lifts replace each index slot of the form with a
Clifford generator of a prescribed flavor, producing the curvature-type
operators whose traces the residue densities consume.  Each named lift is
defined once, as integer terms over one denominator in :data:`LIFT_TERMS`;
:func:`_term_blades` gives a table's blades on one basis form.  The trace
kernels of :mod:`hodge_residue.residue` compile from it directly, and
``lift_<name>`` builds the whole operator from it.  A monotone term sums over
increasing tuples: for a single flavor it is the ordered sum ``/ k!``, and
for a mixed pattern it ties each flavor to index order, so the lift is not
frame covariant.  An ordered term sums over all pairwise-distinct ordered
tuples with the antisymmetrically extended coefficient, needed for mixed
patterns such as ``torsion_assembly``'s ``c chat chat``.

The random trials of the checks run in integers.  :func:`_random_doubled` is
the one draw: it reads entries ``p/q`` (``p`` in ``[-3, 3]``, ``q`` in
``{1, 2}``) from the ``random.Random`` stream exactly as ``randint`` then
``choice`` would, and returns each doubled, as the integer ``2p/q``.
:func:`random_vector` and :func:`random_form` halve it into ``Fraction``
values.  :func:`_minor_contract` is the one contraction of a form with
vectors, ``sum_I T_I det(vectors restricted to I)``, run on the minor plan
:func:`_minor_plan` builds once per ``(n, degree)`` and process; the checks
call it on integers, and :func:`form_contract` on the form's own values.
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from fractions import Fraction
from functools import lru_cache
from math import comb
from operator import add, itemgetter, mul, sub
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Sequence, Tuple, Union

from .exterior import LinearOp, _accumulate, _check_flavor, _generator_blade


def _sort_with_sign(indices: Sequence[int]) -> Tuple[Tuple[int, ...], int]:
    """Sorted tuple and permutation sign; sign 0 when an index repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return tuple(sorted(idx)), 0
    sign = 1
    # insertion sort, counting swaps
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    return tuple(idx), sign


class AntiSymForm:
    """An antisymmetric ``degree``-linear form on ``R^n`` with exact values."""

    __slots__ = ("n", "degree", "entries")

    def __init__(self, n: int, degree: int, entries: Dict[Tuple[int, ...], object] | None = None):
        _check_degree(n, degree)
        self.n = n
        self.degree = degree
        clean: Dict[Tuple[int, ...], object] = {}
        if entries:
            for idx, value in entries.items():
                idx = tuple(idx)
                if len(idx) != degree:
                    raise ValueError(f"index tuple {idx} has wrong length for degree {degree}")
                if any(not 1 <= j <= n for j in idx):
                    raise ValueError(f"index tuple {idx} out of range for n={n}")
                sorted_idx, sign = _sort_with_sign(idx)
                if sign == 0:
                    if value:
                        raise ValueError(f"repeated index in {idx} forces value 0")
                    continue
                value = sign * value if sign == -1 else value
                if value:
                    if sorted_idx in clean and clean[sorted_idx] != value:
                        raise ValueError(f"conflicting values for index {sorted_idx}")
                    clean[sorted_idx] = value
        self.entries = clean

    def value(self, indices: Sequence[int]):
        """Value at an arbitrary index tuple (antisymmetric extension)."""
        if len(indices) != self.degree:
            raise ValueError("wrong number of indices")
        sorted_idx, sign = _sort_with_sign(indices)
        if sign == 0:
            return Fraction(0)
        base = self.entries.get(sorted_idx, 0)
        if not base:
            return Fraction(0)
        return sign * base if sign == -1 else base

    def __eq__(self, other):
        if not isinstance(other, AntiSymForm):
            return NotImplemented
        return (self.n, self.degree, self.entries) == (other.n, other.degree, other.entries)

    def __repr__(self) -> str:
        return f"AntiSymForm(n={self.n}, degree={self.degree}, nnz={len(self.entries)})"


def _check_degree(n: int, degree: int) -> None:
    if degree < 0 or degree > n:
        raise ValueError(f"degree must satisfy 0 <= degree <= n, got {degree}")


def form_contract(form: AntiSymForm, vectors: Sequence[Sequence]) -> Fraction:
    """Evaluate the form on ``degree`` many vectors (exact):
    ``sum_I form(I) * det(vectors restricted to I)`` by :func:`_minor_contract`."""
    if len(vectors) != form.degree:
        raise ValueError("number of vectors must equal the form degree")
    if any(len(u) != form.n for u in vectors):
        raise ValueError("vector length must equal n")
    basis = itertools.combinations(range(1, form.n + 1), form.degree)
    values = [form.entries.get(idx, 0) for idx in basis]
    return Fraction(_minor_contract(form.n, values, vectors))


def _reader(indices: Sequence[int]) -> Callable[[Sequence], Tuple]:
    """``seq -> tuple(seq[i] for i in indices)`` in one C-level call; a
    one-entry ``itemgetter`` would return the entry itself, not a tuple."""
    if len(indices) == 1:
        [i] = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=None)
def _minor_plan(n: int, degree: int) -> Tuple[Tuple[Tuple[Callable, Callable, Callable], ...], ...]:
    """The passes that build every minor of ``degree`` rows of length ``n``.

    Level ``l`` (``1 <= l <= degree``) lists every ``l``-subset ``S`` of the
    columns in ``itertools.combinations`` order; its value at ``S`` is the
    minor of the last ``l`` rows on ``S``, expanded along its top row:
    ``sum_p (-1)^p row[S_p] * minor(S without S_p)``, the second factor read
    from level ``l - 1``.  Pass ``p`` of a level is ``(op, cols, drops)``:
    ``cols`` reads ``S_p`` of every ``S`` from the row, ``drops`` the index
    of ``S`` without ``S_p`` from the previous level, and ``op`` adds
    (``p`` even) or subtracts (``p`` odd) the pass's products.  Level
    ``degree`` is in the basis order of a degree-``degree`` form.
    """
    levels = []
    position = {(): 0}
    for size in range(1, degree + 1):
        subsets = list(itertools.combinations(range(n), size))
        levels.append(tuple(
            (sub if p & 1 else add,
             _reader([s[p] for s in subsets]),
             _reader([position[s[:p] + s[p + 1:]] for s in subsets]))
            for p in range(size)
        ))
        position = {s: i for i, s in enumerate(subsets)}
    return tuple(levels)


def _minor_contract(n: int, values: Sequence[int], rows: Sequence[Sequence[int]]) -> int:
    """``sum_I values[I] * det(rows restricted to I)``, exact for integer or
    ``Fraction`` entries, ``values`` in the basis order of a
    degree-``len(rows)`` form on ``R^n``.

    Each level of :func:`_minor_plan` is one ``map`` pass per position in
    its subsets, so the minors of the lower rows are shared by every index
    set and the per-entry work runs at C level.  The work is that of every
    ``l``-subset for ``l <= len(rows)``, however sparse ``values`` is.
    """
    level: Sequence[int] = (1,)
    for row, passes in zip(reversed(rows), _minor_plan(n, len(rows))):
        (_, cols, drops), *rest = passes
        minors = map(mul, cols(row), drops(level))
        for op, cols, drops in rest:
            minors = map(op, minors, map(mul, cols(row), drops(level)))
        level = tuple(minors)
    return sum(map(mul, values, level))


# ---------------------------------------------------------------------------
# Operator lifts
# ---------------------------------------------------------------------------


# A term ``(coefficient, flavors, ordered)`` is ``coefficient * sum
# gen(f_1, i_1) ... gen(f_k, i_k)`` over the index tuples of a form entry:
# its increasing tuple, or with ``ordered`` every ordering of it, signed by
# the permutation.
LiftTerm = Tuple[int, Tuple[str, ...], bool]

# Each named lift, defined once as ``(denominator, terms)``; ``lift_<name>``
# and the trace kernels both read it.
LIFT_TERMS: Dict[str, Tuple[int, Tuple[LiftTerm, ...]]] = {
    "two_chat": (1, ((1, ("chat", "chat"), False),)),
    "three_c": (1, ((1, ("c", "c", "c"), False),)),
    "three_mixed": (1, ((1, ("c", "chat", "chat"), True),)),
    # (3/2) three_c - (1/4) three_mixed
    "torsion_assembly": (4, ((6, ("c", "c", "c"), False), (-1, ("c", "chat", "chat"), True))),
    # The flavors follow index order (c on the two lowest indices), so this
    # lift is not frame covariant: it does not commute with signed
    # permutations of the frame.  README's acceptance table gives the
    # consequence for T4 and L4.x and names the covariant alternative, the
    # ordered term (1, ("c", "c", "chat", "chat"), True) over denominator 4.
    "four_mixed": (1, ((1, ("c", "c", "chat", "chat"), False),)),
    "four_chat": (1, ((1, ("chat",) * 4, False),)),
}


@lru_cache(maxsize=None)
def _orderings(degree: int) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
    """Every permutation of ``range(degree)`` with its sign, the identity first."""
    return tuple((perm, _sort_with_sign(perm)[1]) for perm in itertools.permutations(range(degree)))


def _term_blades(n: int, terms: Iterable[LiftTerm], idx: Tuple[int, ...]) -> Dict[int, int]:
    """``{blade: integer coefficient}``: the terms summed on the basis form
    ``e_idx`` (``idx`` increasing, 1-based), zeros dropped."""
    blades: Dict[int, int] = {}
    orderings = _orderings(len(idx))
    for coefficient, flavors, ordered in terms:
        # a monotone term takes the first ordering, the identity
        for perm, perm_sign in orderings if ordered else orderings[:1]:
            key, sign = _generator_blade(n, zip(flavors, (idx[p] for p in perm)))
            _accumulate(blades, key, coefficient if sign == perm_sign else -coefficient)
    return blades


def _lift(form: AntiSymForm, denominator: int, terms: Sequence[LiftTerm]) -> LinearOp:
    """``sum_I form(I) * (the terms on e_I) / denominator``."""
    for _, flavors, _ in terms:
        if len(flavors) != form.degree:
            raise ValueError(f"the lift takes a degree-{len(flavors)} form, got degree {form.degree}")
        for flavor in flavors:
            _check_flavor(flavor)
    blades: Dict[int, object] = {}
    for idx, value in form.entries.items():
        for key, c in _term_blades(form.n, terms, idx).items():
            _accumulate(blades, key, value * Fraction(c, denominator))
    return LinearOp(form.n, blades)


def lift_two_chat(form: AntiSymForm) -> LinearOp:
    """Degree-2 lift ``sum_{k<l} T_{kl} chat_k chat_l``."""
    return _lift(form, *LIFT_TERMS["two_chat"])


def lift_three_c(form: AntiSymForm) -> LinearOp:
    """Degree-3 lift ``sum_{i<s<t} T_{ist} c_i c_s c_t``."""
    return _lift(form, *LIFT_TERMS["three_c"])


def lift_three_mixed(form: AntiSymForm) -> LinearOp:
    """Degree-3 lift ``sum_{i,s,t distinct} T_{ist} c_i chat_s chat_t``."""
    return _lift(form, *LIFT_TERMS["three_mixed"])


def lift_torsion_assembly(form: AntiSymForm) -> LinearOp:
    """The weighted degree-3 lift ``(3/2) lift_three_c - (1/4) lift_three_mixed``."""
    return _lift(form, *LIFT_TERMS["torsion_assembly"])


def lift_four_mixed(form: AntiSymForm) -> LinearOp:
    """Degree-4 lift ``sum_{k<l<a<b} T_{klab} c_k c_l chat_a chat_b`` (not
    frame covariant, see its table entry)."""
    return _lift(form, *LIFT_TERMS["four_mixed"])


def lift_four_chat(form: AntiSymForm) -> LinearOp:
    """Degree-4 lift ``sum_{k<l<a<b} T_{klab} chat_k chat_l chat_a chat_b``."""
    return _lift(form, *LIFT_TERMS["four_chat"])


# ---------------------------------------------------------------------------
# Random sampling and JSON I/O
# ---------------------------------------------------------------------------


def _random_doubled(count: int, rng) -> List[int]:
    """``count`` random entries ``p/q``, ``p`` in ``[-3, 3]`` and ``q`` in
    ``{1, 2}``, each returned doubled as the integer ``2p/q``.

    The stream is read exactly as ``rng.randint(-3, 3)`` then
    ``rng.choice((1, 2))`` read it per entry: ``getrandbits(3)`` drawn again
    while it is 7, then ``getrandbits(2)`` drawn again while it is 2 or 3.
    """
    bits = rng.getrandbits
    doubled = []
    for _ in range(count):
        p = bits(3)
        while p == 7:
            p = bits(3)
        q = bits(2)
        while q > 1:
            q = bits(2)
        doubled.append((p - 3) << (1 - q))
    return doubled


def random_form(n: int, degree: int, rng) -> AntiSymForm:
    """Random form with entries ``p/q``, ``p`` in ``[-3, 3]``, ``q`` in ``{1, 2}``."""
    _check_degree(n, degree)
    basis = itertools.combinations(range(1, n + 1), degree)
    doubled = _random_doubled(comb(n, degree), rng)
    return AntiSymForm(n, degree, {idx: Fraction(x, 2) for idx, x in zip(basis, doubled) if x})


def random_vector(n: int, rng) -> List[Fraction]:
    """Random vector with the same entry distribution as :func:`random_form`."""
    return [Fraction(x, 2) for x in _random_doubled(n, rng)]


def form_from_json(data: Union[dict, str, Path]) -> AntiSymForm:
    """Load a form from a dict, JSON text (``str``), or a JSON file (``Path``).

    Schema: ``{"n": 4, "degree": 3, "entries": [{"idx": [1,2,3], "value": "3/2"}]}``
    with 1-based indices and rational values given as strings or integers.
    Raises ``ValueError`` on any other shape.
    """
    data = _load_json(data)
    items = data.get("entries", [])
    if not isinstance(items, list):
        raise ValueError(f'"entries" must be a list, got {items!r}')
    entries: Dict[Tuple[int, ...], object] = {}
    for item in items:
        if not (isinstance(item, dict) and isinstance(item.get("idx"), list) and "value" in item):
            raise ValueError(f'each entry must be {{"idx": [...], "value": ...}}, got {item!r}')
        idx = tuple(_as_int(j, "an index") for j in item["idx"])
        entries[idx] = _as_fraction(item["value"], "a value")
    return AntiSymForm(_as_int(data.get("n"), '"n"'), _as_int(data.get("degree"), '"degree"'), entries)


def vectors_from_json(data: Union[dict, str, Path]) -> List[List[Fraction]]:
    """Load vectors from ``{"vectors": [["1", "0", "-1/2", "0"], ...]}``.

    Raises ``ValueError`` on any other shape.
    """
    vectors = _load_json(data).get("vectors")
    if not isinstance(vectors, list) or not all(isinstance(vec, list) for vec in vectors):
        raise ValueError(f'"vectors" must be a list of lists, got {vectors!r}')
    return [[_as_fraction(x, "a vector entry") for x in vec] for vec in vectors]


def _over_digit_limit(text: str) -> bool:
    """Whether a run of digits in ``text`` (``_`` separators aside) is longer
    than ``int`` converts, ``sys.get_int_max_str_digits()`` (0 for no limit)."""
    limit = sys.get_int_max_str_digits()
    return bool(limit) and any(len(run) > limit for run in re.findall(r"\d+", text.replace("_", "")))


def _as_int(value: object, what: str) -> int:
    """An integer given as a JSON integer or a decimal string; never a
    truncated float.  A string of more digits than
    ``sys.get_int_max_str_digits()`` is refused, naming the limit."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return int(value)
        except ValueError:
            if _over_digit_limit(value):
                limit = sys.get_int_max_str_digits()
                raise ValueError(f"{what} must be an integer of at most {limit} digits, got {value!r}") from None
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _as_fraction(value: object, what: str) -> Fraction:
    """An exact rational given as a JSON number or a string such as ``"-3/2"``.

    A decimal exponent past ``sys.get_int_max_str_digits()`` in magnitude,
    or written with more digits than that, is refused, naming the limit,
    before ``Fraction`` forms its power of ten, as a longer run of digits is
    once ``Fraction`` refuses it; a limit of 0 turns the checks off.
    """
    text = str(value)
    limit = sys.get_int_max_str_digits()
    try:
        _, marker, exponent = text.lower().partition("e")
        if not (marker and limit and (_over_digit_limit(exponent) or abs(int(exponent)) > limit)):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        if _over_digit_limit(text):
            raise ValueError(f"{what} must have at most {limit} digits in a row, got {value!r}") from None
        raise ValueError(f"{what} must be a rational number, got {value!r}") from None
    raise ValueError(f"{what} must have a decimal exponent of at most {limit} in magnitude, got {value!r}")


def _load_json(data: Union[dict, str, Path]) -> dict:
    """A ``Path`` names a JSON file and a ``str`` is JSON text."""
    try:
        if isinstance(data, Path):
            with open(data, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        elif isinstance(data, str):
            data = json.loads(data)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object at the top level, got {type(data).__name__}")
    return data
