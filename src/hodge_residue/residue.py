"""Interior spectral form/torsion functionals and the trace-identity checker.

The five interior functionals are pointwise residue densities of the form

``prefactor * integral_{S^{2m-1}} tr( W(args) . [ lift(T) + m * sum_{i,j}
(c_i lift(T) + lift(T) c_i) c_j xi_i xi_j ] ) dS``

where ``W(args)`` is a word of Clifford actions of the argument vectors and
``lift(T)`` the operator lift of the torsion form.  The cosphere integral is
``V(S^{2m-1})`` times one trace of ``W(args)`` against the lift with each
blade scaled by the ``"interior"`` weight of its grade
(:func:`~hodge_residue.symbols._grade_weight`); the sandwiched trace
identities are the same trace with the ``"before"`` or ``"after"`` weights,
and the plain ones with the lift itself.

Every such trace ``tr(W(u_1 ... u_k) . P(lift(T)))`` is multilinear in the
form and in each vector: at each ``n`` a sparse integer tensor of the plain
trace, whose coefficients depend only on the order type of their index
tuple.  So each shape (word, lift) is compiled once per process
(:func:`_table`) into the n-free :class:`KernelTable` ``{(r, I ranks, j
ranks): c}``, from the lift's integer blades on basis forms at ``n0 <= 4``
(:data:`~hodge_residue.forms.LIFT_TERMS`) and the letter paths that fold
each blade to the empty blade.  Each blade a kernel traces has one grade
class, so a placement ``P`` scales the trace by one weight,
:meth:`KernelTable.weight`.  The compile also decides, once, the kernel's
exact ratio ``kappa`` to the shape's unit, its tensor against the unit's
type by type (:func:`_ratio`, :func:`_unit_table`), or that it is no
multiple of it (``four_mixed``); only such a kernel is expanded at ``n``
(:func:`_contraction`).  No form, operator or Clifford word is built here.

:func:`lemma_check` verifies the trace identities of :data:`LEMMA_CHECKS`,
and each row's ``ratio`` is the one place its expected value is stated.  A
functional's closed-form coefficient is assembled from those rows
(:func:`closed_form_coefficient`).  :func:`verify_theorem` compares the
engine's exact density against ``coefficient * T(args)``.  Their trials, and
those of :func:`~hodge_residue.boundary.verify_boundary`, run in
:func:`_trial_loop` on integers: ``kappa`` decides every status before any
trial, and the trials only pick the values a report shows.  Every check is
exact: when the engine's exact value disagrees with a tabulated closed form,
the report carries both values verbatim; nothing is softened to a tolerance
or auto-corrected.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from operator import itemgetter, mul
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import forms
from .exterior import FLAVORS, MAX_DIMENSION, LinearOp, _check_n, _generator_key, _product_signs
from .forms import LIFT_TERMS, AntiSymForm, _minor_contract, _orderings, _random_doubled, _reader, _term_blades
from .scalars import GaussianRational, I, ONE, SymbolicScalar, _reduced, sphere_volume
from .symbols import _grade_weight


def _symbol_order(m: int) -> int:
    """``n = 2m``, by the one rule for every symbol order ``m``: an ``int``
    with ``2 <= m <= MAX_DIMENSION // 2``, so that ``n`` is a dimension."""
    if not isinstance(m, int) or isinstance(m, bool):
        raise ValueError(f"m must be an int, got {m!r}")
    if m < 2:
        raise ValueError("m must be >= 2")
    if m > MAX_DIMENSION // 2:
        raise ValueError(f"m must be <= {MAX_DIMENSION // 2} (n = 2m <= {MAX_DIMENSION}), got {m}")
    return 2 * m


def _check_trials(trials: int) -> None:
    """The one rule for a check's trial count: an ``int`` ``>= 1``."""
    if not isinstance(trials, int) or isinstance(trials, bool):
        raise ValueError(f"trials must be an int, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")


# ---------------------------------------------------------------------------
# Trace kernels
# ---------------------------------------------------------------------------


def _letter_paths(n: int, flavors: Sequence[str], key: int,
                  signs: Sequence[int]) -> List[Tuple[Tuple[int, ...], int]]:
    """``[(js, sign)]`` with ``gen(f_1, j_1) ... gen(f_k, j_k) e_key = sign``
    (0-based ``js``); every other index tuple leaves no scalar part.

    ``signs[b]`` is :func:`~hodge_residue.exterior._product_signs` of the
    generator with bit ``b``.  The letters are folded onto ``e_key`` from the
    right.  A letter flips one bit in its own flavor's half of the key, so a
    path can still reach the empty blade only while each half has at most as
    many set bits as letters of that flavor remain, with the same parity;
    when they are equal, the letter must clear a set bit.
    """
    low = (1 << n) - 1
    left = {flavor: 0 for flavor in FLAVORS}
    for flavor in flavors:
        left[flavor] += 1
    for flavor, offset in (("c", 0), ("chat", n)):
        bits = ((key >> offset) & low).bit_count()
        if bits > left[flavor] or (left[flavor] - bits) & 1:
            return []
    paths = [(key, 1, ())]
    for flavor in reversed(flavors):
        offset = 0 if flavor == "c" else n
        forced = left[flavor]
        left[flavor] -= 1
        extended = []
        for key, sign, js in paths:
            half = (key >> offset) & low
            if half.bit_count() == forced:
                choices = []
                while half:
                    bit = half & -half
                    choices.append(bit.bit_length() - 1)
                    half ^= bit
            else:
                choices = range(n)
            for j in choices:
                odd = (signs[offset + j] & key).bit_count() & 1
                extended.append((key ^ (1 << (offset + j)), -sign if odd else sign, (j,) + js))
        paths = extended
    return [(js, sign) for _, sign, js in paths]


def _traceable(word: Sequence[str], flavors: Sequence[str]) -> bool:
    """:func:`_letter_paths`' first check for every blade of a lift term with
    these flavors: its indices are distinct, so each blade sets as many bits
    in each half as the term has letters of that flavor."""
    return all(word.count(f) >= flavors.count(f) and (word.count(f) - flavors.count(f)) % 2 == 0 for f in FLAVORS)


def _integer_scaled(values: Sequence) -> Tuple[List[int], int]:
    """``(q * values, q)`` as integers, with ``q`` the lcm of the denominators
    of the rational ``values``; the first that is not an ``int`` or a
    ``Fraction`` raises ``ValueError``."""
    for x in values:
        if not isinstance(x, (int, Fraction)):
            raise ValueError(f"trace inputs must be int or Fraction, got {x!r}")
    q = lcm(*(x.denominator for x in values))
    return [x.numerator * (q // x.denominator) for x in values], q


def _scaled_rows(n: int, form: Optional[AntiSymForm], vectors: Sequence[Sequence]) -> Tuple[List[List[int]], int]:
    """A trace's rows, the form's values in basis order (``[1]`` for ``None``)
    and the vectors, each scaled to integers, and the product of the scales.
    The first value that is not an ``int`` or a ``Fraction`` raises
    ``ValueError``."""
    rows, scale = [[1]], 1
    if form is not None:
        basis = itertools.combinations(range(1, n + 1), form.degree)
        rows[0], scale = _integer_scaled([form.entries.get(idx, 0) for idx in basis])
    for u in vectors:
        ints, q = _integer_scaled(u)
        rows.append(ints)
        scale *= q
    return rows, scale


def _lift_degree(lift: Optional[str]) -> Optional[int]:
    """The degree of the form a lift takes, the length of its table terms;
    ``None`` for the identity and ``"normal_c"``, which take no form."""
    if lift not in LIFT_TERMS:
        return None
    _, terms = LIFT_TERMS[lift]
    return len(terms[0][1])


class KernelTable(NamedTuple):
    """A shape's trace kernel at every ``n`` at once, by order type.

    An entry's coefficient depends only on the order type of its index tuple
    (README's invariance lemma), so ``types`` maps ``(r, I ranks, j ranks)``
    to the integer coefficient: ``r`` distinct indices, and each index of
    ``I`` and of the letters ``j_1 ... j_k`` as its rank among them.  With
    ``pinned`` (the ``"normal_c"`` lift, the blade ``c_n``) the top rank is
    the index ``n`` itself.  ``letters``, ``degree``, ``denominator`` and
    ``grade`` are the kernel's at every ``n`` where it has an entry, and
    ``kappa`` its ratio to the :func:`_unit` kind ``unit`` at every ``n >= 4``
    (``None`` for no multiple of it), both fixed by :func:`_table`.
    """

    letters: int
    degree: int
    denominator: int
    grade: Optional[Tuple[int, int]]
    pinned: bool
    types: Mapping[Tuple[int, Tuple[int, ...], Tuple[int, ...]], int]
    unit: str
    kappa: Optional[int | Fraction]

    def weight(self, placement: str, n: int, m: int = 1) -> Fraction:
        """The factor by which a placement ``P`` scales the trace at ``n``,
        ``tr(W . P(lift(T))) / tr(W . lift(T))``: 1 for ``"plain"``; for
        ``"before"``, ``"after"`` and ``"interior"`` (at symbol order ``m``)
        :func:`~hodge_residue.symbols._grade_weight` of :attr:`grade`, 0 where
        no type has ``r <= n``.  Any other placement raises ``ValueError``."""
        if placement == "plain":
            return Fraction(1)
        has_entry = any(r <= n for r, _, _ in self.types)
        return _grade_weight(n, placement, m, self.grade if has_entry else None)

    def expand(self, n: int) -> Callable[[Sequence[Sequence[int]]], int]:
        """The kernel's integer contraction at ``n``, ``rows -> sum c *
        rows[0][I] * rows[1][j_1] ... rows[k][j_k]`` (the form's values in
        basis order, ``[1]`` for degree 0, then the letters' vectors), the
        trace over ``2^n / denominator``.  Each type with ``r <= n`` is placed
        at every increasing ``r``-subset of ``range(n)`` (of ``range(n - 1)``,
        then ``n - 1``, when pinned); one C-level call reads each column."""
        slot_of = {idx: slot for slot, idx in enumerate(itertools.combinations(range(n), self.degree))}
        columns: List[List[int]] = [[] for _ in range(self.letters + 1)]
        coeffs: List[int] = []
        for (r, idx, js), c in self.types.items():
            # no subset when r > n
            if self.pinned:
                subsets = [s + (n - 1,) for s in itertools.combinations(range(n - 1), r - 1)]
            else:
                subsets = list(itertools.combinations(range(n), r))
            columns[0].extend(map(slot_of.__getitem__, map(_reader(idx), subsets)) if idx else [0] * len(subsets))
            for column, j in zip(columns[1:], js):
                column.extend(map(itemgetter(j), subsets))
            coeffs.extend([c] * len(subsets))
        reads = tuple(map(_reader, columns)) if coeffs else ()

        def contract(rows: Sequence[Sequence[int]]) -> int:
            products = coeffs
            for read, row in zip(reads, rows):
                products = map(mul, products, read(row))
            return sum(products)

        return contract


@lru_cache(maxsize=None)
def _table(word_flavors: Tuple[str, ...], lift: Optional[str]) -> KernelTable:
    """The order-type table of a shape, once per shape and process.

    An entry's letters cancel each of the lift's ``b`` blade generators and
    pair up the other ``k - b`` with a same-flavor letter at the same index,
    so it uses at most ``n0 = b + (k - b) // 2`` distinct indices, and every
    type appears at ``n0``.  There the lift is read as blades on each basis
    form ``e_I``: a :data:`~hodge_residue.forms.LIFT_TERMS` key's terms that
    the word can trace (:func:`~hodge_residue.forms._term_blades`), the
    blade ``c_n`` for ``"normal_c"`` or the empty blade for ``None`` (the
    identity).  :func:`_letter_paths` folds each blade to the empty blade
    (trace = ``2^n`` times the identity coefficient); a path is kept by its
    ranks (its indices, when ``e_I`` uses all ``n0``).  Blades of two grade
    classes raise ``ValueError``.  ``kappa`` is decided on every type against
    the unit the shape's :data:`LEMMA_CHECKS` rows state (else ``"form"``):
    all have ``r <= 4``, so it holds at every ``n >= 4``, where checks run."""
    degree = _lift_degree(lift) or 0
    b = 1 if lift == "normal_c" else degree
    k = len(word_flavors)
    n = b + (k - b) // 2
    denominator = 1
    if lift is None:
        inputs = [((), {0: 1})]
    elif lift == "normal_c":
        inputs = [((), {_generator_key("c", n, n): 1})]
    else:
        denominator, terms = LIFT_TERMS[lift]
        traced = [term for term in terms if _traceable(word_flavors, term[1])]
        inputs = [(idx, _term_blades(n, traced, idx)) for idx in itertools.combinations(range(1, n + 1), degree)]
    signs = [_product_signs(n, 1 << bit) for bit in range(2 * n)]
    low = (1 << n) - 1
    types, grades = {}, set()
    for idx, blades in inputs:
        base = tuple(i - 1 for i in idx)
        for key, coeff in blades.items():
            paths = _letter_paths(n, word_flavors, key, signs)
            if paths:
                grades.add(((key & low).bit_count(), key.bit_count() & 1))
            for js, sign in paths:
                c = coeff if sign > 0 else -coeff
                if len(base) == n:
                    types[n, base, js] = c
                    continue
                rank = {i: p for p, i in enumerate(sorted({*base, *js}))}
                types[len(rank), tuple(map(rank.get, base)), tuple(map(rank.get, js))] = c
    if len(grades) > 1:
        raise ValueError(f"the traced blades span the grade classes {sorted(grades)}, not one")
    unit = next((row.unit for row in LEMMA_CHECKS.values() if row.word_flavors == word_flavors and row.lift == lift),
                "form")
    table = KernelTable(k, degree, denominator, grades.pop() if grades else None, lift == "normal_c",
                        MappingProxyType(types), unit, None)
    return table._replace(kappa=_ratio(table, unit, MAX_DIMENSION))


@lru_cache(maxsize=None)
def _contraction(word_flavors: Tuple[str, ...], lift: Optional[str], n: int) -> Callable:
    """The :meth:`KernelTable.expand` at ``n`` of a shape with no ``kappa``, once per shape, ``n`` and process."""
    return _table(word_flavors, lift).expand(n)


def _trace(shape: Tuple[Tuple[str, ...], Optional[str], int], form: Optional[AntiSymForm],
           vectors: Sequence[Sequence]) -> Fraction:
    """The plain trace of a shape ``(word, lift, n)`` on a form (``None`` for
    degree 0) and vectors: ``2^n kappa / D`` times their :func:`_unit` of the
    table's unit kind when the :func:`_table` has ``kappa``, else
    (``four_mixed``) the kernel's :func:`_contraction`.  Its callers have
    checked ``n``."""
    word, lift, n = shape
    table = _table(word, lift)
    rows, scale = _scaled_rows(n, form, vectors)
    if table.kappa is None:
        return Fraction(_contraction(word, lift, n)(rows) << n, table.denominator * scale)
    return table.kappa * Fraction(_unit(table.unit, rows[0], rows[1:]) << n, table.denominator * scale)


def _unit_table(kind: str, degree: int) -> Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], int]:
    """:func:`_unit` by order type, in the layout of :attr:`KernelTable.types`:
    ``"form"`` is ``sgn s`` at ``(I, s(I))``, ``"metric"`` ``<u, v>``'s one
    type, and the boundary kinds :func:`boundary_contraction`'s terms with
    the top rank pinned to ``n``, summed where they meet (``j = n``)."""
    if kind == "form":
        return {(degree, tuple(range(degree)), perm): sign for perm, sign in _orderings(degree)}
    if kind == "metric":
        return {(1, (), (0, 0)): 1}
    if kind not in ("psi1", "psi2"):
        raise ValueError(f"unknown unit kind {kind!r}")
    table = {(1, (), (0, 0, 0)): 1, (2, (), (1, 0, 0)): 1}
    if kind == "psi1":
        table.update({(2, (), (0, 1, 0)): -1, (2, (), (0, 0, 1)): 1})
    return table


def _ratio(table: KernelTable, unit: str, n: int) -> Optional[int | Fraction]:
    """The exact ``kappa`` (an ``int`` when integral) with ``K = kappa U`` at
    ``n``, else ``None``: the kernel's tensor against the unit kind's, type by
    type on :func:`_unit_table` over the types with ``r <= n`` (each expands
    to keys of its own), so the kernel contracts rows to ``kappa`` :func:`_unit`."""
    expected = {key: u for key, u in _unit_table(unit, table.degree).items() if key[0] <= n}
    engine = dict.fromkeys(expected, 0)
    engine.update((key, c) for key, c in table.types.items() if key[0] <= n)
    k0, u0 = next(((engine[key], u) for key, u in expected.items()), (0, 1))
    if any(c * u0 != k0 * expected.get(key, 0) for key, c in engine.items()):
        return None
    return k0 // u0 if k0 % u0 == 0 else Fraction(k0, u0)


# ---------------------------------------------------------------------------
# Functional table
# ---------------------------------------------------------------------------


class FunctionalSpec(NamedTuple):
    """Static description of one interior functional."""

    functional_id: str
    arg_flavors: Tuple[str, ...]
    lift_kind: str  # key into forms.LIFT_TERMS
    prefactor: GaussianRational

    @property
    def torsion_degree(self) -> int:
        return _lift_degree(self.lift_kind)

    @property
    def lift(self) -> Callable[[AntiSymForm], LinearOp]:
        """The named operator lift ``forms.lift_<lift_kind>``."""
        return getattr(forms, f"lift_{self.lift_kind}")


FUNCTIONALS: Dict[str, FunctionalSpec] = {
    "T1": FunctionalSpec("T1", ("chat", "chat"), "two_chat", I),
    "T2": FunctionalSpec("T2", ("c", "c", "c"), "torsion_assembly", ONE),
    "T3": FunctionalSpec("T3", ("c", "chat", "chat"), "torsion_assembly", ONE),
    "T4": FunctionalSpec("T4", ("c", "c", "chat", "chat"), "four_mixed", I),
    "T5": FunctionalSpec("T5", ("chat",) * 4, "four_chat", I),
}


class CheckReport(NamedTuple):
    """Result of one randomized exact check."""

    check_id: str
    n: int
    trials: int
    status: str  # "pass" | "fail"
    computed: str
    expected: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "id": self.check_id,
            "n": self.n,
            "trials": self.trials,
            "status": self.status,
            "computed": self.computed,
            "expected": self.expected,
        }


def _comparison(placement: str, key: tuple, value: GaussianRational, expected: SymbolicScalar) -> tuple:
    """The :func:`_trial_loop` comparison of ``value`` times the unit ``key`` with a closed form that must be a
    multiple of that unit (0 is one of any); ``ValueError`` names the unit if it is not."""
    if value and expected and expected.key != key:
        raise ValueError(f"the closed form is not a multiple of {SymbolicScalar(1, key).unit_text()}")
    return placement, key, value.triple, expected.coeff.triple


def _sides(value: Tuple[int, int, int], expected: Tuple[int, int, int], denominator: int) -> Tuple[int, int, int, int]:
    """``(re_left, re_right, im_left, im_right)``: with ``value = (pa + pb i) / pd`` and ``expected = (qa + qb
    i) / qd``, ``value * c / D == expected * unit`` exactly when ``c * (pa qd) == unit * (qa pd D)`` and ``c *
    (pb qd) == unit * (qb pd D)``."""
    (pa, pb, pd), (qa, qb, qd) = value, expected
    return pa * qd, qa * pd * denominator, pb * qd, qb * pd * denominator


def _shown(triple: Tuple[int, int, int], scale: int | Fraction, divisor: int, key: tuple) -> SymbolicScalar:
    """``triple * scale / divisor`` in the unit ``key``, a value a report shows."""
    (a, b, d), top = triple, scale.numerator
    return SymbolicScalar(_reduced(a * top, b * top, d * scale.denominator * divisor), key)


def _trial_loop(check_id: str, trials: int, rng_label: str, shape: Tuple[Tuple[str, ...], Optional[str], int],
                comparisons: Sequence[tuple], form_first: bool = False) -> Tuple[CheckReport, Optional[Fraction]]:
    """The trials of every randomized check, decided in integers.

    ``trials`` that fail :func:`_check_trials` raise ``ValueError`` before
    the :func:`_table` of ``shape`` ``(word, lift, n)`` is looked up; the
    callers have checked ``n``.  One ``random.Random(rng_label)`` stream feeds
    every trial, which draws by :func:`~hodge_residue.forms._random_doubled`
    one vector per letter and the form's ``C(n, degree)`` values (none for
    degree 0), the form first when ``form_first``, else last.  These integer
    rows are the kernel's, and ``base`` is :func:`_unit` of the table's unit
    kind on them.  A comparison ``(placement, key, value, expected)`` (see
    :func:`_comparison`) holds two integer triples ``(a, b, d)``, coefficients
    ``(a + b i) / d`` of the unit keyed ``key``: the engine side ``value *
    weight * t / D``, with ``weight = p / q`` the placement's
    :meth:`KernelTable.weight` at symbol order ``n // 2``, ``t`` the
    contracted kernel and ``D`` its denominator, is ``value * c / (D q)`` for
    ``c = p t``, against ``expected * base``; :func:`_sides` makes that integer
    identities.  Both sides are linear in each of the ``r = letters +
    bool(degree)`` doubled rows, so ``2^r`` cancels but in the values shown.

    The status is decided before any trial.  With the table's ``kappa`` (or 0
    when every weight is 0), ``t = kappa * base``, and a comparison holds
    exactly when ``p kappa re_left == re_right`` and ``p kappa im_left ==
    im_right``.  Without it (no multiple of the unit), a comparison holds
    exactly when both its sides are 0.  The trials only choose the values the
    report shows, the only ``SymbolicScalar``s built, and stop there
    (``trials`` is the budget): a failure's first disagreeing comparison, or a
    pass's first with a nonzero expected side on the first trial whose ``base``
    is not 0; only a kernel with no ``kappa`` is contracted (:func:`_contraction`).
    With no such trial both values show ``"0"``, and a failure's detail says
    no trial separated the sides.  Returns the report and ``kappa / D``.
    """
    _check_trials(trials)
    word, lift, n = shape
    table = _table(word, lift)
    weights = [table.weight(placement, n, n // 2) for placement, _, _, _ in comparisons]
    # every weight 0 makes the engine side 0, whatever the kernel
    kappa = table.kappa if any(weights) else 0
    contract = _contraction(word, lift, n) if kappa is None else None
    checks, failed = [], False
    for weight, (placement, key, value, expected) in zip(weights, comparisons):
        p, denominator = weight.numerator, table.denominator * weight.denominator
        re_left, re_right, im_left, im_right = sides = _sides(value, expected, denominator)
        if kappa is None:  # K is no multiple of U, so only 0 = 0 holds
            holds = not (p and (re_left or im_left) or re_right or im_right)
        else:
            holds = p * kappa * re_left == re_right and p * kappa * im_left == im_right
        failed = failed or not holds
        checks.append((placement, p, denominator, key, value, expected, sides))
    r = table.letters + bool(table.degree)
    size = comb(n, table.degree) if table.degree else 0
    rng = random.Random(rng_label)
    shown: Optional[Tuple[SymbolicScalar, SymbolicScalar, str]] = None
    for trial in range(trials):
        form = _random_doubled(size, rng) if form_first else None
        vectors = [_random_doubled(n, rng) for _ in range(table.letters)]
        if not form_first:
            form = _random_doubled(size, rng)
        base = _unit(table.unit, form, vectors)
        if not (failed or base):
            continue
        t = contract([form or (1,), *vectors]) if kappa is None else kappa * base
        for placement, p, denominator, key, value, expected, (re_left, re_right, im_left, im_right) in checks:
            c = p * t
            disagrees = c * re_left != base * re_right or c * im_left != base * im_right
            # a failure shows its first disagreeing comparison, a pass its first nonzero one
            if disagrees if failed else re_right or im_right:
                where = f"trial {trial}" + (f", {placement} placement" if len(checks) > 1 else "")
                shown = (_shown(value, c, denominator << r, key), _shown(expected, base, 1 << r, key),
                         f"comparisons disagree; first at {where}" if failed else "")
                break
        if shown or not failed:
            break
    engine_side, expected_side, detail = shown or (
        SymbolicScalar(), SymbolicScalar(), "comparisons disagree; no trial separated the sides" if failed else "")
    report = CheckReport(check_id, n, trials, "fail" if failed else "pass", engine_side.render(),
                         expected_side.render(), detail)
    return report, None if kappa is None else Fraction(kappa, table.denominator)


def _resolve_functional(functional_id: str) -> FunctionalSpec:
    try:
        return FUNCTIONALS[functional_id]
    except KeyError:
        raise ValueError(f"unknown functional id {functional_id!r}") from None


def _density_spec(spec, T: AntiSymForm, vectors: Sequence[Sequence], m: int) -> FunctionalSpec:
    """The functional's spec, after checking the density's arguments."""
    fspec = _resolve_functional(spec)
    if not isinstance(T, AntiSymForm):
        raise ValueError(f"{fspec.functional_id} needs a degree-{fspec.torsion_degree} form, got {T!r}")
    n = T.n
    if n != _symbol_order(m):
        raise ValueError(f"need n = 2m >= 4; got n={n}, m={m}")
    if T.degree != fspec.torsion_degree:
        raise ValueError(
            f"{fspec.functional_id} needs a degree-{fspec.torsion_degree} form, got degree {T.degree}"
        )
    if len(vectors) != len(fspec.arg_flavors):
        raise ValueError(
            f"{fspec.functional_id} takes {len(fspec.arg_flavors)} vectors, got {len(vectors)}"
        )
    for u in vectors:
        if len(u) != n:
            raise ValueError("argument vector length must equal n")
    return fspec


def spectral_density(spec, T: AntiSymForm, vectors: Sequence[Sequence], m: int) -> SymbolicScalar:
    """Exact pointwise density of the functional on the given arguments.

    Returns a GaussianRational multiple of ``V(S^{2m-1})``.
    """
    fspec = _density_spec(spec, T, vectors, m)
    shape = (fspec.arg_flavors, fspec.lift_kind)
    value = _trace((*shape, T.n), T, vectors) * _table(*shape).weight("interior", T.n, m)
    return sphere_volume(T.n - 1) * (fspec.prefactor * value)


def _assembly(fspec: FunctionalSpec) -> List[Tuple[Fraction, LemmaSpec]]:
    """``[(alpha, row)]``, the :data:`LEMMA_CHECKS` rows a functional's
    coefficient is assembled from: each term ``(c, flavors, ordered)`` of its
    lift, over the denominator ``D``, is ``alpha = (c / D) / (c1 / D1)`` times
    the one-term lift ``(c1, flavors, ordered)`` over ``D1``, whose rows are
    those with the functional's word (``torsion_assembly`` is ``3/2``
    ``three_c`` and ``-1/4`` ``three_mixed``; each other lift is one term)."""
    denominator, terms = LIFT_TERMS[fspec.lift_kind]
    one_term = {(flavors, ordered): (lift, c1, d1)
                for lift, (d1, ((c1, flavors, ordered), *others)) in LIFT_TERMS.items() if not others}
    rows = []
    for coefficient, flavors, ordered in terms:
        lift, c1, d1 = one_term[flavors, ordered]
        alpha = Fraction(coefficient * d1, denominator * c1)
        rows += [(alpha, row) for row in LEMMA_CHECKS.values()
                 if row.word_flavors == fspec.arg_flavors and row.lift == lift]
    return rows


def closed_form_coefficient(functional_id: str, m: int) -> SymbolicScalar:
    """Tabulated closed-form coefficient of the functional at symbol order m.

    The density is claimed to equal ``coefficient * T(args)`` with the
    coefficient a multiple of ``V(S^{2m-1})``: ``prefactor * 2^{2m}`` times
    ``alpha * ratio`` summed over the rows of :func:`_assembly`, once for a
    ``plain`` placement and ``m`` times for a ``before`` or ``after`` one,
    as the interior weight is ``1 + m (before + after)``.
    """
    n = _symbol_order(m)
    fspec = _resolve_functional(functional_id)
    # one integer sum over a common denominator: a sum of Fractions costs about
    # five times as much, on every theorem check
    num, den = 0, 1
    for alpha, row in _assembly(fspec):
        weight = sum(1 if placement == "plain" else m for placement in row.placements)
        q = alpha.denominator * row.ratio.denominator
        num, den = num * q + alpha.numerator * row.ratio.numerator * weight * den, den * q
    return SymbolicScalar.unit(fspec.prefactor * Fraction(num << n, den), spheres=(n - 1,))


def density_decomposition(spec, T: AntiSymForm, vectors: Sequence[Sequence], m: int) -> Dict[str, SymbolicScalar]:
    """Split the density into its zero-order and per-m sandwich parts.

    Returns ``{"zero_order", "sandwich_per_m", "total"}`` with
    ``total = zero_order + m * sandwich_per_m`` (prefactor applied to all):
    one trace, times the weights of the ``"before"`` and ``"after"``
    placements for the sandwich part.
    """
    fspec = _density_spec(spec, T, vectors, m)
    shape = (fspec.arg_flavors, fspec.lift_kind)
    zero = sphere_volume(T.n - 1) * (fspec.prefactor * _trace((*shape, T.n), T, vectors))
    sandwich = zero * (_table(*shape).weight("before", T.n) + _table(*shape).weight("after", T.n))
    return {
        "zero_order": zero,
        "sandwich_per_m": sandwich,
        "total": zero + m * sandwich,
    }


def verify_theorem(functional_id: str, m: int, trials: int = 20, seed: int = 0) -> CheckReport:
    """Compare the exact density against the closed-form coefficient table.

    Draws random small-rational forms and vectors; every trial must satisfy
    ``spectral_density == closed_form_coefficient * form_contract`` exactly.
    The trials run in :func:`_trial_loop` on the density's kernel shape,
    which draws the form, then the vectors, doubled and undoes the doubling.
    An unknown id or a bad ``m`` or ``trials`` raises ``ValueError`` before
    anything is compiled.
    """
    fspec = _resolve_functional(functional_id)
    n = _symbol_order(m)
    # the interior trace is V(S^{n-1}) weight * 2^n c / D
    comparison = _comparison("interior", sphere_volume(n - 1).key, fspec.prefactor * (1 << n),
                             closed_form_coefficient(fspec.functional_id, m))
    return _trial_loop(fspec.functional_id, trials, f"{seed}:theorem:{fspec.functional_id}:{m}",
                       (fspec.arg_flavors, fspec.lift_kind, n), [comparison], form_first=True)[0]


# ---------------------------------------------------------------------------
# Lemma dispatch
# ---------------------------------------------------------------------------


class LemmaSpec(NamedTuple):
    """One dispatch entry of the trace-identity checker.

    ``placements`` lists the sandwich variants the identity covers, in their
    print order: ``plain`` is the bare trace ``tr(W L)``; ``before`` places
    the two ``c(xi)`` factors around the lift, ``after`` places both to its
    right; sandwiched variants are integrated over the unit cosphere, so
    their closed forms carry ``V(S^{n-1})``.  ``ratio`` is the closed form's
    signed multiple of ``unit * Tr(Id)``, the same for every placement: each
    sign is stated here, none is decided by a run, and the theorem and
    boundary coefficients are assembled from these ratios.
    """

    lemma_id: str
    word_flavors: Tuple[str, ...]
    lift: Optional[str]  # key into forms.LIFT_TERMS; None = identity; "normal_c" = c(dx_n)
    placements: Tuple[str, ...]
    ratio: Fraction
    unit: str = "form"  # a _unit kind: form | metric | psi1 | psi2

    @property
    def form_degree(self) -> Optional[int]:
        return _lift_degree(self.lift)


LEMMA_CHECKS: Dict[str, LemmaSpec] = {
    spec.lemma_id: spec
    for spec in [
        LemmaSpec("L2.4", ("chat", "chat"), "two_chat", ("plain",), Fraction(-1)),
        LemmaSpec("L2.5", ("chat", "chat"), "two_chat", ("before", "after"), Fraction(1)),
        LemmaSpec("L3.4a", ("c", "c", "c"), "three_c", ("plain",), Fraction(1)),
        LemmaSpec("L3.4b", ("c", "c", "c"), "three_mixed", ("plain",), Fraction(0)),
        LemmaSpec("L3.5", ("c", "c", "c"), "three_mixed", ("before", "after"), Fraction(0)),
        LemmaSpec("L3.6a", ("c", "c", "c"), "three_c", ("after",), Fraction(-1)),
        LemmaSpec("L3.6b", ("c", "c", "c"), "three_c", ("before",), Fraction(-5)),
        LemmaSpec("L3.7a", ("c", "chat", "chat"), "three_mixed", ("plain",), Fraction(-2)),
        LemmaSpec("L3.7b", ("c", "chat", "chat"), "three_c", ("plain",), Fraction(0)),
        LemmaSpec("L3.8", ("c", "chat", "chat"), "three_c", ("after", "before"), Fraction(0)),
        LemmaSpec("L3.9", ("c", "chat", "chat"), "three_mixed", ("before", "after"), Fraction(2)),
        LemmaSpec("L4.5", ("c", "c", "chat", "chat"), "four_mixed", ("plain",), Fraction(-1, 6)),
        LemmaSpec("L4.6a", ("c", "c", "chat", "chat"), "four_mixed", ("before",), Fraction(-1, 2)),
        LemmaSpec("L4.6b", ("c", "c", "chat", "chat"), "four_mixed", ("after",), Fraction(1, 6)),
        LemmaSpec("L4.7", ("chat",) * 4, "four_chat", ("plain",), Fraction(1)),
        LemmaSpec("L4.8", ("chat",) * 4, "four_chat", ("before", "after"), Fraction(-1)),
        LemmaSpec("B5.8", ("c", "c", "c"), "normal_c", ("plain",), Fraction(1), unit="psi1"),
        LemmaSpec("B5.10", ("c", "chat", "chat"), "normal_c", ("plain",), Fraction(-1), unit="psi2"),
        # the paper's +1 rests on its sign of c; here c(u)^2 = -|u|^2, so c(u)c(v)
        # + c(v)c(u) = -2<u, v> and, by cyclicity, tr c(u)c(v) = -<u, v> 2^n
        LemmaSpec("M6.2", ("c", "c"), None, ("plain",), Fraction(-1), unit="metric"),
    ]
}

# Individual a/b aliases, in placement order, for identities whose two
# variants share one closed form: L2.5a is L2.5 before, L3.8a is L3.8 after.
_LEMMA_ALIASES: Dict[str, Tuple[str, str]] = {
    spec.lemma_id + suffix: (spec.lemma_id, placement)
    for spec in LEMMA_CHECKS.values() if len(spec.placements) == 2
    for suffix, placement in zip("ab", spec.placements)
}


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def boundary_contraction(flavor: str, u: Sequence, v: Sequence, w: Sequence):
    """The vector contraction each boundary density is proportional to."""
    n = len(u)
    gvw = _dot(v, w)
    if flavor == "psi1":
        return u[n - 1] * gvw - v[n - 1] * _dot(u, w) + w[n - 1] * _dot(u, v)
    if flavor == "psi2":
        return u[n - 1] * gvw
    raise ValueError(f"flavor must be psi1 or psi2, got {flavor!r}")


def _unit(kind: str, form: Sequence[int], vectors: Sequence[Sequence[int]]) -> int:
    """The unit of a kind on one trial's integer inputs: ``"form"`` the form
    contraction (the form's values in basis order), ``"metric"`` ``<u, v>``,
    ``"psi1"``/``"psi2"`` the boundary contraction."""
    if kind == "form":
        return _minor_contract(len(vectors[0]), form, vectors)
    if kind == "metric":
        return _dot(*vectors)
    if kind in ("psi1", "psi2"):
        return boundary_contraction(kind, *vectors)
    raise ValueError(f"unknown unit kind {kind!r}")


def lemma_check(lemma_id: str, n: int, trials: int = 20, seed: int = 0) -> CheckReport:
    """Exact randomized check of one tabulated trace identity.

    For merged identities (two placements sharing a closed form) both
    variants are verified each trial.  The expected side is the tabulated
    closed form ``ratio * unit * Tr(Id)`` (times ``V(S^{n-1})`` for
    integrated variants); any disagreement is reported with both exact
    values.  The trials run in :func:`_trial_loop` on the identity's kernel
    shape, which weights each placement and draws the vectors, then the
    form, doubled.  An unknown id, a bad ``n`` or bad ``trials`` raises
    ``ValueError`` before anything is compiled.
    """
    if lemma_id in _LEMMA_ALIASES:
        base_id, placement = _LEMMA_ALIASES[lemma_id]
        spec = LEMMA_CHECKS[base_id]
        placements = (placement,)
    elif lemma_id in LEMMA_CHECKS:
        spec = LEMMA_CHECKS[lemma_id]
        placements = spec.placements
    else:
        raise ValueError(f"unknown lemma id {lemma_id!r}")
    _check_n(n)
    if n % 2 or n < 4:
        raise ValueError("n must be even and >= 4")

    # a placement's trace is weight * 2^n c / D, times V(S^{n-1}) (keyed (0, ((n - 1, 1),))) for a sandwiched
    # (cosphere-integrated) one, and its closed form ratio times that
    value, expected = (1 << n, 0, 1), (spec.ratio.numerator << n, 0, spec.ratio.denominator)
    comparisons = [(placement, (0, ()) if placement == "plain" else (0, ((n - 1, 1),)), value, expected)
                   for placement in placements]
    return _trial_loop(lemma_id, trials, f"{seed}:lemma:{lemma_id}:{n}", (spec.word_flavors, spec.lift, n),
                       comparisons)[0]


def lemma_ids() -> List[str]:
    """The canonical dispatch ids, in report order."""
    return sorted(LEMMA_CHECKS)
