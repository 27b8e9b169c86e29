"""Interior spectral form/torsion functionals and the trace-identity checker.

The five interior functionals are pointwise residue densities of the form

``prefactor * integral_{S^{2m-1}} tr( W(args) . [ lift(T) + m * sum_{i,j}
(c_i lift(T) + lift(T) c_i) c_j xi_i xi_j ] ) dS``

where ``W(args)`` is a word of Clifford actions of the argument vectors and
``lift(T)`` the operator lift of the torsion form.  The cosphere integral is
``V(S^{2m-1})`` times one trace of ``W(args)`` against the lift with each
blade scaled by the ``"interior"`` weight of its grade
(:func:`~hodge_residue.symbols._grade_weights`); the sandwiched trace
identities are the same trace with the ``"before"`` or ``"after"`` weights,
and the plain ones with the lift itself.

Every such trace ``tr(W(u_1 ... u_k) . P(lift(T)))`` is multilinear in the
form and in each vector.  A :class:`TraceKernel` is compiled from basis
inputs: the lift's integer blades on each basis form ``e_I``, read from its
term table (:data:`~hodge_residue.forms.LIFT_TERMS`), and the letter paths
that fold each blade to the empty blade.  Every kernel comes from one
memo, :func:`_kernel`: compiled once per shape (word, lift, ``n``) per
process and shared by every trace identity, density and boundary density
of that shape.  It is the sparse integer tensor ``{(I, j_1, ..., j_k): c}``
of the plain trace.
Each entry comes from one blade, and every blade a kernel traces has one
grade class, so a placement ``P`` scales the whole trace by one rational
weight, :meth:`TraceKernel.weight`, with no second compile.
:meth:`TraceKernel.contract` contracts a kernel with integer rows, and
:meth:`TraceKernel.trace` scales rational inputs to integers and divides
once.  No form, operator or Clifford word is built on this path.

Each functional carries a closed-form coefficient table entry;
:func:`verify_theorem` compares the engine's exact density against
``coefficient * T(args)`` on random trials, and :func:`lemma_check` verifies
the individual trace identities feeding those densities.  Their trials, and
those of :func:`~hodge_residue.boundary.verify_boundary`, run in
:func:`_trial_loop`.  Each kernel's tensor is one exact ratio :func:`_ratio`
times its unit's :func:`_unit_tensor`, or no multiple of it; with that
ratio no trial contracts the kernel, and a check's trials end at the first
one that decides it.  Every check is exact:
when the engine's exact value disagrees with a tabulated closed form, the
report carries both values verbatim; nothing is softened to a tolerance or
auto-corrected.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import lru_cache
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from . import forms
from .exterior import FLAVORS, LinearOp, _check_n, _generator_key, _product_signs
from .forms import LIFT_TERMS, AntiSymForm, _minor_contract, _orderings, _random_doubled, _reader, _term_blades
from .scalars import GaussianRational, I, ONE, SymbolicScalar, sphere_volume
from .symbols import _grade_weights


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
    of the rational (``int`` or ``Fraction``) ``values``."""
    q = lcm(*(x.denominator for x in values))
    return [x.numerator * (q // x.denominator) for x in values], q


class TraceKernel:
    """The trace ``tr(W(u_1 ... u_k) . lift(T))`` of one check or identity
    shape, compiled once, and the weight of each cosphere placement.

    ``W`` is the Clifford word of the letters ``flavors``.  The trace is
    multilinear in the form and in each vector, so it is ``2^n / denominator
    * sum c T_I u_1[j_1] ... u_k[j_k]`` over a sparse integer tensor
    ``{(I, j_1, ..., j_k): c}``.  The tensor is read off basis inputs:
    ``slots[I]`` is the lift on the basis form ``e_I`` as ``{blade: c}``
    over ``denominator`` (one slot, and no form, for ``degree`` 0), and
    :func:`_letter_paths` gives the index tuples whose letters fold each
    blade to the empty blade (trace = ``2^n`` times the identity
    coefficient).

    The letters of an entry multiply to one blade, the only one they trace
    against to a nonzero value, so every entry comes from exactly one blade
    of the lift.  Every traced blade must have one grade class ``(|A|, g mod
    2)``, recorded as :attr:`grade` (``None`` when no blade is traced); blades
    of two classes raise ``ValueError``.  A cosphere placement scales each
    blade by the weight of its class, so it scales the whole trace by one
    :meth:`weight` and compiles nothing.

    ``basis``, ``columns`` and ``coeffs`` are tuples, so a kernel shared
    between checks cannot be altered by one of them.  ``n`` past
    ``MAX_DIMENSION`` raises ``ValueError``, for every check and density.
    """

    __slots__ = ("n", "degree", "letters", "basis", "columns", "reads", "coeffs", "denominator", "grade")

    def __init__(self, n: int, flavors: Sequence[str], slots: Sequence[Dict[int, int]], degree: int, denominator=1):
        _check_n(n)
        self.n, self.degree, self.letters = n, degree, len(flavors)
        self.basis = tuple(itertools.combinations(range(1, n + 1), degree)) if degree else ((),)
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
        self.grade = grades.pop() if grades else None
        self.denominator = denominator
        self.coeffs = tuple(values)
        # one tuple per tensor slot: the form's basis slot, then each letter's
        # index, each read from its row by one C-level call
        self.columns = tuple(zip(*entries))
        self.reads = tuple(map(_reader, self.columns))

    def weight(self, placement: str, m: int = 1) -> Fraction:
        """The factor by which a placement ``P`` scales this trace:
        ``tr(W . P(lift(T)))`` is the weight times ``tr(W . lift(T))``.

        ``"plain"`` has weight 1; ``"before"``, ``"after"`` and
        ``"interior"`` (at symbol order ``m``) the weight of :attr:`grade`
        from :func:`~hodge_residue.symbols._grade_weights`, and 0 on a kernel
        with no entry.  Any other placement raises ``ValueError``.
        """
        if placement == "plain":
            return Fraction(1)
        weights = _grade_weights(self.n, placement, m)
        return Fraction(0) if self.grade is None else weights[self.grade]

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
        if form is None:
            rows, scale = [[1]], 1
        else:
            values, scale = _integer_scaled([form.entries.get(idx, 0) for idx in self.basis])
            rows = [values]
        for u in vectors:
            ints, q = _integer_scaled(u)
            rows.append(ints)
            scale *= q
        return Fraction(self.contract(rows) << self.n, self.denominator * scale)


def _lift_degree(lift: Optional[str]) -> Optional[int]:
    """The degree of the form a lift takes, the length of its table terms;
    ``None`` for the identity and ``"normal_c"``, which take no form."""
    if lift not in LIFT_TERMS:
        return None
    _, terms = LIFT_TERMS[lift]
    return len(terms[0][1])


def _compile(word_flavors: Tuple[str, ...], lift: Optional[str], n: int) -> TraceKernel:
    """The plain trace kernel of the word against a lift: a
    :data:`~hodge_residue.forms.LIFT_TERMS` key, whose terms the word cannot
    trace are skipped, ``"normal_c"`` (the blade ``c_n``) or ``None`` (the
    identity).  ``n`` past ``MAX_DIMENSION`` raises before any slot is built."""
    _check_n(n)
    if lift is None:
        return TraceKernel(n, word_flavors, [{0: 1}], 0)
    if lift == "normal_c":
        return TraceKernel(n, word_flavors, [{_generator_key("c", n, n): 1}], 0)
    denominator, terms = LIFT_TERMS[lift]
    traced = [term for term in terms if _traceable(word_flavors, term[1])]
    degree = _lift_degree(lift)
    slots = [_term_blades(n, traced, idx) for idx in itertools.combinations(range(1, n + 1), degree)]
    return TraceKernel(n, word_flavors, slots, degree, denominator)


# the one way to get a trace kernel, compiled once per shape and process
_kernel = lru_cache(maxsize=None)(_compile)


@lru_cache(maxsize=None)
def _ratio(kernel: TraceKernel, unit: str) -> Optional[int | Fraction]:
    """The exact ``kappa`` (an ``int`` when integral) with ``K = kappa U``, else
    ``None``: ``K`` is the kernel's tensor (each entry, from one blade of one
    slot, has its own key), ``U`` the :func:`_unit_tensor` of the kind
    ``unit``, so the kernel contracts any rows to ``kappa`` times their
    :func:`_unit`.  Once per kernel, unit and process."""
    expected = _unit_tensor(unit, kernel.n, kernel.degree)
    engine = dict.fromkeys(expected, 0)
    engine.update(zip(zip(*kernel.columns), kernel.coeffs))
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


def _sides(value: SymbolicScalar, expected: SymbolicScalar, denominator: int) -> Tuple[int, int, int, int]:
    """``(re_left, re_right, im_left, im_right)``: ``value * c / denominator``
    equals ``expected * unit`` exactly when ``c * re_left == unit * re_right``
    and ``c * im_left == unit * im_right``.

    ``expected`` must be a multiple of the unit of ``value``.  Their
    coefficients ``p`` and ``q`` give ``p * c / D = q * unit``, each part
    cleared of denominators into ``c * (p.num q.den) = unit * (q.num p.den D)``.
    """
    if not value.shares_unit(expected):
        raise ValueError(f"the closed form is not a multiple of {value.unit_text()}")
    p, q = value.coeff, expected.coeff
    return tuple(
        side
        for a, b in ((p.re, q.re), (p.im, q.im))
        for side in (a.numerator * b.denominator, b.numerator * a.denominator * denominator)
    )


def _identical(kappa: Optional[int | Fraction], p: int, sides: Tuple[int, int, int, int]) -> bool:
    """The magnitude policy's sign test, whether a :func:`_trial_loop` comparison
    holds on every input: ``c = p kappa base``, so exactly when ``p kappa left == right`` for re and im."""
    return kappa is not None and p * kappa * sides[0] == sides[1] and p * kappa * sides[2] == sides[3]


def _trial_loop(check_id: str, trials: int, rng_label: str, shape: Tuple[Tuple[str, ...], Optional[str], int],
                unit: str, comparisons: Sequence[Tuple[str, SymbolicScalar, SymbolicScalar]],
                form_first: bool = False, magnitude: bool = False) -> Tuple[CheckReport, Optional[Fraction]]:
    """The trials of every randomized check, decided in integers.

    ``trials`` below 1 raises ``ValueError`` before the kernel of ``shape``
    ``(word, lift, n)`` is looked up in :func:`_kernel`.  One
    ``random.Random(rng_label)`` stream feeds every trial, which draws its
    inputs doubled, as integers, by :func:`~hodge_residue.forms._random_doubled`:
    one vector of length ``n`` per letter and the form's values in basis
    order (none for degree 0), the form first when ``form_first``, else last.
    The kernel rows are the form's values (``(1,)`` for degree 0) and then
    the vectors, and the expected side's unit ``base`` is :func:`_unit` of
    the kind ``unit`` on them.  A comparison ``(placement, value, expected)``
    is the engine side ``value * weight * t / D``, with ``weight`` the
    placement's :meth:`TraceKernel.weight` at symbol order ``n // 2``, ``t``
    the kernel contracted with the rows and ``D`` its denominator, against
    ``expected * base``.  With ``weight = p / q`` that is ``value * c / (D
    q)`` for the integer ``c = p t``, and :func:`_sides` makes it integer
    identities.  Both sides are linear in each of the ``r = letters +
    bool(degree)`` doubled rows, so the factor ``2^r`` cancels, and only the
    two values the report shows are divided by it.

    ``t`` is ``kappa * base`` when the kernel is :func:`_ratio` ``kappa``
    times the unit (0 when every weight is 0); only a kernel with no
    ``kappa`` is contracted, once per trial.  With ``magnitude``, a
    comparison that fails but holds with its expected side negated is
    compared with the negated side, and a passing check notes that sign.

    The report shows the first failure, else the first pass with a nonzero
    expected side (``"0"`` for both when there is none); only these values
    are built as ``SymbolicScalar``.  A failure fixes the report, and with
    ``kappa`` so does every trial whose ``base`` is not 0: a comparison then
    reads ``base * (p kappa left - right) = 0``, true on that trial exactly
    when true on every input.  The loop stops after such a trial (``trials``
    is the budget).  Returns the report and ``kappa / D``, the plain trace
    over ``2^n`` per unit (``None`` without ``kappa``).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    kernel = _kernel(*shape)
    weights = [kernel.weight(placement, kernel.n // 2) for placement, _, _ in comparisons]
    # every weight 0 makes the engine side 0, whatever the kernel
    kappa = _ratio(kernel, unit) if any(weights) else 0
    checks, sign = [], 1
    for weight, (placement, value, expected) in zip(weights, comparisons):
        p, denominator = weight.numerator, kernel.denominator * weight.denominator
        sides = _sides(value, expected, denominator)
        if magnitude and not _identical(kappa, p, sides) and _identical(kappa, -p, sides):
            expected, sign = expected * -1, -1
            sides = _sides(value, expected, denominator)
        checks.append((placement, p, denominator, value, expected, sides))
    r = kernel.letters + bool(kernel.degree)
    size = len(kernel.basis) if kernel.degree else 0
    rng = random.Random(rng_label)
    failed = False
    shown: Optional[Tuple[SymbolicScalar, SymbolicScalar, str]] = None
    for trial in range(trials):
        form = _random_doubled(size, rng) if form_first else None
        vectors = [_random_doubled(kernel.n, rng) for _ in range(kernel.letters)]
        if not form_first:
            form = _random_doubled(size, rng)
        base = _unit(unit, form, vectors)
        t = kernel.contract([form or (1,), *vectors]) if kappa is None else kappa * base
        for placement, p, denominator, value, expected, (re_left, re_right, im_left, im_right) in checks:
            c = p * t
            if c * re_left != base * re_right or c * im_left != base * im_right:
                if not failed:
                    where = f"trial {trial}" + (f", {placement} placement" if len(checks) > 1 else "")
                    shown = (value * Fraction(c, denominator << r), expected * Fraction(base, 1 << r), where)
                failed = True
            elif shown is None and base and expected:
                shown = (value * Fraction(c, denominator << r), expected * Fraction(base, 1 << r), "")
        if failed or kappa is not None and base:
            break
    notes = [f"comparisons disagree; first at {shown[2]}"] if failed else []
    if magnitude and shown and not failed:
        notes.append(
            f"observed sign {'+' if sign > 0 else '-'}1 relative to the tabulated magnitude; "
            "proportionality and magnitude asserted, sign recorded"
        )
    engine_side, expected_side, _ = shown or (SymbolicScalar(), SymbolicScalar(), "")
    report = CheckReport(check_id, kernel.n, trials, "fail" if failed else "pass", engine_side.render(),
                         expected_side.render(), detail="; ".join(notes))
    return report, None if kappa is None else Fraction(kappa, kernel.denominator)


def _resolve_functional(functional_id: str) -> FunctionalSpec:
    try:
        return FUNCTIONALS[functional_id]
    except KeyError:
        raise ValueError(f"unknown functional id {functional_id!r}") from None


def _density_spec(spec, T: AntiSymForm, vectors: Sequence[Sequence], m: int) -> FunctionalSpec:
    """The functional's spec, after checking the density's arguments."""
    fspec = _resolve_functional(spec)
    n = T.n
    if n != 2 * m or n < 4:
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
    kernel = _kernel(fspec.arg_flavors, fspec.lift_kind, T.n)
    value = kernel.trace(T, vectors) * kernel.weight("interior", m)
    return sphere_volume(T.n - 1) * (fspec.prefactor * value)


def closed_form_coefficient(functional_id: str, m: int) -> SymbolicScalar:
    """Tabulated closed-form coefficient of the functional at symbol order m.

    The density is claimed to equal ``coefficient * T(args)`` with the
    coefficient a multiple of ``V(S^{2m-1})``:

    * T1: ``(2m-1) 2^{2m} i``
    * T2: ``(3-18m) 2^{2m-1}``
    * T3: ``(1-2m) 2^{2m-1}``
    * T4: ``((-2m-1)/3) 2^{2m-1} i``
    * T5: ``(-2m+1) 2^{2m} i``
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    table: Dict[str, GaussianRational] = {
        "T1": GaussianRational(0, (2 * m - 1) * 2 ** (2 * m)),
        "T2": GaussianRational((3 - 18 * m) * 2 ** (2 * m - 1)),
        "T3": GaussianRational((1 - 2 * m) * 2 ** (2 * m - 1)),
        "T4": GaussianRational(0, Fraction(-2 * m - 1, 3) * 2 ** (2 * m - 1)),
        "T5": GaussianRational(0, (-2 * m + 1) * 2 ** (2 * m)),
    }
    if functional_id not in table:
        raise ValueError(f"unknown functional id {functional_id!r}")
    return SymbolicScalar.unit(table[functional_id], spheres=(2 * m - 1,))


def density_decomposition(spec, T: AntiSymForm, vectors: Sequence[Sequence], m: int) -> Dict[str, SymbolicScalar]:
    """Split the density into its zero-order and per-m sandwich parts.

    Returns ``{"zero_order", "sandwich_per_m", "total"}`` with
    ``total = zero_order + m * sandwich_per_m`` (prefactor applied to all):
    one trace, times the weights of the ``"before"`` and ``"after"``
    placements for the sandwich part.
    """
    fspec = _density_spec(spec, T, vectors, m)
    kernel = _kernel(fspec.arg_flavors, fspec.lift_kind, T.n)
    zero = sphere_volume(T.n - 1) * (fspec.prefactor * kernel.trace(T, vectors))
    sandwich = zero * (kernel.weight("before") + kernel.weight("after"))
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
    An unknown id, ``m < 2`` or ``trials < 1`` raises ``ValueError`` before
    anything is compiled.
    """
    fspec = _resolve_functional(functional_id)
    if m < 2:
        raise ValueError("m must be >= 2")
    n = 2 * m
    # the interior trace is weight * 2^n c / D
    value = sphere_volume(n - 1) * (fspec.prefactor * (1 << n))
    expected = closed_form_coefficient(fspec.functional_id, m)
    return _trial_loop(fspec.functional_id, trials, f"{seed}:theorem:{fspec.functional_id}:{m}",
                       (fspec.arg_flavors, fspec.lift_kind, n), "form", [("interior", value, expected)],
                       form_first=True)[0]


# ---------------------------------------------------------------------------
# Lemma dispatch
# ---------------------------------------------------------------------------


class LemmaSpec(NamedTuple):
    """One dispatch entry of the trace-identity checker.

    ``placements`` lists the sandwich variants the identity covers, in their
    print order: ``plain`` is the bare trace ``tr(W L)``; ``before`` places
    the two ``c(xi)`` factors around the lift, ``after`` places both to its
    right; sandwiched variants are integrated over the unit cosphere, so
    their closed forms carry ``V(S^{n-1})``.
    """

    lemma_id: str
    word_flavors: Tuple[str, ...]
    lift: Optional[str]  # key into forms.LIFT_TERMS; None = identity; "normal_c" = c(dx_n)
    placements: Tuple[str, ...]
    ratio: Fraction
    unit: str = "form"  # a _unit kind: form | metric | psi1 | -psi2
    sign_policy: str = "exact"  # exact | magnitude

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
        LemmaSpec("B5.10", ("c", "chat", "chat"), "normal_c", ("plain",), Fraction(1), unit="-psi2"),
        LemmaSpec("M6.2", ("c", "c"), None, ("plain",), Fraction(1), unit="metric", sign_policy="magnitude"),
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
    ``"psi1"``/``"psi2"`` the boundary contraction, ``"-psi2"`` its negative."""
    if kind == "form":
        return _minor_contract(len(vectors[0]), form, vectors)
    if kind == "metric":
        return _dot(*vectors)
    if kind == "-psi2":
        return -boundary_contraction("psi2", *vectors)
    if kind in ("psi1", "psi2"):
        return boundary_contraction(kind, *vectors)
    raise ValueError(f"unknown unit kind {kind!r}")


@lru_cache(maxsize=None)
def _unit_tensor(kind: str, n: int, degree: int) -> Mapping[Tuple[int, ...], int]:
    """:func:`_unit` as ``{(slot, j_1, ..., j_k): c}`` in the kernel's row layout
    (0-based ``j``): ``"form"`` is ``sgn s`` at ``(I, s(I))``, ``"metric"``
    ``(0, j, j): 1``, the rest :func:`boundary_contraction`'s terms, summed."""
    if kind == "form":
        return MappingProxyType({(slot,) + tuple(idx[p] for p in perm): sign
                                 for slot, idx in enumerate(itertools.combinations(range(n), degree))
                                 for perm, sign in _orderings(degree)})
    if kind == "metric":
        return MappingProxyType({(0, j, j): 1 for j in range(n)})
    if kind not in ("psi1", "psi2", "-psi2"):
        raise ValueError(f"unknown unit kind {kind!r}")
    last, sign, tensor = n - 1, -1 if kind == "-psi2" else 1, {}
    for j in range(n):
        terms = (((0, last, j, j), sign), ((0, j, last, j), -sign), ((0, j, j, last), sign))
        for key, c in terms[:3 if kind == "psi1" else 1]:
            tensor[key] = tensor.get(key, 0) + c
    return MappingProxyType(tensor)


def lemma_check(lemma_id: str, n: int, trials: int = 20, seed: int = 0) -> CheckReport:
    """Exact randomized check of one tabulated trace identity.

    For merged identities (two placements sharing a closed form) both
    variants are verified each trial.  The expected side is the tabulated
    closed form ``ratio * unit * Tr(Id)`` (times ``V(S^{n-1})`` for
    integrated variants); any disagreement is reported with both exact
    values.  The trials run in :func:`_trial_loop` on the identity's kernel
    shape, which weights each placement and draws the vectors, then the
    form, doubled.  An unknown id, a bad ``n`` or ``trials < 1`` raises
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
    if n % 2 or n < 4:
        raise ValueError("n must be even and >= 4")

    # a placement's trace is weight * 2^n c / D, times V(S^{n-1}) for a
    # sandwiched (cosphere-integrated) one, and its closed form ratio times that
    comparisons = []
    for placement in placements:
        value = SymbolicScalar.unit(1 << n, spheres=() if placement == "plain" else (n - 1,))
        comparisons.append((placement, value, value * spec.ratio))
    return _trial_loop(lemma_id, trials, f"{seed}:lemma:{lemma_id}:{n}", (spec.word_flavors, spec.lift, n),
                       spec.unit, comparisons, magnitude=spec.sign_policy == "magnitude")[0]


def lemma_ids() -> List[str]:
    """The canonical dispatch ids, in report order."""
    return sorted(LEMMA_CHECKS)
