"""Reference routes that build whole operators: the word traced against the
placed lift, and the boundary density over the residue kernel.

Each value is built from whole operators: the Clifford word of the vectors
(:func:`clifford_word`), the lift of the whole form, its cosphere placement
(:func:`cosphere_average`) and one :func:`trace_product`.  It never reads a
kernel tensor or a letter path, and the tests hold the package's one kernel
type, ``hodge_residue.residue.KernelTable``, traced and times each
placement's ``KernelTable.weight``, to it exactly.  :func:`cosphere_average`
places a whole operator blade by blade with the package's weight law, and
``xi_reference`` holds it to the explicit xi-polynomial integrals.

:func:`zero`, :func:`add` and :func:`scale` are the operator sum and scalar
multiple, which no route of the package needs.

The boundary density is the word traced against the generator of each pair
``(a, K)`` of the residue kernel, ``sum tr(W c_a) K``; the tests hold the
package's degree-0 kernel route to it.

:func:`lemma_lift` is the operator a trace identity's lift key names, and
:func:`compile_lift` compiles a ``kernel_reference.TraceKernel`` from a whole
operator lift of each basis form, the route the package's term tables
replace, with the per-n direct compile of ``kernel_reference``.
:func:`lift_monotone` and :func:`lift_ordered` lift a form by one monotone
or one ordered term of any flavor pattern, on the package's ``forms._lift``.
:func:`generator_word` and :func:`pi_minus` have no caller in the package
and serve the tests' structural laws.
"""

import itertools
from math import lcm

from hodge_residue import forms
from hodge_residue.boundary import _flavor_row, _residue_weight
from hodge_residue.exterior import (
    LinearOp,
    _accumulate,
    _check_flavor,
    _check_index,
    _check_n,
    _generator_blade,
    clifford_generator,
    clifford_word,
    trace_product,
)
from hodge_residue.forms import AntiSymForm
from hodge_residue.residue import FunctionalSpec
from kernel_reference import TraceKernel, _compile_slots
from hodge_residue.scalars import SymbolicScalar, sphere_volume
from hodge_residue.symbols import _grade_weight


def zero(n: int) -> LinearOp:
    """The zero operator on ``Lambda^*(R^n)``."""
    return LinearOp(n, {})


def add(*ops: LinearOp) -> LinearOp:
    """The sum of one or more operators of one ``n``, zeros dropped."""
    n = ops[0].n
    if any(op.n != n for op in ops):
        raise ValueError("operator dimension mismatch")
    blades = {}
    for op in ops:
        for key, coeff in op.blades.items():
            _accumulate(blades, key, coeff)
    return LinearOp(n, blades)


def scale(op: LinearOp, scalar) -> LinearOp:
    """``scalar * op``, the zero operator when ``scalar`` is 0."""
    if not scalar:
        return zero(op.n)
    return LinearOp(op.n, {key: scalar * c for key, c in op.blades.items()})


def cosphere_average(op: LinearOp, placement: str, m: int = 1) -> LinearOp:
    """``(1 / V(S^{n-1})) integral_{S^{n-1}}`` of a placement's integrand
    (``"before"``, ``"after"`` or ``"interior"``, see
    :func:`hodge_residue.symbols._grade_weight`): ``op`` with each blade
    ``c_A chat_B`` of grade ``g`` scaled by the weight of ``(|A|, g mod 2)``,
    read once per class."""
    n = op.n
    weights = {}
    low = (1 << n) - 1
    blades = {}
    for key, coeff in op.blades.items():
        grade = (key & low).bit_count(), key.bit_count() & 1
        if grade not in weights:
            weights[grade] = _grade_weight(n, placement, m, grade)
        w = weights[grade]
        if w:
            blades[key] = coeff * w
    return LinearOp(n, blades)


def lemma_lhs(word: LinearOp, lift: LinearOp, placement: str) -> SymbolicScalar:
    """``tr(W lift)`` (``"plain"``), or ``V(S^{n-1})`` times the trace
    against the ``"before"`` or ``"after"`` cosphere average."""
    if placement == "plain":
        return SymbolicScalar.number(trace_product(word, lift))
    if placement in ("before", "after"):
        return sphere_volume(lift.n - 1) * trace_product(word, cosphere_average(lift, placement))
    raise ValueError(f"unknown placement {placement!r}")


def lemma_lift(kind, form, n: int) -> LinearOp:
    """The operator a :attr:`~hodge_residue.residue.LemmaSpec.lift` key
    names, on ``form``: the identity (``None``), ``c_n`` (``"normal_c"``) or
    ``forms.lift_<kind>``."""
    if kind is None:
        return LinearOp.identity(n)
    if kind == "normal_c":
        return clifford_generator("c", n, n)
    return getattr(forms, f"lift_{kind}")(form)


def lift_monotone(form: AntiSymForm, flavors) -> LinearOp:
    """``sum_{i_1 < ... < i_k} form(I) * gen(f_1, i_1) o ... o gen(f_k, i_k)``."""
    return forms._lift(form, 1, [(1, tuple(flavors), False)])


def lift_ordered(form: AntiSymForm, flavors) -> LinearOp:
    """Sum over all pairwise-distinct ordered tuples with signed coefficients.

    ``sum_{(i_1,...,i_k) distinct} form(i_1,...,i_k) * gen(f_1,i_1) o ...``;
    the antisymmetric extension supplies the permutation signs, so only the
    orderings of each stored (increasing) index tuple contribute.
    """
    return forms._lift(form, 1, [(1, tuple(flavors), True)])


def compile_lift(n: int, flavors, lift, degree: int) -> TraceKernel:
    """The trace kernel of the word ``flavors`` against ``lift``, a map from
    a basis form (``None`` for degree 0) to its operator: the blades of
    ``lift(e_I)`` for every basis form, scaled to integers by the lcm of
    their denominators."""
    basis = itertools.combinations(range(1, n + 1), degree) if degree else [None]
    ops = [lift(AntiSymForm(n, degree, {idx: 1}) if degree else None) for idx in basis]
    denominator = lcm(*(c.denominator for op in ops for c in op.blades.values()))
    slots = [{key: c.numerator * (denominator // c.denominator) for key, c in op.blades.items()} for op in ops]
    return _compile_slots(n, flavors, slots, degree, denominator)


def _word_and_lift(fspec: FunctionalSpec, T, vectors):
    return clifford_word(T.n, list(zip(fspec.arg_flavors, vectors))), fspec.lift(T)


def spectral_density(fspec: FunctionalSpec, T, vectors, m: int) -> SymbolicScalar:
    """``V(S^{n-1}) * prefactor * tr(W . cosphere_average(lift, "interior", m))``."""
    word, lift = _word_and_lift(fspec, T, vectors)
    value = trace_product(word, cosphere_average(lift, "interior", m))
    return sphere_volume(T.n - 1) * (fspec.prefactor * value)


def density_decomposition(fspec: FunctionalSpec, T, vectors, m: int) -> dict:
    """The zero-order (plain) and per-m (before + after) parts and their total."""
    word, lift = _word_and_lift(fspec, T, vectors)
    unit = sphere_volume(T.n - 1) * fspec.prefactor
    zero = unit * trace_product(word, lift)
    sandwich = unit * (
        trace_product(word, cosphere_average(lift, "before"))
        + trace_product(word, cosphere_average(lift, "after"))
    )
    return {"zero_order": zero, "sandwich_per_m": sandwich, "total": zero + m * sandwich}


def boundary_density(flavor: str, u, v, w, m: int) -> SymbolicScalar:
    """``tr(W c_n) * K`` with ``K`` the residue weight of order ``m``, the
    one channel whose sphere moment is not zero being the normal one."""
    n = 2 * m
    word = clifford_word(n, list(zip(_flavor_row(flavor).word_flavors, (u, v, w))))
    return _residue_weight(m) * trace_product(word, clifford_generator("c", n, n))


def generator_word(n: int, letters) -> LinearOp:
    """Product of single-direction generators ``[(flavor, j), ...]``: one
    signed blade, multiplied out by the product rule."""
    _check_n(n)
    letters = list(letters)
    for flavor, j in letters:
        _check_flavor(flavor)
        _check_index(n, j)
    key, sign = _generator_blade(n, letters)
    return LinearOp(n, {key: sign})


def pi_minus(terms: dict) -> dict:
    """Keep the partial-fraction terms ``{(pole, order): coeff}`` with poles in
    the lower half-plane, the complement of
    :func:`hodge_residue.boundary.pi_plus`."""
    if any(pole.im == 0 for pole, _ in terms):
        raise ValueError("pole on the real axis")
    return {(pole, order): coeff for (pole, order), coeff in terms.items() if pole.im < 0}
