"""Regression tests for interior densities and the trace-identity checker.

The expected values here were frozen from two independent routes: the exact
engine itself (cross-validated against the dense floating-point oracle) and
hand-derived sandwich multipliers.  Checks whose tabulated closed form
disagrees with the engine are asserted to FAIL with both values reported —
those discrepancies are real and must stay visible.
"""

import collections
import functools
import hashlib
import itertools
import math
import random
import re
from fractions import Fraction

import pytest

from hodge_residue.exterior import MAX_DIMENSION, clifford_word, trace_product
from hodge_residue.forms import (
    AntiSymForm,
    form_contract,
    lift_four_chat,
    lift_four_mixed,
    lift_three_c,
    lift_three_mixed,
    lift_two_chat,
    random_form,
    random_vector,
)
import hodge_residue.boundary as boundary_module
import hodge_residue.residue as residue_module
from hodge_residue.boundary import verify_boundary
from hodge_residue.cli import (
    DEFAULT_COMMUTATOR_DIMENSIONS,
    DEFAULT_LEMMA_DIMENSIONS,
    DEFAULT_SYMBOL_ORDERS,
    _run_checks,
)
from hodge_residue.residue import (
    FUNCTIONALS,
    LEMMA_CHECKS,
    FunctionalSpec,
    KernelTable,
    _LEMMA_ALIASES,
    _sides,
    _table,
    closed_form_coefficient,
    density_decomposition,
    lemma_check,
    lemma_ids,
    spectral_density,
    verify_theorem,
)
from hodge_residue.scalars import PI, GaussianRational, SymbolicScalar, sphere_volume
from hodge_residue.symbols import _grade_weight
import kernel_reference
import word_reference
from kernel_reference import TraceKernel
from mixed_rationals import mixed_form, mixed_vector
from word_reference import compile_lift, cosphere_average, lemma_lhs, lemma_lift


def _placed_value(value: Fraction, placement: str, n: int) -> SymbolicScalar:
    """A trace identity's side: the value itself for the plain placement,
    ``V(S^{n-1})`` times it for a sandwiched (cosphere-integrated) one."""
    if placement == "plain":
        return SymbolicScalar.number(value)
    return sphere_volume(n - 1) * value


def basis_vector(n: int, j: int):
    return tuple(Fraction(1 if k == j else 0) for k in range(1, n + 1))


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def shape_of(spec) -> tuple:
    """The kernel shape ``(word, lift)`` of a density or a trace identity."""
    if isinstance(spec, FunctionalSpec):
        return spec.arg_flavors, spec.lift_kind
    return spec.word_flavors, spec.lift


def kernel_of(spec, n: int) -> TraceKernel:
    """The tensor of a density's or a trace identity's table, expanded at n."""
    return kernel_reference.expand(_table(*shape_of(spec)), n)


def boundary_kernel(flavor: str, n: int) -> TraceKernel:
    """The tensor of the table a boundary density of this flavor traces, expanded at n."""
    return kernel_reference.expand(_table(boundary_module._flavor_row(flavor).word_flavors, "normal_c"), n)


def trace_of(spec, n: int, form, vectors) -> Fraction:
    """The engine's plain trace of a density's or a trace identity's shape."""
    return residue_module._trace((*shape_of(spec), n), form, vectors)


# ---------------------------------------------------------------------------
# Sandwich multipliers: the exact engine must satisfy
#   integral tr(W c(xi) L c(xi))  = (-1)^len (2k - n)/n * tr(W L) * V
#   integral tr(W L c(xi) c(xi))  = -tr(W L) * V
# for L a lift whose monomials are products of `len` distinct generators with
# `k` of minus-flavor.  These were confirmed by brute force over all generator
# words and are the engine-side ground truth for every sandwiched identity.
# ---------------------------------------------------------------------------

LIFT_SIGNATURES = [
    # (builder, degree, word length, count of minus-flavor letters)
    (lift_two_chat, 2, 2, 0),
    (lift_three_c, 3, 3, 3),
    (lift_three_mixed, 3, 3, 1),
    (lift_four_mixed, 4, 4, 2),
    (lift_four_chat, 4, 4, 0),
]


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("builder,degree,length,minus", LIFT_SIGNATURES)
def test_sandwich_multipliers_hold_for_every_lift(n, builder, degree, length, minus):
    rng = random.Random(f"sandwich:{n}:{builder.__name__}")
    volume = sphere_volume(n - 1)
    for _ in range(3):
        form = random_form(n, degree, rng)
        lift = builder(form)
        word = clifford_word(
            n, [("chat", random_vector(n, rng)), ("chat", random_vector(n, rng))]
        )
        plain = SymbolicScalar.number(trace_product(word, lift))
        before = lemma_lhs(word, lift, "before")
        after = lemma_lhs(word, lift, "after")
        multiplier = Fraction((-1) ** length * (2 * minus - n), n)
        assert before == plain * multiplier * volume
        assert after == plain * Fraction(-1) * volume


# ---------------------------------------------------------------------------
# Trace kernels against the word route (tests/word_reference.py): exact
# equality on random inputs, drawn both as the suites draw them and with
# denominators that mix 1, 2, 3, 5 and 7.
# ---------------------------------------------------------------------------

DRAWS = {
    "suite": (random_vector, random_form),
    "mixed": (mixed_vector, mixed_form),
}


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("n", [4, 6, 8])
def test_lemma_kernels_equal_word_route(n, draw):
    vector, form_of = DRAWS[draw]
    compared = nonzero = 0
    for lemma_id, spec in sorted(LEMMA_CHECKS.items()):
        rng = random.Random(f"kernel:{lemma_id}:{n}:{draw}")
        table = _table(*shape_of(spec))
        for placement in spec.placements:
            for _ in range(2):
                vectors = [vector(n, rng) for _ in spec.word_flavors]
                form = form_of(n, spec.form_degree, rng) if spec.form_degree else None
                word = clifford_word(n, list(zip(spec.word_flavors, vectors)))
                expected = lemma_lhs(word, lemma_lift(spec.lift, form, n), placement)
                value = _placed_value(trace_of(spec, n, form, vectors) * table.weight(placement, n), placement, n)
                assert value == expected, (lemma_id, placement)
                compared += 1
                nonzero += not expected.is_zero
    assert compared == 2 * sum(len(spec.placements) for spec in LEMMA_CHECKS.values())
    assert nonzero > compared // 2


@pytest.mark.parametrize("draw", sorted(DRAWS))
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("functional_id", sorted(FUNCTIONALS))
def test_density_kernels_equal_word_route(functional_id, m, draw):
    vector, form_of = DRAWS[draw]
    spec = FUNCTIONALS[functional_id]
    n = 2 * m
    rng = random.Random(f"kernel:{functional_id}:{m}:{draw}")
    for _ in range(2):
        T = form_of(n, spec.torsion_degree, rng)
        vectors = [vector(n, rng) for _ in spec.arg_flavors]
        density = spectral_density(functional_id, T, vectors, m)
        assert density == word_reference.spectral_density(spec, T, vectors, m)
        parts = density_decomposition(functional_id, T, vectors, m)
        reference = word_reference.density_decomposition(spec, T, vectors, m)
        assert set(parts) == {"zero_order", "sandwich_per_m", "total"}
        for part in parts:
            assert parts[part] == reference[part], part
        assert not parts["zero_order"].is_zero


@pytest.mark.parametrize("m", [2, 3])
def test_densities_expand_only_the_kernel_with_no_ratio(monkeypatch, m):
    # every density shape but four_mixed's (T4) is kappa times its unit, so
    # its density is kappa / D times the unit on the inputs: no expansion;
    # T4's one contraction at n serves its two densities and decompositions
    n = 2 * m
    kernel_reference.fresh_memos(monkeypatch)
    four_mixed = residue_module._table(*shape_of(FUNCTIONALS["T4"]))
    expanded, expand = [], KernelTable.expand

    def guarded(table, size):
        assert table is four_mixed, "a kernel with a ratio to its unit was expanded"
        expanded.append(size)
        return expand(table, size)

    monkeypatch.setattr(KernelTable, "expand", guarded)
    rng = random.Random(f"ratio-densities:{m}")
    for functional_id, spec in sorted(FUNCTIONALS.items()):
        for _ in range(2):
            T = mixed_form(n, spec.torsion_degree, rng)
            vectors = [mixed_vector(n, rng) for _ in spec.arg_flavors]
            assert spectral_density(functional_id, T, vectors, m) == word_reference.spectral_density(
                spec, T, vectors, m), functional_id
            assert density_decomposition(functional_id, T, vectors, m) == word_reference.density_decomposition(
                spec, T, vectors, m), functional_id
    for flavor in ("psi1", "psi2"):
        for _ in range(2):
            args = (flavor, *(tuple(mixed_vector(n, rng)) for _ in range(3)), m)
            assert boundary_module.boundary_density(*args) == word_reference.boundary_density(*args), flavor
    assert expanded == [n]


@pytest.mark.parametrize("functional_id,inputs", [("T1", 96), ("T5", 256)])
def test_basis_certificate_at_m2(functional_id, inputs):
    """On every basis input (e_I, e_j1, ..., e_jk) the kernel's density
    equals the closed form times the contraction: the multilinear identity
    holds at n = 4, not only on the random trials."""
    m, n = 2, 4
    spec = FUNCTIONALS[functional_id]
    unit = sphere_volume(n - 1) * spec.prefactor * _table(*shape_of(spec)).weight("interior", n, m)
    coeff = closed_form_coefficient(functional_id, m)
    basis = [basis_vector(n, j) for j in range(1, n + 1)]
    checked = disagreements = 0
    for idx in itertools.combinations(range(1, n + 1), spec.torsion_degree):
        T = AntiSymForm(n, spec.torsion_degree, {idx: Fraction(1)})
        for vectors in itertools.product(basis, repeat=len(spec.arg_flavors)):
            checked += 1
            if unit * trace_of(spec, n, T, vectors) != coeff * form_contract(T, vectors):
                disagreements += 1
    assert (checked, disagreements) == (inputs, 0)


# ---------------------------------------------------------------------------
# One grade class per kernel: a placement is one weight on the plain compile.
# ---------------------------------------------------------------------------

# the grade class (|A|, g mod 2) of every blade each kernel traces, the same
# at every n; None for a kernel with no entry
LEMMA_GRADES = {
    "L2.4": (0, 0), "L2.5": (0, 0), "L3.4a": (3, 1), "L3.4b": None, "L3.5": None,
    "L3.6a": (3, 1), "L3.6b": (3, 1), "L3.7a": (1, 1), "L3.7b": None, "L3.8": None,
    "L3.9": (1, 1), "L4.5": (2, 0), "L4.6a": (2, 0), "L4.6b": (2, 0), "L4.7": (0, 0),
    "L4.8": (0, 0), "B5.8": (1, 1), "B5.10": (1, 1), "M6.2": (0, 0),
}
DENSITY_GRADES = {"T1": (0, 0), "T2": (3, 1), "T3": (1, 1), "T4": (2, 0), "T5": (0, 0)}


@pytest.mark.parametrize("n", [4, 6, 8])
def test_every_kernel_has_one_grade_class(n):
    assert set(LEMMA_GRADES) == set(LEMMA_CHECKS)
    for lemma_id, spec in LEMMA_CHECKS.items():
        kernel = kernel_of(spec, n)
        assert kernel.grade == LEMMA_GRADES[lemma_id], lemma_id
        assert (kernel.grade is None) == (not kernel.coeffs), lemma_id
    for functional_id, spec in FUNCTIONALS.items():
        assert kernel_of(spec, n).grade == DENSITY_GRADES[functional_id], functional_id
    for flavor in ("psi1", "psi2"):
        assert boundary_kernel(flavor, n).grade == (1, 1)


def _entries(kernel):
    """``{(I, j_1, ..., j_k): c / D}``: the tensor a trace reads, whatever
    the kernel's denominator."""
    return dict(zip(zip(*kernel.columns), (Fraction(c, kernel.denominator) for c in kernel.coeffs)))


@pytest.mark.parametrize("n", [4, 6, 8])
def test_term_compiles_equal_compiles_of_whole_lifts(n):
    """Every kernel the engine compiles from a lift's term table (skipping
    the terms its word cannot trace) is, entry for entry as ``c / D`` and in
    its grade class, the compile of the whole operator lift of each basis
    form; only the denominator may differ (T2's is 4, not 2)."""
    cases = [
        (kernel_of(spec, n), spec.word_flavors, spec.form_degree or 0,
         lambda form, kind=spec.lift: lemma_lift(kind, form, n))
        for spec in LEMMA_CHECKS.values()
    ]
    cases += [
        (kernel_of(spec, n), spec.arg_flavors, spec.torsion_degree, spec.lift)
        for spec in FUNCTIONALS.values()
    ]
    cases += [
        (boundary_kernel(flavor, n), boundary_module._flavor_row(flavor).word_flavors, 0,
         lambda _: lemma_lift("normal_c", None, n))
        for flavor in ("psi1", "psi2")
    ]
    assert len(cases) == len(LEMMA_CHECKS) + len(FUNCTIONALS) + 2
    for kernel, flavors, degree, lift in cases:
        compiled = compile_lift(n, flavors, lift, degree)
        assert kernel.basis == compiled.basis
        assert _entries(kernel) == _entries(compiled), flavors
        assert kernel.grade == compiled.grade, flavors
    t2 = FUNCTIONALS["T2"]
    whole = compile_lift(n, t2.arg_flavors, t2.lift, t2.torsion_degree)
    assert (kernel_of(t2, n).denominator, whole.denominator) == (4, 2)


def test_blades_of_two_grade_classes_are_rejected_at_compile(monkeypatch):
    # c_1 is of class (1, 1) and c_1 c_2 c_3 of class (3, 1); the word c c c
    # traces both
    blades = [{0b1: 1, 0b111: 1}]
    with pytest.raises(ValueError, match=r"grade classes \[\(1, 1\), \(3, 1\)\], not one"):
        kernel_reference._compile_slots(4, ("c", "c", "c"), blades, 0)
    # a blade the word cannot trace does not count
    assert kernel_reference._compile_slots(4, ("c",), blades, 0).grade == (1, 1)
    # the table's compile, at n0 = 3, on the same blades of the three_c
    # slot, and with chat_1 (bit 3), which c c c cannot trace, for c_1 c_2 c_3
    compile_table = _table.__wrapped__
    monkeypatch.setattr(residue_module, "_term_blades", lambda n, terms, idx: dict(blades[0]))
    with pytest.raises(ValueError, match=r"grade classes \[\(1, 1\), \(3, 1\)\], not one"):
        compile_table(("c", "c", "c"), "three_c")
    monkeypatch.setattr(residue_module, "_term_blades", lambda n, terms, idx: {0b1: 1, 0b1000: 1})
    assert compile_table(("c", "c", "c"), "three_c").grade == (1, 1)


def _assert_placed_equals_compile_of_placed_lift(table, flavors, lift, degree, n, m):
    """Compiling the placed lift gives the table's tensor at n, as a ``{key:
    c / D}`` mapping, times the placement's weight, or no entry when the
    weight is 0; entry order carries no meaning."""
    kernel = kernel_reference.expand(table, n)
    for placement in ("before", "after", "interior"):
        weight = table.weight(placement, n, m)
        assert weight == (_grade_weight(n, placement, m, kernel.grade) if kernel.coeffs else 0)
        compiled = compile_lift(n, flavors, lambda form: cosphere_average(lift(form), placement, m), degree)
        assert compiled.basis == kernel.basis
        if not weight:
            assert (compiled.columns, compiled.coeffs, compiled.grade) == ((), (), None), placement
            continue
        assert compiled.grade == kernel.grade, placement
        scaled = {key: c * weight for key, c in _entries(kernel).items()}
        assert _entries(compiled) == scaled, placement


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("lemma_id", sorted(LEMMA_CHECKS))
def test_placed_lemma_kernels_equal_compiles_of_placed_lifts(lemma_id, n):
    """The plain kernel scaled by a placement's weight is the tensor,
    denominator aside, that compiling the placed lift gives: for the
    identity's own placements and for every other one."""
    spec = LEMMA_CHECKS[lemma_id]
    _assert_placed_equals_compile_of_placed_lift(
        _table(*shape_of(spec)), spec.word_flavors, lambda form: lemma_lift(spec.lift, form, n),
        spec.form_degree or 0, n, n // 2,
    )


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("functional_id", sorted(FUNCTIONALS))
def test_placed_density_kernels_equal_compiles_of_placed_lifts(functional_id, m):
    spec = FUNCTIONALS[functional_id]
    n = 2 * m
    _assert_placed_equals_compile_of_placed_lift(
        _table(*shape_of(spec)), spec.arg_flavors, spec.lift, spec.torsion_degree, n, m,
    )


def test_plain_placement_is_the_kernel_and_unknown_ones_raise():
    empty = _table(*shape_of(LEMMA_CHECKS["L3.5"]))
    assert not empty.types
    for table in (_table(*shape_of(LEMMA_CHECKS["L2.5"])), empty):
        assert table.weight("plain", 4) == 1
        for placement in ("interor", "Before", ""):
            with pytest.raises(ValueError, match="before, after or interior"):
                table.weight(placement, 4)
    assert empty.weight("before", 4) == empty.weight("interior", 4, 2) == 0


def _count_compiles(monkeypatch) -> list:
    """The ``(word, lift, n)`` of every table compile, from an empty table
    memo: each ``_table`` miss, with the one ``n`` its lift blades and letter
    paths are read at, its ``n0``."""
    calls, sizes = [], []
    table, term_blades, letter_paths = _table, residue_module._term_blades, residue_module._letter_paths

    def counted(word, lift):
        sizes.clear()
        misses = table.cache_info().misses
        compiled = table(word, lift)
        if table.cache_info().misses > misses:
            [n] = set(sizes)
            calls.append((word, lift, n))
        return compiled

    _table.cache_clear()
    monkeypatch.setattr(residue_module, "_term_blades", lambda n, *args: sizes.append(n) or term_blades(n, *args))
    monkeypatch.setattr(residue_module, "_letter_paths", lambda n, *args: sizes.append(n) or letter_paths(n, *args))
    monkeypatch.setattr(residue_module, "_table", counted)
    return calls


@pytest.mark.parametrize("lemma_id", sorted(LEMMA_CHECKS) + sorted(_LEMMA_ALIASES))
def test_lemma_check_compiles_one_kernel(monkeypatch, lemma_id):
    # one table per shape and process, whatever the n
    calls = _count_compiles(monkeypatch)
    lemma_check(lemma_id, 4, trials=1)
    assert len(calls) == 1
    lemma_check(lemma_id, 4, trials=1)
    lemma_check(lemma_id, 6, trials=1)
    assert len(calls) == 1


@pytest.mark.parametrize("m", [0, 1])
def test_theorem_below_order_two_is_rejected_before_compiling(monkeypatch, m):
    calls = _count_compiles(monkeypatch)
    with pytest.raises(ValueError, match="m must be >= 2"):
        verify_theorem("T1", m)
    assert calls == []


def test_default_lemma_suite_compiles_one_kernel_per_shape(monkeypatch):
    # ten shapes, one table each for n = 4 and 6: L2.4/L2.5,
    # L3.4a/L3.6a/L3.6b, L3.4b/L3.5, L3.7a/L3.9, L3.7b/L3.8,
    # L4.5/L4.6a/L4.6b, L4.7/L4.8 share tables; B5.8, B5.10 and M6.2 have
    # their own
    calls = _count_compiles(monkeypatch)
    reports = list(_run_checks("lemmas", DEFAULT_LEMMA_DIMENSIONS, (), (), 1, 0))
    assert len(reports) == 2 * len(LEMMA_CHECKS) == 38
    assert len(calls) == 10
    assert all(n <= 4 for _, _, n in calls)


def test_default_all_suite_compiles_each_shape_once(monkeypatch):
    # the 10 lemma tables, plus T2's and T3's: T1, T4 and T5 are the shapes
    # of L2.4, L4.5 and L4.7, and Psi1 and Psi2 those of B5.8 and B5.10; the
    # commutator check compiles no kernel
    calls = _count_compiles(monkeypatch)
    reports = list(_run_checks("all", DEFAULT_LEMMA_DIMENSIONS, DEFAULT_SYMBOL_ORDERS,
                               DEFAULT_COMMUTATOR_DIMENSIONS, 1, 0))
    assert len(reports) == 38 + 10 + 4 + 4
    assert len(calls) == 12


@pytest.mark.parametrize("n", [4, 6])
def test_memoized_lemma_kernels_are_immutable(n):
    # the memo holds tables, shared by every n; an expansion is the caller's
    for spec in [*LEMMA_CHECKS.values(), *FUNCTIONALS.values()]:
        table = _table(*shape_of(spec))
        assert _table(*shape_of(spec)) is table
        with pytest.raises(TypeError):
            table.types[1, (), (0, 0)] = 1
        kernel = kernel_of(spec, n)
        for part in (kernel.basis, kernel.columns, kernel.coeffs):
            assert type(part) is tuple
        assert all(type(column) is tuple for column in kernel.columns)


def _trials_drawn(report, trials: int) -> int:
    """The trials a check without a kernel ratio draws: every one on a pass,
    else those up to and including the first failure its detail names."""
    if report.passed:
        return trials
    return int(re.search(r"first at trial (\d+)", report.detail)[1]) + 1


def _count_contractions(monkeypatch) -> list:
    """The ``(contraction, n)`` of every call of a contraction that
    ``KernelTable.expand`` returns from here on, from empty memos."""
    calls = []
    expand = KernelTable.expand
    kernel_reference.fresh_memos(monkeypatch)

    def expanded(table, n):
        contract = expand(table, n)

        def counted(rows):
            calls.append((contract, n))
            return contract(rows)

        return counted

    monkeypatch.setattr(KernelTable, "expand", expanded)
    return calls


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("lemma_id", sorted(LEMMA_CHECKS))
def test_one_contraction_serves_every_placement(monkeypatch, lemma_id, n):
    """A kernel that is a ratio times its unit is never contracted: each
    trial's engine side is that ratio times the unit it draws, failing
    checks included.  The four_mixed kernels have none, so each trial up to
    and including the first failing one contracts one once for all its
    placements, unless every weight is 0."""
    spec = LEMMA_CHECKS[lemma_id]
    weighted = any(_table(*shape_of(spec)).weight(placement, n) for placement in spec.placements)
    calls = _count_contractions(monkeypatch)
    report = lemma_check(lemma_id, n, trials=3)
    assert len(calls) == _trials_drawn(report, 3) * (spec.lift == "four_mixed" and weighted)
    # one expansion at n, contracted on every trial
    assert len({id(contract) for contract, _ in calls}) <= 1
    assert all(size == n for _, size in calls)


@pytest.mark.parametrize("functional_id, contractions", [("T2", 0), ("T3", 0), ("T4", 1)])
def test_theorem_trials_contract_a_kernel_of_nonzero_weight(monkeypatch, functional_id, contractions):
    # T2 and T3 have a ratio (and T3's interior weight is 0), so only T4's
    # trials contract, up to and including the first failing one
    calls = _count_contractions(monkeypatch)
    for trials in (1, 3):
        calls.clear()
        report = verify_theorem(functional_id, 2, trials=trials)
        assert len(calls) == contractions * _trials_drawn(report, trials)


@pytest.mark.parametrize("functional_id", sorted(FUNCTIONALS))
def test_densities_compile_one_kernel_per_call(monkeypatch, functional_id):
    spec = FUNCTIONALS[functional_id]
    rng = random.Random(f"compiles:{functional_id}")
    T = random_form(4, spec.torsion_degree, rng)
    vectors = [random_vector(4, rng) for _ in spec.arg_flavors]
    calls = _count_compiles(monkeypatch)
    for call in (
        lambda: verify_theorem(functional_id, 2, trials=1),
        lambda: spectral_density(functional_id, T, vectors, 2),
        lambda: density_decomposition(functional_id, T, vectors, 2),
    ):
        # tables are memoized per shape, so each count starts from an empty memo
        _table.cache_clear()
        calls.clear()
        call()
        assert len(calls) == 1


# Past n = 16 the blade sign rules are wrong, and L2.4 and B5.8 gave false
# fails at n = 34; every entry point refuses n > MAX_DIMENSION, or m >
# MAX_DIMENSION // 2, before it builds a kernel slot or a boundary channel,
# whose counts, C(n, degree) and 2m, make a late refusal slow at large n.
PAST_MAX_M = MAX_DIMENSION // 2 + 1
PAST_MAX_N = 2 * PAST_MAX_M
E1 = basis_vector(PAST_MAX_N, 1)
PAST_MAX_DENSITY_ARGS = ("T1", AntiSymForm(PAST_MAX_N, 2, {(1, 2): Fraction(1)}), [E1, E1], PAST_MAX_M)
PAST_MAX_ENTRY_POINTS = {
    "lemma_check": lambda: lemma_check("L2.4", 34, trials=3),
    "lemma_check_boundary": lambda: lemma_check("B5.8", 34, trials=3),
    "verify_theorem": lambda: verify_theorem("T1", PAST_MAX_M, trials=1),
    "verify_boundary": lambda: verify_boundary("psi1", PAST_MAX_M, trials=1),
    "boundary_density": lambda: boundary_module.boundary_density("psi1", E1, E1, E1, PAST_MAX_M),
    "spectral_density": lambda: spectral_density(*PAST_MAX_DENSITY_ARGS),
    "density_decomposition": lambda: density_decomposition(*PAST_MAX_DENSITY_ARGS),
}


@pytest.mark.parametrize("entry_point", sorted(PAST_MAX_ENTRY_POINTS))
def test_entry_points_reject_n_past_max_dimension(monkeypatch, entry_point):
    def built(*args):
        raise AssertionError("built before the dimension check")

    monkeypatch.setattr(residue_module, "_term_blades", built)
    monkeypatch.setattr(boundary_module, "resolvent_symbol_channels", built)
    # a symbol order is refused by its own bound, m <= MAX_DIMENSION // 2
    bound = f"1 <= n <= {MAX_DIMENSION}" if entry_point.startswith("lemma") else f"m must be <= {PAST_MAX_M - 1}"
    with pytest.raises(ValueError, match=re.escape(bound) + ".*, got"):
        PAST_MAX_ENTRY_POINTS[entry_point]()


# each refused before any kernel is compiled: a trial count below 1, an
# unknown id, and a size that is odd, too small or past MAX_DIMENSION
BAD_CHECK_ARGUMENTS = {
    "lemma-trials": (lemma_check, ("L2.4", 4), {"trials": 0}, "trials must be >= 1"),
    "lemma-id": (lemma_check, ("L9.9", 4), {}, "unknown lemma id"),
    "lemma-odd-n": (lemma_check, ("L2.4", 5), {}, "n must be even"),
    "lemma-small-n": (lemma_check, ("L2.4", 2), {}, "n must be even"),
    "lemma-past-max": (lemma_check, ("L2.4", PAST_MAX_N), {}, "1 <= n <="),
    "theorem-trials": (verify_theorem, ("T2", 2), {"trials": 0}, "trials must be >= 1"),
    "theorem-id": (verify_theorem, ("T9", 2), {}, "unknown functional id"),
    "theorem-small-m": (verify_theorem, ("T2", 1), {}, "m must be >= 2"),
    "theorem-past-max": (verify_theorem, ("T2", PAST_MAX_M), {}, "m must be <= "),
    "boundary-trials": (verify_boundary, ("psi1", 3), {"trials": 0}, "trials must be >= 1"),
    "boundary-flavor": (verify_boundary, ("psi3", 3), {}, "flavor must be psi1 or psi2"),
    "boundary-small-m": (verify_boundary, ("psi1", 1), {}, "m must be >= 2"),
    "boundary-past-max": (verify_boundary, ("psi1", PAST_MAX_M), {}, "m must be <= "),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECK_ARGUMENTS))
def test_bad_check_arguments_compile_nothing(monkeypatch, case):
    check, args, kwargs, message = BAD_CHECK_ARGUMENTS[case]
    # a table compile from an empty memo, or an expansion at n
    compiled, expand = _count_compiles(monkeypatch), KernelTable.expand
    monkeypatch.setattr(KernelTable, "expand", lambda table, n: compiled.append((table, n)) or expand(table, n))
    with pytest.raises(ValueError, match=message):
        check(*args, **kwargs)
    assert compiled == []


def test_sides_decide_the_comparison_in_integers():
    # value * c / D == expected * unit exactly when c * left == unit * right for re and for im
    rng = random.Random(5)

    def draw():
        return GaussianRational(*(Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(2)))

    outcomes = set()
    for trial in range(400):
        p, c, unit, denominator = draw(), rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 12)
        q = p * Fraction(c, denominator * unit) if unit and trial % 2 else draw()
        holds = p * Fraction(c, denominator) == q * unit
        re_left, re_right, im_left, im_right = _sides(p.triple, q.triple, denominator)
        assert (c * re_left == unit * re_right and c * im_left == unit * im_right) is holds
        outcomes.add(holds)
    assert outcomes == {False, True}


@pytest.mark.parametrize("case", sorted(case for case in BAD_CHECK_ARGUMENTS if case.startswith("boundary-")))
def test_bad_boundary_arguments_build_no_channel(monkeypatch, case):
    # the residue weight is memoized, so it is cleared to make a build visible
    check, args, kwargs, message = BAD_CHECK_ARGUMENTS[case]
    original, built = boundary_module.resolvent_symbol_channels, []

    def recorded(n):
        built.append(n)
        return original(n)

    monkeypatch.setattr(boundary_module, "resolvent_symbol_channels", recorded)
    boundary_module._residue_weight.cache_clear()
    try:
        with pytest.raises(ValueError, match=message):
            check(*args, **kwargs)
        assert built == []
        verify_boundary("psi1", 3, trials=1)
        assert built == [6]
    finally:
        boundary_module._residue_weight.cache_clear()


# every lemma, theorem and boundary kernel shape
KERNEL_SHAPES = sorted(
    {(spec.word_flavors, spec.lift) for spec in LEMMA_CHECKS.values()}
    | {(spec.arg_flavors, spec.lift_kind) for spec in FUNCTIONALS.values()},
    key=repr,
)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_every_kernel_entry_has_its_own_key(n):
    # each entry comes from one blade of one slot, so a table can take the
    # direct compile's keys, and _ratio the table's types, without summing them
    assert len(KERNEL_SHAPES) == 12
    for word, lift in KERNEL_SHAPES:
        kernel = kernel_reference._compile(word, lift, n)
        assert len(set(zip(*kernel.columns))) == len(kernel.coeffs), (word, lift)


class TestKernelTraceInputs:
    """The densities refuse inputs of another shape instead of truncating
    them: ``spectral_density`` and ``density_decomposition`` check the form
    and the vectors, and ``boundary_density`` its three vectors."""

    DENSITIES = (spectral_density, density_decomposition)

    def test_vector_count_checked(self):
        T = AntiSymForm(4, 2, {(1, 2): Fraction(1)})
        vectors = [basis_vector(4, 1), basis_vector(4, 2), basis_vector(4, 3)]
        for density in self.DENSITIES:
            density("T1", T, vectors[:2], 2)
            for count in (1, 3):
                with pytest.raises(ValueError, match=f"^T1 takes 2 vectors, got {count}$"):
                    density("T1", T, vectors[:count], 2)
        e1, e4 = basis_vector(4, 1), basis_vector(4, 4)
        assert boundary_module.boundary_density("psi1", e4, e1, e1, 2) == boundary_module._residue_weight(2) * 16
        with pytest.raises(TypeError):
            boundary_module.boundary_density("psi1", e4, e1, 2)

    def test_empty_kernel_knows_its_vector_count(self):
        # T3's interior weight is 0, so its density is 0 on every input of its shape
        T = AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)})
        vectors = [basis_vector(4, 1), basis_vector(4, 2), basis_vector(4, 3)]
        assert spectral_density("T3", T, vectors, 2).is_zero
        for density in self.DENSITIES:
            with pytest.raises(ValueError, match="^T3 takes 3 vectors, got 2$"):
                density("T3", T, vectors[:2], 2)

    def test_form_checked(self):
        vectors = [basis_vector(4, 1), basis_vector(4, 2)]
        parts = density_decomposition("T1", AntiSymForm(4, 2, {(1, 2): Fraction(1)}), vectors, 2)
        assert parts["zero_order"] == sphere_volume(3) * (FUNCTIONALS["T1"].prefactor * -16)
        # read in the n = 4 basis order, this form's (5, 6) entry would be dropped
        wider = AntiSymForm(6, 2, {(1, 2): Fraction(1), (5, 6): Fraction(1)})
        refused = {
            "need n = 2m >= 4; got n=6, m=2": wider,
            "T1 needs a degree-2 form, got degree 3": AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)}),
            "T1 needs a degree-2 form, got None": None,
        }
        for density in self.DENSITIES:
            for message, form in refused.items():
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    density("T1", form, vectors, 2)

    def test_vector_length_checked(self):
        T = AntiSymForm(4, 2, {(1, 2): Fraction(1)})
        for short, long in ((basis_vector(4, 1)[:3], basis_vector(4, 2)), (basis_vector(4, 1), basis_vector(6, 2))):
            for density in self.DENSITIES:
                with pytest.raises(ValueError, match="^argument vector length must equal n$"):
                    density("T1", T, [short, long], 2)
            with pytest.raises(ValueError, match=re.escape("vectors must have length n = 2m = 4")):
                boundary_module.boundary_density("psi1", short, long, basis_vector(4, 3), 2)


# every inexact entry is refused by name, on the kappa route (T1, psi1) and
# on the expansion (T4)
INEXACT_ENTRIES = {"float": 1.5, "complex": 1j, "gaussian": GaussianRational(1, 1)}


@pytest.mark.parametrize("kind", sorted(INEXACT_ENTRIES))
def test_inexact_trace_inputs_are_refused(kind):
    bad = INEXACT_ENTRIES[kind]
    message = f"^trace inputs must be int or Fraction, got {re.escape(repr(bad))}$"
    e = [basis_vector(4, j) for j in range(1, 5)]
    exact = AntiSymForm(4, 2, {(1, 2): Fraction(1)})
    cases = [
        ("T1", exact, [(bad, 0, 0, 0), e[1]]),
        ("T1", AntiSymForm(4, 2, {(1, 2): bad}), e[:2]),
        ("T4", AntiSymForm(4, 4, {(1, 2, 3, 4): Fraction(1)}), [e[0], e[1], e[2], (0, bad, 0, 1)]),
    ]
    for functional_id, form, vectors in cases:
        for density in (spectral_density, density_decomposition):
            with pytest.raises(ValueError, match=message):
                density(functional_id, form, vectors, 2)
    with pytest.raises(ValueError, match=message):
        boundary_module.boundary_density("psi1", (bad, 0, 0, 1), e[0], e[0], 2)
    # ints, Fractions and bools are exact
    assert spectral_density("T1", exact, [(1, 0, 0, 0), (False, True, 0, 0)], 2) == spectral_density(
        "T1", exact, e[:2], 2)


# ---------------------------------------------------------------------------
# Frozen pass/fail statuses of the tabulated identities (both dimensions).
# ---------------------------------------------------------------------------

EXPECTED_LEMMA_STATUS = {
    "L2.4": "pass",
    "L2.5": "pass",
    "L3.4a": "pass",
    "L3.4b": "pass",
    "L3.5": "pass",
    "L3.6a": "pass",
    "L3.6b": "fail",
    "L3.7a": "fail",
    "L3.7b": "pass",
    "L3.8": "pass",
    "L3.9": "fail",
    "L4.5": "fail",
    "L4.6a": "fail",
    "L4.6b": "fail",
    "L4.7": "pass",
    "L4.8": "pass",
    "B5.8": "pass",
    "B5.10": "pass",
    "M6.2": "pass",
}


def test_lemma_id_registry_is_complete():
    assert lemma_ids() == sorted(LEMMA_CHECKS)
    assert set(EXPECTED_LEMMA_STATUS) == set(LEMMA_CHECKS)
    assert len(LEMMA_CHECKS) == 19


@pytest.mark.parametrize("n", [4, 6])
@pytest.mark.parametrize("lemma_id", sorted(EXPECTED_LEMMA_STATUS))
def test_lemma_check_statuses_are_frozen(lemma_id, n):
    report = lemma_check(lemma_id, n, trials=4, seed=0)
    assert report.status == EXPECTED_LEMMA_STATUS[lemma_id], (
        f"{lemma_id} at n={n}: computed={report.computed!r} expected={report.expected!r}"
    )
    if report.status == "fail":
        # honest failures must surface both exact values verbatim
        assert report.computed != report.expected
        assert report.computed and report.expected


@pytest.mark.parametrize(
    "alias,status",
    [
        ("L2.5a", "pass"),
        ("L2.5b", "pass"),
        ("L3.5a", "pass"),
        ("L3.5b", "pass"),
        ("L3.8a", "pass"),
        ("L3.8b", "pass"),
        ("L3.9a", "fail"),
        ("L3.9b", "fail"),
        ("L4.8a", "pass"),
        ("L4.8b", "pass"),
    ],
)
def test_single_placement_aliases_dispatch(alias, status):
    report = lemma_check(alias, 4, trials=3, seed=1)
    assert report.check_id == alias
    assert report.status == status


# ---------------------------------------------------------------------------
# Frozen engine values on explicit inputs.
# ---------------------------------------------------------------------------


class TestFrozenInstanceValues:
    def test_paired_minus_flavor_trace_on_basis_data(self):
        # tr(chat(u) chat(v) . sum T_kl chat_k chat_l) = -T(u, v) * 2^n
        n = 4
        T = AntiSymForm(n, 2, {(1, 2): Fraction(1)})
        word = clifford_word(n, [("chat", basis_vector(n, 1)), ("chat", basis_vector(n, 2))])
        assert trace_product(word, lift_two_chat(T)) == GaussianRational(Fraction(-16))

    def test_four_letter_mixed_trace_on_basis_data(self):
        # engine value +16; the tabulated closed form (-1/6 * T * Tr Id = -8/3)
        # disagrees and the corresponding check fails by design
        n = 4
        T = AntiSymForm(n, 4, {(1, 2, 3, 4): Fraction(1)})
        word = clifford_word(
            n,
            [
                ("c", basis_vector(n, 1)),
                ("c", basis_vector(n, 2)),
                ("chat", basis_vector(n, 3)),
                ("chat", basis_vector(n, 4)),
            ],
        )
        assert trace_product(word, lift_four_mixed(T)) == GaussianRational(Fraction(16))

    def test_metric_trace_sign_is_minus(self):
        # tr(c(u) c(v)) = -g(u, v) * 2^n on random data
        rng = random.Random(13)
        for n in (4, 6):
            u = random_vector(n, rng)
            v = random_vector(n, rng)
            word = clifford_word(n, [("c", u), ("c", v)])
            assert word.trace() == GaussianRational(-dot(u, v) * Fraction(1 << n))

    def test_three_minus_letters_against_normal_generator(self):
        # tr(c(u) c(v) c(w) c_n) = (u_n g(v,w) - v_n g(u,w) + w_n g(u,v)) 2^n
        from hodge_residue.exterior import clifford_generator

        rng = random.Random(17)
        for n in (4, 6):
            u, v, w = (random_vector(n, rng) for _ in range(3))
            word = clifford_word(n, [("c", u), ("c", v), ("c", w)])
            lhs = trace_product(word, clifford_generator("c", n, n))
            expected = (
                u[-1] * dot(v, w) - v[-1] * dot(u, w) + w[-1] * dot(u, v)
            ) * Fraction(1 << n)
            assert lhs == GaussianRational(expected)

    def test_mixed_word_against_normal_generator(self):
        # tr(c(u) chat(v) chat(w) c_n) = -u_n g(v,w) 2^n
        from hodge_residue.exterior import clifford_generator

        rng = random.Random(19)
        for n in (4, 6):
            u, v, w = (random_vector(n, rng) for _ in range(3))
            word = clifford_word(n, [("c", u), ("chat", v), ("chat", w)])
            lhs = trace_product(word, clifford_generator("c", n, n))
            assert lhs == GaussianRational(-u[-1] * dot(v, w) * Fraction(1 << n))


# ---------------------------------------------------------------------------
# Interior densities: frozen constants of proportionality.
# ---------------------------------------------------------------------------

# Engine-honest density coefficients (density = coeff * T(args) * V(S^{2m-1})).
# T4 is intentionally absent: its density is NOT proportional to T(args).
HONEST_DENSITY_COEFFS = {
    "T1": lambda m: GaussianRational(0, (2 * m - 1) * (1 << (2 * m))),
    "T2": lambda m: GaussianRational(-3 * (1 << (2 * m))),
    "T3": lambda m: GaussianRational(0),
    "T5": lambda m: GaussianRational(0, (-2 * m + 1) * (1 << (2 * m))),
}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("functional_id", sorted(HONEST_DENSITY_COEFFS))
def test_densities_match_engine_constants(functional_id, m):
    spec = FUNCTIONALS[functional_id]
    n = 2 * m
    rng = random.Random(f"density:{functional_id}:{m}")
    volume = sphere_volume(n - 1)
    coeff = HONEST_DENSITY_COEFFS[functional_id](m)
    for _ in range(3):
        T = random_form(n, spec.torsion_degree, rng)
        vectors = [random_vector(n, rng) for _ in spec.arg_flavors]
        density = spectral_density(functional_id, T, vectors, m)
        contraction = form_contract(T, vectors)
        assert density == volume * (coeff * contraction)


def test_fourth_functional_density_is_not_proportional_to_contraction():
    m, n = 2, 4
    spec = FUNCTIONALS["T4"]
    rng = random.Random("t4:witness")
    ratios = set()
    attempts = 0
    while len(ratios) < 2 and attempts < 40:
        attempts += 1
        T = random_form(n, 4, rng)
        vectors = [random_vector(n, rng) for _ in spec.arg_flavors]
        contraction = form_contract(T, vectors)
        if not contraction:
            continue
        density = spectral_density("T4", T, vectors, m)
        ratios.add(density.coefficient(spheres=(n - 1,)) / GaussianRational(contraction))
    assert len(ratios) >= 2, "density/contraction ratio was constant across trials"


# The paper's five coefficient formulas, each a multiple of V(S^{2m-1}): the
# reference that closed_form_coefficient, assembled from the lemma rows, is
# pinned to at every symbol order the engine takes.
PAPER_COEFFICIENTS = {
    "T1": lambda m: GaussianRational(0, (2 * m - 1) * 2 ** (2 * m)),
    "T2": lambda m: GaussianRational((3 - 18 * m) * 2 ** (2 * m - 1)),
    "T3": lambda m: GaussianRational((1 - 2 * m) * 2 ** (2 * m - 1)),
    "T4": lambda m: GaussianRational(0, Fraction(-2 * m - 1, 3) * 2 ** (2 * m - 1)),
    "T5": lambda m: GaussianRational(0, (-2 * m + 1) * 2 ** (2 * m)),
}
EXPECTED_CLOSED_FORMS = {
    (functional_id, m): sphere_volume(2 * m - 1) * formula(m)
    for functional_id, formula in PAPER_COEFFICIENTS.items() for m in range(2, MAX_DIMENSION // 2 + 1)
}


@pytest.mark.parametrize("key", sorted(EXPECTED_CLOSED_FORMS))
def test_closed_form_coefficient_table(key):
    functional_id, m = key
    assert closed_form_coefficient(functional_id, m) == EXPECTED_CLOSED_FORMS[key]


# Each functional's lemma rows by one-term lift, with alpha: the lift's term
# over its denominator, per the one-term lift's.
EXPECTED_ASSEMBLY = {
    "T1": {"two_chat": (1, {"L2.4", "L2.5"})},
    "T2": {"three_c": (Fraction(3, 2), {"L3.4a", "L3.6a", "L3.6b"}),
           "three_mixed": (Fraction(-1, 4), {"L3.4b", "L3.5"})},
    "T3": {"three_c": (Fraction(3, 2), {"L3.7b", "L3.8"}),
           "three_mixed": (Fraction(-1, 4), {"L3.7a", "L3.9"})},
    "T4": {"four_mixed": (1, {"L4.5", "L4.6a", "L4.6b"})},
    "T5": {"four_chat": (1, {"L4.7", "L4.8"})},
}


@pytest.mark.parametrize("functional_id", sorted(FUNCTIONALS))
def test_assembly_finds_one_lemma_row_per_lift_and_placement(functional_id):
    rows = residue_module._assembly(FUNCTIONALS[functional_id])
    found = {}
    for alpha, row in rows:
        assert row.unit == "form"
        _, ids = found.setdefault(row.lift, (alpha, set()))
        ids.add(row.lemma_id)
    assert found == EXPECTED_ASSEMBLY[functional_id]
    placements = collections.Counter((row.lift, placement) for _, row in rows for placement in row.placements)
    assert placements == {(lift, placement): 1 for lift in found for placement in ("plain", "before", "after")}


EXPECTED_THEOREM_STATUS = {
    "T1": "pass",
    "T2": "fail",
    "T3": "fail",
    "T4": "fail",
    "T5": "pass",
}


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("functional_id", sorted(EXPECTED_THEOREM_STATUS))
def test_verify_theorem_statuses_are_frozen(functional_id, m):
    report = verify_theorem(functional_id, m, trials=4, seed=0)
    assert report.status == EXPECTED_THEOREM_STATUS[functional_id]
    assert report.n == 2 * m
    if report.status == "fail":
        assert report.computed != report.expected


def test_verify_theorem_is_deterministic():
    a = verify_theorem("T2", 2, trials=3, seed=5).to_dict()
    b = verify_theorem("T2", 2, trials=3, seed=5).to_dict()
    assert a == b


def test_lemma_check_is_deterministic():
    a = lemma_check("L3.9", 4, trials=3, seed=5).to_dict()
    b = lemma_check("L3.9", 4, trials=3, seed=5).to_dict()
    assert a == b


class TestDensityDecomposition:
    def test_parts_recombine_to_total_and_match_density(self):
        m, n = 2, 4
        rng = random.Random(31)
        T = random_form(n, 3, rng)
        vectors = [random_vector(n, rng) for _ in range(3)]
        dec = density_decomposition("T2", T, vectors, m)
        assert dec["zero_order"] + dec["sandwich_per_m"] * Fraction(m) == dec["total"]
        assert dec["total"] == spectral_density("T2", T, vectors, m)

    def test_zero_order_unit_weight_on_basis_data(self):
        # zero-order part carries 3/2 per unit T(u,v,w) Tr(Id); the sandwich
        # part is the derived -9/n per unit, -9/4 * 2^{2m} = -36 V at m=2
        m, n = 2, 4
        T = AntiSymForm(n, 3, {(1, 2, 3): Fraction(1)})
        vectors = [basis_vector(n, j) for j in (1, 2, 3)]
        dec = density_decomposition("T2", T, vectors, m)
        volume = sphere_volume(n - 1)
        assert dec["zero_order"] == volume * Fraction(3, 2) * Fraction(1 << n)
        assert dec["sandwich_per_m"] == volume * Fraction(-36)
        assert dec["total"] == volume * Fraction(-48)


class TestInputValidation:
    def test_dimension_must_match_symbol_order(self):
        T = AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)})
        vecs = [basis_vector(4, j) for j in (1, 2, 3)]
        with pytest.raises(ValueError):
            spectral_density("T2", T, vecs, 3)

    def test_degree_must_match_functional(self):
        T = AntiSymForm(4, 2, {(1, 2): Fraction(1)})
        vecs = [basis_vector(4, j) for j in (1, 2, 3)]
        with pytest.raises(ValueError):
            spectral_density("T2", T, vecs, 2)

    def test_argument_count_must_match_functional(self):
        T = AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)})
        with pytest.raises(ValueError):
            spectral_density("T2", T, [basis_vector(4, 1)], 2)

    @pytest.mark.parametrize(
        "T,vectors,m",
        [
            (AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)}), [basis_vector(4, j) for j in (1, 2, 3)], 3),
            (AntiSymForm(4, 2, {(1, 2): Fraction(1)}), [basis_vector(4, j) for j in (1, 2, 3)], 2),
            (AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)}), [basis_vector(4, j) for j in (1, 2)], 2),
            (AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)}), [basis_vector(4, 1)[:3]] * 3, 2),
        ],
        ids=["n_not_2m", "wrong_degree", "two_vectors", "short_vectors"],
    )
    def test_decomposition_checks_its_arguments_like_the_density(self, T, vectors, m):
        with pytest.raises(ValueError):
            spectral_density("T2", T, vectors, m)
        with pytest.raises(ValueError):
            density_decomposition("T2", T, vectors, m)

    def test_unknown_ids_rejected(self):
        with pytest.raises(ValueError, match="unknown functional id 'T9'"):
            verify_theorem("T9", 2)
        T = AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)})
        with pytest.raises(ValueError, match="unknown functional id 'T9'"):
            spectral_density("T9", T, [basis_vector(4, j) for j in (1, 2, 3)], 2)
        with pytest.raises(ValueError):
            lemma_check("L9.9", 4)

    @pytest.mark.parametrize("check", [
        lambda: lemma_check("L2.4", 4, trials=0),
        lambda: verify_theorem("T1", 2, trials=0),
    ], ids=["lemma", "theorem"])
    def test_zero_trials_rejected(self, check):
        # the trial loop owns the rule (test_boundary covers verify_boundary)
        with pytest.raises(ValueError, match=re.escape("trials must be >= 1")):
            check()

    def test_lemma_check_requires_even_n_at_least_4(self):
        with pytest.raises(ValueError):
            lemma_check("L2.4", 3)
        with pytest.raises(ValueError):
            lemma_check("L2.4", 2)


class TestReportShape:
    def test_report_dict_has_exactly_the_report_keys(self):
        report = lemma_check("L2.4", 4, trials=2, seed=0)
        assert set(report.to_dict()) == {
            "id",
            "n",
            "trials",
            "status",
            "computed",
            "expected",
        }
        assert report.to_dict()["id"] == "L2.4"
        assert report.to_dict()["trials"] == 2

    def test_magnitude_policy_reports_observed_sign(self):
        # M6.2's sign is the table's -1, not one observed at run time: the
        # report's expected side carries it, and no note stands beside it
        spec, n = LEMMA_CHECKS["M6.2"], 4
        report = lemma_check("M6.2", n, trials=3, seed=0)
        assert spec.ratio == -1
        assert report.status == "pass"
        assert report.detail == ""
        draws = (_lemma_inputs(spec, "M6.2", n, 0, trial)[0] for trial in range(3))
        shown = next(vectors for vectors in draws if dot(*vectors))
        assert report.expected == SymbolicScalar.number(-dot(*shown) * (1 << n)).render()


# ---------------------------------------------------------------------------
# Verdict strictness of the integer comparison: a check whose table is moved
# must fail, and the values it reports must be the ones the word route
# (tests/word_reference.py) renders for the same trial.
# ---------------------------------------------------------------------------


def _first_failing_trial(report) -> int:
    assert report.status == "fail", report.to_dict()
    return int(re.search(r"first at trial (\d+)", report.detail).group(1))


def _lemma_inputs(spec, lemma_id, n, seed, trial):
    """The vectors and form ``lemma_check`` draws at ``trial``."""
    rng = random.Random(f"{seed}:lemma:{lemma_id}:{n}")
    for _ in range(trial + 1):
        vectors = [random_vector(n, rng) for _ in spec.word_flavors]
        form = random_form(n, spec.form_degree, rng) if spec.form_degree else None
    return vectors, form


def _word_route_lhs(spec, n, vectors, form):
    word = clifford_word(n, list(zip(spec.word_flavors, vectors)))
    return lemma_lhs(word, lemma_lift(spec.lift, form, n), "plain")


@pytest.mark.parametrize("n", [4, 6])
def test_lemma_ratio_moved_by_one_seventh_fails(monkeypatch, n):
    spec = LEMMA_CHECKS["L2.4"]._replace(ratio=LEMMA_CHECKS["L2.4"].ratio + Fraction(1, 7))
    monkeypatch.setitem(LEMMA_CHECKS, "L2.4", spec)
    report = lemma_check("L2.4", n, trials=5, seed=0)
    trial = _first_failing_trial(report)
    vectors, form = _lemma_inputs(spec, "L2.4", n, 0, trial)
    expected = SymbolicScalar.number(spec.ratio * form_contract(form, vectors) * (1 << n))
    assert report.computed == _word_route_lhs(spec, n, vectors, form).render()
    assert report.expected == expected.render()
    assert report.computed != report.expected


@pytest.mark.parametrize("shift", [GaussianRational(1), GaussianRational(0, 1)], ids=["real", "imaginary"])
@pytest.mark.parametrize("m", [2, 3])
def test_theorem_coefficient_moved_by_one_fails(monkeypatch, m, shift):
    table = residue_module.closed_form_coefficient

    def moved(functional_id, mm):
        return table(functional_id, mm) + SymbolicScalar.unit(shift, spheres=(2 * mm - 1,))

    monkeypatch.setattr(residue_module, "closed_form_coefficient", moved)
    report = verify_theorem("T1", m, trials=5, seed=0)
    trial = _first_failing_trial(report)
    spec, n = FUNCTIONALS["T1"], 2 * m
    rng = random.Random(f"0:theorem:T1:{m}")
    for _ in range(trial + 1):
        T = random_form(n, spec.torsion_degree, rng)
        vectors = [random_vector(n, rng) for _ in spec.arg_flavors]
    assert report.computed == word_reference.spectral_density(spec, T, vectors, m).render()
    assert report.expected == (moved("T1", m) * form_contract(T, vectors)).render()
    assert report.computed != report.expected


@pytest.mark.parametrize("module,table,check,unit", [
    (residue_module, "closed_form_coefficient", lambda: verify_theorem("T1", 2, trials=1, seed=0), "V(S^3)"),
    (boundary_module, "closed_form_boundary_coefficient", lambda: verify_boundary("psi1", 2, trials=1, seed=0),
     "pi * V(S^2)"),
], ids=["theorem", "boundary"])
def test_theorem_coefficient_off_the_sphere_unit_is_rejected(monkeypatch, module, table, check, unit):
    # the integer verdict compares multiples of the engine side's one unit;
    # a table entry with another unit must not be compared on its coefficient
    original = getattr(module, table)
    monkeypatch.setattr(module, table, lambda *args: original(*args) * PI)
    with pytest.raises(ValueError, match=re.escape(f"not a multiple of {unit}")):
        check()


@pytest.mark.parametrize("ratio", [2, -1, 1], ids=["two", "minus-one", "paper"])
def test_magnitude_sign_comes_from_the_kernel_ratio(monkeypatch, ratio):
    # M6.2's kernel is -1 times the metric unit's: the tabulated -1 passes
    # with nothing to note, and any other ratio, the paper's +1 among them,
    # fails with the word route's values
    spec = LEMMA_CHECKS["M6.2"]._replace(ratio=Fraction(ratio))
    monkeypatch.setitem(LEMMA_CHECKS, "M6.2", spec)
    n = 4
    report = lemma_check("M6.2", n, trials=6, seed=0)
    if ratio == -1:
        assert report.status == "pass"
        assert report.computed == report.expected != "0"
        assert report.detail == ""
        return
    trial = _first_failing_trial(report)
    vectors, form = _lemma_inputs(spec, "M6.2", n, 0, trial)
    assert report.computed == _word_route_lhs(spec, n, vectors, form).render()
    assert report.expected == SymbolicScalar.number(ratio * dot(*vectors) * (1 << n)).render()
    assert report.computed != report.expected


@pytest.mark.parametrize("n", [4, 8])
def test_derived_fractional_ratio_passes(monkeypatch, n):
    # L3.6b's derived ratio (n - 6)/n (README) has denominator n / gcd(n, 6),
    # so the integer verdict must keep the ratio's denominator
    spec = LEMMA_CHECKS["L3.6b"]._replace(ratio=Fraction(n - 6, n))
    monkeypatch.setitem(LEMMA_CHECKS, "L3.6b", spec)
    report = lemma_check("L3.6b", n, trials=3, seed=0)
    assert report.status == "pass", report.to_dict()
    rng = random.Random(f"0:lemma:L3.6b:{n}")
    while True:
        vectors = [random_vector(n, rng) for _ in spec.word_flavors]
        form = random_form(n, spec.form_degree, rng)
        unit = form_contract(form, vectors)
        if unit:
            break
    word = clifford_word(n, list(zip(spec.word_flavors, vectors)))
    expected = SymbolicScalar.number(spec.ratio * unit * (1 << n)) * sphere_volume(n - 1)
    assert report.computed == lemma_lhs(word, lemma_lift(spec.lift, form, n), "before").render()
    assert report.expected == expected.render() == report.computed


# ---------------------------------------------------------------------------
# The kernel ratio: a kernel tensor that is kappa times its unit's tensor is
# never contracted, and a check that holds on every input ends its trials at
# the pass its report shows.
# ---------------------------------------------------------------------------

UNIT_KINDS = [("form", 2), ("form", 3), ("form", 4), ("metric", 0), ("psi1", 0), ("psi2", 0)]


def unit_tensor(kind: str, n: int, degree: int) -> dict:
    """The reference tensor of ``residue._unit`` at ``n``, ``{(slot, j_1,
    ..., j_k): c}`` in the kernel's row layout (0-based ``j``): ``"form"`` is
    ``sgn s`` at ``(I, s(I))``, ``"metric"`` ``(0, j, j): 1``, the rest
    ``boundary_contraction``'s terms, summed."""
    if kind == "form":
        return {(slot,) + tuple(idx[p] for p in perm): sign
                for slot, idx in enumerate(itertools.combinations(range(n), degree))
                for perm, sign in residue_module._orderings(degree)}
    if kind == "metric":
        return {(0, j, j): 1 for j in range(n)}
    last, tensor = n - 1, {}
    for j in range(n):
        terms = (((0, last, j, j), 1), ((0, j, last, j), -1), ((0, j, j, last), 1))
        for key, c in terms[:3 if kind == "psi1" else 1]:
            tensor[key] = tensor.get(key, 0) + c
    return tensor


def _contract_tensor(tensor, rows):
    """``sum c * rows[0][key[0]] * ... * rows[k][key[k]]`` over a sparse tensor."""
    return sum(c * math.prod(row[i] for row, i in zip(rows, key)) for key, c in tensor.items())


@pytest.mark.parametrize("n", [4, 6, 8])
@pytest.mark.parametrize("kind, degree", UNIT_KINDS)
def test_unit_tensor_contracts_to_the_unit(kind, degree, n):
    # _unit reaches each kind by its own route: minors for a form, dot
    # products for the metric and the boundary contractions; the package's
    # unit table expands to the reference tensor
    letters = degree or (2 if kind == "metric" else 3)
    size = math.comb(n, degree) if degree else 0
    tensor = unit_tensor(kind, n, degree)
    table = KernelTable(letters, degree, 1, None, kind.startswith("psi"),
                        residue_module._unit_table(kind, degree), kind, 1)
    assert _entries(kernel_reference.expand(table, n)) == tensor
    contract = table.expand(n)
    rng = random.Random(f"unit-tensor:{kind}:{degree}:{n}")
    for _ in range(50):
        form = [rng.randint(-6, 6) for _ in range(size)]
        vectors = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(letters)]
        rows = [form or [1], *vectors]
        assert _contract_tensor(tensor, rows) == contract(rows) == residue_module._unit(kind, form, vectors)


def test_unit_tensor_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown unit kind 'psi3'"):
        residue_module._unit_table("psi3", 0)


# K = kappa U with kappa over the kernel's denominator, at every n tested; the
# four_mixed kernels are no multiple of their unit
KERNEL_RATIOS = {
    "L2.4": -1, "L2.5": -1, "L3.4a": 1, "L3.4b": 0, "L3.5": 0, "L3.6a": 1, "L3.6b": 1, "L3.7a": 2,
    "L3.7b": 0, "L3.8": 0, "L3.9": 2, "L4.5": None, "L4.6a": None, "L4.6b": None, "L4.7": 1, "L4.8": 1,
    "B5.8": 1, "B5.10": -1, "M6.2": -1,
    "T1": -1, "T2": Fraction(3, 2), "T3": Fraction(-1, 2), "T4": None, "T5": 1,
}


@pytest.mark.parametrize("n", [4, 6, 8, 10])
@pytest.mark.parametrize("name", list(KERNEL_RATIOS))
def test_kernel_ratio_to_its_unit(name, n):
    spec = LEMMA_CHECKS.get(name) or FUNCTIONALS[name]
    unit = getattr(spec, "unit", "form")
    table = _table(*shape_of(spec))
    kappa = residue_module._ratio(table, unit, n)
    if KERNEL_RATIOS[name] is None:
        assert kappa is None
        return
    assert type(kappa) is int and Fraction(kappa, table.denominator) == KERNEL_RATIOS[name]
    # the kernel's own contraction against _unit's minors or dot products
    contract = table.expand(n)
    rng = random.Random(f"ratio:{name}:{n}")
    size = math.comb(n, table.degree) if table.degree else 0
    for _ in range(50):
        form = [rng.randint(-6, 6) for _ in range(size)]
        vectors = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(table.letters)]
        assert contract([form or [1], *vectors]) == kappa * residue_module._unit(unit, form, vectors)


@pytest.mark.parametrize("n", [4, 6])
def test_kernel_with_entries_off_the_unit_support_has_no_ratio(n):
    # B5.8's kernel is the psi1 contraction's tensor, which agrees with the
    # psi2 tensor on every key of the latter and has more keys besides
    table = _table(*shape_of(LEMMA_CHECKS["B5.8"]))
    assert residue_module._ratio(table, "psi1", n) == 1
    assert residue_module._ratio(table, "psi2", n) is None


# ---------------------------------------------------------------------------
# Order-type tables: one compile per shape, at n0, expanded per n only to
# contract, held to the per-n direct compile of tests/kernel_reference.py.
# Odd n are held-out points: no check runs there.
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _direct(word, lift, n: int) -> TraceKernel:
    """The direct compile at n, the reference the tables are held to."""
    return kernel_reference._compile(word, lift, n)


def test_tables_equal_the_tables_read_off_the_direct_compile():
    # the engine compiles each table at n0 straight from the lift's blades
    # and letter paths; the reference reads it off the tensor at n0
    assert len(KERNEL_SHAPES) == 12
    for word, lift in KERNEL_SHAPES:
        table, reference = _table(word, lift), kernel_reference.table_of(word, lift)
        assert dict(table.types) == dict(reference.types), (word, lift)
        # the unit and kappa are held to the full tensors' decision below
        assert table._replace(types=None, unit=None, kappa=None) == reference._replace(types=None), (word, lift)


# each check shape with the one unit it is checked against; B5.8/Psi1 take
# psi1, and B5.10/Psi2, which share a shape, psi2
CHECK_UNITS = {
    **dict.fromkeys(KERNEL_SHAPES, "form"),
    **{(spec.word_flavors, spec.lift): spec.unit for spec in LEMMA_CHECKS.values() if spec.unit != "form"},
}


@pytest.mark.parametrize("n", range(1, MAX_DIMENSION + 1))
def test_table_expansions_equal_direct_compiles(n):
    assert len(KERNEL_SHAPES) == 12
    for word, lift in KERNEL_SHAPES:
        expanded, direct = kernel_reference.expand(_table(word, lift), n), _direct(word, lift, n)
        assert _entries(expanded) == _entries(direct), (word, lift)
        assert (expanded.basis, expanded.letters, expanded.grade) == (direct.basis, direct.letters, direct.grade)


@pytest.mark.parametrize("n", range(1, MAX_DIMENSION + 1))
def test_table_contractions_equal_direct_compiles(n):
    # the engine's contraction at n against the direct compile's on random
    # integer rows
    rng = random.Random(f"table-contraction:{n}")
    for word, lift in KERNEL_SHAPES:
        table, direct = _table(word, lift), _direct(word, lift, n)
        contract = table.expand(n)
        for _ in range(3):
            form = [rng.randint(-6, 6) for _ in range(math.comb(n, table.degree))] if table.degree else [1]
            rows = [form, *([rng.randint(-6, 6) for _ in range(n)] for _ in word)]
            assert contract(rows) == direct.contract(rows), (word, lift)


def _reference_ratio(kernel: TraceKernel, unit: str) -> Fraction:
    """``kappa / D`` with ``K = kappa U`` on the full tensors at the kernel's
    n, else None."""
    expected = unit_tensor(unit, kernel.n, kernel.degree)
    engine = dict.fromkeys(expected, 0)
    engine.update(zip(zip(*kernel.columns), kernel.coeffs))
    k0, u0 = next(((engine[key], u) for key, u in expected.items()), (0, 1))
    if any(c * u0 != k0 * expected.get(key, 0) for key, c in engine.items()):
        return None
    return Fraction(k0, u0 * kernel.denominator)


def test_table_ratio_is_the_full_tensor_decision_at_every_n():
    """The ratio decided on the two tables' types is the one decided on the
    full tensors of the direct compile and the reference unit at n = 4 ... 14,
    and the same at every n from the table's n0 on."""
    decided = 0
    for (word, lift), unit in sorted(CHECK_UNITS.items(), key=repr):
        table = _table(word, lift)
        n0 = max(r for r, _, _ in table.types) if table.types else 1
        assert n0 <= 4, (word, lift)
        ratios = {n: residue_module._ratio(table, unit, n) for n in range(n0, MAX_DIMENSION + 1)}
        assert len(set(ratios.values())) == 1, (word, lift, unit)
        for n in range(4, MAX_DIMENSION + 1):
            kappa = ratios[n]
            reference = _reference_ratio(_direct(word, lift, n), unit)
            assert reference == (None if kappa is None else Fraction(kappa, table.denominator)), (word, lift, n)
            decided += 1
    assert decided == 12 * 11


def test_compiled_kappa_is_the_ratio_at_every_n():
    """Each check shape's table decides kappa once, against its one unit, as
    it compiles: the ratio at every n from its n0 to 14, and None for the
    four_mixed shape alone."""
    for (word, lift), unit in sorted(CHECK_UNITS.items(), key=repr):
        table = _table(word, lift)
        assert table.unit == unit, (word, lift)
        for n in range(kernel_reference.n0_of(word, lift), MAX_DIMENSION + 1):
            assert table.kappa == residue_module._ratio(table, unit, n), (word, lift, n)
        assert (table.kappa is None) == (lift == "four_mixed"), (word, lift)
    assert len(CHECK_UNITS) == 12


def _record_tables(monkeypatch) -> tuple:
    """The ratio decisions ``(types, unit, n)`` and the expansions ``(types,
    n)`` of the calls that follow, from empty table and contraction memos."""
    decided, expanded = [], []
    ratio, expand = residue_module._ratio, KernelTable.expand
    monkeypatch.setattr(residue_module, "_ratio", lambda table, unit, n: decided.append(
        (table.types, unit, n)) or ratio(table, unit, n))
    monkeypatch.setattr(KernelTable, "expand", lambda table, n: expanded.append((table.types, n)) or expand(table, n))
    kernel_reference.fresh_memos(monkeypatch)
    return decided, expanded


@pytest.mark.parametrize("m", [2, 3])
def test_theorems_decide_and_expand_only_where_weighted(monkeypatch, m):
    # each theorem's table decides its ratio once, when it is compiled, over
    # every type (T3's too, though its interior weight is 0), and no check
    # decides one; only T4, with no ratio, expands, once at n = 2m for all its
    # checks
    decided, expanded = _record_tables(monkeypatch)
    for functional_id in sorted(FUNCTIONALS):
        decided.clear()
        expanded.clear()
        for seed in (0, 1):
            verify_theorem(functional_id, m, seed=seed)
        types = residue_module._table(*shape_of(FUNCTIONALS[functional_id])).types
        assert decided == [(types, "form", MAX_DIMENSION)], functional_id
        assert expanded == ([(types, 2 * m)] if functional_id == "T4" else []), functional_id


def test_theorem_suite_compiles_five_tables_and_expands_only_t4(monkeypatch):
    _, expanded = _record_tables(monkeypatch)
    calls = _count_compiles(monkeypatch)
    list(_run_checks("theorems", (), DEFAULT_SYMBOL_ORDERS, (), 20, 0))
    n0 = {"T1": 2, "T2": 3, "T3": 3, "T4": 4, "T5": 4}
    assert sorted(calls) == sorted((*shape_of(spec), n0[name]) for name, spec in FUNCTIONALS.items())
    t4 = _table(*shape_of(FUNCTIONALS["T4"])).types
    assert expanded == [(t4, 2 * m) for m in DEFAULT_SYMBOL_ORDERS]


def test_each_shape_decides_kappa_once_per_process(monkeypatch):
    """In one process the default lemma suite decides kappa 10 times, once
    per table, for its 38 checks, and builds 2 four_mixed contractions, one
    per n, for its 5 weighted four_mixed checks; the default all suite
    decides 12, once per shape across its suites."""
    decided, expanded = _record_tables(monkeypatch)
    list(_run_checks("lemmas", DEFAULT_LEMMA_DIMENSIONS, (), (), 20, 0))
    four_mixed = residue_module._table(*shape_of(LEMMA_CHECKS["L4.5"])).types
    assert len(decided) == 10
    assert expanded == [(four_mixed, 4), (four_mixed, 6)]
    decided, _ = _record_tables(monkeypatch)
    list(_run_checks("all", DEFAULT_LEMMA_DIMENSIONS, DEFAULT_SYMBOL_ORDERS, DEFAULT_COMMUTATOR_DIMENSIONS, 20, 0))
    assert len(decided) == 12


STOP_CASES = (
    [(lemma_check, lemma_id, n) for lemma_id in sorted(LEMMA_CHECKS) + sorted(_LEMMA_ALIASES) for n in (4, 6, 8)]
    + [(verify_theorem, functional_id, m) for functional_id in sorted(FUNCTIONALS) for m in (2, 3, 4)]
    + [(verify_boundary, flavor, m) for flavor in ("psi1", "psi2") for m in (2, 3)]
)


# sha256 of the repr of every STOP_CASES report at seeds 0, 3, 11 and trials
# 1, 3, 20, in that order: it pins every field of every report, detail
# included.  Re-recorded when a check's trials came to end at the trial that
# decides it: a failing detail no longer counts the disagreeing comparisons
# of trials it does not draw, and reads "comparisons disagree; first at
# trial j".  Re-recorded when M6.2's sign moved into its tabulated ratio:
# its passing detail no longer notes an observed sign, and is empty.
# Re-recorded when the status came to be decided on the table, before any
# trial: of the 954 reports only two moved, the vacuous passes of L4.5 at
# n = 4 (seed 0, 1 trial) and of L4.6b at n = 4 (seed 11, 1 trial), whose
# one trial has a zero form contraction.  They now read "fail", with "0" for
# both values and the detail "comparisons disagree; no trial separated the
# sides".
STOP_CASE_REPORTS_SHA256 = "23d92063b5ac6eec0df093b59f14332f050c911cbdebef2d60b11eee315a5ff8"
# the same reports with detail emptied, recorded from the route that drew
# every trial of a failing check, before the stop at the deciding trial, and
# re-recorded for the two statuses above
STOP_CASE_OUTPUT_SHA256 = "b612cdc2d28b302b7b642cece3cdda4886792b2a11e7dc77ee25022d55c8989b"


@functools.lru_cache(maxsize=None)
def _stop_case_reports() -> tuple:
    return tuple(check(name, size, trials, seed) for check, name, size in STOP_CASES
                 for seed in (0, 3, 11) for trials in (1, 3, 20))


def test_stop_case_reports_are_pinned():
    text = "\n".join(map(repr, _stop_case_reports()))
    assert hashlib.sha256(text.encode()).hexdigest() == STOP_CASE_REPORTS_SHA256


def test_stop_case_outputs_are_pinned():
    text = "\n".join(repr(report._replace(detail="")) for report in _stop_case_reports())
    assert hashlib.sha256(text.encode()).hexdigest() == STOP_CASE_OUTPUT_SHA256


def _stop_case_draws(check, name: str, size: int, seed: int):
    """A stop case's table, n, unit kind and placements, and a ``draw()`` of
    its next trial's ``(form, vectors)`` from a replay of its stream, in the
    check's order: a lemma draws the vectors then the form, a theorem the
    form then the vectors, and a boundary density three vectors, no form."""
    if check is verify_boundary:
        n, unit, placements = 2 * size, name, ("plain",)
        rng = random.Random(f"{seed}:boundary:{name}:{size}")
        table = _table(boundary_module._flavor_row(name).word_flavors, "normal_c")
        return table, n, unit, placements, lambda: (None, [random_vector(n, rng) for _ in range(3)])
    if check is verify_theorem:
        spec, n, unit, placements = FUNCTIONALS[name], 2 * size, "form", ("interior",)
        rng = random.Random(f"{seed}:theorem:{name}:{size}")

        def draw():
            form = random_form(n, spec.torsion_degree, rng)
            return form, [random_vector(n, rng) for _ in spec.arg_flavors]

        return _table(*shape_of(spec)), n, unit, placements, draw
    base_id, placement = _LEMMA_ALIASES.get(name, (name, None))
    spec, n = LEMMA_CHECKS[base_id], size
    rng = random.Random(f"{seed}:lemma:{name}:{n}")
    placements = (placement,) if placement else spec.placements

    def draw():
        vectors = [random_vector(n, rng) for _ in spec.word_flavors]
        return (random_form(n, spec.form_degree, rng) if spec.form_degree else None), vectors

    return _table(*shape_of(spec)), n, spec.unit, placements, draw


def _unit_is_zero(unit: str, form, vectors) -> bool:
    if unit == "form":
        return form_contract(form, vectors) == 0
    if unit == "metric":
        return dot(*vectors) == 0
    return residue_module.boundary_contraction(unit, *vectors) == 0


@pytest.mark.parametrize("check, name, size", STOP_CASES,
                         ids=[f"{name}-{size}" for _, name, size in STOP_CASES])
def test_trials_drawn_are_the_deciding_ones(monkeypatch, check, name, size):
    """With a ratio (or every weight 0) a check draws its trials up to and
    including the first whose unit is not 0, taken from a replay of its
    stream; without one, up to and including its first failure, else all."""
    units = []
    unit_of = residue_module._unit
    monkeypatch.setattr(residue_module, "_unit", lambda *args: units.append(args) or unit_of(*args))
    for seed in (0, 3):
        units.clear()
        report = check(name, size, 20, seed)
        table, n, unit, placements, draw = _stop_case_draws(check, name, size, seed)
        weighted = any(table.weight(placement, n, n // 2) for placement in placements)
        if weighted and residue_module._ratio(table, unit, n) is None:
            assert len(units) == _trials_drawn(report, 20)
            continue
        deciding = next((j for j in range(20) if not _unit_is_zero(unit, *draw())), None)
        assert len(units) == (20 if deciding is None else deciding + 1)
        if not report.passed:
            assert f"first at trial {deciding}" in report.detail


# every check id, with the aliases, at the default sizes n = 4, 6 and m = 2, 3
DEFAULT_SIZE_CASES = [(check, name, size) for check, name, size in STOP_CASES
                      if size in ((4, 6) if check is lemma_check else (2, 3))]


def test_status_does_not_depend_on_the_draw():
    """A check's status is decided on its table, so one trial at any seed
    gives the 20-trial status.  A trial whose unit is 0 once made a false
    identity pass: L4.5 at n = 4 passed at 47 of 300 seeds with 1 trial."""
    moved = []
    for check, name, size in DEFAULT_SIZE_CASES:
        status = check(name, size, 20, 0).status
        moved += [(name, size, seed) for seed in range(200) if check(name, size, 1, seed).status != status]
    assert moved == []


def _ratio_off(monkeypatch):
    """No kernel has a ratio, so every trial contracts its kernel: the tables
    compiled from here on, in empty memos, decide none."""
    monkeypatch.setattr(residue_module, "_ratio", lambda table, unit, n: None)
    kernel_reference.fresh_memos(monkeypatch)


@pytest.mark.parametrize("check, name, size", STOP_CASES,
                         ids=[f"{name}-{size}" for _, name, size in STOP_CASES])
def test_identity_stop_changes_no_report(monkeypatch, check, name, size):
    """Contracting every trial finds a failure's first disagreeing trial where
    the ratio does.  Told that no ratio exists, a weighted check fails by its
    table; on a passing one every contraction equals ``ratio * unit``, so no
    trial separates the sides."""
    stopped = [check(name, size, seed=seed) for seed in (0, 3)]
    table, n, unit, placements, _ = _stop_case_draws(check, name, size, 0)
    weighted = any(table.weight(placement, n, n // 2) for placement in placements)
    _ratio_off(monkeypatch)
    contracted = [check(name, size, seed=seed) for seed in (0, 3)]
    for off, on in zip(contracted, stopped):
        if check is verify_boundary:
            # the proportionality sentence is the ratio's
            assert "nonconstant" in off.detail
            on = on._replace(detail=re.sub(r": holds; (engine constant [^=]*= )[^;]*;", r": FAILS; \1nonconstant;",
                                           on.detail))
        if on.passed and weighted:
            unseparated = "comparisons disagree; no trial separated the sides"
            on = on._replace(status="fail", computed="0", expected="0",
                             detail="; ".join(filter(None, (unseparated, on.detail))))
        assert off == on


@pytest.mark.parametrize("n", [4, 6, 8])
def test_identity_stop_keeps_a_moved_ratio_failing(monkeypatch, n):
    monkeypatch.setitem(LEMMA_CHECKS, "L4.7", LEMMA_CHECKS["L4.7"]._replace(ratio=Fraction(2)))
    stopped = lemma_check("L4.7", n)
    assert stopped.status == "fail"
    _ratio_off(monkeypatch)
    assert lemma_check("L4.7", n) == stopped
