"""Unit tests for sphere moments, cosphere averages, flat-space operators."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

import flat_reference
from flat_reference import PolyForm, codifferential, coordinate_multiply, exterior_derivative
from hodge_residue import forms, symbols
from hodge_residue.exterior import (
    MAX_DIMENSION,
    LinearOp,
    _blade_action,
    _generator_key,
    _parity_below,
    clifford_generator,
    trace_product,
)
from hodge_residue.forms import AntiSymForm, lift_two_chat, random_form
from hodge_residue.residue import LEMMA_CHECKS
from hodge_residue.scalars import GaussianRational, SymbolicScalar, sphere_volume
from hodge_residue.symbols import (
    _flat_derivative,
    _grade_weight,
    check_flat_commutators,
    sphere_moment,
)
from matrix_reference import from_entries
from word_reference import add, cosphere_average, generator_word, scale
from xi_reference import average, integrand, interior_integrand


class TestSphereMoments:
    def test_zero_exponent_gives_total_volume(self):
        assert sphere_moment((0, 0, 0, 0), 4) == sphere_volume(3)

    def test_any_odd_exponent_vanishes(self):
        assert sphere_moment((1, 0, 0, 0), 4).is_zero
        assert sphere_moment((1, 1, 0, 0), 4).is_zero
        assert sphere_moment((2, 1, 0, 1), 4).is_zero
        assert sphere_moment((3, 0, 0, 0), 4).is_zero

    def test_quadratic_moment_is_volume_over_n(self):
        for n in (2, 4, 6):
            alpha = (2,) + (0,) * (n - 1)
            assert sphere_moment(alpha, n) == sphere_volume(n - 1) * Fraction(1, n)

    def test_quartic_moments(self):
        # integral xi_1^4 = 3 V / (n (n+2)); integral xi_1^2 xi_2^2 = V / (n (n+2))
        n = 4
        v = sphere_volume(3)
        assert sphere_moment((4, 0, 0, 0), n) == v * Fraction(3, 24)
        assert sphere_moment((2, 2, 0, 0), n) == v * Fraction(1, 24)

    def test_moment_depends_only_on_multiset(self):
        n = 6
        base = (2, 4, 0, 2, 0, 0)
        for perm in itertools.islice(itertools.permutations(base), 40):
            assert sphere_moment(perm, n) == sphere_moment(base, n)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            sphere_moment((2, 0), 4)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            sphere_moment((2, -2, 0, 0), 4)


class TestInteriorIntegrand:
    """The explicit reference integrand that :class:`TestCosphereAverage` uses."""

    def test_zero_order_term_is_scaled_weight(self):
        n = 4
        theta = lift_two_chat(AntiSymForm(n, 2, {(1, 2): Fraction(1)}))
        poly = interior_integrand(theta, 2)
        assert poly[(0,) * n] == theta
        poly_i = interior_integrand(theta, 2, GaussianRational(Fraction(0), Fraction(1)))
        assert poly_i[(0,) * n] == scale(theta, GaussianRational(Fraction(0), Fraction(1)))

    def test_quadratic_terms_have_expected_structure(self):
        n = 4
        m = 2
        theta = lift_two_chat(AntiSymForm(n, 2, {(1, 2): Fraction(1)}))
        poly = interior_integrand(theta, m)
        c1 = clifford_generator("c", n, 1)
        c2 = clifford_generator("c", n, 2)
        # diagonal term alpha = 2 e_1
        alpha = (2, 0, 0, 0)
        expected = scale(add(c1 @ theta, theta @ c1) @ c1, m)
        assert poly[alpha] == expected
        # cross term alpha = e_1 + e_2 collects both orders
        alpha = (1, 1, 0, 0)
        expected = add(scale(add(c1 @ theta, theta @ c1) @ c2, m), scale(add(c2 @ theta, theta @ c2) @ c1, m))
        assert poly[alpha] == expected

    def test_exponent_set_is_constants_plus_quadratics(self):
        n = 4
        theta = LinearOp.identity(n)
        poly = interior_integrand(theta, 3)
        alphas = set(poly)
        assert (0,) * n in alphas
        assert all(sum(a) in (0, 2) for a in alphas)
        assert len(alphas) == 1 + n * (n + 1) // 2


# the named lifts the lemma checks compile
LEMMA_LIFTS = sorted({spec.lift for spec in LEMMA_CHECKS.values()} - {None, "normal_c"})


def _random_lift(name, n, rng):
    """A lift the lemma checks use, on a random form where it takes one."""
    if name == "identity":
        return LinearOp.identity(n)
    if name == "normal_c":
        return clifford_generator("c", n, n)
    degree = next(spec.form_degree for spec in LEMMA_CHECKS.values() if spec.lift == name)
    return getattr(forms, f"lift_{name}")(random_form(n, degree, rng))


def test_grade_weight_is_the_closed_form():
    # before = -(-1)^g (n - 2a) / n, after = -1, interior = 1 + m (before + after)
    for n in range(1, MAX_DIMENSION + 1):
        for a, odd in itertools.product(range(n + 1), (0, 1)):
            before = Fraction(n - 2 * a if odd else 2 * a - n, n)
            assert _grade_weight(n, "before", 1, (a, odd)) == before
            assert _grade_weight(n, "after", 1, (a, odd)) == -1
            for m in range(1, 8):
                assert _grade_weight(n, "interior", m, (a, odd)) == 1 + m * (before - 1)
        assert _grade_weight(n, "interior", 3, None) == 0


class TestCosphereAverage:
    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("name", LEMMA_LIFTS + ["identity", "normal_c"])
    def test_equals_explicit_xi_polynomial_route(self, name, n):
        rng = random.Random(f"cosphere:{name}:{n}")
        nonzero = 0
        for _ in range(2):
            op = _random_lift(name, n, rng)
            for placement in ("before", "after", "interior"):
                for m in (1, n // 2, n):
                    averaged = cosphere_average(op, placement, m)
                    assert averaged == average(integrand(op, placement, m), n), (placement, m)
                    nonzero += not averaged.is_zero
        assert nonzero

    def test_trace_matches_manual_moment_sum(self):
        n = 2
        rng = random.Random(8)
        word = generator_word(n, [("chat", 1), ("chat", 2)])
        theta = from_entries(
            n,
            [
                (rng.randrange(4), rng.randrange(4), Fraction(rng.randint(-3, 3)))
                for _ in range(6)
            ],
        )
        manual = SymbolicScalar()
        for alpha, op in interior_integrand(theta, 2).items():
            manual = manual + sphere_moment(alpha, n) * trace_product(word, op)
        averaged = cosphere_average(theta, "interior", 2)
        assert sphere_volume(n - 1) * trace_product(word, averaged) == manual

    def test_unknown_placement_rejected(self):
        # the weight law is the one place a placement name is checked: "plain"
        # has no weights, and a misspelt name must not fall through to any,
        # whatever the grade
        for placement in ("plain", "interor", "Before"):
            for grade in ((0, 0), (1, 1), None):
                with pytest.raises(ValueError, match="before, after or interior"):
                    _grade_weight(4, placement, 1, grade)
            with pytest.raises(ValueError, match="before, after or interior"):
                cosphere_average(LinearOp.identity(4), placement)


class TestFlatOperators:
    """The reference route of :mod:`flat_reference` (operator columns)."""

    def test_exterior_derivative_of_function_monomial(self):
        n = 2
        # d(x_1) = e_1
        form = PolyForm.monomial(n, (1, 0), 0)
        out = exterior_derivative(form)
        assert out == PolyForm.monomial(n, (0, 0), 0b01)

    def test_exterior_derivative_squares_to_zero(self):
        n = 3
        form = PolyForm.monomial(n, (2, 1, 0), 0b001, Fraction(3, 2))
        assert exterior_derivative(exterior_derivative(form)).is_zero

    def test_codifferential_squares_to_zero(self):
        n = 3
        form = PolyForm.monomial(n, (1, 2, 0), 0b011, Fraction(1, 2))
        assert codifferential(codifferential(form)).is_zero

    def test_codifferential_lowers_degree(self):
        n = 2
        # delta(x_1 e_1) = -1
        form = PolyForm.monomial(n, (1, 0), 0b01)
        out = codifferential(form)
        assert out == PolyForm.monomial(n, (0, 0), 0, -1)

    def test_coordinate_multiplication(self):
        n = 2
        form = PolyForm.monomial(n, (1, 0), 0b10, Fraction(2))
        assert coordinate_multiply(1, form) == PolyForm.monomial(n, (2, 0), 0b10, Fraction(2))


def _packed_d_and_dstar(n, terms):
    """``d`` and ``d*`` of ``{(beta, mask): coeff}`` through the engine's packed
    helper: a ``d`` term has the same coefficient in ``d + d*`` and ``d - d*``,
    a ``d*`` term opposite ones."""
    d, dstar = {}, {}
    for key, coeff in flat_reference.pack(n, terms).items():
        plus, minus = _flat_derivative(key, n)
        assert plus.keys() == minus.keys()
        for out, c in plus.items():
            assert minus[out] in (c, -c)
            part = d if minus[out] == c else dstar
            part[out] = part.get(out, 0) + coeff * c
    return tuple(flat_reference.unpack(n, {k: c for k, c in part.items() if c}) for part in (d, dstar))


class TestBitmaskFlatOperators:
    """``d`` and ``d*`` of the engine's check, on packed monomial keys."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_agree_term_by_term_with_reference_route(self, n):
        for omega in flat_reference.monomial_forms(n, 3):
            d, dstar = _packed_d_and_dstar(n, omega.terms)
            assert d == exterior_derivative(omega).terms, omega
            assert dstar == codifferential(omega).terms, omega

    @pytest.mark.parametrize("n", [3, 4])
    def test_d_and_codifferential_square_to_zero(self, n):
        nonzero = 0
        for omega in flat_reference.monomial_forms(n, 4):
            for part in (0, 1):
                once = _packed_d_and_dstar(n, omega.terms)[part]
                nonzero += bool(once)
                assert _packed_d_and_dstar(n, once)[part] == {}, (omega, part)
        assert nonzero

    @pytest.mark.parametrize("full", ["top", "every"])
    @pytest.mark.parametrize("mask", [0, (1 << MAX_DIMENSION) - 1], ids=["none", "all"])
    def test_full_fields_at_the_largest_dimension_do_not_wrap(self, full, mask):
        # beta_j = 3 fills its 2-bit field: a width or offset bug would carry
        # into the neighbouring field, or past the top one at n = MAX_DIMENSION
        n = MAX_DIMENSION
        beta = (0,) * (n - 1) + (3,) if full == "top" else (3,) * n
        omega = PolyForm.monomial(n, beta, mask)
        d, dstar = _packed_d_and_dstar(n, omega.terms)
        assert d == exterior_derivative(omega).terms
        assert dstar == codifferential(omega).terms
        assert d or dstar


class TestFlatCommutators:
    @pytest.mark.parametrize("n", [2, 4, 11, 12, 13, 14])
    def test_both_identities_hold_on_low_degree_monomials(self, n):
        records = check_flat_commutators(n)
        assert records, "no commutator records produced"
        assert all(rec["ok"] for rec in records)
        assert all(rec["mismatches"] == 0 for rec in records)
        # every beta with |beta| <= 2 on every mask
        assert all(rec["monomials"] == 2 ** n * (n + 1) * (n + 2) // 2 for rec in records)
        identities = {rec["identity"] for rec in records}
        assert identities == {"c", "chat"}
        ks = {rec["k"] for rec in records}
        assert ks == set(range(1, n + 1))

    def test_monomial_budget_counts_polynomial_degrees_below_three(self, n=2):
        records = check_flat_commutators(n)
        # dim Lambda* = 4 masks, exponent tuples with |beta| < 3 in 2 vars = 6
        assert all(rec["monomials"] == 24 for rec in records)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_records_equal_reference_route(self, n):
        assert check_flat_commutators(n) == flat_reference.check_flat_commutators(n)

    @pytest.mark.parametrize("module, generator_of", [
        (symbols, "_generator_key"), (flat_reference, "clifford_generator"),
    ], ids=["engine", "reference"])
    def test_counts_the_monomials_that_disagree(self, module, generator_of, monkeypatch):
        # hold the chat side to c(e_k): c_k and chat_k agree on the masks
        # without k and differ on the other half, 12 of the 24 monomials at n = 2
        generator = getattr(module, generator_of)
        monkeypatch.setattr(module, generator_of, lambda flavor, n, k: generator("c", n, k))
        _fresh_type_memo(monkeypatch)
        records = module.check_flat_commutators(2)
        assert [(r["identity"], r["ok"], r["mismatches"]) for r in records] == [
            ("c", True, 0), ("chat", False, 12), ("c", True, 0), ("chat", False, 12),
        ]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_records_equal_the_enumeration(self, n):
        # the order types and their closed-form counts against every (k, beta, M)
        assert check_flat_commutators(n) == flat_reference.enumerated_flat_commutators(n)

    @pytest.mark.parametrize("mutant", ["dstar_sign", "own_bit", "double_two", "no_chat_parity"])
    def test_mutants_disagree_equally_on_both_routes(self, mutant, monkeypatch):
        if mutant == "no_chat_parity":
            monkeypatch.setattr(symbols, "_blade_action", _blade_action_without_chat_parity)
        else:
            monkeypatch.setattr(symbols, "_flat_derivative", _mutant_flat_derivative(mutant))
        _fresh_type_memo(monkeypatch)
        for n in range(1, 8):
            records = check_flat_commutators(n)
            assert records == flat_reference.enumerated_flat_commutators(n), n
            # the chat parity reads the bits below k, none of them at n = 1
            assert sum(r["mismatches"] for r in records) or (mutant, n) == ("no_chat_parity", 1), n

    @pytest.mark.parametrize("n", [0, -1, MAX_DIMENSION + 1])
    def test_rejects_empty_or_unsupported_sizes(self, n):
        with pytest.raises(ValueError):
            check_flat_commutators(n)


def _fresh_type_memo(monkeypatch):
    """An empty per-process memo of the order types' verdicts for one test,
    so that a patched step reaches every type it evaluates."""
    memo = functools.lru_cache(maxsize=None)(symbols._type_mismatches.__wrapped__)
    monkeypatch.setattr(symbols, "_type_mismatches", memo)


def _mutant_flat_derivative(mutant):
    """``_flat_derivative`` with one fault: the ``d*`` terms' sign flipped, the
    sign read with the bit of ``j`` itself, or ``beta_j = 2`` read as 4."""
    def derivative(key, n):
        mask = key & ((1 << n) - 1)
        plus, minus = {}, {}
        for j in range(n):
            b = (key >> (n + 2 * j)) & 3
            if not b:
                continue
            bit = 1 << j
            out = (key - (1 << (n + 2 * j))) ^ bit
            b = 4 if mutant == "double_two" and b == 2 else b
            below = mask & ((bit << 1) - 1 if mutant == "own_bit" else bit - 1)
            c = -b if below.bit_count() & 1 else b
            if mask & bit:
                c = -c if mutant == "dstar_sign" else c
                plus[out], minus[out] = -c, c
            else:
                plus[out] = minus[out] = c
        return plus, minus
    return derivative


def _blade_action_without_chat_parity(n, key, mask):
    """``_blade_action`` with the ``chat`` factors' parity term dropped."""
    a, b = key & ((1 << n) - 1), key >> n
    mid = mask ^ b
    odd = ((_parity_below(mid) ^ mid) & a).bit_count() & 1
    return (-1 if odd else 1), mid ^ a


class TestBladeActionAtLargeN:
    @pytest.mark.parametrize("n", range(11, MAX_DIMENSION + 1))
    def test_agrees_with_the_generator_route_on_sample_masks(self, n):
        # the commutator suite reaches these sizes; _parity_below holds to bit 16
        rng = random.Random(n)
        top = (1 << n) - 1
        samples = [(0, top), (top << n, top), ((1 << 2 * n) - 1, top ^ 1), ((1 << n) - 1, 0)]
        samples += [(rng.getrandbits(2 * n), rng.getrandbits(n)) for _ in range(200)]
        for j in (1, n):
            for flavor in ("c", "chat"):
                samples += [(_generator_key(flavor, n, j), mask) for mask in (0, top, rng.getrandbits(n))]
        for key, mask in samples:
            assert _blade_action(n, key, mask) == flat_reference.blade_column(n, key, mask), (key, mask)
