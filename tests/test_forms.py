"""Unit tests for antisymmetric forms, contractions, operator lifts, JSON IO."""

import itertools
import json
import random
import re
import sys
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodge_residue.forms import (
    AntiSymForm,
    form_contract,
    form_from_json,
    lift_four_chat,
    lift_four_mixed,
    lift_three_c,
    lift_three_mixed,
    lift_torsion_assembly,
    _as_fraction,
    _as_int,
    _minor_contract,
    _minor_plan,
    _random_doubled,
    lift_two_chat,
    random_form,
    random_vector,
    vectors_from_json,
)
from json_fuzz import JSON_PAYLOADS
from mixed_rationals import mixed_form, mixed_vector
from word_reference import add, generator_word, lift_monotone, lift_ordered, scale, zero


class TestAntiSymForm:
    def test_entries_are_antisymmetrized(self):
        form = AntiSymForm(4, 2, {(2, 1): Fraction(3)})
        assert form.value((1, 2)) == Fraction(-3)
        assert form.value((2, 1)) == Fraction(3)
        assert form.entries == {(1, 2): Fraction(-3)}

    def test_repeated_indices_vanish(self):
        form = AntiSymForm(4, 2, {(1, 2): Fraction(1)})
        assert form.value((1, 1)) == 0

    def test_conflicting_assignments_rejected(self):
        with pytest.raises(ValueError):
            AntiSymForm(4, 2, {(1, 2): Fraction(1), (2, 1): Fraction(1)})

    def test_consistent_duplicate_assignments_accepted(self):
        form = AntiSymForm(4, 2, {(1, 2): Fraction(1), (2, 1): Fraction(-1)})
        assert form.value((1, 2)) == Fraction(1)

    def test_degree_and_range_validation(self):
        with pytest.raises(ValueError):
            AntiSymForm(4, 2, {(1, 5): Fraction(1)})
        with pytest.raises(ValueError):
            AntiSymForm(4, 2, {(1, 2, 3): Fraction(1)})


class TestFormContract:
    def test_contract_is_determinant_of_components(self):
        rng = random.Random(2)
        n = 4
        form = random_form(n, 3, rng)
        u, v, w = (random_vector(n, rng) for _ in range(3))
        direct = form_contract(form, [u, v, w])
        total = Fraction(0)
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                for c in range(1, n + 1):
                    total += form.value((a, b, c)) * u[a - 1] * v[b - 1] * w[c - 1]
        assert direct == total

    @pytest.mark.parametrize("degree", [0, 1, 2, 4, 5])
    def test_contract_is_full_index_sum_in_every_degree(self, degree):
        rng = random.Random(f"contract:{degree}")
        n = 5
        cases = [
            (random_form(n, degree, rng), [random_vector(n, rng) for _ in range(degree)])
            for _ in range(5)
        ] + [
            (mixed_form(n, degree, rng), [mixed_vector(n, rng) for _ in range(degree)])
            for _ in range(5)
        ]
        for form, vectors in cases:
            total = Fraction(0)
            for idx in itertools.product(range(1, n + 1), repeat=degree):
                term = form.value(idx)
                for vec, j in zip(vectors, idx):
                    term *= vec[j - 1]
                total += term
            assert form_contract(form, vectors) == total

    def test_sparse_form_contract_reads_only_its_columns(self):
        rng = random.Random("contract:sparse")
        n = 9
        cases = [
            AntiSymForm(n, 3, {(2, 5, 9): Fraction(3, 2), (5, 7, 9): Fraction(-2)}),
            AntiSymForm(n, 2, {(1, 8): Fraction(1, 3)}),
            AntiSymForm(n, 3, {}),
        ]
        for form in cases:
            vectors = [mixed_vector(n, rng) for _ in range(form.degree)]
            total = Fraction(0)
            for idx in itertools.permutations(range(1, n + 1), form.degree):
                term = form.value(idx)
                for vec, j in zip(vectors, idx):
                    term *= vec[j - 1]
                total += term
            assert form_contract(form, vectors) == total

    def test_contract_alternates_in_arguments(self):
        rng = random.Random(7)
        n = 4
        form = random_form(n, 2, rng)
        u, v = (random_vector(n, rng) for _ in range(2))
        assert form_contract(form, [u, v]) == -form_contract(form, [v, u])
        assert form_contract(form, [u, u]) == 0

    def test_contract_on_basis_vectors_reads_entries(self):
        form = AntiSymForm(4, 2, {(1, 3): Fraction(5, 2)})
        e1 = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        e3 = [Fraction(0), Fraction(0), Fraction(1), Fraction(0)]
        assert form_contract(form, [e1, e3]) == Fraction(5, 2)
        assert form_contract(form, [e3, e1]) == Fraction(-5, 2)


def _leibniz(n: int, values, rows) -> int:
    """``sum_I values[I] sum_sigma sgn(sigma) prod_a rows[a][I[sigma(a)]]``
    over increasing 0-based ``I`` in basis order, term by term."""
    total = 0
    for value, idx in zip(values, itertools.combinations(range(n), len(rows))):
        for perm in itertools.permutations(range(len(rows))):
            inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
            term = -value if inversions & 1 else value
            for row, p in zip(rows, perm):
                term *= row[idx[p]]
            total += term
    return total


class TestMinorPlan:
    @pytest.mark.parametrize("n", range(8))
    def test_plan_equals_leibniz_sum(self, n):
        rng = random.Random(f"minor-plan:{n}")
        for degree in range(n + 1):
            for case in range(4):
                rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(degree)]
                if degree and case == 3:
                    rows[rng.randrange(degree)] = [0] * n
                values = [rng.randint(-3, 3) for _ in range(comb(n, degree))]
                assert _minor_contract(n, values, rows) == _leibniz(n, values, rows), (degree, case)

    def test_plan_is_built_once_per_shape(self):
        assert _minor_plan(6, 3) is _minor_plan(6, 3)
        assert [len(level) for level in _minor_plan(6, 3)] == [1, 2, 3]

    def test_degree_zero_and_one(self):
        assert _minor_contract(3, [5], []) == 5
        assert _minor_contract(3, [1, -2, 3], [[4, 5, 6]]) == 4 - 10 + 18
        assert _minor_contract(1, [7], [[-2]]) == -14


class TestLifts:
    def test_monotone_lift_on_single_entry(self):
        form = AntiSymForm(4, 2, {(1, 3): Fraction(2)})
        lifted = lift_monotone(form, ("chat", "chat"))
        expected = scale(generator_word(4, [("chat", 1), ("chat", 3)]), Fraction(2))
        assert lifted == expected

    def test_two_chat_sums_over_increasing_pairs(self):
        form = AntiSymForm(4, 2, {(1, 2): Fraction(1), (3, 4): Fraction(-1, 2)})
        expected = add(generator_word(4, [("chat", 1), ("chat", 2)]),
                       scale(generator_word(4, [("chat", 3), ("chat", 4)]), Fraction(-1, 2)))
        assert lift_two_chat(form) == expected

    def test_ordered_lift_sums_all_distinct_triples(self):
        form = AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)})
        lifted = lift_ordered(form, ("c", "chat", "chat"))
        total = zero(4)
        import itertools

        for triple in itertools.permutations((1, 2, 3)):
            word = generator_word(
                4, [("c", triple[0]), ("chat", triple[1]), ("chat", triple[2])]
            )
            total = add(total, scale(word, form.value(triple)))
        assert lifted == total

    @given(
        st.lists(st.sampled_from(("c", "chat")), min_size=1, max_size=4),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_lifts_are_sums_of_scaled_generator_words(self, flavors, seed):
        n = 5
        form = mixed_form(n, len(flavors), random.Random(seed))
        monotone = zero(n)
        for idx, coeff in form.entries.items():
            monotone = add(monotone, scale(generator_word(n, list(zip(flavors, idx))), coeff))
        ordered = zero(n)
        for idx in itertools.permutations(range(1, n + 1), len(flavors)):
            ordered = add(ordered, scale(generator_word(n, list(zip(flavors, idx))), form.value(idx)))
        assert lift_monotone(form, flavors) == monotone
        assert lift_ordered(form, flavors) == ordered

    def test_lifts_reject_unknown_flavors(self):
        form = AntiSymForm(4, 2, {(1, 2): Fraction(1)})
        for lift in (lift_monotone, lift_ordered):
            with pytest.raises(ValueError):
                lift(form, ("c", "x"))
            with pytest.raises(ValueError):
                lift(form, ("c",))

    def test_torsion_assembly_combination(self):
        rng = random.Random(4)
        form = random_form(4, 3, rng)
        expected = add(scale(lift_three_c(form), Fraction(3, 2)), scale(lift_three_mixed(form), Fraction(-1, 4)))
        assert lift_torsion_assembly(form) == expected

    def test_lift_degree_validation(self):
        form2 = AntiSymForm(4, 2, {(1, 2): Fraction(1)})
        form3 = AntiSymForm(4, 3, {(1, 2, 3): Fraction(1)})
        form4 = AntiSymForm(4, 4, {(1, 2, 3, 4): Fraction(1)})
        with pytest.raises(ValueError):
            lift_two_chat(form3)
        with pytest.raises(ValueError):
            lift_three_c(form2)
        with pytest.raises(ValueError):
            lift_four_mixed(form3)
        assert not lift_four_chat(form4).is_zero
        assert not lift_four_mixed(form4).is_zero

    def test_lifts_are_linear_in_the_form(self):
        rng = random.Random(12)
        n = 4
        a = random_form(n, 3, rng)
        b = random_form(n, 3, rng)
        summed = AntiSymForm(
            n, 3, {t: a.value(t) + b.value(t) for t in itertools.combinations(range(1, n + 1), 3)}
        )
        assert lift_three_c(summed) == add(lift_three_c(a), lift_three_c(b))


class TestRandomData:
    def test_random_form_is_reproducible(self):
        a = random_form(4, 3, random.Random(99))
        b = random_form(4, 3, random.Random(99))
        assert a == b

    def test_random_values_have_small_denominators(self):
        rng = random.Random(1)
        form = random_form(6, 2, rng)
        for value in form.entries.values():
            assert value.denominator in (1, 2)
            assert abs(value) <= 3
        vec = random_vector(6, rng)
        assert len(vec) == 6
        for x in vec:
            assert x.denominator in (1, 2) and abs(x) <= 3


    @pytest.mark.parametrize("length", [1, 2, 3, 7, 64, 1001])
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_doubled_draw_reads_the_stream_of_randint_then_choice(self, seed, length):
        # the draw reads getrandbits directly; a change to how random.Random
        # draws randint or choice must fail here by name
        ours, reference = random.Random(seed), random.Random(seed)
        drawn = _random_doubled(length, ours)
        expected = [2 * Fraction(reference.randint(-3, 3), reference.choice((1, 2))) for _ in range(length)]
        assert drawn == expected
        assert all(type(x) is int for x in drawn)
        assert ours.getstate() == reference.getstate()

    def test_random_form_and_vector_halve_the_doubled_draw(self):
        ours, reference = random.Random(3), random.Random(3)
        form = random_form(6, 3, ours)
        doubled = _random_doubled(20, reference)
        basis = itertools.combinations(range(1, 7), 3)
        assert form == AntiSymForm(6, 3, {idx: Fraction(x, 2) for idx, x in zip(basis, doubled)})
        assert list(form.entries) == sorted(form.entries)
        assert random_vector(6, ours) == [Fraction(x, 2) for x in _random_doubled(6, reference)]
        assert ours.getstate() == reference.getstate()


def form_to_json(form: AntiSymForm) -> dict:
    """The JSON payload that :func:`form_from_json` reads back as ``form``."""
    return {
        "n": form.n,
        "degree": form.degree,
        "entries": [
            {"idx": list(idx), "value": str(value)}
            for idx, value in sorted(form.entries.items())
        ],
    }


class TestJsonRoundTrip:
    def test_form_round_trip(self):
        rng = random.Random(21)
        form = random_form(4, 3, rng)
        data = form_to_json(form)
        again = form_from_json(json.dumps(data))
        assert again == form

    def test_form_from_dict_and_vectors(self):
        form = form_from_json(
            {
                "n": 4,
                "degree": 2,
                "entries": [{"idx": [2, 1], "value": "-3/2"}],
            }
        )
        assert form.value((1, 2)) == Fraction(3, 2)
        vectors = vectors_from_json(
            {"vectors": [["1", "0", "1/2", "0"], ["0", "-2", "0", "1"]]}
        )
        assert vectors[0][2] == Fraction(1, 2)
        assert vectors[1][1] == Fraction(-2)

    def test_form_from_json_file(self, tmp_path):
        form = AntiSymForm(4, 2, {(1, 4): Fraction(-1, 2)})
        path = tmp_path / "form.json"
        path.write_text(json.dumps(form_to_json(form)), encoding="utf-8")
        assert form_from_json(path) == form

    def test_bad_payloads_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            form_from_json({"n": 4, "degree": 2, "entries": [{"idx": [1], "value": "1"}]})
        with pytest.raises((ValueError, KeyError)):
            vectors_from_json({"vectors": "nope"})

    def test_decimal_exponent_is_bounded_by_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        assert _as_fraction(f"1e{limit}", "a value") == 10 ** limit
        for text in (f"1e{limit + 1}", f"-1e-{limit + 1}"):
            message = f"a value must have a decimal exponent of at most {limit} in magnitude, got '{text}'"
            with pytest.raises(ValueError, match=re.escape(message)):
                _as_fraction(text, "a value")
        with pytest.raises(ValueError, match="a value must be a rational number, got '1e'"):
            _as_fraction("1e", "a value")
        # a digit string past the limit, which int() itself refuses, is
        # named as such, in an exponent and in an integer
        text = "1e" + "9" * (limit + 1)
        message = f"a value must have a decimal exponent of at most {limit} in magnitude, got '{text}'"
        with pytest.raises(ValueError, match=re.escape(message)):
            _as_fraction(text, "a value")
        # Fraction converts the numerator, the decimal part and the
        # denominator separately: each run of digits is held to the limit,
        # not their sum
        for text in ("9" * (limit + 1), "1/" + "9" * (limit + 1), "0." + "9" * (limit + 1)):
            message = f"a value must have at most {limit} digits in a row, got '{text}'"
            with pytest.raises(ValueError, match=re.escape(message)):
                _as_fraction(text, "a value")
        assert _as_fraction("9" * (limit - 1) + "/" + "9" * (limit - 1), "a value") == 1
        assert _as_int("9" * limit, '"n"') == 10 ** limit - 1
        digits = "9" * (limit + 1)
        message = f'"n" must be an integer of at most {limit} digits, got {digits!r}'
        with pytest.raises(ValueError, match=re.escape(message)):
            _as_int(digits, '"n"')
        with pytest.raises(ValueError, match=re.escape('"n" must be an integer, got \'9x\'')):
            _as_int("9x", '"n"')

    def test_str_is_json_text_never_a_path(self, tmp_path, monkeypatch):
        form = AntiSymForm(4, 2, {(1, 4): Fraction(-1, 2)})
        (tmp_path / "form.json").write_text(json.dumps(form_to_json(form)), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError):
            form_from_json("form.json")
        with pytest.raises(ValueError):
            vectors_from_json("vectors.json")

    @given(JSON_PAYLOADS)
    @settings(max_examples=200, deadline=None)
    def test_any_json_loads_or_raises_value_error(self, payload):
        for load in (form_from_json, vectors_from_json):
            for data in (payload, json.dumps(payload)):
                try:
                    load(data)
                except ValueError:
                    pass
