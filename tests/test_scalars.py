"""Unit tests for exact scalar types and symbolic constants."""

import math
import re
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hodge_residue.scalars import (
    I,
    PI,
    GaussianRational,
    SymbolicScalar,
    _reduced,
    as_gaussian,
    sphere_volume,
    sphere_volume_float,
)
from fraction_pair_reference import FractionPairGaussian

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=16
)
gaussians = st.builds(GaussianRational, rationals, rationals)
nonzero_gaussians = gaussians.filter(bool)


class TestGaussianRational:
    def test_basic_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), Fraction(3))
        b = GaussianRational(Fraction(-2), Fraction(1, 4))
        assert a + b == GaussianRational(Fraction(-3, 2), Fraction(13, 4))
        assert a - b == GaussianRational(Fraction(5, 2), Fraction(11, 4))
        assert a * b == GaussianRational(
            Fraction(1, 2) * Fraction(-2) - Fraction(3) * Fraction(1, 4),
            Fraction(1, 2) * Fraction(1, 4) + Fraction(3) * Fraction(-2),
        )

    def test_i_squares_to_minus_one(self):
        assert I * I == GaussianRational(Fraction(-1))
        assert I * I * I * I == GaussianRational(Fraction(1))

    def test_division_and_inverse(self):
        a = GaussianRational(Fraction(3), Fraction(-2))
        assert a / a == GaussianRational(Fraction(1))
        assert a * (GaussianRational(1) / a) == GaussianRational(Fraction(1))
        with pytest.raises(ZeroDivisionError):
            a / GaussianRational(Fraction(0))

    def test_equality_and_hash_match_rationals(self):
        assert GaussianRational(Fraction(3, 2)) == Fraction(3, 2)
        assert hash(GaussianRational(Fraction(3, 2))) == hash(Fraction(3, 2))
        assert GaussianRational(Fraction(2)) == 2
        assert GaussianRational(Fraction(0), Fraction(1)) != 1

    def test_complex_conversion(self):
        assert complex(GaussianRational(Fraction(1, 2), Fraction(-3))) == 0.5 - 3j

    def test_never_equal_to_a_float_complex(self):
        # 1/3 is not a float, and equal values must hash alike: an exact
        # scalar compares only with exact ones
        assert GaussianRational(Fraction(1, 3)) != complex(1 / 3)
        assert GaussianRational(Fraction(1), Fraction(1)) != 1 + 1j
        assert len({GaussianRational(Fraction(1), Fraction(1)), 1 + 1j}) == 2

    def test_rendering(self):
        assert str(GaussianRational(Fraction(0))) == "0"
        assert str(GaussianRational(Fraction(-1, 8))) == "-1/8"
        assert str(GaussianRational(Fraction(0), Fraction(1))) == "i"
        assert str(GaussianRational(Fraction(0), Fraction(-1))) == "-i"
        assert str(GaussianRational(Fraction(0), Fraction(3))) == "3 i"
        assert str(GaussianRational(Fraction(2), Fraction(-5, 2))) == "2 - 5/2 i"

    @given(gaussians, gaussians, gaussians)
    def test_field_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a

    @given(nonzero_gaussians)
    def test_multiplicative_inverse(self, a):
        assert a * (GaussianRational(Fraction(1)) / a) == GaussianRational(Fraction(1))

    def test_as_gaussian_coercions(self):
        assert as_gaussian(3) == GaussianRational(Fraction(3))
        assert as_gaussian(Fraction(1, 2)) == GaussianRational(Fraction(1, 2))
        assert as_gaussian(I) is I


BIG = 10 ** 30
big_ints = st.integers(-BIG, BIG)
# 0, small and large integers, small fractions, and fractions with large numerators and denominators
parts = st.one_of(
    st.just(0), st.integers(-9, 9), big_ints, rationals, st.builds(Fraction, big_ints, st.integers(1, BIG)),
)


@st.composite
def gaussian_pairs(draw):
    """A ``GaussianRational`` and the reference value: a general, pure real or
    pure imaginary one from parts, or one from a triple scaled by a common factor."""
    shape = draw(st.sampled_from(["general", "real", "imaginary", "scaled triple"]))
    if shape == "scaled triple":
        a, b, d, k = draw(big_ints), draw(big_ints), draw(st.integers(1, BIG)), draw(st.integers(1, 10 ** 6))
        return _reduced(k * a, k * b, k * d), FractionPairGaussian(Fraction(a, d), Fraction(b, d))
    re_part = 0 if shape == "imaginary" else draw(parts)
    im_part = 0 if shape == "real" else draw(parts)
    return GaussianRational(re_part, im_part), FractionPairGaussian(re_part, im_part)


def assert_matches(value, reference):
    """``value`` is a reduced triple with the reference's value, text, float and truth."""
    assert type(value) is GaussianRational
    a, b, d = value.triple
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (value.re, value.im) == (reference.re, reference.im)
    assert (str(value), repr(value)) == (str(reference), repr(reference))
    assert complex(value) == complex(reference)
    assert bool(value) is bool(reference)
    if not reference.im:
        assert hash(value) == hash(reference) == hash(reference.re)


@contextmanager
def fractions_built():
    """The argument tuples of every ``Fraction`` built inside the block."""
    raw, built = vars(Fraction)["__new__"], []

    def counted(cls, *args, **kwargs):
        built.append(args)
        return raw.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counted
    try:
        yield built
    finally:
        Fraction.__new__ = raw


class TestAgainstFractionPairs:
    """The integer triple against :class:`FractionPairGaussian`, the pair of
    ``Fraction`` parts it replaces."""

    @given(gaussian_pairs(), gaussian_pairs())
    def test_field_operations_and_equality(self, x, y):
        (a, ra), (b, rb) = x, y
        assert_matches(a, ra)
        for value, reference in ((a + b, ra + rb), (a - b, ra - rb), (a * b, ra * rb), (-a, -ra)):
            assert_matches(value, reference)
        if rb:
            assert_matches(a / b, ra / rb)
        else:
            with pytest.raises(ZeroDivisionError):
                a / b
        assert (a == b) is (ra == rb) and (a != b) is (ra != rb)
        assert a == a + 0 and hash(a) == hash(a + 0) == hash(a * 1)

    @given(gaussian_pairs(), parts)
    def test_rational_operands(self, x, q):
        a, ra = x
        for value, reference in ((a + q, ra + q), (q + a, q + ra), (a - q, ra - q), (q - a, q - ra),
                                 (a * q, ra * q), (q * a, q * ra)):
            assert_matches(value, reference)
        if q:
            assert_matches(a / q, ra / q)
        assert (a == q) is (ra == q)
        numerator, _, denominator = a.triple
        for near in (numerator, Fraction(numerator, denominator + 1)):
            assert (a == near) is (ra == near)
        if a == q:
            assert hash(a) == hash(q)
        assert_matches(as_gaussian(q), FractionPairGaussian(q))

    @given(big_ints, big_ints, st.integers(1, BIG), st.integers(1, 10 ** 6))
    def test_a_scaled_triple_is_the_same_value(self, a, b, d, k):
        value, same = _reduced(k * a, k * b, k * d), GaussianRational(Fraction(a, d), Fraction(b, d))
        assert value == same and hash(value) == hash(same) and value.triple == same.triple

    @given(st.one_of(parts, st.builds(Fraction, big_ints, st.integers(1, 2 ** 61 + 5))))
    def test_real_values_hash_as_their_fraction(self, q):
        q = Fraction(q)
        for value in (GaussianRational(q), as_gaussian(q), GaussianRational(q, 1) - I):
            assert value == q and hash(value) == hash(q)

    def test_non_real_arithmetic_and_text_build_no_fraction(self):
        x, y = GaussianRational(Fraction(3, 4), Fraction(-5, 6)), GaussianRational(7, Fraction(1, 9))
        same, q = GaussianRational(Fraction(3, 4), Fraction(-5, 6)), Fraction(-3, 7)
        with fractions_built() as built:
            values = [x + y, x - y, x * y, x / y, -x, x + 2, 2 - x, x * q, q * x, x / q, x - q, q - x]
            assert x == same and x != y and x != q and x != 1
            assert len({hash(v) for v in values + [x, y]}) > 1
            texts = [str(v) for v in values + [GaussianRational(q)]]
        assert built == []
        assert texts[-1] == "-3/7" and texts[0] == "31/4 - 13/18 i"

    def test_parts_must_be_exact(self):
        for part in (0.5, 1j, "1"):
            with pytest.raises(TypeError, match="as an exact rational"):
                GaussianRational(part)
            with pytest.raises(TypeError, match="as an exact rational"):
                as_gaussian(part)


class TestSymbolicScalar:
    def test_number_and_unit_construction(self):
        x = SymbolicScalar.number(Fraction(3, 2))
        assert x.coefficient() == GaussianRational(Fraction(3, 2))
        assert x.key == (0, ())
        y = SymbolicScalar.unit(Fraction(2), spheres=(3,))
        assert y.coefficient(spheres=(3,)) == GaussianRational(Fraction(2))

    def test_addition_groups_like_units(self):
        v = sphere_volume(3)
        total = v + v * Fraction(2)
        assert total == v * Fraction(3)

    def test_mixed_units_do_not_collapse(self):
        with pytest.raises(ValueError, match=re.escape("multiple of V(S^5) to a multiple of V(S^3)")):
            sphere_volume(3) + sphere_volume(5)
        for x in (sphere_volume(3), sphere_volume(5)):
            assert SymbolicScalar() + x == x == x + SymbolicScalar()
            assert (x + x * -1).key == SymbolicScalar().key

    def test_render_examples(self):
        assert SymbolicScalar().render() == "0"
        assert (sphere_volume(3) * Fraction(-264)).render() == "(-264) * V(S^3)"
        val = sphere_volume(2) * GaussianRational(Fraction(0), Fraction(-1, 8))
        assert (val * PI).render() == "(-1/8 i) * pi * V(S^2)"
        assert SymbolicScalar.number(Fraction(7)).render() == "7"

    def test_multiplication_merges_units(self):
        x = PI * sphere_volume(2)
        y = x * SymbolicScalar.number(Fraction(2))
        assert y.coefficient(pi=1, spheres=(2,)) == GaussianRational(Fraction(2))
        sq = sphere_volume(2) * sphere_volume(2)
        assert sq.coefficient(spheres=((2, 2),)) == GaussianRational(Fraction(1))

    @given(gaussians, st.sampled_from([SymbolicScalar.number(1), PI, sphere_volume(3), PI * sphere_volume(2)]),
           st.one_of(rationals, st.integers(-9, 9)))
    def test_rational_factor_equals_the_general_product(self, a, unit, factor):
        x = unit * a
        assert x * factor == x * SymbolicScalar.number(factor) == factor * x

    def test_equal_to_numbers_but_unhashable(self):
        # number(2) == 2, and no hash agrees with both int and unit keys
        assert SymbolicScalar.number(2) == 2
        with pytest.raises(TypeError):
            hash(SymbolicScalar.number(2))

    def test_numeric_evaluation(self):
        val = sphere_volume(3) * Fraction(2) + sphere_volume(3) * GaussianRational(Fraction(1), Fraction(-1))
        expected = (3 - 1j) * sphere_volume_float(3)
        assert abs(complex(val.numeric()) - expected) < 1e-12

    def test_sphere_volume_float_matches_closed_values(self):
        assert abs(sphere_volume_float(1) - 2 * math.pi) < 1e-12
        assert abs(sphere_volume_float(2) - 4 * math.pi) < 1e-12
        assert abs(sphere_volume_float(3) - 2 * math.pi ** 2) < 1e-12
        assert abs(sphere_volume_float(5) - math.pi ** 3) < 1e-12

    def test_pi_unit_numeric(self):
        assert abs(complex(PI.numeric()) - math.pi) < 1e-15
