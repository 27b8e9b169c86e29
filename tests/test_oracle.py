"""Cross-validation of the exact engine against the floating-point oracle.

The oracle builds dense complex matrices straight from the bitmask sign rule
(never by converting exact operators); ``float_reference`` computes sphere
moments from Gamma functions, sphere integrals by Monte Carlo, and line
integrals by adaptive quadrature.  Deterministic routes must agree to 1e-9 relative; Monte-Carlo
routes to three standard errors.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from hodge_residue.exterior import (
    clifford_generator,
    clifford_word,
    trace_product,
)
from hodge_residue.forms import random_form, random_vector
from hodge_residue.oracle import (
    MAX_ORACLE_DIMENSION,
    dense_clifford,
    dense_generator,
    dense_lift,
    dense_word,
    float_density,
    float_plain_trace,
    float_sandwich_integral,
)
from hodge_residue.residue import FUNCTIONALS, spectral_density
from hodge_residue.scalars import sphere_volume_float
from hodge_residue.symbols import sphere_moment
from float_reference import float_trace, line_quadrature, moment_float, sphere_quadrature
from matrix_reference import column
from word_reference import lemma_lhs, lemma_lift

LIFT_KIND = {
    "T1": "two_chat",
    "T2": "torsion_assembly",
    "T3": "torsion_assembly",
    "T4": "four_mixed",
    "T5": "four_chat",
}

# the lifts only the trace identities compile, by the kind dense_lift names
# them, with their form degree: L3.x (three_c, three_mixed), M6.2
# (identity), B5.8 and B5.10 (normal_c)
LEMMA_LIFT_DEGREE = {"three_c": 3, "three_mixed": 3, "identity": None, "normal_c": None}


def exact_matrix(op) -> np.ndarray:
    """Complex image of the exact operator's matrix, read column by column."""
    dim = 1 << op.n
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for col in range(dim):
        for row, coeff in column(op, col).items():
            matrix[row, col] = complex(coeff)
    return matrix


def rel_close(a: complex, b: complex, tol: float = 1e-9) -> bool:
    scale = max(abs(a), abs(b), 1.0)
    return abs(a - b) / scale <= tol


class TestDenseGenerators:
    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("flavor", ["c", "chat"])
    def test_match_exact_generators_entrywise(self, flavor, n):
        for j in range(1, n + 1):
            exact = exact_matrix(clifford_generator(flavor, n, j))
            dense = dense_generator(flavor, n, j)
            assert np.array_equal(exact, dense)

    @pytest.mark.parametrize("n", [2, 4])
    def test_dense_relations(self, n):
        eye = np.eye(1 << n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                ci, cj = dense_generator("c", n, i), dense_generator("c", n, j)
                hi, hj = dense_generator("chat", n, i), dense_generator("chat", n, j)
                delta = 1.0 if i == j else 0.0
                assert np.allclose(ci @ cj + cj @ ci, -2 * delta * eye, atol=1e-12)
                assert np.allclose(hi @ hj + hj @ hi, 2 * delta * eye, atol=1e-12)
                assert np.allclose(ci @ hj + hj @ ci, 0 * eye, atol=1e-12)

    def test_dense_clifford_is_linear_combination(self):
        n = 4
        u = [Fraction(1), Fraction(-2), Fraction(1, 2), Fraction(0)]
        expected = sum(float(c) * dense_generator("c", n, j + 1) for j, c in enumerate(u))
        assert np.allclose(dense_clifford("c", u), expected, atol=1e-12)

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            dense_generator("c", MAX_ORACLE_DIMENSION + 2, 1)


class TestFloatTraces:
    @pytest.mark.parametrize("n", [4, 6])
    def test_word_traces_agree(self, n):
        rng = random.Random(f"oracle:traces:{n}")
        for length in (2, 3, 4):
            letters = [
                (rng.choice(["c", "chat"]), random_vector(n, rng)) for _ in range(length)
            ]
            exact = complex(clifford_word(n, letters).trace())
            assert rel_close(float_trace(letters), exact)

    @pytest.mark.parametrize("case", sorted(LIFT_KIND) + sorted(LEMMA_LIFT_DEGREE))
    def test_dense_lifts_match_exact_lifts(self, case):
        n = 4
        rng = random.Random(f"oracle:lift:{case}")
        if case in LIFT_KIND:
            spec = FUNCTIONALS[case]
            form = random_form(n, spec.torsion_degree, rng)
            kind, exact = LIFT_KIND[case], spec.lift(form)
        else:
            degree = LEMMA_LIFT_DEGREE[case]
            form = random_form(n, degree, rng) if degree else None
            kind, exact = case, lemma_lift(None if case == "identity" else case, form, n)
        dense = dense_lift(kind, form, n)
        assert np.allclose(exact_matrix(exact), dense, atol=1e-10)

    def test_plain_trace_agrees_with_exact(self):
        n = 4
        rng = random.Random(7)
        spec = FUNCTIONALS["T2"]
        form = random_form(n, 3, rng)
        vectors = [random_vector(n, rng) for _ in range(3)]
        word_exact = clifford_word(n, list(zip(spec.arg_flavors, vectors)))
        exact = complex(trace_product(word_exact, spec.lift(form)))
        word_dense = dense_word(n, list(zip(spec.arg_flavors, vectors)))
        lift_dense = dense_lift("torsion_assembly", form, n)
        assert rel_close(float_plain_trace(word_dense, lift_dense), exact)

    @pytest.mark.parametrize("placement", ["before", "after"])
    def test_sandwich_integral_agrees_with_exact(self, placement):
        n = 4
        rng = random.Random(11)
        spec = FUNCTIONALS["T2"]
        form = random_form(n, 3, rng)
        vectors = [random_vector(n, rng) for _ in range(3)]
        word_exact = clifford_word(n, list(zip(spec.arg_flavors, vectors)))
        exact = complex(lemma_lhs(word_exact, spec.lift(form), placement).numeric())
        word_dense = dense_word(n, list(zip(spec.arg_flavors, vectors)))
        lift_dense = dense_lift("torsion_assembly", form, n)
        assert rel_close(float_sandwich_integral(word_dense, lift_dense, placement, n), exact)


class TestFloatDensity:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("functional_id", sorted(LIFT_KIND))
    def test_agrees_with_exact_density(self, functional_id, m):
        n = 2 * m
        spec = FUNCTIONALS[functional_id]
        rng = random.Random(f"oracle:density:{functional_id}:{m}")
        for _ in range(2):
            form = random_form(n, spec.torsion_degree, rng)
            vectors = [random_vector(n, rng) for _ in spec.arg_flavors]
            exact = complex(spectral_density(functional_id, form, vectors, m).numeric())
            oracle = float_density(
                spec.arg_flavors,
                LIFT_KIND[functional_id],
                complex(spec.prefactor),
                form,
                vectors,
                m,
            )
            assert rel_close(oracle, exact), (
                f"{functional_id} m={m}: oracle={oracle} exact={exact}"
            )


class TestSphereMoments:
    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_gamma_closed_form_matches_exact_moments(self, n):
        cases = [
            (0,) * n,
            (2,) + (0,) * (n - 1),
            (1,) + (0,) * (n - 1),
            (4,) + (0,) * (n - 1),
            (2, 2) + (0,) * (n - 2),
        ]
        for alpha in cases:
            exact = complex(sphere_moment(alpha, n).numeric()).real
            assert math.isclose(moment_float(alpha, n), exact, rel_tol=1e-12, abs_tol=1e-15)

    def test_zero_exponent_moment_is_sphere_volume(self):
        for n in (2, 3, 4, 6):
            assert math.isclose(
                moment_float((0,) * n, n), sphere_volume_float(n - 1), rel_tol=1e-12
            )


class TestSphereQuadrature:
    def test_constant_function_integrates_to_volume(self):
        mean, stderr = sphere_quadrature(lambda p: np.ones(len(p)), 4, samples=20_000)
        assert stderr < 1e-12
        assert math.isclose(mean.real, sphere_volume_float(3), rel_tol=1e-12)

    def test_quadratic_moment_within_three_sigma(self):
        n = 4
        mean, stderr = sphere_quadrature(lambda p: p[:, 0] ** 2, n, samples=100_000)
        expected = moment_float((2, 0, 0, 0), n)
        assert abs(mean.real - expected) <= 3 * stderr

    def test_quartic_moment_within_three_sigma(self):
        n = 4
        mean, stderr = sphere_quadrature(
            lambda p: p[:, 0] ** 2 * p[:, 1] ** 2, n, samples=100_000
        )
        expected = moment_float((2, 2, 0, 0), n)
        assert abs(mean.real - expected) <= 3 * stderr

    def test_rejects_tiny_sample_counts(self):
        with pytest.raises(ValueError):
            sphere_quadrature(lambda p: np.ones(len(p)), 4, samples=100)


class TestLineQuadrature:
    def test_cauchy_kernel(self):
        value = line_quadrature(lambda x: 1.0 / (1.0 + x * x))
        assert abs(value - math.pi) < 1e-9

    @pytest.mark.parametrize(
        "power,expected",
        [(3, math.pi / 8.0), (4, math.pi / 16.0)],
    )
    def test_quadratic_moment_kernels(self, power, expected):
        value = line_quadrature(lambda x: x * x / (1.0 + x * x) ** power)
        assert abs(value - expected) < 1e-9

    def test_odd_kernel_is_zero(self):
        value = line_quadrature(lambda x: x / (1.0 + x * x) ** 2)
        assert abs(value) < 1e-12

    def test_rejects_non_decaying_integrand(self):
        with pytest.raises(ValueError):
            line_quadrature(lambda x: 1.0)
        with pytest.raises(ValueError):
            line_quadrature(lambda x: 1.0 / (1.0 + abs(x)))
