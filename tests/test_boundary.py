"""Tests for the half-plane symbol calculus and boundary densities.

All rational-function arithmetic is exact: poles at ``+-i`` with Gaussian
rational coefficients, line integrals by residues with ``pi`` symbolic.
Expected values were frozen from hand partial-fraction computations and
cross-checked against adaptive quadrature (see test_oracle.py).
"""

import math
import random
from fractions import Fraction

import pytest

import hodge_residue.boundary as boundary_module
import hodge_residue.exterior as exterior_module
import hodge_residue.residue as residue_module
import kernel_reference
import word_reference
from hodge_residue.boundary import (
    ScalarRational,
    boundary_density,
    closed_form_boundary_coefficient,
    normal_derivative_symbol,
    pi_plus,
    resolvent_symbol_channels,
    verify_boundary,
)
from hodge_residue.exterior import MAX_DIMENSION, LinearOp, clifford_generator, clifford_word, trace_product
from hodge_residue.forms import random_vector
from hodge_residue.residue import LEMMA_CHECKS, _table, _trace, boundary_contraction
from hodge_residue.scalars import ZERO, GaussianRational, I, SymbolicScalar, sphere_volume
from hodge_residue.symbols import sphere_moment
from mixed_rationals import mixed_vector
from word_reference import pi_minus

HALF = GaussianRational(Fraction(1, 2))
HALF_I = GaussianRational(0, Fraction(1, 2))
ONE = GaussianRational(1)


def cauchy_kernel(extra_order: int = 0):
    """Denominator dictionary for ``(1 + xi^2)^{1 + extra_order}``."""
    return {I: 1 + extra_order, -I: 1 + extra_order}


def evaluate_exact(scalar: ScalarRational, z: GaussianRational) -> GaussianRational:
    """The rational function at the point ``z``, exactly in Q[i]."""
    num = ZERO
    for coeff in reversed(scalar.num):
        num = num * z + coeff
    den = ONE
    for pole, mult in scalar.den.items():
        for _ in range(mult):
            den = den * (z - pole)
    return num / den


def evaluate_terms(terms, z: GaussianRational) -> GaussianRational:
    """``sum coeff/(z - pole)^order`` over partial-fraction terms, exactly."""
    total = ZERO
    for (pole, order), coeff in terms.items():
        total = total + evaluate_exact(ScalarRational([coeff], {pole: order}), z)
    return total


def evaluate(scalar: ScalarRational, z: complex) -> complex:
    """The rational function at the point ``z``, in floats."""
    num = 0j
    for coeff in reversed(scalar.num):
        num = num * z + complex(coeff)
    den = 1 + 0j
    for pole, mult in scalar.den.items():
        den *= (z - complex(pole)) ** mult
    return num / den


class TestScalarRational:
    def test_partial_fractions_of_cauchy_kernel(self):
        # 1/(1+xi^2) = (-i/2)/(xi-i) + (i/2)/(xi+i)
        terms = ScalarRational([ONE], cauchy_kernel()).partial_fractions()
        assert terms == {
            (I, 1): GaussianRational(0, Fraction(-1, 2)),
            (-I, 1): GaussianRational(0, Fraction(1, 2)),
        }

    def test_partial_fractions_reconstruct_numerically(self):
        rng = random.Random(3)
        num = [GaussianRational(Fraction(rng.randint(-3, 3))) for _ in range(3)]
        num[-1] = ONE
        scalar = ScalarRational(num, {I: 2, -I: 1, GaussianRational(0, 2): 1})
        terms = scalar.partial_fractions()
        for point in (0.3, -1.7, 2.5):
            rebuilt = sum(
                complex(c) * (point - complex(pole)) ** -order
                for (pole, order), c in terms.items()
            )
            assert abs(rebuilt - evaluate(scalar, point)) < 1e-12

    @pytest.mark.parametrize("num, den", [
        ([ONE], {}),
        ([GaussianRational(0), GaussianRational(0), ONE], cauchy_kernel()),
        ([ONE, GaussianRational(0), GaussianRational(0), ONE], cauchy_kernel()),
    ], ids=["constant", "equal-degree", "higher-degree"])
    def test_improper_fraction_is_rejected(self, num, den):
        # every boundary symbol decays, so a polynomial part is an error
        with pytest.raises(ValueError, match="polynomial part"):
            ScalarRational(num, den).partial_fractions()

    def test_proper_fraction_of_decay_one_decomposes(self):
        # xi/(1+xi^2) = (1/2)/(xi-i) + (1/2)/(xi+i): proper, though not integrable
        scalar = ScalarRational([GaussianRational(0), ONE], cauchy_kernel())
        assert scalar.decay_order == 1
        assert scalar.partial_fractions() == {(I, 1): HALF, (-I, 1): HALF}

    def test_arithmetic_matches_pointwise_evaluation(self):
        a = ScalarRational([ONE, HALF], cauchy_kernel())
        b = ScalarRational([GaussianRational(0), ONE], {I: 2, -I: 2})
        for point in (0.4, -2.2):
            assert abs(evaluate(a * b, point) - (evaluate(a, point) * evaluate(b, point))) < 1e-12

    def test_decay_order(self):
        assert ScalarRational([ONE], cauchy_kernel()).decay_order == 2
        assert ScalarRational([GaussianRational(0), ONE], cauchy_kernel()).decay_order == 1
        assert ScalarRational([ONE], ()).decay_order == 0
        assert ScalarRational([GaussianRational(0), GaussianRational(0), ONE], cauchy_kernel(1)).decay_order == 2


class TestLineIntegral:
    def test_cauchy_kernel_integrates_to_pi(self):
        value = ScalarRational([ONE], cauchy_kernel()).line_integral()
        assert value == SymbolicScalar.unit(1, pi=1)

    @pytest.mark.parametrize(
        "m,expected",
        [(2, Fraction(1, 8)), (3, Fraction(1, 16))],
    )
    def test_quadratic_moment_kernels(self, m, expected):
        # integral of xi^2 (1+xi^2)^{-(m+1)} dxi = pi/8 (m=2), pi/16 (m=3)
        scalar = ScalarRational([GaussianRational(0), GaussianRational(0), ONE], cauchy_kernel(m))
        assert scalar.line_integral() == SymbolicScalar.unit(expected, pi=1)

    def test_odd_kernel_integrates_to_zero(self):
        # xi (1+xi^2)^{-2}: residue coefficients at order 1 cancel
        scalar = ScalarRational([GaussianRational(0), ONE], cauchy_kernel(1))
        assert scalar.line_integral().is_zero

    def test_insufficient_decay_rejected(self):
        with pytest.raises(ValueError, match="decay"):
            ScalarRational([GaussianRational(0), ONE], cauchy_kernel()).line_integral()
        with pytest.raises(ValueError, match="decay"):
            ScalarRational([ONE], {I: 1}).line_integral()

    def test_real_pole_rejected(self):
        scalar = ScalarRational([ONE], {GaussianRational(1): 1, GaussianRational(-1): 1})
        with pytest.raises(ValueError, match="real axis"):
            scalar.line_integral()

    def test_operator_valued_integral(self):
        # the channel (1, i/(1+xi^2)) integrates to i pi c_1, so traced
        # against c_1 it is i pi tr(c_1^2) = -16 i pi: the trace of the
        # generator times one scalar line integral, as in the residue kernel
        n = 4
        a, scalar = resolvent_symbol_channels(n)[(1, 0, 0)]
        op = clifford_generator("c", n, 1)
        value = trace_product(op, clifford_generator("c", n, a)) * scalar.line_integral()
        assert value == SymbolicScalar.unit(GaussianRational(0, -16), pi=1)


class TestHalfPlaneProjection:
    @pytest.mark.parametrize("n", [4, 6])
    def test_projected_channels_match_tabulated_forms(self, n):
        channels = resolvent_symbol_channels(n)
        assert len(channels) == n
        zero_key = (0,) * (n - 1)
        for alpha, (a, channel) in channels.items():
            projected = pi_plus(channel.partial_fractions())
            if alpha == zero_key:
                # i xi c_n/(1+xi^2) -> (i/2) c_n / (xi - i)
                assert (a, projected) == (n, {(I, 1): HALF_I})
            else:
                # i c_a/(1+xi^2) -> (1/2) c_a / (xi - i)
                assert (a, projected) == (alpha.index(1) + 1, {(I, 1): HALF})

    def test_projection_is_idempotent_and_complementary(self):
        n = 4
        for _, channel in resolvent_symbol_channels(n).values():
            terms = channel.partial_fractions()
            plus = pi_plus(terms)
            minus = pi_minus(terms)
            assert pi_plus(plus) == plus
            assert not pi_minus(plus)
            assert {**plus, **minus} == terms
            # the two halves are proper with poles among the channel's, so their
            # sum minus the channel, times its denominator, is a polynomial of
            # degree below the denominator's: it vanishes at more points than that
            for k in range(sum(channel.den.values()) + 1):
                z = GaussianRational(k)
                assert evaluate_terms(plus, z) + evaluate_terms(minus, z) == evaluate_exact(channel, z)

    def test_projection_rejects_real_poles(self):
        with pytest.raises(ValueError, match="real axis"):
            pi_plus({(I, 1): ONE, (GaussianRational(1), 1): ONE})


class TestNormalDerivativeSymbol:
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_analytic_derivative(self, m):
        symbol = normal_derivative_symbol(m)
        h = 1e-6
        for point in (0.3, 1.4, -2.1):
            f = lambda x: (1 + x * x) ** (1 - m)
            numeric = (f(point + h) - f(point - h)) / (2 * h)
            assert abs(evaluate(symbol, point) - numeric) < 1e-6


class TestBoundaryDensity:
    def test_normal_tangential_example(self):
        # u = e_n, v = w = e_1, m = 2: density = -2 i pi V(S^2)
        n = 4
        e = lambda j: tuple(Fraction(1 if k == j else 0) for k in range(1, n + 1))
        args = ("psi1", e(4), e(1), e(1), 2)
        assert boundary_density(*args) == SymbolicScalar.unit(
            GaussianRational(0, -2), pi=1, spheres=(2,)
        )

    def test_vanishes_when_normal_component_absent(self):
        n = 4
        e = lambda j: tuple(Fraction(1 if k == j else 0) for k in range(1, n + 1))
        args = ("psi2", e(1), e(2), e(2), 2)
        assert boundary_density(*args).is_zero

    @pytest.mark.parametrize("flavor", ["psi1", "psi2"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_density_equals_closed_form_times_contraction(self, flavor, m):
        n = 2 * m
        rng = random.Random(f"bdy:{flavor}:{m}")
        per_unit = closed_form_boundary_coefficient(flavor, m) * sphere_volume(n - 2)
        for _ in range(3):
            u, v, w = (tuple(random_vector(n, rng)) for _ in range(3))
            density = boundary_density(flavor, u, v, w, m)
            contraction = boundary_contraction(flavor, u, v, w)
            assert density == per_unit * (contraction * Fraction(1 << n))

    @pytest.mark.parametrize(
        "flavor,letters", [("psi1", "c c c"), ("psi2", "c chat chat")], ids=["psi1", "psi2"]
    )
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_density_equals_channel_by_channel_composition(self, flavor, letters, m):
        # the per-channel route: every channel projected, traced against the
        # word, times the normal derivative, line-integrated, times its moment
        n = 2 * m
        rng = random.Random(f"compose:{flavor}:{m}")
        derivative = normal_derivative_symbol(m)
        nonzero = 0
        for _ in range(3):
            u, v, w = (tuple(random_vector(n, rng)) for _ in range(3))
            word = clifford_word(n, list(zip(letters.split(), (u, v, w))))
            composed = SymbolicScalar()
            for alpha, (a, channel) in resolvent_symbol_channels(n).items():
                trace = trace_product(word, clifford_generator("c", n, a))
                for (pole, order), coeff in pi_plus(channel.partial_fractions()).items():
                    scalar = trace * ScalarRational([coeff], {pole: order}) * derivative
                    composed = composed + sphere_moment(alpha, n - 1) * scalar.line_integral()
            assert boundary_density(flavor, u, v, w, m) == composed
            nonzero += not composed.is_zero
        assert nonzero

    @pytest.mark.parametrize("flavor", ["psi1", "psi2"])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_kernel_route_equals_word_route(self, flavor, m):
        # the degree-0 kernel times its weight against the Clifford word
        # traced against every residue-kernel term, on mixed denominators
        n = 2 * m
        rng = random.Random(f"kernel-vs-word:{flavor}:{m}")
        values = []
        for _ in range(6):
            args = (flavor, *(tuple(mixed_vector(n, rng)) for _ in range(3)), m)
            values.append(word_reference.boundary_density(*args))
            assert boundary_density(*args) == values[-1]
        assert sum(not value.is_zero for value in values) > len(values) / 2

    @pytest.mark.parametrize("flavor,lemma_id", [("psi1", "B5.8"), ("psi2", "B5.10")])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
    def test_kernel_is_the_boundary_trace_identity_kernel(self, monkeypatch, flavor, lemma_id, m):
        # the shape boundary_density traces is the lemma's, and its trace
        # equals that of the lemma's kernel, expanded from the one table of
        # that shape
        looked_up = []

        def recorded(shape, *args):
            looked_up.append(shape)
            return _trace(shape, *args)

        monkeypatch.setattr(boundary_module, "_trace", recorded)
        rng = random.Random(f"boundary-shape:{flavor}:{m}")
        vectors = [tuple(mixed_vector(2 * m, rng)) for _ in range(3)]
        density = boundary_density(flavor, *vectors, m)
        [shape] = looked_up
        spec = LEMMA_CHECKS[lemma_id]
        assert shape == (spec.word_flavors, spec.lift, 2 * m)
        lemma = kernel_reference.expand(_table(spec.word_flavors, spec.lift), 2 * m)
        assert density == boundary_module._residue_weight(m) * lemma.trace(None, vectors)

    def test_kernel_needs_one_term(self, monkeypatch):
        # only the normal channel may carry a nonzero sphere moment: a
        # tangential channel with one, or the normal channel moved onto c_1,
        # is refused
        args = ("psi1", (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 0), 2)
        real_channels, real_moment = boundary_module.resolvent_symbol_channels, boundary_module.sphere_moment
        normal = (0,) * 3

        def moved_channels(n):
            channels = real_channels(n)
            channels[normal] = (1, channels[normal][1])
            return channels

        patches = (
            ("sphere_moment", lambda alpha, dim: real_moment(tuple(2 * e for e in alpha), dim)),
            ("resolvent_symbol_channels", moved_channels),
        )
        try:
            for name, patched in patches:
                boundary_module._residue_weight.cache_clear()
                with monkeypatch.context() as patch:
                    patch.setattr(boundary_module, name, patched)
                    with pytest.raises(ValueError, match="only the normal channel c_4 may"):
                        boundary_density(*args)
                    with pytest.raises(ValueError, match="only the normal channel c_4 may"):
                        verify_boundary("psi1", 2)
        finally:
            boundary_module._residue_weight.cache_clear()

    def test_contraction_formulas(self):
        u, v, w = (Fraction(1), Fraction(2), Fraction(0), Fraction(3)), (
            Fraction(0),
            Fraction(1),
            Fraction(1),
            Fraction(2),
        ), (Fraction(2), Fraction(0), Fraction(1), Fraction(-1))
        guv = sum(a * b for a, b in zip(u, v))
        guw = sum(a * b for a, b in zip(u, w))
        gvw = sum(a * b for a, b in zip(v, w))
        assert boundary_contraction("psi1", u, v, w) == u[3] * gvw - v[3] * guw + w[3] * guv
        assert boundary_contraction("psi2", u, v, w) == u[3] * gvw


class TestClosedFormCoefficient:
    @pytest.mark.parametrize("m", [2, 3])
    def test_first_flavor_is_minus_i_pi_over_8(self, m):
        assert closed_form_boundary_coefficient("psi1", m) == SymbolicScalar.unit(
            GaussianRational(0, Fraction(-1, 8)), pi=1
        )

    @pytest.mark.parametrize("m", [2, 3])
    def test_second_flavor_is_plus_i_pi_over_8(self, m):
        assert closed_form_boundary_coefficient("psi2", m) == SymbolicScalar.unit(
            GaussianRational(0, Fraction(1, 8)), pi=1
        )

    @pytest.mark.parametrize("flavor", ["psi1", "psi2"])
    @pytest.mark.parametrize("m", range(2, MAX_DIMENSION // 2 + 1))
    def test_is_the_paper_formula(self, m, flavor):
        # the paper's two formulas, the reference for the lemma row's ratio
        # times one formula: psi2 has (m-1) where psi1 has (1-m)
        sign_factor = (1 - m) if flavor == "psi1" else (m - 1)
        value = Fraction(
            math.factorial(2 * m - 2) * sign_factor,
            2 ** (2 * m - 1) * math.factorial(m) * math.factorial(m - 1),
        )
        assert closed_form_boundary_coefficient(flavor, m) == SymbolicScalar.unit(GaussianRational(0, value), pi=1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            closed_form_boundary_coefficient("psi3", 2)
        with pytest.raises(ValueError):
            closed_form_boundary_coefficient("psi1", 1)


class TestVerifyBoundary:
    @pytest.mark.parametrize("flavor", ["psi1", "psi2"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_engine_matches_closed_form(self, flavor, m):
        report = verify_boundary(flavor, m, trials=3, seed=0)
        assert report.status == "pass"
        assert report.n == 2 * m
        assert "holds" in report.detail

    def test_deterministic(self):
        a = verify_boundary("psi1", 2, trials=3, seed=7).to_dict()
        b = verify_boundary("psi1", 2, trials=3, seed=7).to_dict()
        assert a == b

    def test_constant_is_named_when_every_contraction_is_zero(self):
        # seed 7 draws a single psi2 trial whose contraction u_n <v, w> is 0;
        # the constant is the kernel ratio's, whatever the trials draw
        report = verify_boundary("psi2", 2, trials=1, seed=7)
        per_unit = (closed_form_boundary_coefficient("psi2", 2) * sphere_volume(2)).render()
        assert (report.status, report.computed, report.expected) == ("pass", "0", "0")
        assert report.detail == (
            f"proportionality to the stated contraction: holds; "
            f"engine constant per unit contraction*Tr(Id) = {per_unit}; tabulated closed form = {per_unit}"
        )

    @pytest.mark.parametrize("flavor", ["psi1", "psi2"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_moved_closed_form_fails_with_the_word_route_values(self, monkeypatch, flavor, m):
        original = boundary_module.closed_form_boundary_coefficient
        shift = SymbolicScalar.unit(GaussianRational(0, Fraction(1, 7)), pi=1)
        monkeypatch.setattr(
            boundary_module, "closed_form_boundary_coefficient", lambda f, order: original(f, order) + shift
        )
        report = verify_boundary(flavor, m, trials=20, seed=0)
        n = 2 * m
        per_unit = (original(flavor, m) + shift) * sphere_volume(n - 2)
        rng = random.Random(f"0:boundary:{flavor}:{m}")
        trials = [[tuple(random_vector(n, rng)) for _ in range(3)] for _ in range(20)]
        nonzero = [k for k, vectors in enumerate(trials) if boundary_contraction(flavor, *vectors)]
        first = nonzero[0]
        u, v, w = trials[first]
        density = word_reference.boundary_density(flavor, u, v, w, m)
        assert report.status == "fail"
        assert report.computed == density.render()
        assert report.expected == (per_unit * (boundary_contraction(flavor, u, v, w) * (1 << n))).render()
        assert report.detail.startswith(f"comparisons disagree; first at trial {first}; ")
        # the density is still proportional, with the unmoved constant
        assert "proportionality to the stated contraction: holds" in report.detail
        assert f"= {(original(flavor, m) * sphere_volume(n - 2)).render()}; tabulated" in report.detail

    def test_psi2_against_the_psi1_contraction_is_not_proportional(self, monkeypatch):
        # the trials' unit and the unit table the ratio is decided on, when
        # the table compiles, are both psi1's
        original, table = residue_module._unit, residue_module._unit_table
        monkeypatch.setattr(residue_module, "_unit", lambda kind, form, vectors: original("psi1", form, vectors))
        monkeypatch.setattr(residue_module, "_unit_table", lambda kind, degree: table("psi1", degree))
        kernel_reference.fresh_memos(monkeypatch)
        report = verify_boundary("psi2", 2, trials=20, seed=0)
        assert report.status == "fail"
        assert "proportionality to the stated contraction: FAILS" in report.detail
        assert "engine constant per unit contraction*Tr(Id) = nonconstant" in report.detail

    def test_zero_contraction_with_a_nonzero_density_fails(self, monkeypatch):
        monkeypatch.setattr(residue_module, "_unit", lambda kind, form, vectors: 0)
        monkeypatch.setattr(residue_module, "_unit_table", lambda kind, degree: {})
        kernel_reference.fresh_memos(monkeypatch)
        report = verify_boundary("psi1", 2, trials=5, seed=0)
        rng = random.Random("0:boundary:psi1:2")
        densities = [
            word_reference.boundary_density("psi1", *(tuple(random_vector(4, rng)) for _ in range(3)), 2)
            for _ in range(5)
        ]
        nonzero = [k for k, density in enumerate(densities) if not density.is_zero]
        assert report.status == "fail"
        assert (report.computed, report.expected) == (densities[nonzero[0]].render(), "0")
        assert report.detail.startswith(
            f"comparisons disagree; first at trial {nonzero[0]}; "
            "proportionality to the stated contraction: FAILS; "
            "engine constant per unit contraction*Tr(Id) = nonconstant"
        )

    def test_no_operator_is_composed_or_traced(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an operator product or trace on the boundary path")

        assert not hasattr(boundary_module, "trace_product")
        monkeypatch.setattr(LinearOp, "compose", refuse)
        monkeypatch.setattr(exterior_module, "trace_product", refuse)
        boundary_module._residue_weight.cache_clear()
        assert verify_boundary("psi1", 4, trials=3, seed=0).status == "pass"
        args = ("psi2", (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 0), 2)
        assert not boundary_density(*args).is_zero

    @pytest.mark.parametrize("defect, match", [
        ("real pole", "real axis"),
        ("polynomial part", "polynomial part"),
        ("no decay", "insufficient decay"),
    ])
    def test_pole_and_decay_checks_hold_on_the_kernel_path(self, monkeypatch, defect, match):
        # the kernel build runs every check of pi_plus, partial_fractions and
        # line_integral on the normal channel, whose moment is not zero
        real_channels = boundary_module.resolvent_symbol_channels

        def channels(n):
            out = real_channels(n)
            if defect == "real pole":
                out[(0,) * (n - 1)] = (n, ScalarRational([ZERO, I], {ONE: 1, -I: 1}))
            elif defect == "polynomial part":
                out[(0,) * (n - 1)] = (n, ScalarRational([ZERO, ZERO, I], {I: 1, -I: 1}))
            return out

        monkeypatch.setattr(boundary_module, "resolvent_symbol_channels", channels)
        if defect == "no decay":
            monkeypatch.setattr(boundary_module, "normal_derivative_symbol", lambda m: ScalarRational([ONE]))
        args = ("psi1", (0, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 0), 2)
        boundary_module._residue_weight.cache_clear()
        try:
            with pytest.raises(ValueError, match=match):
                verify_boundary("psi1", 2)
            with pytest.raises(ValueError, match=match):
                boundary_density(*args)
        finally:
            boundary_module._residue_weight.cache_clear()

    def test_validation(self):
        with pytest.raises(ValueError, match="flavor must be psi1 or psi2, got 'psi3'"):
            verify_boundary("psi3", 2)
        with pytest.raises(ValueError, match="m must be >= 2"):
            verify_boundary("psi1", 1)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            verify_boundary("psi1", 2, trials=0)


class TestBoundaryDensityValidation:
    def test_flavor_checked(self):
        with pytest.raises(ValueError, match="flavor"):
            boundary_density("psi9", (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), 2)

    def test_vector_length_checked(self):
        with pytest.raises(ValueError, match="length"):
            boundary_density("psi1", (1, 0), (1, 0, 0, 0), (1, 0, 0, 0), 2)
