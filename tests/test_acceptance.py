"""Acceptance criteria, one test per criterion, with pinned tolerances.

Each test prints exactly one ``[PASS]``/``[FAIL]`` line (written through the
capture so it is always visible) and then asserts.  Two criteria (2 and 3)
assert that the engine reproduces tabulated closed-form constants which the
exact computation does NOT reproduce; those tests fail, with both exact
values in the printed line and in the assertion message.  Criterion 4
compares the assembly split against its derivation from the documented
integrand, not against a tabulated constant.

For the degree-3 groups (L3.6b, L3.7a, L3.9, T2, T3) a blade-grade
derivation sides with the engine and against the table.  The floating-point
oracle (criterion 5) confirms the arithmetic of every value but not the
lift: ``oracle.dense_lift("four_mixed")`` copies the same monotone sum over
k<l<a<b as ``lift_four_mixed``, which is not frame covariant, so it cannot
arbitrate T4 and L4.5/L4.6a/L4.6b.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import numpy as np

from hodge_residue.boundary import (
    ScalarRational,
    normal_derivative_symbol,
    pi_plus,
    resolvent_symbol_channels,
    verify_boundary,
)
from hodge_residue.cli import main as cli_main
from hodge_residue.exterior import (
    LinearOp,
    clifford_generator,
    clifford_word,
    trace_product,
)
from hodge_residue.forms import AntiSymForm, random_form, random_vector
from hodge_residue.oracle import (
    dense_lift,
    dense_word,
    float_density,
    float_plain_trace,
    float_sandwich_integral,
)
from hodge_residue.residue import (
    FUNCTIONALS,
    LEMMA_CHECKS,
    _assembly,
    density_decomposition,
    lemma_check,
    spectral_density,
    verify_theorem,
)
from hodge_residue.scalars import GaussianRational, I
from hodge_residue.symbols import check_flat_commutators, sphere_moment
from cli_runner import CliRunner
from float_reference import float_trace, line_quadrature, sphere_quadrature
from word_reference import add, generator_word, lemma_lhs, pi_minus, scale, zero

SEED = 0
LIFT_KIND = {
    "T1": "two_chat",
    "T2": "torsion_assembly",
    "T3": "torsion_assembly",
    "T4": "four_mixed",
    "T5": "four_chat",
}


EMITTED: list = []


def _emit(number: int, name: str, ok: bool, detail: str = "") -> str:
    verdict = "PASS" if ok else "FAIL"
    line = f"[{verdict}] criterion {number} ({name})"
    if detail:
        line += f": {detail}"
    print(line)
    EMITTED.append(line)
    return line


def _rel(a: complex, b: complex) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


def test_criterion_1_clifford_relations():
    started = time.perf_counter()
    failures = []
    for n in (2, 4, 6, 8):
        identity = LinearOp.identity(n)
        minus_two = scale(identity, Fraction(-2))
        plus_two = scale(identity, Fraction(2))
        for i in range(1, n + 1):
            ci = clifford_generator("c", n, i)
            hi = clifford_generator("chat", n, i)
            for j in range(1, n + 1):
                cj = clifford_generator("c", n, j)
                hj = clifford_generator("chat", n, j)
                delta = i == j
                if add(ci @ cj, cj @ ci) != (minus_two if delta else zero(n)):
                    failures.append(f"c/c n={n} ({i},{j})")
                if add(hi @ hj, hj @ hi) != (plus_two if delta else zero(n)):
                    failures.append(f"chat/chat n={n} ({i},{j})")
                if not add(ci @ hj, hj @ ci).is_zero:
                    failures.append(f"c/chat n={n} ({i},{j})")
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 1.0
    line = _emit(
        1,
        "Clifford relation suite, n in {2,4,6,8}",
        ok,
        f"{len(failures)} violations, {elapsed:.2f}s (budget 1s)",
    )
    assert ok, line + (f"; first violations: {failures[:3]}" if failures else "")


def test_criterion_2_lemma_suite():
    started = time.perf_counter()
    mismatches = []
    total = 0
    for lemma_id in sorted(LEMMA_CHECKS):
        for n in (4, 6):
            report = lemma_check(lemma_id, n, trials=20, seed=SEED)
            total += 1
            if report.status != "pass":
                mismatches.append(
                    f"{lemma_id}@n={n}: engine={report.computed} tabulated={report.expected}"
                )
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 10.0
    line = _emit(
        2,
        "lemma suite: 19 checks at n in {4,6}, 20 trials",
        ok,
        f"{total - len(mismatches)}/{total} match tabulated closed forms, "
        f"{elapsed:.2f}s (budget 10s)"
        + ("" if not mismatches else "; mismatches: " + " | ".join(mismatches)),
    )
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s over 10s budget"
    assert ok, line


def test_criterion_3_theorem_coefficients():
    started = time.perf_counter()
    mismatches = []
    total = 0
    for functional_id in sorted(FUNCTIONALS):
        for m in (2, 3):
            report = verify_theorem(functional_id, m, trials=20, seed=SEED)
            total += 1
            if report.status != "pass":
                # the coefficient is assembled from lemma rows; name those failing at n = 2m
                rows = sorted({row.lemma_id for _, row in _assembly(FUNCTIONALS[functional_id])})
                inherited = [lemma_id for lemma_id in rows
                             if lemma_check(lemma_id, 2 * m, trials=20, seed=SEED).status != "pass"]
                mismatches.append(
                    f"{functional_id}@m={m}: engine={report.computed} tabulated={report.expected}"
                    f" inherits {', '.join(inherited) or 'no failing row'}"
                )
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 30.0
    line = _emit(
        3,
        "theorem coefficients T1-T5 at m in {2,3}, 20 trials",
        ok,
        f"{total - len(mismatches)}/{total} match tabulated coefficients, "
        f"{elapsed:.2f}s (budget 30s)"
        + ("" if not mismatches else "; mismatches: " + " | ".join(mismatches)),
    )
    assert elapsed < 30.0, f"runtime {elapsed:.2f}s over 30s budget"
    assert ok, line


def test_criterion_4_assembly_identity():
    # The integrand (residue.py) is tr(W.[L + m sum_{i,j} (c_i L + L c_i) c_j xi_i xi_j]).
    # On basis data W = c_1 c_2 c_3 pairs only with the blade X = c_1 c_2 c_3 of
    # L = (3/2) lift_three_c - (1/4) lift_three_mixed, and tr(W X) = 2^n.
    # With int xi_i xi_j dS = delta_ij V/n and c_i^2 = -1 the sandwich per m is
    # (V/n) tr(W (sum_i c_i L c_i - n L)); c_i X c_i is +X for the n - 3 indices
    # outside {1,2,3} and -X for the three inside, so sum_i c_i X c_i = (n - 6) X.
    lift_weight = Fraction(3, 2)
    problems = []
    for m in (2, 3, 4):
        n = 2 * m
        quadratic_moment = Fraction(1, n)
        blade_multiplier = (n - 3) - 3
        expected_sandwich = lift_weight * quadratic_moment * (blade_multiplier - n)
        T = AntiSymForm(n, 3, {(1, 2, 3): Fraction(1)})
        vectors = [
            tuple(Fraction(1 if k == j else 0) for k in range(1, n + 1)) for j in (1, 2, 3)
        ]
        decomposition = density_decomposition("T2", T, vectors, m)
        consistent = (
            decomposition["zero_order"] + decomposition["sandwich_per_m"] * Fraction(m)
            == decomposition["total"]
            == spectral_density("T2", T, vectors, m)
        )
        if not consistent:
            problems.append(f"m={m}: parts do not recombine to the total density")
        unit = GaussianRational(Fraction(1 << n))  # T(u,v,w) * 2^{2m} per unit volume
        zero_per_unit = decomposition["zero_order"].coefficient(spheres=(n - 1,)) / unit
        sandwich_per_unit = decomposition["sandwich_per_m"].coefficient(spheres=(n - 1,)) / unit
        if zero_per_unit != GaussianRational(lift_weight):
            problems.append(f"m={m}: zero-order per unit engine={zero_per_unit} derived=3/2")
        if sandwich_per_unit != GaussianRational(expected_sandwich):
            problems.append(
                f"m={m}: sandwich per unit engine={sandwich_per_unit} derived={expected_sandwich}"
            )
    ok = not problems
    line = _emit(
        4,
        "assembly split of the three-minus-flavor density: 3/2 + m*(-9/n) per unit",
        ok,
        "all parts match" if ok else "; ".join(problems),
    )
    assert ok, line


def test_criterion_5_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    problems = []

    # deterministic: traces of random words
    for n in (4, 6):
        rng = random.Random(f"acc5:traces:{n}")
        for length in (2, 3, 4):
            letters = [(rng.choice(["c", "chat"]), random_vector(n, rng)) for _ in range(length)]
            drel = _rel(complex(clifford_word(n, letters).trace()), float_trace(letters))
            worst = max(worst, drel)
            if drel > 1e-9:
                problems.append(f"trace n={n} len={length}: drel={drel:.2e}")

    # deterministic: plain and sandwiched trace integrals for the heaviest lift
    for m in (2, 3):
        n = 2 * m
        rng = random.Random(f"acc5:integrals:{n}")
        spec = FUNCTIONALS["T2"]
        form = random_form(n, 3, rng)
        vectors = [random_vector(n, rng) for _ in range(3)]
        word = clifford_word(n, list(zip(spec.arg_flavors, vectors)))
        lift = spec.lift(form)
        word_f = dense_word(n, list(zip(spec.arg_flavors, vectors)))
        lift_f = dense_lift("torsion_assembly", form, n)
        drel = _rel(complex(trace_product(word, lift)), float_plain_trace(word_f, lift_f))
        worst = max(worst, drel)
        if drel > 1e-9:
            problems.append(f"plain trace n={n}: drel={drel:.2e}")
        for placement in ("before", "after"):
            exact = complex(lemma_lhs(word, lift, placement).numeric())
            oracle = float_sandwich_integral(word_f, lift_f, placement, n)
            drel = _rel(exact, oracle)
            worst = max(worst, drel)
            if drel > 1e-9:
                problems.append(f"sandwich {placement} n={n}: drel={drel:.2e}")

    # deterministic: full densities for every functional
    for functional_id, spec in sorted(FUNCTIONALS.items()):
        for m in (2, 3):
            n = 2 * m
            rng = random.Random(f"acc5:density:{functional_id}:{m}")
            form = random_form(n, spec.torsion_degree, rng)
            vectors = [random_vector(n, rng) for _ in spec.arg_flavors]
            exact = complex(spectral_density(functional_id, form, vectors, m).numeric())
            oracle = float_density(
                spec.arg_flavors, LIFT_KIND[functional_id], complex(spec.prefactor),
                form, vectors, m,
            )
            drel = _rel(exact, oracle)
            worst = max(worst, drel)
            if drel > 1e-9:
                problems.append(f"density {functional_id} m={m}: drel={drel:.2e}")

    # deterministic: line integrals by residues vs adaptive quadrature
    for power, kernel in ((3, None), (4, None)):
        exact = complex(
            ScalarRational(
                [GaussianRational(0), GaussianRational(0), GaussianRational(1)],
                {I: power, -I: power},
            )
            .line_integral()
            .numeric()
        )
        oracle = line_quadrature(lambda x, p=power: x * x / (1.0 + x * x) ** p)
        drel = _rel(exact, oracle)
        worst = max(worst, drel)
        if drel > 1e-9:
            problems.append(f"line integral power={power}: drel={drel:.2e}")

    # Monte Carlo: sphere moments at 10^5 samples within three standard errors
    for n in (4, 6):
        for alpha in ((2,) + (0,) * (n - 1), (2, 2) + (0,) * (n - 2)):
            exact = complex(sphere_moment(alpha, n).numeric()).real
            mean, stderr = sphere_quadrature(
                lambda p, a=alpha: np.prod(p ** np.array(a), axis=1), n, samples=100_000
            )
            if abs(mean.real - exact) > 3 * stderr:
                problems.append(
                    f"MC moment n={n} alpha={alpha}: |{mean.real:.6f}-{exact:.6f}| > 3*{stderr:.2e}"
                )

    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 60.0
    line = _emit(
        5,
        "oracle equivalence (1e-9 deterministic, 3 sigma Monte Carlo)",
        ok,
        f"worst deterministic drel={worst:.2e}, {elapsed:.2f}s (budget 60s)"
        + ("" if not problems else "; " + " | ".join(problems)),
    )
    assert ok, line


def test_criterion_6_boundary_suite():
    problems = []

    # projection reproduces the tabulated partial-fraction channels
    half = GaussianRational(Fraction(1, 2))
    half_i = GaussianRational(0, Fraction(1, 2))
    for m in (2, 3):
        n = 2 * m
        for alpha, (a, channel) in resolvent_symbol_channels(n).items():
            expected = (alpha.index(1) + 1, {(I, 1): half}) if any(alpha) else (n, {(I, 1): half_i})
            if (a, pi_plus(channel.partial_fractions())) != expected:
                problems.append(f"projection channel n={n} alpha={alpha}")

    # residues vs adaptive quadrature for the two normal-derivative integrands
    for m in (2, 3):
        scalar = (
            ScalarRational([GaussianRational(0), GaussianRational(1)], {I: 1, -I: 1})
            * normal_derivative_symbol(m)
        )
        exact = complex(scalar.line_integral().numeric())
        oracle = line_quadrature(lambda x, mm=m: x * (1 + x * x) ** -1 * (2 * (1 - mm)) * x * (1 + x * x) ** -mm)
        if _rel(exact, oracle) > 1e-9:
            problems.append(f"line integral m={m}: exact={exact} quadrature={oracle}")

    # proportionality and the absolute constant over 20 random trials
    for flavor in ("psi1", "psi2"):
        for m in (2, 3):
            report = verify_boundary(flavor, m, trials=20, seed=SEED)
            if "holds" not in report.detail:
                problems.append(f"{flavor} m={m}: proportionality fails")
            if report.status != "pass":
                problems.append(
                    f"{flavor} m={m}: engine={report.computed} tabulated={report.expected}"
                )
    ok = not problems
    line = _emit(
        6,
        "boundary suite: projection, residue integrals, proportionality, constants",
        ok,
        "engine matches the tabulated boundary constants" if ok else "; ".join(problems),
    )
    assert ok, line


def test_criterion_7_flat_commutators():
    problems = []
    for n in (2, 4):
        for record in check_flat_commutators(n):
            if not record["ok"]:
                problems.append(f"n={n} identity={record['identity']} k={record['k']}")
    ok = not problems
    line = _emit(
        7,
        "flat commutator identities on polynomial forms, n in {2,4}",
        ok,
        "exact on all monomials below degree 3" if ok else "; ".join(problems),
    )
    assert ok, line


def _random_half_integer(rng) -> Fraction:
    return Fraction(rng.randint(-6, 6), 2)


def test_criterion_8_property_suite():
    cases = 100
    problems = []
    n, m = 4, 2
    pair_keys = list(itertools.combinations(range(1, n + 1), 2))

    def rand_form(rng):
        return AntiSymForm(n, 2, {k: _random_half_integer(rng) for k in pair_keys})

    def rand_vec(rng):
        return tuple(_random_half_integer(rng) for _ in range(n))

    # multilinearity in the vector slots
    rng = random.Random("acc8:multilinear")
    for _ in range(cases):
        T, u, u2, v = rand_form(rng), rand_vec(rng), rand_vec(rng), rand_vec(rng)
        lam = _random_half_integer(rng)
        merged = spectral_density("T1", T, [tuple(a + b for a, b in zip(u, u2)), v], m)
        if merged != spectral_density("T1", T, [u, v], m) + spectral_density("T1", T, [u2, v], m):
            problems.append("vector additivity")
            break
        if spectral_density("T1", T, [u, tuple(lam * a for a in v)], m) != (
            spectral_density("T1", T, [u, v], m) * lam
        ):
            problems.append("vector homogeneity")
            break

    # linearity in the form
    rng = random.Random("acc8:formlinear")
    for _ in range(cases):
        Ta, Tb, u, v = rand_form(rng), rand_form(rng), rand_vec(rng), rand_vec(rng)
        merged_entries = {
            k: Ta.entries.get(k, Fraction(0)) + Tb.entries.get(k, Fraction(0)) for k in pair_keys
        }
        merged = AntiSymForm(n, 2, merged_entries)
        if spectral_density("T1", merged, [u, v], m) != (
            spectral_density("T1", Ta, [u, v], m) + spectral_density("T1", Tb, [u, v], m)
        ):
            problems.append("form linearity")
            break

    # frame covariance under signed permutations
    rng = random.Random("acc8:frame")
    for _ in range(cases):
        T, u, v = rand_form(rng), rand_vec(rng), rand_vec(rng)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]

        def move_vec(x):
            out = [Fraction(0)] * n
            for j, c in enumerate(x, start=1):
                out[perm[j - 1] - 1] = signs[j - 1] * c
            return tuple(out)

        moved_entries = {}
        for idx, value in T.entries.items():
            sign = Fraction(1)
            for j in idx:
                sign *= signs[j - 1]
            key = tuple(perm[j - 1] for j in idx)
            moved_entries[key] = moved_entries.get(key, Fraction(0)) + sign * value
        moved_T = AntiSymForm(n, 2, moved_entries)
        if spectral_density("T1", moved_T, [move_vec(u), move_vec(v)], m) != spectral_density(
            "T1", T, [u, v], m
        ):
            problems.append("frame covariance")
            break

    # trace cyclicity
    rng = random.Random("acc8:cyclic")
    for _ in range(cases):
        letters = [(rng.choice(("c", "chat")), rng.randint(1, n)) for _ in range(rng.randint(1, 5))]
        k = rng.randrange(len(letters))
        if generator_word(n, letters).trace() != generator_word(n, letters[k:] + letters[:k]).trace():
            problems.append("trace cyclicity")
            break

    # odd-word vanishing
    rng = random.Random("acc8:odd")
    for _ in range(cases):
        length = rng.choice((1, 3, 5))
        letters = [(rng.choice(("c", "chat")), rng.randint(1, n)) for _ in range(length)]
        if generator_word(n, letters).trace():
            problems.append("odd-word vanishing")
            break

    # sphere-moment permutation symmetry
    rng = random.Random("acc8:moments")
    for _ in range(cases):
        alpha = [rng.randint(0, 4) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        if sphere_moment(tuple(alpha), n) != sphere_moment(tuple(alpha[p] for p in perm), n):
            problems.append("moment permutation symmetry")
            break

    # half-plane projection idempotence
    rng = random.Random("acc8:pi")
    pole_pool = (I, -I, GaussianRational(1, 1), GaussianRational(-1, 2), GaussianRational(0, 3))
    for _ in range(cases):
        terms = {
            (rng.choice(pole_pool), rng.randint(1, 2)): GaussianRational(rng.randint(-3, 3))
            for _ in range(rng.randint(1, 4))
        }
        plus = pi_plus(terms)
        if pi_plus(plus) != plus or pi_minus(plus) or {**plus, **pi_minus(terms)} != terms:
            problems.append("projection idempotence")
            break

    ok = not problems
    line = _emit(
        8,
        "property suite, 100 randomized exact cases per law",
        ok,
        "all seven structural laws hold" if ok else "violated: " + ", ".join(problems),
    )
    assert ok, line


def test_criterion_9_reproducible_reports():
    runner = CliRunner()
    args_sets = [
        ["verify", "--suite", "boundary", "--m", "2", "--trials", "3", "--seed", "11"],
        ["verify", "--suite", "lemmas", "--n", "4", "--trials", "2", "--seed", "11"],
    ]
    problems = []
    for args in args_sets:
        first = runner.invoke(cli_main, args)
        second = runner.invoke(cli_main, args)
        if first.output.encode() != second.output.encode():
            problems.append(f"{' '.join(args)}: outputs differ")
        if first.exit_code != second.exit_code:
            problems.append(f"{' '.join(args)}: exit codes differ")
        try:
            json.loads(first.output)
        except json.JSONDecodeError:
            problems.append(f"{' '.join(args)}: output is not valid JSON")
    ok = not problems
    line = _emit(
        9,
        "byte-identical JSON reports for a fixed seed",
        ok,
        "reports reproduce exactly" if ok else "; ".join(problems),
    )
    assert ok, line
