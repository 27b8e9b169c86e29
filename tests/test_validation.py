"""Public entry points refuse malformed arguments with a ``ValueError`` that
says what is wrong, instead of computing with them."""

import re
from fractions import Fraction

import pytest

from hodge_residue.boundary import (
    ScalarRational,
    boundary_density,
    closed_form_boundary_coefficient,
    verify_boundary,
)
from hodge_residue.exterior import MAX_DIMENSION, LinearOp, clifford_word, trace_product
from hodge_residue.forms import AntiSymForm, form_contract
from hodge_residue.residue import (
    CheckReport,
    boundary_contraction,
    closed_form_coefficient,
    density_decomposition,
    lemma_check,
    spectral_density,
    verify_theorem,
)
from hodge_residue.scalars import I, sphere_volume_float
from hodge_residue.symbols import check_flat_commutators

FORM = AntiSymForm(4, 2, {(1, 2): Fraction(1)})
E1 = [1, 0, 0, 0]

REJECTED = {
    "closed_form_coefficient m < 2": (lambda: closed_form_coefficient("T1", 1), "m must be >= 2"),
    "closed_form_coefficient unknown id": (lambda: closed_form_coefficient("T6", 2), "unknown functional id 'T6'"),
    "boundary_contraction unknown flavor": (lambda: boundary_contraction("psi3", E1, E1, E1),
                                            "flavor must be psi1 or psi2, got 'psi3'"),
    "form_contract vector count": (lambda: form_contract(FORM, [E1]), "number of vectors must equal the form degree"),
    "form_contract vector length": (lambda: form_contract(FORM, [E1, [1, 0, 0]]), "vector length must equal n"),
    "AntiSymForm.value index count": (lambda: FORM.value((1, 2, 3)), "wrong number of indices"),
    "clifford_word vector length": (lambda: clifford_word(4, [("c", E1), ("chat", [1, 0])]),
                                    "vector length must equal n"),
    "LinearOp.compose dimensions": (lambda: LinearOp.identity(4).compose(LinearOp.identity(6)),
                                    "operator dimension mismatch"),
    "trace_product dimensions": (lambda: trace_product(LinearOp.identity(4), LinearOp.identity(2)),
                                 "operator dimension mismatch"),
    "ScalarRational negative multiplicity": (lambda: ScalarRational([1], {I: 2, -I: -1}),
                                             "pole multiplicity must be >= 0"),
    "sphere_volume_float negative dimension": (lambda: sphere_volume_float(-1), "sphere dimension must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_malformed_arguments_are_rejected(case):
    call, message = REJECTED[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


# every entry point that takes m, called with the other arguments valid at n = 4
M_ENTRY_POINTS = {
    "verify_theorem": lambda m: verify_theorem("T1", m, trials=1),
    "closed_form_coefficient": lambda m: closed_form_coefficient("T1", m),
    "closed_form_boundary_coefficient": lambda m: closed_form_boundary_coefficient("psi1", m),
    "verify_boundary": lambda m: verify_boundary("psi1", m, trials=1),
    "spectral_density": lambda m: spectral_density("T1", FORM, [E1, E1], m),
    "density_decomposition": lambda m: density_decomposition("T1", FORM, [E1, E1], m),
    "boundary_density": lambda m: boundary_density("psi1", E1, E1, E1, m),
}
PAST_MAX_M = MAX_DIMENSION // 2 + 1

# one rule each for n, m and trials, so every refusal is a ValueError with
# the rule's message, never a TypeError or AttributeError from later arithmetic
REFUSED_ARGUMENTS = {
    "lemma_check float n": (lambda: lemma_check("L2.4", 4.0, trials=1), "dimension n must be an int, got 4.0"),
    # the parity and lower bound are compared only after the rule
    "lemma_check str n": (lambda: lemma_check("L2.4", "4", trials=1), "dimension n must be an int, got '4'"),
    "check_flat_commutators float n": (lambda: check_flat_commutators(2.0), "dimension n must be an int, got 2.0"),
    # bool is an int subclass, and no count or order is a truth value
    "lemma_check n = True": (lambda: lemma_check("L2.4", True, trials=1), "dimension n must be an int, got True"),
    "check_flat_commutators n = True": (lambda: check_flat_commutators(True), "dimension n must be an int, got True"),
    **{f"{name} float m": (lambda call=call: call(2.0), "m must be an int, got 2.0")
       for name, call in M_ENTRY_POINTS.items()},
    **{f"{name} m = True": (lambda call=call: call(True), "m must be an int, got True")
       for name, call in M_ENTRY_POINTS.items()},
    **{f"{name} m = {PAST_MAX_M}": (
        lambda call=call: call(PAST_MAX_M),
        f"m must be <= {MAX_DIMENSION // 2} (n = 2m <= {MAX_DIMENSION}), got {PAST_MAX_M}",
    ) for name, call in M_ENTRY_POINTS.items()},
    # the residue weight's normal derivative 2(1 - m) vanishes at m = 1
    "boundary_density m = 1": (lambda: boundary_density("psi1", (1, 1), (1, 1), (1, 1), 1), "m must be >= 2"),
    "lemma_check trials = 2.5": (lambda: lemma_check("L2.4", 4, trials=2.5), "trials must be an int, got 2.5"),
    "verify_theorem trials = 2.5": (lambda: verify_theorem("T1", 2, trials=2.5), "trials must be an int, got 2.5"),
    "verify_boundary trials = 2.5": (lambda: verify_boundary("psi1", 2, trials=2.5), "trials must be an int, got 2.5"),
    "lemma_check trials = True": (lambda: lemma_check("L2.4", 4, trials=True), "trials must be an int, got True"),
    "verify_theorem trials = True": (lambda: verify_theorem("T1", 2, trials=True), "trials must be an int, got True"),
    "verify_boundary trials = True": (lambda: verify_boundary("psi1", 2, trials=True),
                                      "trials must be an int, got True"),
}


@pytest.mark.parametrize("case", sorted(REFUSED_ARGUMENTS))
def test_each_argument_has_one_rule(case):
    call, message = REFUSED_ARGUMENTS[case]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_a_refused_m_changes_no_later_call():
    # a float m once left float cosphere weights in a memo that keys 2.0 as 2,
    # and every later check at m = 2 then raised AttributeError
    with pytest.raises(ValueError, match="^m must be an int, got 2.0$"):
        spectral_density("T1", FORM, [E1, [0, 1, 0, 0]], 2.0)
    assert verify_theorem("T1", 2) == CheckReport("T1", 4, 20, "pass", "(180 i) * V(S^3)", "(180 i) * V(S^3)", "")
