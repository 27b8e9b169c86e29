"""Public entry points refuse malformed arguments with a ``ValueError`` that
says what is wrong, instead of computing with them."""

import re
from fractions import Fraction

import pytest

from hodge_residue.boundary import ScalarRational
from hodge_residue.exterior import LinearOp, clifford_word, trace_product
from hodge_residue.forms import AntiSymForm, form_contract
from hodge_residue.residue import boundary_contraction, closed_form_coefficient
from hodge_residue.scalars import I, sphere_volume_float

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
