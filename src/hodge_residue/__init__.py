"""Exact verification engine for spectral form/torsion functionals.

The package computes residue densities of perturbed Hodge operators in exact
rational/Gaussian-rational arithmetic (interior functionals, trace identities,
boundary terms) and checks the results against tabulated closed forms.  The
independent floating-point oracle lives in ``hodge_residue.oracle``; it needs
numpy, and neither the package nor the CLI imports it.
"""

from .boundary import (
    ScalarRational,
    boundary_density,
    closed_form_boundary_coefficient,
    normal_derivative_symbol,
    pi_plus,
    resolvent_symbol_channels,
    verify_boundary,
)
from .exterior import (
    LinearOp,
    clifford,
    clifford_generator,
    clifford_word,
    trace_product,
)
from .forms import (
    AntiSymForm,
    form_contract,
    form_from_json,
    lift_four_chat,
    lift_four_mixed,
    lift_three_c,
    lift_three_mixed,
    lift_torsion_assembly,
    lift_two_chat,
    random_form,
    random_vector,
    vectors_from_json,
)
from .residue import (
    FUNCTIONALS,
    LEMMA_CHECKS,
    CheckReport,
    closed_form_coefficient,
    density_decomposition,
    lemma_check,
    lemma_ids,
    spectral_density,
    verify_theorem,
)
from .scalars import (
    I,
    PI,
    GaussianRational,
    SymbolicScalar,
    sphere_volume,
    sphere_volume_float,
)
from .symbols import check_flat_commutators, sphere_moment

__version__ = "0.1.0"

__all__ = [
    "AntiSymForm",
    "CheckReport",
    "FUNCTIONALS",
    "GaussianRational",
    "I",
    "LEMMA_CHECKS",
    "LinearOp",
    "PI",
    "ScalarRational",
    "SymbolicScalar",
    "boundary_density",
    "check_flat_commutators",
    "clifford",
    "clifford_generator",
    "clifford_word",
    "closed_form_boundary_coefficient",
    "closed_form_coefficient",
    "density_decomposition",
    "form_contract",
    "form_from_json",
    "lemma_check",
    "lemma_ids",
    "lift_four_chat",
    "lift_four_mixed",
    "lift_three_c",
    "lift_three_mixed",
    "lift_torsion_assembly",
    "lift_two_chat",
    "normal_derivative_symbol",
    "pi_plus",
    "random_form",
    "random_vector",
    "resolvent_symbol_channels",
    "sphere_moment",
    "sphere_volume",
    "sphere_volume_float",
    "spectral_density",
    "trace_product",
    "vectors_from_json",
    "verify_boundary",
    "verify_theorem",
]
