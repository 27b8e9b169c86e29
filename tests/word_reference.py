"""Reference route for the interior densities and trace identities: the word
traced against the placed lift.

Each value is built from whole operators: the Clifford word of the vectors
(:func:`clifford_word`), the lift of the whole form, its cosphere placement
(:func:`cosphere_average`) and one :func:`trace_product`.  It never reads a
kernel tensor or a letter path, and the tests hold
:class:`hodge_residue.residue.TraceKernel` to it exactly.
"""

from hodge_residue.exterior import LinearOp, clifford_word, trace_product
from hodge_residue.residue import FunctionalSpec
from hodge_residue.scalars import SymbolicScalar, sphere_volume
from hodge_residue.symbols import cosphere_average


def lemma_lhs(word: LinearOp, lift: LinearOp, placement: str) -> SymbolicScalar:
    """``tr(W lift)`` (``"plain"``), or ``V(S^{n-1})`` times the trace
    against the ``"before"`` or ``"after"`` cosphere average."""
    if placement == "plain":
        return SymbolicScalar.number(trace_product(word, lift))
    if placement in ("before", "after"):
        return sphere_volume(lift.n - 1) * trace_product(word, cosphere_average(lift, placement))
    raise ValueError(f"unknown placement {placement!r}")


def _word_and_lift(fspec: FunctionalSpec, T, vectors):
    return clifford_word(T.n, list(zip(fspec.arg_flavors, vectors))), fspec.lift(T)


def spectral_density(fspec: FunctionalSpec, T, vectors, m: int) -> SymbolicScalar:
    """``V(S^{n-1}) * prefactor * tr(W . cosphere_average(lift, "interior", m))``."""
    word, lift = _word_and_lift(fspec, T, vectors)
    value = trace_product(word, cosphere_average(lift, "interior", m))
    return sphere_volume(T.n - 1) * (fspec.prefactor * value)


def density_decomposition(fspec: FunctionalSpec, T, vectors, m: int) -> dict:
    """The zero-order (plain) and per-m (before + after) parts and their total."""
    word, lift = _word_and_lift(fspec, T, vectors)
    unit = sphere_volume(T.n - 1) * fspec.prefactor
    zero = unit * trace_product(word, lift)
    sandwich = unit * (
        trace_product(word, cosphere_average(lift, "before"))
        + trace_product(word, cosphere_average(lift, "after"))
    )
    return {"zero_order": zero, "sandwich_per_m": sandwich, "total": zero + m * sandwich}
