"""Reference route for cosphere averages: explicit xi-polynomials.

Each integrand is built term by term as ``{alpha: operator}``, with ``alpha``
the exponent tuple of the monomial ``xi^alpha`` and every operator an
explicit ``compose`` of Clifford generators with the given operator.  It is
averaged over the unit cosphere monomial by monomial with
:func:`sphere_moment`.  It forms every Clifford product and uses no blade
grade, so it shares no step with
:func:`word_reference.cosphere_average` but the moments (and the operator
sum and multiple, :func:`word_reference.add` and :func:`word_reference.scale`),
and the tests hold the two to exact equality.
"""

from typing import Dict, Tuple

from hodge_residue.exterior import LinearOp, clifford_generator
from hodge_residue.symbols import sphere_moment
from word_reference import add, scale, zero

XiPolynomial = Dict[Tuple[int, ...], LinearOp]


def _add(poly: XiPolynomial, i: int, j: int, op: LinearOp) -> None:
    alpha = [0] * op.n
    alpha[i - 1] += 1
    alpha[j - 1] += 1
    alpha = tuple(alpha)
    poly[alpha] = add(poly[alpha], op) if alpha in poly else op


def interior_integrand(theta: LinearOp, m: int, prefactor=1) -> XiPolynomial:
    """``prefactor * [theta + m sum_{i,j} (c_i theta + theta c_i) c_j xi_i xi_j]``."""
    n = theta.n
    poly: XiPolynomial = {(0,) * n: scale(theta, prefactor)}
    for i in range(1, n + 1):
        ci = clifford_generator("c", n, i)
        sandwich = scale(add(ci.compose(theta), theta.compose(ci)), prefactor * m)
        for j in range(1, n + 1):
            _add(poly, i, j, sandwich.compose(clifford_generator("c", n, j)))
    return poly


def sandwich_integrand(lift: LinearOp, placement: str) -> XiPolynomial:
    """``before``: ``sum_{i,j} xi_i xi_j c_i lift c_j``;
    ``after``: ``sum_{i,j} xi_i xi_j lift c_i c_j``."""
    n = lift.n
    poly: XiPolynomial = {}
    for i in range(1, n + 1):
        ci = clifford_generator("c", n, i)
        left = ci.compose(lift) if placement == "before" else lift.compose(ci)
        for j in range(1, n + 1):
            _add(poly, i, j, left.compose(clifford_generator("c", n, j)))
    return poly


def integrand(op: LinearOp, placement: str, m: int = 1) -> XiPolynomial:
    """The integrand :func:`cosphere_average` averages, for its placements."""
    if placement == "interior":
        return interior_integrand(op, m)
    return sandwich_integrand(op, placement)


def average(poly: XiPolynomial, n: int) -> LinearOp:
    """``(1 / V(S^{n-1})) integral_{S^{n-1}} poly(xi) dS``, term by term."""
    total = zero(n)
    for alpha, op in poly.items():
        moment = sphere_moment(alpha, n).coefficient(spheres=(n - 1,))
        if moment:
            total = add(total, scale(op, moment.re))
    return total
