"""Boundary contributions: rational symbols in the normal covariable.

Everything here is a rational function of the normal covariable ``xi_n``
(tangential covariable fixed on the unit sphere ``|xi'| = 1``), a
:class:`ScalarRational`.  Each channel of the inverse symbol is a pair
``(a, r)``: one Clifford generator ``c_a`` times one scalar ``r``, so every
operation in ``xi_n`` acts on the scalar alone.  Every boundary symbol decays
at infinity, so only proper fractions are decomposed: a numerator of degree
at least the denominator's order raises ``ValueError``.  The three analytic
ingredients are

* :func:`pi_plus` -- the projection keeping the partial-fraction terms
  ``{(pole, order): coeff}`` with poles in the upper half-plane (the
  boundary-calculus symbol projection),
* :meth:`ScalarRational.line_integral` -- exact ``integral over R dxi_n``
  by residues, ``2 pi i * sum`` of upper-half-plane residues with ``pi``
  symbolic,
* :func:`boundary_density` -- assembly of the two boundary densities from the
  projected inverse symbol and the normal derivative of the next symbol,
  integrated over ``xi_n`` by residues and over ``xi'`` by sphere moments
  (odd tangential terms vanish by computed moments, not by assumption).

Only the argument word ``W`` depends on the density's vectors.  The trace
against ``W`` and the line integral are both Q[i]-linear, so a channel
``(a, r)`` keyed ``alpha`` contributes ``tr(W c_a)`` times the
word-independent ``moment(alpha) * line_integral(pi_plus(r) d)`` (``d`` the
normal derivative symbol), summed term by term over the partial fractions.
Only the normal channel, ``a = n``, has a nonzero sphere moment, so a
density is ``K * tr(W c_n)`` with one residue weight ``K``
(:func:`_residue_weight`), built once per ``m`` from the same channels,
projection and residues, with every pole and decay check; any other channel
with a nonzero moment raises ``ValueError``.  ``tr(W(u, v, w) c_n)`` is the
degree-0 kernel of the B5.8 (psi1) or B5.10 (psi2) trace identity, read
from that shape's one :class:`~hodge_residue.residue.KernelTable` as
``kappa`` times the contraction.  No Clifford word is built.

:func:`verify_boundary` runs its trials in
:func:`~hodge_residue.residue._trial_loop`, which compares the density
exactly with the tabulated closed form and decides the kernel's ratio
``kappa`` to the stated contraction; the detail reports proportionality and
the engine's absolute constant ``K * kappa`` from it.  The closed form
(:func:`closed_form_boundary_coefficient`) is the same lemma row's ratio
times one formula in ``m``, so the row states each flavor's sign once.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .residue import (LEMMA_CHECKS, CheckReport, LemmaSpec, _check_trials, _comparison, _symbol_order, _trace,
                      _trial_loop)
from .scalars import (
    GaussianRational,
    I,
    ONE,
    SymbolicScalar,
    ZERO,
    as_gaussian,
    sphere_volume,
)
from .symbols import sphere_moment

# each flavor's trace identity: its word is the density's, its ratio the
# closed form's sign against the flavor's contraction
_FLAVOR_ROWS: Dict[str, str] = {"psi1": "B5.8", "psi2": "B5.10"}


def _flavor_row(flavor: str) -> LemmaSpec:
    """The flavor's :data:`~hodge_residue.residue.LEMMA_CHECKS` row; an
    unknown flavor raises ``ValueError``."""
    if flavor not in _FLAVOR_ROWS:
        raise ValueError(f"flavor must be psi1 or psi2, got {flavor!r}")
    return LEMMA_CHECKS[_FLAVOR_ROWS[flavor]]


# ---------------------------------------------------------------------------
# Scalar rational functions of xi_n
# ---------------------------------------------------------------------------


def _conv(a: Sequence[GaussianRational], b: Sequence[GaussianRational]) -> Tuple[GaussianRational, ...]:
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return tuple(out)


def _strip(coeffs: Sequence[GaussianRational]) -> Tuple[GaussianRational, ...]:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


class ScalarRational:
    """``num(xi) / prod (xi - pole)^mult`` with exact Gaussian-rational data."""

    __slots__ = ("num", "den")

    def __init__(self, num: Sequence, den: Dict[GaussianRational, int] | None = None):
        self.num = _strip([as_gaussian(c) for c in num])
        clean: Dict[GaussianRational, int] = {}
        for pole, mult in (den or {}).items():
            if mult < 0:
                raise ValueError("pole multiplicity must be >= 0")
            if mult:
                pole = as_gaussian(pole)
                clean[pole] = clean.get(pole, 0) + mult
        self.den = clean
        if not self.num:
            self.den = {}

    # -- structure -----------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def decay_order(self) -> int:
        """Degree of decay at infinity (2 = at least quadratic, 1 = proper)."""
        return sum(self.den.values()) - len(self.num) + 1

    # -- arithmetic ------------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, ScalarRational):
            den = dict(self.den)
            for pole, mult in other.den.items():
                den[pole] = den.get(pole, 0) + mult
            return ScalarRational(_conv(self.num, other.num), den)
        if isinstance(other, (int, Fraction, GaussianRational)):
            scalar = as_gaussian(other)
            return ScalarRational([c * scalar for c in self.num], dict(self.den))
        return NotImplemented

    __rmul__ = __mul__

    # -- partial fractions ----------------------------------------------------
    def partial_fractions(self) -> Dict[Tuple[GaussianRational, int], GaussianRational]:
        """``{(pole, order): coeff}`` with ``self = sum coeff/(xi-pole)^order``.

        Only proper fractions decompose: a numerator of degree at least the
        denominator's order (a polynomial part) raises ``ValueError``.
        """
        if self.is_zero:
            return {}
        if self.decay_order < 1:
            raise ValueError("partial fractions of a proper fraction only (no polynomial part)")
        terms: Dict[Tuple[GaussianRational, int], GaussianRational] = {}
        for pole, mult in self.den.items():
            shifted = _taylor_shift(self.num, pole)
            series = _truncate(shifted, mult)
            for other_pole, other_mult in self.den.items():
                if other_pole == pole:
                    continue
                series = _series_mul(
                    series, _inverse_power_series(pole - other_pole, other_mult, mult), mult
                )
            for s, coeff in enumerate(series):
                if coeff:
                    terms[(pole, mult - s)] = coeff
        return terms

    def line_integral(self) -> SymbolicScalar:
        """``integral over R`` by residues; requires at least quadratic decay."""
        if self.is_zero:
            return SymbolicScalar()
        if self.decay_order < 2:
            raise ValueError(
                f"insufficient decay for a line integral (decay order {self.decay_order} < 2)"
            )
        total = ZERO
        for (pole, order), coeff in self.partial_fractions().items():
            if not pole.triple[1]:
                raise ValueError(f"pole on the real axis at {pole}")
            if order == 1 and pole.triple[1] > 0:
                total = total + coeff
        return SymbolicScalar.unit(GaussianRational(0, 2) * total, pi=1)

    def __repr__(self) -> str:
        return f"ScalarRational(num={self.num!r}, den={self.den!r})"


def _taylor_shift(coeffs: Sequence[GaussianRational], center: GaussianRational) -> Tuple[GaussianRational, ...]:
    """Coefficients of ``p(t + center)`` given those of ``p(xi)``."""
    out = [ZERO] * len(coeffs)
    for t, a in enumerate(coeffs):
        if not a:
            continue
        power = as_gaussian(1)
        for s in range(t, -1, -1):
            out[s] = out[s] + a * math.comb(t, s) * power
            power = power * center
    return tuple(out)


def _truncate(coeffs: Sequence[GaussianRational], length: int) -> List[GaussianRational]:
    padded = list(coeffs[:length])
    while len(padded) < length:
        padded.append(ZERO)
    return padded


def _inverse_power_series(base: GaussianRational, mult: int, length: int) -> List[GaussianRational]:
    """Series of ``(t + base)^{-mult}`` around ``t = 0`` to the given length."""
    inv = ONE / base
    powers = [ONE]  # powers[k] = inv^k, a running product
    for _ in range(mult + length - 1):
        powers.append(powers[-1] * inv)
    return [(-1) ** s * math.comb(mult + s - 1, s) * powers[mult + s] for s in range(length)]


def _series_mul(a: Sequence[GaussianRational], b: Sequence[GaussianRational], length: int) -> List[GaussianRational]:
    out = [ZERO] * length
    for i, ai in enumerate(a):
        if not ai or i >= length:
            continue
        for j, bj in enumerate(b):
            if i + j >= length:
                break
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return out


def pi_plus(
    terms: Dict[Tuple[GaussianRational, int], GaussianRational]
) -> Dict[Tuple[GaussianRational, int], GaussianRational]:
    """Keep the partial-fraction terms ``{(pole, order): coeff}`` with poles in
    the upper half-plane."""
    for pole, _ in terms:
        if not pole.triple[1]:
            raise ValueError(f"pole on the real axis at {pole}")
    return {(pole, order): coeff for (pole, order), coeff in terms.items() if pole.triple[1] > 0}


# ---------------------------------------------------------------------------
# Boundary densities
# ---------------------------------------------------------------------------


def resolvent_symbol_channels(n: int) -> Dict[Tuple[int, ...], Tuple[int, ScalarRational]]:
    """Channels of the order ``-1`` inverse symbol ``i c(xi)/|xi|^2`` at ``|xi'| = 1``.

    Each channel is a pair ``(a, r)``: the generator ``c_a`` times the scalar
    rational function ``r`` of ``xi_n``.  Keyed by the tangential monomial
    exponent: key ``e_a`` (length ``n-1``) carries the implicit scalar
    ``xi_a`` times ``(a, i/(1+xi_n^2))``; the zero key carries
    ``(n, i xi_n/(1+xi_n^2))``.
    """
    return {
        tuple(int(k == a) for k in range(1, n)): (a, ScalarRational([I] if a < n else [ZERO, I], {I: 1, -I: 1}))
        for a in range(1, n + 1)
    }


def normal_derivative_symbol(m: int) -> ScalarRational:
    """``d/dxi_n (1+xi_n^2)^{1-m} = 2(1-m) xi_n (1+xi_n^2)^{-m}`` at ``|xi'|=1``."""
    return ScalarRational([0, 2 * (1 - m)], {I: m, -I: m})


@functools.lru_cache(maxsize=None)
def _residue_weight(m: int) -> SymbolicScalar:
    """The word-independent weight ``K`` of the boundary density at order ``m``:
    ``moment(alpha) * line_integral(coeff_t d / (xi_n - pole_t)^order_t)``
    summed over the terms ``t`` of ``pi_plus`` of each channel ``(a, r)``
    keyed ``alpha`` whose computed moment is not zero.  Such a channel on any
    generator but the normal one, ``c_n``, raises ``ValueError``.  Callers
    check ``m`` first, as the memo keys ``2.0`` as ``2``.
    """
    n = 2 * m
    derivative = normal_derivative_symbol(m)
    weight = SymbolicScalar()
    for alpha, (a, scalar) in resolvent_symbol_channels(n).items():
        moment = sphere_moment(alpha, n - 1)
        if moment.is_zero:
            continue
        if a != n:
            raise ValueError(f"the channel c_{a} of order {m} has a nonzero moment; only the normal channel c_{n} may")
        for (pole, order), coeff in pi_plus(scalar.partial_fractions()).items():
            weight = weight + moment * (ScalarRational([coeff], {pole: order}) * derivative).line_integral()
    return weight


def boundary_density(flavor: str, u: Sequence, v: Sequence, w: Sequence, m: int) -> SymbolicScalar:
    """Exact boundary density in units ``pi * V(S^{n-2})``.

    The projected inverse symbol times the normal derivative of the next
    symbol order, traced against the argument word, integrated over ``xi_n``
    by residues and over the tangential sphere by exact moments: the
    residue weight times the trace of the word against ``c_n``, the B5.8 or
    B5.10 identity's degree-0 trace kernel read as ``kappa`` times the contraction.
    A bad flavor, ``m`` or vector length raises ``ValueError``.
    """
    word = _flavor_row(flavor).word_flavors
    n = _symbol_order(m)
    for vec in (u, v, w):
        if len(vec) != n:
            raise ValueError(f"vectors must have length n = 2m = {n}")
    trace = _trace((word, "normal_c", n), None, (u, v, w))
    return _residue_weight(m) * trace


def closed_form_boundary_coefficient(flavor: str, m: int) -> SymbolicScalar:
    """Tabulated boundary coefficient (a rational multiple of ``i pi``): the
    ratio of the flavor's lemma row, B5.8 (psi1) or B5.10 (psi2), times
    ``(2m-2)! (1-m) 2^{1-2m} i pi / (m! (m-1)!)``.
    """
    ratio = _flavor_row(flavor).ratio
    _symbol_order(m)
    value = ratio * Fraction(
        math.factorial(2 * m - 2) * (1 - m),
        2 ** (2 * m - 1) * math.factorial(m) * math.factorial(m - 1),
    )
    return SymbolicScalar.unit(GaussianRational(0, value), pi=1)


def verify_boundary(flavor: str, m: int, trials: int = 20, seed: int = 0) -> CheckReport:
    """Check proportionality and the absolute constant of one boundary density.

    The trials, in :func:`~hodge_residue.residue._trial_loop` on the B5.8 or
    B5.10 identity's kernel with the contraction as the unit, compare the
    density exactly with the tabulated closed form and decide the kernel's
    ratio ``kappa`` to the contraction's tensor.  The density is proportional
    to the contraction exactly when ``kappa`` exists, and its constant is then
    the residue weight times ``kappa``; the detail's sentence names both.  An
    unknown flavor or a bad ``m`` or ``trials`` raises ``ValueError`` before any channel is built.
    """
    per_unit_expected = closed_form_boundary_coefficient(flavor, m) * sphere_volume(2 * m - 2)
    _check_trials(trials)
    n = 2 * m
    weight = _residue_weight(m)
    # the density weight * 2^n c / D against the closed form's per_unit_expected * 2^n t
    report, kappa = _trial_loop(
        "Psi1" if flavor == "psi1" else "Psi2", trials, f"{seed}:boundary:{flavor}:{m}",
        (_flavor_row(flavor).word_flavors, "normal_c", n),
        [_comparison("plain", weight.key, weight.coeff * (1 << n), per_unit_expected * (1 << n))],
    )
    constant = "nonconstant" if kappa is None else (weight * kappa).render()
    proportionality = (
        f"proportionality to the stated contraction: {'FAILS' if kappa is None else 'holds'}; "
        f"engine constant per unit contraction*Tr(Id) = {constant}; "
        f"tabulated closed form = {per_unit_expected.render()}"
    )
    return report._replace(detail="; ".join(filter(None, (report.detail, proportionality))))
