"""Exact scalar arithmetic for the verification engine.

Three layers of scalars appear in the computations:

* ``Fraction`` -- exact rational numbers (``fractions.Fraction``).
* ``GaussianRational`` -- complex numbers with rational real and imaginary
  parts, closed under field operations.  These are the coefficients of
  every operator and of every symbolic quantity.
* ``SymbolicScalar`` -- finite linear combinations of unit monomials
  ``pi^a * V(S^{d1})^{e1} * ...`` with ``GaussianRational`` coefficients,
  where ``V(S^d)`` denotes the volume of the round unit ``d``-sphere.
  Sphere volumes and powers of ``pi`` are carried symbolically so every
  comparison stays exact; :meth:`SymbolicScalar.numeric` evaluates to a
  ``complex`` float only when explicitly requested.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Union

_RationalLike = Union[int, Fraction]


def _as_fraction(value: _RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class GaussianRational:
    """A complex number ``re + im*i`` with exact rational parts.

    Instances are immutable, hashable, and hash-compatible with
    ``fractions.Fraction`` whenever the imaginary part vanishes, so they can
    serve as dictionary keys alongside plain rationals (e.g. as pole
    locations).
    """

    __slots__ = ("re", "im")

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GaussianRational is immutable")

    # -- helpers ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    def norm_squared(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    # -- arithmetic ------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.norm_squared()
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    # -- comparisons / conversions ---------------------------------------
    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        if not self.im:
            return str(self.re)
        if self.im == 1:
            imag = "i"
        elif self.im == -1:
            imag = "-i"
        else:
            imag = f"{self.im} i"
        if not self.re:
            return imag
        if self.im > 0:
            return f"{self.re} + {imag}"
        return f"{self.re} - {imag.lstrip('-')}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


I = GaussianRational(0, 1)
ONE = GaussianRational(1)
ZERO = GaussianRational(0)

_CoeffLike = Union[int, Fraction, GaussianRational]


def as_gaussian(value: _CoeffLike) -> GaussianRational:
    """Coerce an ``int``/``Fraction``/``GaussianRational`` to GaussianRational."""
    if isinstance(value, GaussianRational):
        return value
    return GaussianRational(value)


# ---------------------------------------------------------------------------
# Symbolic scalars: GaussianRational combinations of pi^a * prod V(S^d)^e
# ---------------------------------------------------------------------------

_SphereSpec = Iterable[Union[int, tuple]]

# A unit monomial is keyed by (pi_exponent, ((sphere_dim, exponent), ...)).
UnitKey = tuple


def _normalize_spheres(spheres: _SphereSpec) -> tuple:
    """Sorted ``((dim, exponent), ...)`` from entries ``dim`` (exponent 1)
    or ``(dim, exponent)``."""
    merged: dict = {}
    for entry in spheres:
        dim, exp = entry if isinstance(entry, tuple) else (entry, 1)
        if dim < 0:
            raise ValueError(f"sphere dimension must be >= 0, got {dim}")
        merged[dim] = merged.get(dim, 0) + exp
    return tuple(sorted((d, e) for d, e in merged.items() if e))


def sphere_volume_float(dim: int) -> float:
    """Volume of the round unit sphere ``S^dim`` as a float."""
    if dim < 0:
        raise ValueError("sphere dimension must be >= 0")
    return 2.0 * math.pi ** ((dim + 1) / 2.0) / math.gamma((dim + 1) / 2.0)


class SymbolicScalar:
    """An exact linear combination of monomials ``pi^a * prod V(S^d)^e``.

    The coefficients are :class:`GaussianRational`; zero coefficients are
    never stored, so equality of the term dictionaries is exact equality of
    the symbolic values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[UnitKey, GaussianRational] | None = None):
        clean: dict = {}
        if terms:
            for key, coeff in terms.items():
                coeff = as_gaussian(coeff)
                if coeff:
                    clean[key] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SymbolicScalar is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def number(cls, value: _CoeffLike) -> "SymbolicScalar":
        return cls({(0, ()): as_gaussian(value)})

    @classmethod
    def unit(
        cls,
        coeff: _CoeffLike = 1,
        *,
        pi: int = 0,
        spheres: _SphereSpec = (),
    ) -> "SymbolicScalar":
        return cls({(pi, _normalize_spheres(spheres)): as_gaussian(coeff)})

    # -- predicates ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return not self.is_zero

    def coefficient(self, *, pi: int = 0, spheres: _SphereSpec = ()) -> GaussianRational:
        """Coefficient of the monomial ``pi^pi * prod V(S^d)``."""
        return self.terms.get((pi, _normalize_spheres(spheres)), ZERO)

    # -- arithmetic ----------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "SymbolicScalar":
        if isinstance(other, SymbolicScalar):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return SymbolicScalar.number(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            total = terms.get(key, ZERO) + coeff
            if total:
                terms[key] = total
            else:
                terms.pop(key, None)
        return SymbolicScalar(terms)

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational factor scales each coefficient and merges no units
            return SymbolicScalar({key: GaussianRational(c.re * other, c.im * other) for key, c in self.terms.items()})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms: dict = {}
        for (pi1, sph1), c1 in self.terms.items():
            for (pi2, sph2), c2 in other.terms.items():
                merged: dict = {}
                for d, e in sph1:
                    merged[d] = merged.get(d, 0) + e
                for d, e in sph2:
                    merged[d] = merged.get(d, 0) + e
                key = (pi1 + pi2, tuple(sorted((d, e) for d, e in merged.items() if e)))
                total = terms.get(key, ZERO) + c1 * c2
                if total:
                    terms[key] = total
                else:
                    terms.pop(key, None)
        return SymbolicScalar(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    # equal to plain numbers (``number(2) == 2``), so no hash can agree with
    # both; nothing hashes a SymbolicScalar
    __hash__ = None

    # -- output ---------------------------------------------------------------
    @staticmethod
    def _render_units(key: UnitKey) -> list:
        pi_exp, spheres = key
        parts = []
        if pi_exp == 1:
            parts.append("pi")
        elif pi_exp:
            parts.append(f"pi^{pi_exp}")
        for dim, exp in spheres:
            name = f"V(S^{dim})"
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return parts

    def render(self) -> str:
        """Deterministic human-readable form, e.g. ``(-1/8 i) * pi * V(S^2)``."""
        if not self.terms:
            return "0"
        chunks = []
        for key in sorted(self.terms, reverse=True):
            coeff = self.terms[key]
            units = self._render_units(key)
            if units:
                chunks.append(" * ".join([f"({coeff})"] + units))
            else:
                chunks.append(str(coeff))
        return " + ".join(chunks)

    def numeric(self) -> complex:
        """Evaluate the symbolic units to floats and return a ``complex``."""
        total = 0j
        for (pi_exp, spheres), coeff in self.terms.items():
            factor = math.pi ** pi_exp
            for dim, exp in spheres:
                factor *= sphere_volume_float(dim) ** exp
            total += complex(coeff) * factor
        return total

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"SymbolicScalar({self.render()!r})"


PI = SymbolicScalar.unit(pi=1)


def sphere_volume(dim: int) -> SymbolicScalar:
    """The volume of ``S^dim`` as a symbolic unit."""
    return SymbolicScalar.unit(spheres=(dim,))
