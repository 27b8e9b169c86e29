"""Exact scalar arithmetic for the verification engine.

Three layers of scalars appear in the computations:

* ``Fraction`` -- exact rational numbers (``fractions.Fraction``).
* ``GaussianRational`` -- complex numbers with rational real and imaginary
  parts, closed under field operations.  These are the coefficients of
  every operator and of every symbolic quantity.
* ``SymbolicScalar`` -- one ``GaussianRational`` coefficient times one unit
  monomial ``pi^a * V(S^{d1})^{e1} * ...``, the unit of every quantity the
  engine computes, where ``V(S^d)`` is the volume of the round unit sphere.
  Units stay symbolic so every comparison is exact;
  :meth:`SymbolicScalar.numeric` evaluates to a ``complex`` float only when
  explicitly requested.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Union

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
        norm = other.re * other.re + other.im * other.im
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
# Symbolic scalars: a GaussianRational times one unit pi^a * prod V(S^d)^e
# ---------------------------------------------------------------------------

_SphereSpec = Iterable[Union[int, tuple]]

_NO_UNIT = (0, ())


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
    """An exact value ``coeff * pi^a * prod V(S^d)^e``: one
    :class:`GaussianRational` coefficient times one unit monomial.

    The unit is keyed ``(a, ((d, e), ...))``, spheres sorted, no exponent 0.
    Zero has the key ``(0, ())``, so every zero is equal and adds to any
    value; ``+`` of two nonzero values of different units raises
    ``ValueError``.
    """

    __slots__ = ("coeff", "key")

    def __init__(self, coeff: _CoeffLike = 0, key: tuple = _NO_UNIT):
        coeff = as_gaussian(coeff)
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "key", key if coeff else _NO_UNIT)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("SymbolicScalar is immutable")

    # -- constructors ------------------------------------------------------
    @classmethod
    def number(cls, value: _CoeffLike) -> "SymbolicScalar":
        return cls(value)

    @classmethod
    def unit(
        cls,
        coeff: _CoeffLike = 1,
        *,
        pi: int = 0,
        spheres: _SphereSpec = (),
    ) -> "SymbolicScalar":
        return cls(coeff, (pi, _normalize_spheres(spheres)))

    # -- predicates ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeff

    def __bool__(self):
        return not self.is_zero

    def coefficient(self, *, pi: int = 0, spheres: _SphereSpec = ()) -> GaussianRational:
        """Coefficient of the monomial ``pi^pi * prod V(S^d)``."""
        return self.coeff if self.key == (pi, _normalize_spheres(spheres)) else ZERO

    def shares_unit(self, other: "SymbolicScalar") -> bool:
        """Whether both are multiples of one unit; zero is a multiple of any."""
        return self.is_zero or other.is_zero or self.key == other.key

    # -- arithmetic ----------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "SymbolicScalar":
        if isinstance(other, SymbolicScalar):
            return other
        if isinstance(other, (int, Fraction, GaussianRational)):
            return SymbolicScalar(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.shares_unit(other):
            raise ValueError(f"cannot add a multiple of {other.unit_text()} to a multiple of {self.unit_text()}")
        return SymbolicScalar(self.coeff + other.coeff, self.key if self else other.key)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (pi1, spheres1), (pi2, spheres2) = self.key, other.key
        return SymbolicScalar(self.coeff * other.coeff, (pi1 + pi2, _normalize_spheres(spheres1 + spheres2)))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeff == other.coeff and self.key == other.key

    # equal to plain numbers (``number(2) == 2``), so no hash can agree with
    # both; nothing hashes a SymbolicScalar
    __hash__ = None

    # -- output ---------------------------------------------------------------
    def unit_text(self) -> str:
        """The unit as text, e.g. ``pi * V(S^2)``; ``1`` for a number."""
        pi_exp, spheres = self.key
        parts = []
        if pi_exp == 1:
            parts.append("pi")
        elif pi_exp:
            parts.append(f"pi^{pi_exp}")
        for dim, exp in spheres:
            name = f"V(S^{dim})"
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " * ".join(parts) or "1"

    def render(self) -> str:
        """Deterministic human-readable form, e.g. ``(-1/8 i) * pi * V(S^2)``."""
        if self.key == _NO_UNIT:
            return str(self.coeff)
        return f"({self.coeff}) * {self.unit_text()}"

    def numeric(self) -> complex:
        """Evaluate the symbolic unit to floats and return a ``complex``."""
        pi_exp, spheres = self.key
        factor = math.pi ** pi_exp
        for dim, exp in spheres:
            factor *= sphere_volume_float(dim) ** exp
        # adding 0j turns a zero part of -0.0 (an underflow) into 0.0
        return complex(self.coeff) * factor + 0j

    __str__ = render

    def __repr__(self) -> str:
        return f"SymbolicScalar({self.render()!r})"


PI = SymbolicScalar.unit(pi=1)


def sphere_volume(dim: int) -> SymbolicScalar:
    """The volume of ``S^dim`` as a symbolic unit."""
    return SymbolicScalar.unit(spheres=(dim,))
