"""Exact scalar arithmetic for the verification engine.

Three layers of scalars appear in the computations:

* ``int`` and ``Fraction`` -- the exact rationals callers pass in and read
  back out.
* ``GaussianRational`` -- the field Q[i], each value held as one reduced
  integer triple ``(a + b i) / d``.  These are the coefficients of every
  operator and of every symbolic quantity.
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
from typing import Iterable, Tuple, Union

_RationalLike = Union[int, Fraction]


class GaussianRational:
    """A complex number ``(a + b i) / d`` held as three ints with ``d > 0``
    and ``gcd(a, b, d) = 1``, so each value has one triple.

    Instances are immutable, as ``Fraction``'s are: nothing assigns the
    private slots after construction.  They are hashable, and hash-compatible
    with ``fractions.Fraction`` whenever the imaginary part vanishes, so they
    can serve as dictionary keys alongside plain rationals (e.g. as pole
    locations).  Arithmetic and ``==`` are integer operations and one
    ``math.gcd``; the ``Fraction`` parts :attr:`re` and :attr:`im` are built
    only when read.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot interpret {part!r} as an exact rational")
        # a prime of the lcm d of the two denominators divides one part's denominator as
        # often as d, so not that part's numerator: the triple is already reduced
        d = re.denominator * im.denominator // math.gcd(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    # -- parts -------------------------------------------------------------
    @property
    def triple(self) -> Tuple[int, int, int]:
        """``(a, b, d)``: the value is ``(a + b i) / d``, ``d > 0``, ``gcd(a, b, d) = 1``."""
        return self._a, self._b, self._d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ------------------------------------------------------
    @staticmethod
    def _coerce(other) -> "GaussianRational":
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return _triple(other.numerator, 0, other.denominator)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d, e = self._d, other._d
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else self + -other

    def __rsub__(self, other):
        other = self._coerce(other)
        return NotImplemented if other is NotImplemented else other + -self

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        # ((a + b i) / d) / ((c + e i) / f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        f = other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    # -- comparisons / conversions ---------------------------------------
    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (int, Fraction)):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __complex__(self) -> complex:
        # int / int rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self) -> str:
        a, b, d = self._a, self._b, self._d
        if not b:
            return _rational_text(a, d)
        imag = "i" if b == d else "-i" if b == -d else f"{_rational_text(b, d)} i"
        if not a:
            return imag
        return f"{_rational_text(a, d)} {'+' if b > 0 else '-'} {imag.lstrip('-')}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The value ``(a + b i) / d`` of a reduced triple, ``d > 0``."""
    value = object.__new__(GaussianRational)
    value._a, value._b, value._d = a, b, d
    return value


def _rational_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for ``d > 0``."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The value ``(a + b i) / d`` for any ints with ``d > 0``."""
    g = math.gcd(a, b, d)
    return _triple(a, b, d) if g == 1 else _triple(a // g, b // g, d // g)


I = GaussianRational(0, 1)
ONE = GaussianRational(1)
ZERO = GaussianRational(0)

_CoeffLike = Union[int, Fraction, GaussianRational]


def as_gaussian(value: _CoeffLike) -> GaussianRational:
    """Coerce an ``int``/``Fraction``/``GaussianRational`` to GaussianRational."""
    coerced = GaussianRational._coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    return coerced


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
        if self and other and self.key != other.key:
            raise ValueError(f"cannot add a multiple of {other.unit_text()} to a multiple of {self.unit_text()}")
        return SymbolicScalar(self.coeff + other.coeff, self.key if self else other.key)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (pi1, spheres1), (pi2, spheres2) = self.key, other.key
        # keys are normalized, so a side with no sphere factor leaves the other's as it is
        spheres = _normalize_spheres(spheres1 + spheres2) if spheres1 and spheres2 else spheres1 or spheres2
        return SymbolicScalar(self.coeff * other.coeff, (pi1 + pi2, spheres))

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
