"""Reference Gaussian rationals: ``re + im*i`` as a pair of ``Fraction`` parts.

This is the straightforward representation the engine's integer-triple
:class:`~hodge_residue.scalars.GaussianRational` replaces: every operation
is spelled out in ``Fraction`` arithmetic on the two parts, with no gcd of
its own.  ``tests/test_scalars.py`` holds the two classes to the same
results, renderings and hashes of real values.
"""

from fractions import Fraction


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


class FractionPairGaussian:
    """A complex number ``re + im*i`` with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPairGaussian is immutable")

    @staticmethod
    def _coerce(other) -> "FractionPairGaussian":
        if isinstance(other, FractionPairGaussian):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionPairGaussian(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPairGaussian(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPairGaussian(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPairGaussian(other.re - self.re, other.im - self.im)

    def __neg__(self):
        return FractionPairGaussian(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FractionPairGaussian(
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
            raise ZeroDivisionError("division by zero FractionPairGaussian")
        return FractionPairGaussian(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __eq__(self, other):
        if isinstance(other, FractionPairGaussian):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re or self.im)

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if not self.re and not self.im:
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
        # the engine class's name, so the two reprs compare byte for byte
        return f"GaussianRational({self.re!r}, {self.im!r})"
