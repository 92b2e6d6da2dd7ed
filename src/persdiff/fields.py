"""Field specifications and exact scalar arithmetic.

Two coefficient kinds are supported: prime fields GF(p), whose scalars
are Python ints in ``range(p)``, and the rationals, whose scalars are
``fractions.Fraction`` objects.  Everything is exact; nothing here
touches floating point.  A rational whose numerator or denominator has
more than :data:`MAX_DIGITS` digits is refused, as the interpreter already
refuses longer integer strings over GF(p) and in JSON.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

# Characteristics must lie below this, so that trial division stays quick.
_MAX_CHARACTERISTIC = 2**31

# The interpreter's default limit on the digits of an int read from a
# string (``sys.int_info.default_max_str_digits``), applied to rationals.
MAX_DIGITS = 4300
_TOO_LARGE = 10**MAX_DIGITS


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _exponent_in_range(x) -> bool:
    """False for a decimal string such as ``"1e1000000000"`` whose exponent
    alone puts the value over the size limit, read before ``Fraction``
    computes the power.

    ``Fraction`` reads at most ``MAX_DIGITS`` digits before and after the
    point, so an exponent over twice that leaves a numerator or a
    denominator over the limit; a zero mantissa is refused as well.
    """
    if not isinstance(x, str):
        return True
    _, e, exponent = x.lower().partition("e")
    return not e or abs(int(exponent)) <= 2 * MAX_DIGITS


class InvalidField(ValueError):
    """Field description does not name a supported field."""


@dataclass(frozen=True)
class FieldSpec:
    """GF(p) for a prime p, or the rationals (characteristic 0)."""

    kind: str
    characteristic: int = 0

    def __post_init__(self):
        if self.kind == "prime-field":
            p = self.characteristic
            # Size first: trial division of a huge number would not finish.
            if isinstance(p, int) and p >= _MAX_CHARACTERISTIC:
                raise InvalidField(f"characteristic {p} too large (must be < 2^31)")
            if not isinstance(p, int) or not _is_prime(p):
                raise InvalidField(f"characteristic {self.characteristic!r} is not prime")
        elif self.kind == "rational":
            if self.characteristic != 0:
                raise InvalidField("the rational field has characteristic 0")
        else:
            raise InvalidField(f"unknown field kind {self.kind!r}")

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls("prime-field", p)

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls("rational")

    @classmethod
    def parse(cls, token: str) -> "FieldSpec":
        """Parse a field token: ``gf2``, ``gf:p``, or ``rational``."""
        t = str(token).strip().lower()
        if t == "gf2":
            return cls.gf(2)
        if t.startswith("gf:"):
            try:
                p = int(t[3:])
            except ValueError:
                raise InvalidField(f"bad field token {token!r}") from None
            return cls.gf(p)
        if t == "rational":
            return cls.rationals()
        raise InvalidField(f"bad field token {token!r}")

    def token(self) -> str:
        if self.is_prime_field:
            return "gf2" if self.characteristic == 2 else f"gf:{self.characteristic}"
        return "rational"

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime-field"

    def one(self):
        return 1 if self.is_prime_field else Fraction(1)

    def coerce(self, x):
        """Coerce an integer, a rational or a numeric string to a field scalar.

        Over GF(p) only integers and integer strings are accepted; over Q
        also ``Fraction`` objects, ``a/b`` strings and decimal strings.
        Bools, floats, anything unparsable and rationals over the size
        limit raise :class:`InvalidField`.
        """
        if isinstance(x, bool):
            raise InvalidField(f"bad coefficient {x!r}")
        if isinstance(x, float):
            raise InvalidField("floating point coefficients are not accepted; use 'a/b' strings")
        try:
            if self.is_prime_field:
                return (int(x) if isinstance(x, str) else operator.index(x)) % self.characteristic
            q = Fraction(x) if _exponent_in_range(x) else None
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidField(f"bad coefficient {x!r} for {self.token()}") from None
        if q is None or abs(q.numerator) >= _TOO_LARGE or q.denominator >= _TOO_LARGE:
            raise InvalidField(
                f"rational coefficient too large: numerator and denominator have at most {MAX_DIGITS} digits"
            )
        return q

    def normalize(self, x):
        """Reduce a scalar back into its canonical residue (no-op over Q)."""
        if self.is_prime_field:
            return x % self.characteristic
        return x

    def inv(self, x):
        if self.normalize(x) == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.is_prime_field:
            return pow(int(x), -1, self.characteristic)
        return Fraction(1) / x

    def neg(self, x):
        if self.is_prime_field:
            return (-int(x)) % self.characteristic
        return -x
