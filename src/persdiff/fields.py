"""Field specifications and exact scalar arithmetic.

Two coefficient kinds are supported: prime fields GF(p), whose scalars
are Python ints in ``range(p)``, and the rationals, whose scalars are
``fractions.Fraction`` objects.  Everything is exact; nothing here
touches floating point.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

# Characteristics must lie below this, so that trial division stays quick.
_MAX_CHARACTERISTIC = 2**31


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
        also ``Fraction`` objects and ``a/b`` strings.  Bools, floats and
        anything unparsable raise :class:`InvalidField`.
        """
        if isinstance(x, bool):
            raise InvalidField(f"bad coefficient {x!r}")
        if isinstance(x, float):
            raise InvalidField("floating point coefficients are not accepted; use 'a/b' strings")
        try:
            if self.is_prime_field:
                return (int(x) if isinstance(x, str) else operator.index(x)) % self.characteristic
            return Fraction(x)
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidField(f"bad coefficient {x!r} for {self.token()}") from None

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
