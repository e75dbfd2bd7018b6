"""Exact arithmetic on dyadic rationals.

Capital in the betting engine is always a dyadic rational num / 2**exp.
Values are kept normalized (exp == 0, or num odd) so equality is plain
field comparison.  Their two-row bit presentation lives in
`langmart.tworow`.
"""

from __future__ import annotations


class Dyadic:
    """Immutable num / 2**exp with exp >= 0 and (exp == 0 or num odd)."""

    __slots__ = ("num", "exp")

    def __init__(self, num: int = 0, exp: int = 0):
        if exp < 0:
            num <<= -exp
            exp = 0
        if num == 0:
            exp = 0
        elif exp > 0 and not num & 1:
            # strip shared factors of two (an odd numerator has none)
            tz = (num & -num).bit_length() - 1
            shift = tz if tz < exp else exp
            num >>= shift
            exp -= shift
        self.num = num
        self.exp = exp

    # -- construction helpers -------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Dyadic":
        """Parse "num/2^exp" with exp >= 0 (plain integers also accepted)."""
        if not isinstance(text, str):
            raise TypeError(f"a dyadic literal is a string, not {type(text).__name__}")
        text = text.strip()
        if "/" not in text:
            return cls(int(text))
        num_part, den_part = text.split("/", 1)
        if not den_part.startswith("2^"):
            raise ValueError(f"not a dyadic literal: {text!r}")
        exp = int(den_part[2:])
        if exp < 0:
            raise ValueError(f"negative exponent in dyadic literal: {text!r}")
        return cls(int(num_part), exp)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = self.exp if self.exp >= other.exp else other.exp
        return Dyadic((self.num << (e - self.exp)) + (other.num << (e - other.exp)), e)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = self.exp if self.exp >= other.exp else other.exp
        return Dyadic((self.num << (e - self.exp)) - (other.num << (e - other.exp)), e)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Dyadic(self.num * other.num, self.exp + other.exp)

    __rmul__ = __mul__

    def __neg__(self):
        return Dyadic(-self.num, self.exp)

    def __abs__(self):
        return Dyadic(abs(self.num), self.exp)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers leave the dyadic ring")
        return Dyadic(self.num**k, self.exp * k)

    def scale_pow2(self, k: int) -> "Dyadic":
        """Exact multiplication by 2**k (k may be negative)."""
        return Dyadic(self.num, self.exp - k)

    # -- comparison ------------------------------------------------------------

    def _cmp(self, other) -> int:
        # Signs decide unless both are alike and nonzero; then a magnitude
        # lies in [2**(m-1), 2**m) for m = |num|.bit_length() - exp, and only
        # a tie in m aligns the numerators, by a shift bounded by their size.
        a, b = self.num, other.num
        if (a < 0) != (b < 0) or not (a and b):
            return (a > b) - (a < b)
        m = a.bit_length() - self.exp - b.bit_length() + other.exp
        if m:
            return 1 if (m > 0) == (a > 0) else -1
        e = self.exp if self.exp >= other.exp else other.exp
        a <<= e - self.exp
        b <<= e - other.exp
        return (a > b) - (a < b)

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.exp == other.exp

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) < 0

    def __le__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) <= 0

    def __gt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) > 0

    def __ge__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._cmp(other) >= 0

    def __hash__(self):
        return hash((self.num, self.exp))

    def __bool__(self):
        return self.num != 0

    def __str__(self):
        return f"{self.num}/2^{self.exp}"

    def __repr__(self):
        return f"Dyadic({self.num}, {self.exp})"


def _coerce(value):
    if isinstance(value, Dyadic):
        return value
    if isinstance(value, int):
        return Dyadic(value)
    return NotImplemented


ZERO = Dyadic(0)
ONE = Dyadic(1)
HALF = Dyadic(1, 1)
THREE_HALVES = Dyadic(3, 1)
TWO = Dyadic(2)


def compare(x: Dyadic, y: Dyadic) -> int:
    """-1, 0, or 1 as x is below, equal to, or above y."""
    return x._cmp(_coerce(y))
