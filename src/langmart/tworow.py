"""The two-row bit presentation of dyadic rationals and its digit-level
operations.

The two-row code stores num / 2**exp as two bit strings: integer-part bits
least-significant first on top, the sign bit followed by the fraction bits
(most significant first) on the bottom.  Addition on codes is done digit
by digit with a carry that never exceeds one bit, which is the point: the
whole layer stays realizable with a fixed finite memory.  Only the
dyadic-audit kind uses it, and its names import only from here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dyadic import Dyadic, ZERO


class MalformedCodeError(ValueError):
    """A two-row code violates the normalization rules."""


# ---------------------------------------------------------------------------
# Two-row codes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoRowCode:
    """Bit-string presentation of a dyadic rational.

    top     integer-part bits a0 a1 ... an, least significant first
    bottom  sign bit s followed by fraction bits a-1 a-2 ... a-m
    """

    top: str
    bottom: str

    def __post_init__(self):
        for row in (self.top, self.bottom):
            if not row or any(ch not in "01" for ch in row):
                raise MalformedCodeError(f"bad row {row!r}")
        if len(self.top) > 1 and self.top[-1] == "0":
            raise MalformedCodeError("trailing zero in integer row")
        if len(self.bottom) > 1 and self.bottom[-1] == "0":
            raise MalformedCodeError("trailing zero in fraction row")
        if set(self.top) == {"0"} and len(self.bottom) == 1 and self.bottom != "0":
            raise MalformedCodeError("negative zero is not canonical")

    def __str__(self):
        return f"{self.top}|{self.bottom}"

    @classmethod
    def parse(cls, text: str) -> "TwoRowCode":
        top, _, bottom = text.partition("|")
        return cls(top, bottom)


def encode_tworow(x: Dyadic) -> TwoRowCode:
    sign = "1" if x.num < 0 else "0"
    mag = abs(x.num)
    int_part = mag >> x.exp
    top = _bits_lsb_first(int_part)
    # fraction bit a-i is bit (exp - i) of the magnitude, i = 1..exp
    frac = "".join("1" if mag >> (x.exp - i) & 1 else "0" for i in range(1, x.exp + 1))
    return TwoRowCode(top, (sign + frac).rstrip("0") or "0")


def decode_tworow(code: TwoRowCode) -> Dyadic:
    int_part = int(code.top[::-1], 2)
    frac = code.bottom[1:]
    exp = len(frac)
    mag = (int_part << exp) + (int(frac, 2) if frac else 0)
    return Dyadic(-mag if code.bottom[0] == "1" else mag, exp)


def _bits_lsb_first(n: int) -> str:
    return "0" if n == 0 else format(n, "b")[::-1]


# ---------------------------------------------------------------------------
# Streaming addition and order relations on codes
# ---------------------------------------------------------------------------


def _digit_rows(code: TwoRowCode):
    """(sign, integer digits LSB-first, fraction digits MSB-first)."""
    return code.bottom[0], [int(ch) for ch in code.top], [int(ch) for ch in code.bottom[1:]]


def _from_digit_rows(sign: str, ints: list[int], fracs: list[int]) -> TwoRowCode:
    top = "".join(map(str, ints)).rstrip("0") or "0"
    frac = "".join(map(str, fracs)).rstrip("0")
    if top == "0" and not frac:
        sign = "0"
    return TwoRowCode(top, sign + frac)


def _aligned(a: TwoRowCode, b: TwoRowCode):
    sa, ia, fa = _digit_rows(a)
    sb, ib, fb = _digit_rows(b)
    n = max(len(ia), len(ib)) + 1  # room for the final carry
    m = max(len(fa), len(fb))
    ia += [0] * (n - len(ia))
    ib += [0] * (n - len(ib))
    fa += [0] * (m - len(fa))
    fb += [0] * (m - len(fb))
    return sa, sb, ia, ib, fa, fb


def _mag_cmp(ia, ib, fa, fb) -> int:
    for x, y in zip(reversed(ia), reversed(ib)):
        if x != y:
            return 1 if x > y else -1
    for x, y in zip(fa, fb):
        if x != y:
            return 1 if x > y else -1
    return 0


def _sweep_add(ia, ib, fa, fb, carry_log):
    """Single pass in significance order; carry is one bit throughout."""
    out_f = [0] * len(fa)
    out_i = [0] * len(ia)
    carry = 0
    for j in reversed(range(len(fa))):
        total = fa[j] + fb[j] + carry
        out_f[j] = total & 1
        carry = total >> 1
        assert carry in (0, 1)
        if carry_log is not None:
            carry_log.append(carry)
    for j in range(len(ia)):
        total = ia[j] + ib[j] + carry
        out_i[j] = total & 1
        carry = total >> 1
        assert carry in (0, 1)
        if carry_log is not None:
            carry_log.append(carry)
    assert carry == 0  # the extra integer slot absorbs the last carry
    return out_i, out_f


def _sweep_sub(ia, ib, fa, fb, carry_log):
    """Subtract the smaller magnitude (ib, fb) with a one-bit borrow."""
    out_f = [0] * len(fa)
    out_i = [0] * len(ia)
    borrow = 0
    for j in reversed(range(len(fa))):
        total = fa[j] - fb[j] - borrow
        out_f[j] = total & 1
        borrow = 1 if total < 0 else 0
        if carry_log is not None:
            carry_log.append(borrow)
    for j in range(len(ia)):
        total = ia[j] - ib[j] - borrow
        out_i[j] = total & 1
        borrow = 1 if total < 0 else 0
        if carry_log is not None:
            carry_log.append(borrow)
    assert borrow == 0
    return out_i, out_f


def tworow_add(a: TwoRowCode, b: TwoRowCode, carry_log: list | None = None) -> TwoRowCode:
    """Add two codes digit by digit, never leaving the bit representation.

    The optional carry_log collects the carry/borrow after every digit;
    callers use it to confirm the state stays within one bit.
    """
    sa, sb, ia, ib, fa, fb = _aligned(a, b)
    if sa == sb:
        out_i, out_f = _sweep_add(ia, ib, fa, fb, carry_log)
        return _from_digit_rows(sa, out_i, out_f)
    cmp = _mag_cmp(ia, ib, fa, fb)
    if cmp == 0:
        return encode_tworow(ZERO)
    if cmp > 0:
        out_i, out_f = _sweep_sub(ia, ib, fa, fb, carry_log)
        return _from_digit_rows(sa, out_i, out_f)
    out_i, out_f = _sweep_sub(ib, ia, fb, fa, carry_log)
    return _from_digit_rows(sb, out_i, out_f)


def rel_z(code: TwoRowCode) -> bool:
    """True when the coded value is zero (all digit bits are 0)."""
    return set(code.top) == {"0"} and set(code.bottom[1:]) <= {"0"}


def rel_p(code: TwoRowCode) -> bool:
    """True when the coded value is strictly positive."""
    return code.bottom[0] == "0" and not rel_z(code)


def rel_l(a: TwoRowCode, b: TwoRowCode) -> bool:
    """True when a's value is strictly below b's, decided by digit scans."""
    za, zb = rel_z(a), rel_z(b)
    if za and zb:
        return False
    neg_a = a.bottom[0] == "1" and not za
    neg_b = b.bottom[0] == "1" and not zb
    if neg_a != neg_b:
        return neg_a
    if za:
        return not neg_b  # 0 < positive b
    if zb:
        return neg_a  # negative a < 0
    _, _, ia, ib, fa, fb = _aligned(a, b)
    cmp = _mag_cmp(ia, ib, fa, fb)
    return cmp > 0 if neg_a else cmp < 0
