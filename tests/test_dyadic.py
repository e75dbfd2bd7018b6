from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from langmart.dyadic import ZERO, Dyadic, compare
from langmart.rng import Lcg
from langmart.tworow import (
    MalformedCodeError,
    TwoRowCode,
    decode_tworow,
    encode_tworow,
    rel_l,
    rel_p,
    rel_z,
    tworow_add,
)

dyadics = st.builds(Dyadic, st.integers(-10**9, 10**9), st.integers(0, 40))


def as_fraction(x: Dyadic) -> Fraction:
    return Fraction(x.num, 2**x.exp)


def test_normalization():
    assert Dyadic(4, 2) == Dyadic(1, 0)
    assert Dyadic(6, 1) == Dyadic(3, 0)
    assert Dyadic(0, 7) == Dyadic(0, 0)
    assert Dyadic(3, -2) == Dyadic(12, 0)


def test_examples():
    assert Dyadic(1, 1) + Dyadic(3, 2) == Dyadic(5, 2)  # 1/2 + 3/4 = 5/4
    assert compare(Dyadic(5, 2), Dyadic(2)) == -1
    assert Dyadic(5, 2).scale_pow2(-2) == Dyadic(5, 4)
    assert Dyadic(5, 2).scale_pow2(0) == Dyadic(5, 2)
    assert Dyadic(3).scale_pow2(1) == Dyadic(6)
    assert Dyadic(1) * Dyadic(3, 1) == Dyadic(3, 1)
    assert Dyadic(81, 4) * Dyadic(1, 1) == Dyadic(81, 5)
    assert Dyadic(17, 3) * Dyadic(0) == Dyadic(0)


def test_parse_roundtrip():
    for text in ["81/2^4", "-5/2^1", "0/2^0", "12"]:
        x = Dyadic.parse(text)
        assert Dyadic.parse(str(x)) == x
    with pytest.raises(ValueError):
        Dyadic.parse("1/3")


# Arbitrary text, text over the letters of dyadic literals, and literals.
dyadic_texts = (st.text(max_size=12) | st.text("0123456789-+/^2 _", max_size=12)
                | st.builds("{}/2^{}".format, st.integers(-10**6, 10**6), st.integers(-60, 60)))


@given(dyadic_texts)
def test_parse_any_text(text):
    """Any text parses to a dyadic that round-trips through str, or raises ValueError."""
    try:
        x = Dyadic.parse(text)
    except ValueError:
        return
    assert Dyadic.parse(str(x)) == x


@given(st.integers(-10**6, 10**6), st.integers(-60, 60))
def test_parse_literal(num, exp):
    text = f"{num}/2^{exp}"
    if exp < 0:
        with pytest.raises(ValueError, match="negative exponent"):
            Dyadic.parse(text)
    else:
        assert Dyadic.parse(text) == Dyadic(num, exp)


@given(dyadics)
def test_str_roundtrip(x):
    assert Dyadic.parse(str(x)) == x


@given(dyadics, dyadics, dyadics)
def test_ring_laws(x, y, z):
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert z * (x + y) == z * x + z * y
    assert x - x == Dyadic(0)
    assert as_fraction(x + y) == as_fraction(x) + as_fraction(y)
    assert as_fraction(x * y) == as_fraction(x) * as_fraction(y)


@given(dyadics, dyadics)
def test_compare_matches_sub_sign(x, y):
    diff = x - y
    assert compare(x, y) == (diff.num > 0) - (diff.num < 0)
    assert (x < y) == (as_fraction(x) < as_fraction(y))


# Magnitudes that share the power-of-two bracket [1, 2), so that comparing
# them needs the aligned numerators: 3/2^1 and 1, and (2^k+1)/2^k and
# (2^(k+1)-1)/2^k for k = 2, 12 and 2000 (7/8 lies in the bracket below);
# with their negatives and zero.
TIE_MAGNITUDES = [Dyadic(3, 1), Dyadic(1), Dyadic(5, 2), Dyadic(7, 2),
                  Dyadic(2**12 + 1, 12), Dyadic(2**13 - 1, 12),
                  Dyadic(2**2000 + 1, 2000), Dyadic(2**2001 - 1, 2000), Dyadic(7, 3)]
TIE_VALUES = [Dyadic(0)] + TIE_MAGNITUDES + [-x for x in TIE_MAGNITUDES]


@pytest.mark.parametrize("x", TIE_VALUES, ids=str)
def test_compare_ties_match_fractions(x):
    fx = as_fraction(x)
    for y in TIE_VALUES:
        fy = as_fraction(y)
        assert (x < y, x <= y, x == y, x != y, x > y, x >= y) == \
            (fx < fy, fx <= fy, fx == fy, fx != fy, fx > fy, fx >= fy), (x, y)
        assert compare(x, y) == (fx > fy) - (fx < fy)


def test_compare_huge_exponents_without_aligning():
    """An exponent of 10**11 would need 10**11 bits to align with 1; the
    comparison is decided by sign and bit length, or by a shift no longer
    than the operands."""
    tiny = Dyadic(1, 10**11)
    assert ZERO < tiny < Dyadic(1) and -tiny < ZERO and not tiny >= Dyadic(1, 40)
    assert Dyadic(3, 10**11) > Dyadic(1, 10**11 - 1) > Dyadic(1, 10**11)
    assert compare(Dyadic(-3, 10**11), Dyadic(-1, 10**11 - 1)) == -1


def test_tworow_examples():
    assert encode_tworow(Dyadic(0)) == TwoRowCode("0", "0")
    # 5/2 = 10.1 in binary: a1=1, a0=0, a-1=1, sign 0
    assert encode_tworow(Dyadic(5, 1)) == TwoRowCode("01", "01")
    assert str(encode_tworow(Dyadic(5, 1))) == "01|01"
    assert TwoRowCode.parse("01|01") == encode_tworow(Dyadic(5, 1))


def test_tworow_malformed():
    with pytest.raises(MalformedCodeError):
        TwoRowCode("10", "0")  # trailing zero in the integer row
    with pytest.raises(MalformedCodeError):
        TwoRowCode("1", "010")  # trailing zero in the fraction row
    with pytest.raises(MalformedCodeError):
        TwoRowCode("0", "1")  # negative zero
    with pytest.raises(MalformedCodeError):
        TwoRowCode("", "0")
    with pytest.raises(MalformedCodeError):
        TwoRowCode("2", "0")


@given(st.text(max_size=10) | st.text("01|", max_size=10))
def test_tworow_parse_any_text(text):
    """Any text parses to a canonical code, or raises MalformedCodeError."""
    try:
        code = TwoRowCode.parse(text)
    except MalformedCodeError:
        return
    assert TwoRowCode.parse(str(code)) == code
    assert encode_tworow(decode_tworow(code)) == code


@given(dyadics)
def test_tworow_roundtrip(x):
    assert decode_tworow(encode_tworow(x)) == x


def test_tworow_add_identities():
    half = encode_tworow(Dyadic(1, 1))
    assert tworow_add(half, half) == encode_tworow(Dyadic(1))
    x = encode_tworow(Dyadic(-77, 5))
    assert tworow_add(x, encode_tworow(Dyadic(0))) == x


@given(dyadics, dyadics)
def test_tworow_add_matches_exact(x, y):
    log = []
    total = tworow_add(encode_tworow(x), encode_tworow(y), log)
    assert decode_tworow(total) == x + y
    assert all(c in (0, 1) for c in log)


@given(dyadics, dyadics)
def test_relations_match_exact(x, y):
    cx, cy = encode_tworow(x), encode_tworow(y)
    assert rel_z(cx) == (x.num == 0)
    assert rel_p(cx) == (x.num > 0)
    assert rel_l(cx, cy) == (x < y)


def boundary_values():
    out = [Dyadic(0), Dyadic(1), Dyadic(-1), Dyadic(1, 1), Dyadic(-1, 1),
           Dyadic(3, 2), Dyadic(-3, 2)]
    for k in range(21):
        out.append(Dyadic(2**k))
        out.append(Dyadic(-(2**k)))
        out.append(Dyadic(1, k))
        out.append(Dyadic(-1, k))
    return out


def test_boundary_set_agreement():
    values = boundary_values()
    for x in values:
        cx = encode_tworow(x)
        assert decode_tworow(cx) == x
        assert rel_z(cx) == (x.num == 0)
        assert rel_p(cx) == (x.num > 0)
        for y in values:
            cy = encode_tworow(y)
            assert rel_l(cx, cy) == (x < y)
            assert decode_tworow(tworow_add(cx, cy)) == x + y


def test_lcg_bulk_agreement():
    rng = Lcg(2024)
    for _ in range(2000):
        x, y = rng.dyadic(), rng.dyadic()
        cx, cy = encode_tworow(x), encode_tworow(y)
        log = []
        assert decode_tworow(tworow_add(cx, cy, log)) == x + y
        assert max(log, default=0) <= 1
        assert rel_l(cx, cy) == (x < y)


def test_lcg_bulk_ring_laws():
    rng = Lcg(31337)
    for _ in range(10**4):
        x, y, z = rng.dyadic(), rng.dyadic(), rng.dyadic()
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert z * (x + y) == z * x + z * y
        assert compare(x, y) == ((x - y).num > 0) - ((x - y).num < 0)
