"""Shortest round-trip text of float64 values, a block at a time.

`fields(x)` turns each value of a float64 array into a fixed-width field of
bytes whose non-NUL bytes are exactly ``repr(float(v)).encode()``.

Values that repr writes without an exponent (zero, and 1e-4 <= |v| < 1e16)
are laid out here. Like repr, the kernel picks the shortest decimal that
reads back as the same double and, among those, the one closest to it. It
follows Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020): the value and the two ends of its rounding interval, scaled by
4 / 10**k and rounded to odd, decide between the candidates. Every other
value (subnormals, the magnitudes written with an exponent, non-finite
values) is formatted by repr itself.

It gets all three scaled numbers from one product per value, as Dragonbox
does (J. Jeon, "Dragonbox: A New Floating-Point Binary-to-Decimal
Conversion Algorithm", 2020): the interval's half-width is a shift of the
same table entry, added to and taken from the value. In the kernel's range
this is exact, so Dragonbox's corrections (its parity and divisibility
products) have nothing to correct. There 10**-k·2**-r is a multiple of
2**63, so Schubfach's g = floor(10**-k·2**-r) + 1 is g1·2**63 + 1. Its rop
of g and cp, which adds the high word of 1·cp (zero, as cp < 2**64) to the
two words of g1·cp, is then the 128-bit product g1·cp, rounded to odd at
2**64: linear in cp, and the ends' products are the value's plus or minus
g1·2**(h + 1). tests/test_shortest.py checks g's low word for every
exponent in range, and the kernel against Schubfach's three products.
numpy runs the product with 32-bit limbs, so no step needs more than
64-bit integer arithmetic.

Schubfach's exponent tables come from the paper's closed forms:
floor(q·log10(2)) = q·661971961083 >> 41 (flog10pow2) for |q| <= 6432162, and
floor(e·log2(10)) = e·913124641741 >> 38 (flog2pow10) for |e| <= 1838394. Both
ranges hold every exponent a double can have; the kernel's q lie in [-66, 1].

Every step is integer arithmetic on values, never on their bytes, so nothing
depends on byte order.
"""

from __future__ import annotations

import numpy as np

# The longest repr of a float64: "-2.2250738585072014e-308".
WIDTH = 24

# repr writes |v| < 1e-4 and |v| >= 1e16 with an exponent; the double just
# below 1e16 (9999999999999998.0) keeps its 16 digits.
_LOW, _HIGH = 1e-4, 1e16

_M32 = np.uint64(2**32 - 1)
_M63 = np.uint64(2**63 - 1)

# A value in [_LOW, _HIGH) is c * 2**q with c a 53-bit integer and q in
# [_Q_LOW, _Q_HIGH].
_Q_LOW = int(np.frexp(_LOW)[1]) - 53
_Q_HIGH = int(np.frexp(_HIGH)[1]) - 53

_DOT, _ZERO, _MINUS = ord("."), ord("0"), ord("-")
# The significant digits of a laid-out value, scaled to 17.
_DIGITS = 17
_TENS = np.array([1, 10], dtype=np.uint64)


def _tables() -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's constants for every exponent q in range, in column q - _Q_LOW.

    k = floor(log10(2**q)); 10**-k = beta * 2**r with 2**125 <= beta < 2**126,
    so r = floor(log2(10**-k)) - 125: both from the closed forms above. g =
    floor(beta) + 1, exact in Python integers, is split into g1 = g >> 63 and
    its low 63 bits g0. `limbs` holds the 32-bit halves of g1 and g0,
    `shifts` holds k and h = q + r + 127.
    """
    qs = range(_Q_LOW, _Q_HIGH + 1)
    limbs = np.empty((4, len(qs)), dtype=np.uint64)
    shifts = np.empty((2, len(qs)), dtype=np.int64)
    for i, q in enumerate(qs):
        k = q * 661971961083 >> 41  # flog10pow2(q)
        r = (-k * 913124641741 >> 38) - 125  # flog2pow10(-k) - 125
        g = (10 ** max(-k, 0) << max(-r, 0)) // (10 ** max(k, 0) << max(r, 0)) + 1
        g1, g0 = g >> 63, g & (2**63 - 1)
        limbs[:, i] = (g1 >> 32, g1 & (2**32 - 1), g0 >> 32, g0 & (2**32 - 1))
        shifts[:, i] = (k, q + r + 127)
    return limbs, shifts


_LIMBS, _SHIFTS = _tables()


def _product_table() -> np.ndarray:
    """Row q - _Q_LOW: g1's 32-bit halves; the half-width g1·2**(h + 1) of
    the rounding interval (in the kernel's 4 / 10**k scale, times 2**64) as
    its high and low words; h + 2, the shift that puts a significand c in
    place (g1·(c << (h + 2)) is the value, times 2**64); and k, as the
    uint64 of the same bits. A row per exponent, so that one take gathers
    every constant of a value."""
    g1 = (_LIMBS[0] << np.uint64(32)) | _LIMBS[1]
    h = _SHIFTS[1].astype(np.uint64)
    wide, low = g1 >> (np.uint64(63) - h), g1 << (h + np.uint64(1))
    return np.stack([_LIMBS[0], _LIMBS[1], wide, low, h + np.uint64(2), _SHIFTS[0].view(np.uint64)], axis=1)


_PRODUCT = _product_table()


def _mul(ah, al, bh, bl):
    """The high and low 64-bit words of (ah·2**32 + al)·(bh·2**32 + bl), for
    32-bit limbs held in uint64 arrays, with ah·bl + al·bh < 2**64."""
    ll, cross = al * bl, ah * bl + al * bh
    lo = ll + (cross << 32)
    return ah * bh + (cross >> 32) + (lo < ll), lo


def _shortest(c, e):
    """Shortest decimal digits f and exponent k, f·10**k, of c·2**(e - 53),
    for 53-bit significands c (uint64) and exponents in range. f has 16 or
    17 digits, trailing zeros included."""
    g1h, g1l, wide, low, shift, k = np.take(_PRODUCT, e - (53 + _Q_LOW), axis=0).T
    # The value scaled by 4 / 10**k, times 2**64: its integer part is the
    # high word, its fraction the low word. g1 < 2**63 and cp < 2**60, so
    # the limbs' cross products sum below 2**64. Adding or taking the
    # half-width gives the interval's ends, which are in it where c is even.
    # Each is then rounded to odd: its integer part, with the last bit set
    # if its fraction is not zero.
    cp = c << shift
    hi, lo = _mul(g1h, g1l, cp >> 32, cp & _M32)
    vb = hi | (lo != 0)
    odd = c & 1  # 1 where the interval's ends read back as a neighbour
    right, left = lo + low, lo - low
    upper = ((hi + wide + (right < lo)) | (right != 0)) - odd
    lower = ((hi - wide - (lo < low)) | (left != 0)) + odd
    # Schubfach narrows the interval below a power of two (c = 2**52); for
    # the powers of two in range the regular interval gives the same digits,
    # as tests/test_shortest.py checks for every one of them.
    #
    # Of s·10**k and s + 1, one or both lie in the interval, whose width is
    # at least 4 in this scale: take the one alone in it, or else the
    # nearer, s on a tie with s even (vb's last two bits are the fraction).
    s = vb >> 2
    s4 = s << 2
    up = ((vb & 2) != 0) & ((vb & 5) != 0)
    f = s + ((s4 + 4 <= upper) & ((s4 < lower) | up))
    # But one digit fewer wins: of s'·10**(k+1) and s' + 1, with s' = s // 10,
    # the one alone in the interval. Schubfach tries them only where s >= 100,
    # which always holds for a normal double.
    sp10 = s // 10 * 10
    upin = lower <= sp10 << 2
    wpin = (sp10 + 10) << 2 <= upper
    return np.where(upin ^ wpin, sp10 + wpin * np.uint64(10), f), k.view(np.int64)


def fields(x) -> np.ndarray:
    """``repr(float(v))`` of each value v of `x` as WIDTH ASCII bytes from
    the first, padded after the last with NUL bytes. No character of a repr
    is NUL.

    An (x.size, WIDTH) uint8 array, row i for ``x.flat[i]``; it is the
    transpose of a C-contiguous array, built a place at a time.
    """
    x = np.ravel(np.asarray(x, dtype=np.float64))
    n = x.size
    ax = np.abs(x)
    zero = ax == 0
    laid = (ax >= _LOW) & (ax < _HIGH)
    np.copyto(ax, 1.0, where=~laid)  # others get 1.0's digits, replaced below
    m, e = np.frexp(ax)
    f, k = _shortest(np.ldexp(m, 53).astype(np.uint64), e)

    # Scaled to 17 digits, f is 0.<f> * 10**point (repr's decpt), and point
    # lies in [-3, 16]. Zero is written as 0.0: f = 0, point = 1.
    short = (f < 10**16).view(np.uint8)
    f *= np.take(_TENS, short)
    point = k.astype(np.int8) + 17 - short.view(np.int8)
    f[zero] = 0
    point[zero] = 1
    before = np.maximum(point, 0).view(np.uint8)  # digits before the "."
    lead = np.maximum(-point, 0).view(np.uint8)  # zeros after "0." and before the digits

    # The first digit, then the other 16 in four pieces of 4 that each fit a
    # uint16, each piece taken apart from its last digit to its first. Digit
    # i is written when a nonzero digit is at or after it, or it is before
    # the "." or just after it ("12.0", not "12.").
    digit = np.empty((_DIGITS, n), dtype=np.uint8)
    digit[0] = first = f // 10**16
    f -= first * 10**16
    halves = np.empty((2, n), dtype=np.uint32)
    halves[0] = high = f // 10**8
    halves[1] = f - high * 10**8
    quarters = halves // 10**4
    pieces = np.empty((4, n), dtype=np.uint16)
    pieces[0::2] = quarters
    pieces[1::2] = halves - quarters * 10**4
    columns = digit[1:].reshape(4, 4, n)
    for place in range(3, -1, -1):
        quotient = pieces // 10
        columns[:, place] = pieces - quotient * 10
        pieces = quotient
    places = np.arange(_DIGITS + 1, dtype=np.uint8)[:, None]
    written = digit != 0
    for i in range(_DIGITS - 2, -1, -1):
        written[i] |= written[i + 1]
    written |= places[:_DIGITS] <= before
    digit += _ZERO
    digit *= written.view(np.uint8)

    # The text of |v| from its first place: digit i goes to place i before
    # the ".", which is at place `before`, and to place i + gap after it. The
    # gap is 1, or 2 + lead after "0." and the lead zeros. A negative value's
    # text then moves one place on for its "-", so each field's bytes run
    # from its first place, with no NUL between them.
    point0 = (point <= 0).view(np.uint8)
    gap = point0 + lead + 1
    ahead = (places[:_DIGITS] < before).view(np.uint8)
    text = np.zeros((WIDTH, n), dtype=np.uint8)
    text[:_DIGITS] = digit * ahead
    digit -= digit * ahead
    for shift in range(1, 6):
        moved = gap == shift
        if shift == 1 or moved.any():
            text[shift : shift + _DIGITS] += digit * moved.view(np.uint8)
    text[0] += _ZERO * point0
    text[2:5] += _ZERO * (places[1:4] <= lead).view(np.uint8)
    text[: _DIGITS + 1] += _DOT * (places == before + point0).view(np.uint8)
    negative = np.signbit(x).view(np.uint8)
    work = text * (1 - negative)
    work[1:] += text[:-1] * negative
    work[0] += _MINUS * negative
    rest = np.flatnonzero(~(laid | zero))
    if rest.size:
        reprs = "".join([repr(v).ljust(WIDTH, "\0") for v in x[rest].tolist()])
        work[:, rest] = np.frombuffer(reprs.encode("ascii"), dtype=np.uint8).reshape(-1, WIDTH).T
    return work.T
