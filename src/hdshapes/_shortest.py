"""Shortest round-trip text of float64 values, a block at a time.

`fields(x)` turns each value of a float64 array into a fixed-width field of
bytes whose non-NUL bytes are exactly ``repr(float(v)).encode()``.

Values that repr writes without an exponent (zero, and 1e-4 <= |v| < 1e16)
are laid out here. Their shortest decimal digits come from Schubfach (R.
Giulietti, "The Schubfach way to render doubles", 2020), which like Ryū (U.
Adams, "Ryū: fast float-to-string conversion", PLDI 2018) picks the digits
with 64- and 128-bit integer arithmetic alone, so numpy can run it over a
whole block. Like repr, it picks the shortest decimal that reads back as the
same double and, among those, the one closest to it. Every other value
(subnormals, the magnitudes written with an exponent, non-finite values) is
formatted by repr itself.

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
# The digit places of a laid-out value: up to 3 zeros after "0.", then up to
# 17 significant digits.
_PLACES = 20


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


def _mul(ah, al, bh, bl):
    """The high and low 64-bit words of (ah·2**32 + al)·(bh·2**32 + bl), for
    32-bit limbs held in uint64 arrays."""
    ll, lh, hl = al * bl, al * bh, ah * bl
    mid = (ll >> 32) + (lh & _M32) + (hl & _M32)
    return ah * bh + (lh >> 32) + (hl >> 32) + (mid >> 32), (mid << 32) | (ll & _M32)


def _rop(g1h, g1l, g0h, g0l, cp):
    """Schubfach's rop: g·cp / 2**127, rounded to odd, for g = g1·2**63 + g0.
    It takes the same words as the paper's code: the high word x1 of g0·cp,
    and the words y1, y0 of g1·cp."""
    ch, cl = cp >> 32, cp & _M32
    x1, _ = _mul(g0h, g0l, ch, cl)
    y1, y0 = _mul(g1h, g1l, ch, cl)
    z = (y0 >> 1) + x1
    return (y1 + (z >> 63)) | (((z & _M63) + _M63) >> 63)


def _shortest(c, e):
    """Shortest decimal digits f and exponent k, f·10**k, of c·2**(e - 53),
    for 53-bit significands c (uint64) and exponents in range."""
    column = e - (53 + _Q_LOW)
    g1h, g1l, g0h, g0l = np.take(_LIMBS, column, axis=1)
    k, h = np.take(_SHIFTS, column, axis=1)
    out = c & 1  # 1 where the interval's ends read back as a neighbour (c odd)
    cb = c << 2
    h = h.astype(np.uint64)
    # The value and the bounds of its rounding interval, scaled by 4 / 10**k.
    # Schubfach narrows the interval below a power of two (c = 2**52); for
    # the powers of two in range the regular interval gives the same digits,
    # as tests/test_shortest.py checks for every one of them.
    vbl = _rop(g1h, g1l, g0h, g0l, (cb - 2) << h)
    vb = _rop(g1h, g1l, g0h, g0l, cb << h)
    vbr = _rop(g1h, g1l, g0h, g0l, (cb + 2) << h)
    s = vb >> 2
    # Of s·10**k and t·10**k, t = s + 1, take the one alone in the rounding
    # interval, or else the nearer (s on a tie with s even).
    t = s + 1
    uin = vbl + out <= s << 2
    win = (t << 2) + out <= vbr
    mid = (s + t) << 1
    nearer_s = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    alone = uin ^ win
    f = s + ((alone & win) | (~alone & ~nearer_s))
    # But one digit fewer wins: of s'·10**(k+1) and t' = s' + 1, with
    # s' = s // 10, the one alone in the interval. Schubfach tries them only
    # where s >= 100, which always holds for a normal double.
    sp10 = s // 10 * 10
    upin = vbl + out <= sp10 << 2
    wpin = ((sp10 + 10) << 2) + out <= vbr
    fewer = upin ^ wpin
    return f + (sp10 + wpin.astype(np.uint64) * 10 - f) * fewer, k


def fields(x) -> np.ndarray:
    """An (x.size, WIDTH) uint8 array: row i holds ``repr(float(x.flat[i]))``
    as ASCII, padded with NUL bytes (before the first character, after the
    last, or both). No character of a repr is NUL.

    The array is built a column at a time, so it is the transpose of a
    C-contiguous one.
    """
    x = np.ravel(np.asarray(x, dtype=np.float64))
    ax = np.abs(x)
    zero = ax == 0
    laid = (ax >= _LOW) & (ax < _HIGH)
    m, e = np.frexp(np.where(laid, ax, 1.0))  # others get 1.0's digits, replaced below
    f, k = _shortest(np.ldexp(m, 53).astype(np.uint64), e)

    # f has 16 or 17 digits; scaled to 17, the value is 0.<f> * 10**point
    # (repr's decpt). Zero is written as 0.0: f = 0, point = 1.
    short = f < 10**16
    f += f * short * 9
    point = k + 17 - short
    f[zero] = 0
    point[zero] = 1
    # A point at or before the first digit is written "0." and -point zeros:
    # the digit places then start with `shift` zeros.
    shift = np.clip(-point, 0, 3).astype(np.uint64)
    before = np.maximum(point, 0)  # digit places before the "."
    # The 20 places as two 10-digit numbers.
    split = 10 ** (7 + shift)
    high = f // split
    part = (f - high * split) * 10 ** (3 - shift)

    # Digits from the last place to the first. A place is written when a
    # nonzero digit is at or after it, or it is before the "." or just
    # after it ("12.0", not "12.").
    digit = np.empty((_PLACES, x.size), dtype=np.uint8)
    written = np.empty((_PLACES, x.size), dtype=bool)
    seen = np.zeros(x.size, dtype=bool)
    for place in reversed(range(_PLACES)):
        if place == 9:
            part = high
        quotient = part // 10
        digit[place] = part - quotient * 10
        part = quotient
        seen |= digit[place] != 0
        written[place] = seen
    places = np.arange(_PLACES)[:, None]
    written |= places <= before
    digit += _ZERO
    digit *= written.view(np.uint8)

    # The "." goes after `before` places: text place j holds digit j before
    # it and digit j - 1 after it.
    out = np.zeros((WIDTH, x.size), dtype=np.uint8)
    out[0] = _MINUS * np.signbit(x)
    out[1] = _ZERO * (point <= 0)
    text = out[2:3 + _PLACES]
    text[:-1] = digit * (places < before).view(np.uint8)
    text[1:] += digit * (places >= before).view(np.uint8)
    text[before, np.arange(x.size)] = _DOT
    rest = np.flatnonzero(~(laid | zero))
    if rest.size:
        reprs = "".join([repr(v).ljust(WIDTH, "\0") for v in x[rest].tolist()])
        out[:, rest] = np.frombuffer(reprs.encode("ascii"), dtype=np.uint8).reshape(-1, WIDTH).T
    return out.T
