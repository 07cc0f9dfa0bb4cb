"""hdshapes._shortest.fields against repr, value by value.

Every field, with its NUL padding dropped, must be exactly
``repr(float(x)).encode()``: the kernel lays out zero and the values repr
writes without an exponent, and hands every other value to repr.
"""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdshapes import _shortest
from hdshapes._shortest import WIDTH, fields


def _assert_repr(values) -> None:
    x = np.asarray(values, dtype=np.float64).ravel()
    out = fields(x)
    assert out.shape == (x.size, WIDTH) and out.dtype == np.uint8
    got = [row[row != 0].tobytes() for row in out]
    want = [repr(v).encode() for v in x.tolist()]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert not bad, f"{len(bad)} of {x.size} differ, first: {bad[:5]}"


def _with_neighbours(values) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)])


def _signed(x) -> np.ndarray:
    return np.concatenate([x, -x])


SWEEPS = {
    "powers of two": _signed(np.ldexp(1.0, np.arange(-1074, 1024))),
    "powers of ten with neighbours": _signed(_with_neighbours([float(f"1e{k}") for k in range(-300, 301)])),
    "exponent switch points": _signed(_with_neighbours([1e-4, 1e16, 9999999999999998.0])),
    "integers around 2**53": _signed(np.arange(2**53 - 2000, 2**53 + 2000, dtype=np.int64).astype(np.float64)),
    "zeros": [0.0, -0.0],
    "subnormals": _signed(np.concatenate([
        np.ldexp(np.arange(1, 1001, dtype=np.float64), -1074),
        np.nextafter(2.2250738585072014e-308, 0.0) - np.ldexp(np.arange(1000, dtype=np.float64), -1074),
    ])),
    "short decimals": _signed(np.concatenate([np.arange(1, 30000) / 1000.0, np.arange(1, 30000) * 0.1])),
    "non-finite": [np.inf, -np.inf, np.nan],
}


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_fixed_sweep_matches_repr(sweep):
    _assert_repr(SWEEPS[sweep])


def test_a_block_of_every_kind_at_once():
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False)
    block = np.concatenate([
        bits.view(np.float64),
        rng.normal(size=20000) * 10.0 ** rng.integers(-8, 21, 20000),
        rng.random(5000),
        rng.integers(-(2**60), 2**60, 5000).astype(np.float64),
    ])
    _assert_repr(block)


def test_fields_accepts_any_shape_and_dtype():
    x = np.arange(12, dtype=np.float32).reshape(3, 4)[:, ::2]
    _assert_repr(x.astype(np.float64))
    assert fields(x).shape == (6, WIDTH)
    assert fields(np.empty(0)).shape == (0, WIDTH)


# ---------------------------------------------------------------------------
# The exponent tables against an exact derivation


def _floor_log(num: int, den: int, base: int) -> int:
    """The largest integer k with base**k <= num / den, found by stepping
    from a guess with exact integer comparisons."""
    bits = num.bit_length() - den.bit_length()
    k = bits * 3 // 10 if base == 10 else bits  # a first guess, stepped to the answer

    def at_most(k):
        return base**k * den <= num if k >= 0 else den <= num * base**-k

    while not at_most(k):
        k -= 1
    while at_most(k + 1):
        k += 1
    return k


def test_tables_match_an_exact_derivation():
    """k = floor(log10(2**q)), r = floor(log2(10**-k)) - 125 and g =
    floor(10**-k / 2**r) + 1, from exact rationals, for every q in range."""
    for i, q in enumerate(range(_shortest._Q_LOW, _shortest._Q_HIGH + 1)):
        k = _floor_log(1 << max(q, 0), 1 << max(-q, 0), 10)
        num, den = 10 ** max(-k, 0), 10 ** max(k, 0)  # 10**-k
        r = _floor_log(num, den, 2) - 125
        g = (num << max(-r, 0)) // (den << max(r, 0)) + 1
        assert 2**125 < g <= 2**126
        g1, g0 = g >> 63, g % 2**63
        limbs = [g1 >> 32, g1 % 2**32, g0 >> 32, g0 % 2**32]
        assert _shortest._LIMBS[:, i].tolist() == limbs, q
        assert _shortest._SHIFTS[:, i].tolist() == [k, q + r + 127], q
    assert _shortest._LIMBS.shape == (4, _shortest._Q_HIGH - _shortest._Q_LOW + 1)


# Bit patterns from each finite class: subnormal, the kernel's range, and
# normal magnitudes below and above it.
_EXPONENTS = st.one_of(
    st.just(0),
    st.integers(1, 1008),  # below 1e-4
    st.integers(1009, 1077),  # [2**-14, 2**55), around [1e-4, 1e16)
    st.integers(1078, 2046),  # above
)


_BITS = st.builds(
    lambda sign, exponent, mantissa: (sign << 63) | (exponent << 52) | mantissa,
    st.integers(0, 1),
    _EXPONENTS,
    st.one_of(st.integers(0, 2**52 - 1), st.sampled_from([0, 1, 2**52 - 1, 2**51])),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(_BITS, min_size=1, max_size=40))
def test_every_finite_bit_pattern_matches_repr(patterns):
    _assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=64))
def test_blocks_of_floats_match_repr(values):
    _assert_repr(values)


# ---------------------------------------------------------------------------
# Start-up does not pay for the tables


def _imports(*args: str) -> str:
    run = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True, check=True)
    return run.stderr


def test_import_and_list_do_not_load_the_kernel(tmp_path):
    assert "hdshapes._shortest" not in _imports("-c", "import hdshapes")
    assert "hdshapes._shortest" not in _imports("-m", "hdshapes", "list")
    written = _imports("-m", "hdshapes", "generate", "cone", "--n", "5", "--seed", "1", "--out", str(tmp_path / "c.csv"))
    assert "hdshapes._shortest" in written
