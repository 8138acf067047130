"""Blocked bit-packing kernels against their whole-array formulas.

The kernels in :mod:`repro.encoding` walk their input block by block so
their temporaries stay bounded at paper scale.  The whole-array formulas
they replaced are kept here as oracles: every kernel must emit the same
bytes and decode the same values, for lengths on both sides of each
block edge and for every width.
"""

import struct

import numpy as np
import pytest

from repro.encoding.bitio import (
    _BLOCK,
    pack_fixed,
    pack_unary,
    unpack_fixed,
    unpack_unary,
)
from repro.encoding.bitplane import MAX_SPLIT, split_decode, split_encode
from repro.encoding.deflate import deflate, inflate
from repro.encoding.rice import (
    ESCAPE_Q,
    choose_rice_k,
    rice_decode,
    rice_encode,
    rice_size,
)

B = _BLOCK
LENGTHS = (0, 1, 7, 8, B - 1, B, B + 1, 3 * B + 5)


# -- oracles: the whole-array formulas --------------------------------------

def ref_pack_fixed(values, width):
    if width == 0:
        return b""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((values[:, None] >> shifts[None, :]) & np.uint64(1)).astype(
        np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def ref_unpack_fixed(data, width, count):
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8),
                         count=width * count)
    bits = bits.reshape(count, width).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)


def ref_pack_unary(values):
    if values.size == 0:
        return b""
    bits = np.ones(int(values.sum()) + values.size, dtype=np.uint8)
    bits[np.cumsum(values.astype(np.int64) + 1) - 1] = 0
    return np.packbits(bits).tobytes()


def ref_unpack_unary(data, count):
    if count == 0:
        return np.zeros(0, dtype=np.uint64)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8))
    ends = np.flatnonzero(bits == 0)[:count]
    starts = np.concatenate([[np.int64(-1)], ends[:-1]])
    return (ends - starts - 1).astype(np.uint64)


def ref_choose_rice_k(values):
    if values.size == 0:
        return 0
    guess = max(0, int(np.log2(float(values.mean()) + 1.0)))
    best_k, best_bits = 0, np.inf
    for k in range(max(0, guess - 1), min(63, guess + 2) + 1):
        q = values >> np.uint64(k)
        escaped = int((q >= ESCAPE_Q).sum())
        bits = (int(np.minimum(q, np.uint64(ESCAPE_Q)).sum()) + values.size
                + k * values.size + 64 * escaped)
        if bits < best_bits:
            best_k, best_bits = k, bits
    return best_k


def ref_rice_encode(values, k):
    q = values >> np.uint64(k)
    escape = q >= ESCAPE_Q
    q_stream = ref_pack_unary(np.minimum(q, np.uint64(ESCAPE_Q)))
    remainders = np.where(escape, np.uint64(0),
                          values & np.uint64((1 << k) - 1))
    r_stream = ref_pack_fixed(remainders, k)
    header = struct.pack("<IQIIxxxx", 0x52494345, values.size, k,
                         int(escape.sum()))
    return b"".join((header, struct.pack("<QQ", len(q_stream),
                                         len(r_stream)),
                     q_stream, r_stream, values[escape].tobytes()))


def ref_split_encode(residuals, k, level=6):
    low = ref_pack_fixed(residuals & np.uint64((1 << k) - 1), k)
    high = residuals >> np.uint64(k)
    peak = int(high.max()) if high.size else 0
    width = next((w for w in (1, 2, 4) if peak < 1 << (8 * w)), 8)
    return (struct.pack("<BB", k, width) + low
            + deflate(high.astype(f"<u{width}").tobytes(), level,
                      itemsize=width))


def ref_split_decode(payload, count):
    k, width = struct.unpack_from("<BB", payload)
    n_low = (count * k + 7) // 8
    low = ref_unpack_fixed(payload[2:2 + n_low], k, count)
    high = np.frombuffer(inflate(payload[2 + n_low:], itemsize=width),
                         dtype=f"<u{width}").astype(np.uint64)
    return (high << np.uint64(k)) | low


# -- inputs -----------------------------------------------------------------

def fixed_values(rng, n, width):
    """Random ``width``-bit values with zeros and all-ones mixed in."""
    top = (1 << width) - 1
    values = rng.integers(0, top, n, dtype=np.uint64, endpoint=True)
    values[::5] = top
    values[1::7] = 0
    return values


def residuals(rng, n):
    """Geometric-ish residuals with a heavy tail of large outliers."""
    values = rng.geometric(0.05, n).astype(np.uint64)
    values[::97] <<= np.uint64(20)
    return values


# -- fixed width -------------------------------------------------------------

@pytest.mark.parametrize("n", LENGTHS)
def test_fixed_matches_whole_array_formula(rng, n):
    for width in range(1, 65):
        values = fixed_values(rng, n, width)
        packed = pack_fixed(values, width)
        assert packed == ref_pack_fixed(values, width), width
        out = unpack_fixed(packed, width, n)
        assert out.dtype == np.uint64
        np.testing.assert_array_equal(out, ref_unpack_fixed(packed, width, n))
        np.testing.assert_array_equal(out, values)


@pytest.mark.parametrize("width", (1, 3, 13, 64))
def test_all_ones_across_blocks(width):
    values = np.full(3 * B + 5, (1 << width) - 1, dtype=np.uint64)
    packed = pack_fixed(values, width)
    assert packed == ref_pack_fixed(values, width)
    np.testing.assert_array_equal(unpack_fixed(packed, width, values.size),
                                  values)


def test_unpack_ignores_trailing_bytes(rng):
    values = fixed_values(rng, B + 3, 11)
    packed = pack_fixed(values, 11) + b"\xff" * 9
    np.testing.assert_array_equal(unpack_fixed(packed, 11, values.size),
                                  values)


# -- unary -------------------------------------------------------------------

@pytest.mark.parametrize("n", LENGTHS)
def test_unary_matches_whole_array_formula(rng, n):
    values = np.minimum(rng.geometric(0.3, n) - 1, ESCAPE_Q).astype(
        np.uint64)
    values[::11] = ESCAPE_Q
    packed = pack_unary(values)
    assert packed == ref_pack_unary(values)
    out = unpack_unary(packed, n)
    np.testing.assert_array_equal(out, ref_unpack_unary(packed, n))
    np.testing.assert_array_equal(out, values)


def test_unary_short_stream_reports_codes_found(rng):
    values = rng.integers(0, 5, 3 * B, dtype=np.uint64)
    packed = pack_unary(values)
    held = ref_unpack_unary(packed, 10 * B).size
    with pytest.raises(ValueError, match=f"holds {held} codes"):
        unpack_unary(packed, 10 * B)


# -- Rice ----------------------------------------------------------------------

@pytest.mark.parametrize("n", LENGTHS)
def test_rice_matches_whole_array_formula(rng, n):
    values = residuals(rng, n)
    k_star = choose_rice_k(values)
    assert k_star == ref_choose_rice_k(values)
    for k in sorted({0, 1, 5, k_star, 63}):
        blob = rice_encode(values, k)
        assert blob == ref_rice_encode(values, k), k
        assert rice_size(values, k) == len(blob)
        np.testing.assert_array_equal(rice_decode(blob), values)
    assert rice_encode(values) == ref_rice_encode(values, k_star)


@pytest.mark.parametrize("k", (0, 3, 17))
def test_rice_escape_boundary(k):
    # Quotients just below, at and above the escape threshold.
    q = np.array([ESCAPE_Q - 1, ESCAPE_Q, ESCAPE_Q + 1] * (B + 1),
                 dtype=np.uint64)
    values = (q << np.uint64(k)) | np.uint64((1 << k) - 1)
    blob = rice_encode(values, k)
    assert blob == ref_rice_encode(values, k)
    assert rice_size(values, k) == len(blob)
    np.testing.assert_array_equal(rice_decode(blob), values)


def test_rice_size_rejects_bad_k():
    with pytest.raises(ValueError, match="k must be"):
        rice_size(np.arange(4, dtype=np.uint64), 64)


# -- split coder ---------------------------------------------------------------

@pytest.mark.parametrize("n", (0, 1, 7, B - 1, B + 1, 3 * B + 5))
def test_split_matches_whole_array_formula(rng, n):
    values = residuals(rng, n)
    for k in range(MAX_SPLIT + 1):
        payload = split_encode(values, k)
        assert payload == ref_split_encode(values, k), k
        out = split_decode(payload, n)
        np.testing.assert_array_equal(out, ref_split_decode(payload, n))
        np.testing.assert_array_equal(out, values)
