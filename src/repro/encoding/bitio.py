"""Vectorized bit packing primitives.

Two layouts are provided:

- **fixed-width**: every value occupies exactly ``width`` bits, MSB first.
- **unary**: value ``q`` is written as ``q`` one-bits followed by a
  terminating zero-bit.  Because every zero in a pure unary stream is a
  terminator, decoding is a single :func:`numpy.flatnonzero` + ``diff`` —
  this is what makes the split-stream Rice codec in
  :mod:`repro.encoding.rice` fully vectorizable.

Every kernel walks its input in blocks of :data:`_BLOCK` values (or
bytes), so its temporaries stay bounded however long the stream is.
The block is a multiple of 8, which keeps each fixed-width block
byte-aligned: the concatenated blocks are the very bytes a whole-array
pass would emit.

All functions operate on ``uint64`` value arrays and ``bytes`` payloads.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_fixed", "unpack_fixed", "pack_unary", "unpack_unary"]

_MAX_WIDTH = 64

#: Values (fixed-width, unary encode) or bytes (unary decode) per block.
_BLOCK = 1 << 14


def pack_fixed(values: np.ndarray, width: int) -> bytes:
    """Pack ``values`` into a dense MSB-first bitstream, ``width`` bits each.

    ``width == 0`` is allowed and produces an empty payload (all values must
    then be zero, which the caller guarantees by construction).
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if not 0 <= width <= _MAX_WIDTH:
        raise ValueError(f"width must be in 0..{_MAX_WIDTH}, got {width}")
    if width == 0:
        if values.size and values.max() != 0:
            raise ValueError("width=0 requires all-zero values")
        return b""
    if width < _MAX_WIDTH and values.size and int(values.max()) >> width:
        raise ValueError(f"value does not fit in {width} bits")
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    parts = []
    for start in range(0, values.size, _BLOCK):
        bits = values[start:start + _BLOCK, None] >> shifts
        bits &= np.uint64(1)
        parts.append(np.packbits(bits.astype(np.uint8).ravel()).tobytes())
    return b"".join(parts)


def unpack_fixed(data: bytes, width: int, count: int) -> np.ndarray:
    """Inverse of :func:`pack_fixed`; returns ``count`` uint64 values."""
    if not 0 <= width <= _MAX_WIDTH:
        raise ValueError(f"width must be in 0..{_MAX_WIDTH}, got {width}")
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if width == 0:
        return np.zeros(count, dtype=np.uint64)
    nbits = width * count
    if len(data) * 8 < nbits:
        raise ValueError(
            f"payload has {len(data) * 8} bits, need {nbits} "
            f"for {count} values of width {width}"
        )
    raw = np.frombuffer(data, dtype=np.uint8)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    out = np.empty(count, dtype=np.uint64)
    for start in range(0, count, _BLOCK):
        n = min(_BLOCK, count - start)
        first = start * width // 8
        bits = np.unpackbits(raw[first:first + (n * width + 7) // 8],
                             count=n * width)
        bits = bits.reshape(n, width).astype(np.uint64)
        bits <<= shifts
        bits.sum(axis=1, dtype=np.uint64, out=out[start:start + n])
    return out


def pack_unary(values: np.ndarray) -> bytes:
    """Pack non-negative ``values`` as unary codes (q ones, then a zero).

    Unary codes do not end on byte boundaries, so each block packs the
    whole bytes it fills and carries its trailing bits into the next.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    parts = []
    carry = np.zeros(0, dtype=np.uint8)
    for start in range(0, values.size, _BLOCK):
        block = values[start:start + _BLOCK]
        # Terminator of code i sits right after its q ones.
        ends = np.cumsum(block.astype(np.int64) + 1) + (carry.size - 1)
        bits = np.ones(int(ends[-1]) + 1, dtype=np.uint8)
        bits[:carry.size] = carry
        bits[ends] = 0
        whole = bits.size & ~7
        parts.append(np.packbits(bits[:whole]).tobytes())
        carry = bits[whole:]
    parts.append(np.packbits(carry).tobytes())
    return b"".join(parts)


def unpack_unary(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`pack_unary`; returns ``count`` uint64 quotients."""
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    raw = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(count, dtype=np.uint64)
    done = 0
    last_end = -1  # bit offset of the previous code's terminator
    for start in range(0, raw.size, _BLOCK):
        if done == count:
            break
        bits = np.unpackbits(raw[start:start + _BLOCK])
        ends = np.flatnonzero(bits == 0)[:count - done] + 8 * start
        if ends.size:
            out[done:done + ends.size] = np.diff(ends, prepend=last_end) - 1
            done += ends.size
            last_end = int(ends[-1])
    if done < count:
        raise ValueError(
            f"unary stream holds {done} codes, expected {count}"
        )
    return out
