"""Split-stream Golomb-Rice entropy codec.

A Rice code with parameter ``k`` writes a value ``v >= 0`` as the unary code
of the quotient ``q = v >> k`` followed by the ``k`` low bits of ``v``.
Interleaving the two parts makes vectorized decoding awkward (a zero bit may
be either a terminator or remainder payload), so we store them as *separate
streams* — a pure-unary quotient stream and a fixed-width remainder stream —
plus an escape stream for outliers:

- values with ``q >= ESCAPE_Q`` are written as ``ESCAPE_Q`` in the quotient
  stream and their full 64-bit value in the escape stream;
- everything decodes with :func:`numpy.unpackbits`-level primitives only.

The framing adds a 24-byte header; for the residual streams produced by the
predictive codecs this is negligible.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.encoding.bitio import (
    pack_fixed,
    pack_unary,
    unpack_fixed,
    unpack_unary,
)
from repro.encoding.deflate import deflate_uint

__all__ = ["rice_encode", "rice_decode", "choose_rice_k", "rice_size",
           "rice_or_deflate", "MODE_RICE", "MODE_DEFLATE"]

#: Quotients at or above this value are escaped to a raw 64-bit side stream.
ESCAPE_Q = 40

_HEADER = struct.Struct("<IQIIxxxx")  # magic, count, k, n_escaped (+pad)
_MAGIC = 0x52494345  # "RICE"

#: Entropy-stage modes :func:`rice_or_deflate` reports.
MODE_RICE = 0
MODE_DEFLATE = 1


def _check_k(k: int) -> None:
    if not 0 <= k <= 63:
        raise ValueError(f"k must be in 0..63, got {k}")


def _quotient_terms(values: np.ndarray, k: int) -> tuple[int, int]:
    """Sum of the capped quotients and the escape count at parameter ``k``."""
    q = values >> np.uint64(k)
    np.minimum(q, np.uint64(ESCAPE_Q), out=q)
    return int(q.sum()), int(np.count_nonzero(q == ESCAPE_Q))


def choose_rice_k(values: np.ndarray) -> int:
    """Pick a near-optimal Rice parameter for ``values``.

    Uses the classic mean-based rule: the optimal ``k`` is approximately
    ``log2(mean)``; we search the three integers around it and keep the one
    with the smallest exact encoded size.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size == 0:
        return 0
    n = values.size
    guess = max(0, int(np.log2(float(values.mean()) + 1.0)))
    best_k, best_bits = 0, np.inf
    for k in range(max(0, guess - 1), min(63, guess + 2) + 1):
        q_sum, n_escaped = _quotient_terms(values, k)
        bits = q_sum + n + k * n + 64 * n_escaped
        if bits < best_bits:
            best_k, best_bits = k, bits
    return best_k


def rice_size(values: np.ndarray, k: int) -> int:
    """Exact byte length of ``rice_encode(values, k)``, without encoding.

    Built from the same quotient sums :func:`choose_rice_k` ranks its
    candidates by, so a codec can weigh the Rice stream against its
    alternatives and build it only if it wins.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    _check_k(k)
    q_sum, n_escaped = _quotient_terms(values, k)
    n = values.size
    return (_HEADER.size + 16 + (q_sum + n + 7) // 8 + (k * n + 7) // 8
            + 8 * n_escaped)


def rice_or_deflate(values: np.ndarray, level: int = 4,
                    others=()) -> tuple[int, int, bytes]:
    """The smallest entropy stage for ``values``: Rice, DEFLATE or ``others``.

    DEFLATE runs on the narrowest unsigned dtype (:func:`deflate_uint`).
    ``others`` yields further ``(mode, payload)`` candidates.  Candidates
    are ranked in that order and a later one must be strictly smaller, so
    Rice wins ties; its stream is sized with :func:`rice_size` and only
    built if it wins.  Returns ``(mode, width, payload)``, where ``width``
    is the DEFLATE itemsize and 0 for every other mode.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    k = choose_rice_k(values)
    mode, width, payload = MODE_RICE, 0, None
    size = rice_size(values, k)
    deflate_width, deflated = deflate_uint(values, level)
    if len(deflated) < size:
        mode, width, payload = MODE_DEFLATE, deflate_width, deflated
        size = len(deflated)
    for other_mode, other in others:
        if len(other) < size:
            mode, width, payload = other_mode, 0, other
            size = len(other)
    if payload is None:
        payload = rice_encode(values, k)
    return mode, width, payload


def rice_encode(values: np.ndarray, k: int | None = None) -> bytes:
    """Encode non-negative integers with the split-stream Rice code."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if k is None:
        k = choose_rice_k(values)
    _check_k(k)
    # Capping in place keeps the escape test exact: q >= ESCAPE_Q before
    # the cap is q == ESCAPE_Q after it.
    q = values >> np.uint64(k)
    np.minimum(q, np.uint64(ESCAPE_Q), out=q)
    escape_mask = q == ESCAPE_Q
    n_escaped = int(np.count_nonzero(escape_mask))
    q_stream = pack_unary(q)
    del q
    remainders = values & np.uint64((1 << k) - 1)
    # Escaped values carry their full payload out-of-band; their remainder
    # slot is zeroed so the remainder stream stays fixed-width.
    remainders[escape_mask] = 0
    r_stream = pack_fixed(remainders, k)
    e_stream = values[escape_mask].tobytes()
    header = _HEADER.pack(_MAGIC, values.size, k, n_escaped)
    return b"".join(
        (
            header,
            struct.pack("<QQ", len(q_stream), len(r_stream)),
            q_stream,
            r_stream,
            e_stream,
        )
    )


def rice_decode(data: bytes) -> np.ndarray:
    """Inverse of :func:`rice_encode`; returns a uint64 array."""
    if len(data) < _HEADER.size + 16:
        raise ValueError("truncated Rice payload")
    magic, count, k, n_escaped = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise ValueError(f"bad Rice magic 0x{magic:08x}")
    view = memoryview(data)  # stream slices below share data's buffer
    off = _HEADER.size
    q_len, r_len = struct.unpack_from("<QQ", data, off)
    off += 16
    q_stream = view[off : off + q_len]
    off += q_len
    r_stream = view[off : off + r_len]
    off += r_len
    e_stream = view[off : off + 8 * n_escaped]
    if len(e_stream) != 8 * n_escaped:
        raise ValueError("truncated Rice escape stream")

    q = unpack_unary(q_stream, count)
    remainders = unpack_fixed(r_stream, k, count)
    escape_mask = q >= ESCAPE_Q
    values = q
    values <<= np.uint64(k)
    values |= remainders
    if int(escape_mask.sum()) != n_escaped:
        raise ValueError("Rice escape count mismatch")
    if n_escaped:
        values[escape_mask] = np.frombuffer(e_stream, dtype=np.uint64)
    return values
