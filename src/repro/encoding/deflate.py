"""Shuffle filter + DEFLATE, the NetCDF-4/HDF5 lossless scheme.

NetCDF-4's zlib compression is far more effective on floating-point arrays
when preceded by HDF5's *shuffle* filter, which transposes the byte planes
of the array (all first bytes, then all second bytes, ...).  Exponent bytes
are highly repetitive across neighbouring values, so grouping them gives
DEFLATE long runs to exploit.  This module implements both pieces; it is the
lossless baseline ("NC") used throughout the paper's tables.
"""

from __future__ import annotations

import zlib

import numpy as np

__all__ = ["shuffle_bytes", "unshuffle_bytes", "deflate", "inflate",
           "deflate_uint", "inflate_uint"]


def shuffle_bytes(data: bytes, itemsize: int) -> bytes:
    """Apply the HDF5 shuffle filter: transpose byte planes of the buffer."""
    if itemsize <= 0:
        raise ValueError(f"itemsize must be positive, got {itemsize}")
    if len(data) % itemsize:
        raise ValueError(
            f"buffer length {len(data)} is not a multiple of itemsize {itemsize}"
        )
    if itemsize == 1 or not data:
        return bytes(data)
    arr = np.frombuffer(data, dtype=np.uint8).reshape(-1, itemsize)
    return arr.T.tobytes()


def unshuffle_bytes(data: bytes, itemsize: int) -> bytes:
    """Inverse of :func:`shuffle_bytes`."""
    if itemsize <= 0:
        raise ValueError(f"itemsize must be positive, got {itemsize}")
    if len(data) % itemsize:
        raise ValueError(
            f"buffer length {len(data)} is not a multiple of itemsize {itemsize}"
        )
    if itemsize == 1 or not data:
        return bytes(data)
    arr = np.frombuffer(data, dtype=np.uint8).reshape(itemsize, -1)
    return arr.T.tobytes()


def deflate(data: bytes, level: int = 4, *, itemsize: int = 1) -> bytes:
    """Shuffle (if ``itemsize > 1``) then DEFLATE ``data``.

    ``level=4`` mirrors NetCDF-4's common default deflate level.
    """
    return zlib.compress(shuffle_bytes(data, itemsize), level)


def inflate(data: bytes, *, itemsize: int = 1) -> bytes:
    """Inverse of :func:`deflate`."""
    return unshuffle_bytes(zlib.decompress(data), itemsize)


def deflate_uint(values: np.ndarray, level: int = 4) -> tuple[int, bytes]:
    """Shuffle + DEFLATE integers on the narrowest unsigned dtype.

    Returns ``(itemsize, payload)``.  Integer streams DEFLATE both faster
    and smaller on the narrowest dtype that holds them than padded to
    eight bytes.
    """
    peak = int(values.max()) if values.size else 0
    width = next((w for w in (1, 2, 4) if peak < 1 << (8 * w)), 8)
    narrowed = values.astype(f"<u{width}", copy=False)
    return width, deflate(narrowed.tobytes(), level, itemsize=width)


def inflate_uint(data: bytes, itemsize: int) -> np.ndarray:
    """Inverse of :func:`deflate_uint`; returns a uint64 array."""
    if itemsize not in (1, 2, 4, 8):
        raise ValueError(f"bad unsigned itemsize {itemsize}")
    return np.frombuffer(inflate(data, itemsize=itemsize),
                         dtype=f"<u{itemsize}").astype(np.uint64)
