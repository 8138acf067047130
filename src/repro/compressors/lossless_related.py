"""Lossless methods from the paper's Related Work (Section 2.1).

The paper motivates lossy compression by the weakness of lossless methods
on floating-point data, surveying two preconditioner-style approaches that
we implement here for quantitative comparison:

- :class:`Isobar` — ISOBAR-compress (Schendel et al., ICDE 2012): analyze
  the data's *byte planes*, compress only the planes that are actually
  compressible (exponent and high-mantissa bytes), and store the
  high-entropy planes (low mantissa bytes, "the significands ... often
  look random") raw, saving the CPU and ratio loss of compressing noise.
- :class:`Mafisc` — MAFISC (Huebbe & Kunkel, 2012): try a small stack of
  reversible filters (identity, per-axis delta, byte shuffle) and keep
  whichever makes LZMA smallest, per variable.  The paper: "MAFISC
  slightly improves upon the standard lossless method *lmza* [sic]".

Both are bit-exact lossless and register as codec variants for the
lossless comparison benchmark.
"""

from __future__ import annotations

import lzma
import struct
import zlib

import numpy as np

from repro.compressors.base import CodecProperties, Compressor
from repro.encoding.deflate import shuffle_bytes, unshuffle_bytes

__all__ = ["Isobar", "Mafisc"]

#: A byte plane is worth DEFLATE when it shrinks below this fraction.
_COMPRESSIBLE_THRESHOLD = 0.9


class Isobar(Compressor):
    """ISOBAR-style byte-plane partitioning + DEFLATE.

    The in-situ analysis step measures each byte plane's compressibility
    on a sample; compressible planes are DEFLATEd, incompressible planes
    ship raw.  Bit-exact lossless for 32- and 64-bit floats.
    """

    name = "ISOBAR"

    def __init__(self, level: int = 6, sample_bytes: int = 1 << 16):
        if not 1 <= level <= 9:
            raise ValueError(f"level must be 1..9, got {level}")
        if sample_bytes < 256:
            raise ValueError("sample_bytes too small to analyze")
        self.level = level
        self.sample_bytes = sample_bytes

    @property
    def is_lossless(self) -> bool:
        """Always True: every byte plane is stored exactly."""
        return True

    def _encode_values(self, values: np.ndarray) -> bytes:
        itemsize = values.dtype.itemsize
        planes = values.view(np.uint8).reshape(-1, itemsize).T
        parts = [struct.pack("<B", itemsize)]
        flags = []
        bodies = []
        for plane in planes:
            raw = plane.tobytes()
            sample = raw[: self.sample_bytes]
            probe = zlib.compress(sample, 1)
            if len(probe) < len(sample) * _COMPRESSIBLE_THRESHOLD:
                packed = zlib.compress(raw, self.level)
                if len(packed) < len(raw):
                    flags.append(1)
                    bodies.append(packed)
                    continue
            flags.append(0)
            bodies.append(raw)
        parts.append(bytes(flags))
        for body in bodies:
            parts.append(struct.pack("<Q", len(body)))
            parts.append(body)
        return b"".join(parts)

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        itemsize = np.dtype(dtype).itemsize
        if len(payload) < 1 + itemsize:
            raise ValueError("truncated ISOBAR payload")
        (stored_itemsize,) = struct.unpack_from("<B", payload, 0)
        if stored_itemsize != itemsize:
            raise ValueError("ISOBAR payload written for another dtype")
        flags = payload[1: 1 + itemsize]
        off = 1 + itemsize
        planes = np.empty((itemsize, count), dtype=np.uint8)
        for i in range(itemsize):
            (size,) = struct.unpack_from("<Q", payload, off)
            off += 8
            body = payload[off: off + size]
            if len(body) != size:
                raise ValueError("truncated ISOBAR plane")
            off += size
            raw = zlib.decompress(body) if flags[i] else body
            plane = np.frombuffer(raw, dtype=np.uint8)
            if plane.size != count:
                raise ValueError("ISOBAR plane has wrong length")
            planes[i] = plane
        return planes.T.reshape(-1).view(dtype).copy()

    @classmethod
    def properties(cls) -> CodecProperties:
        """Lossless preconditioner: free, exact, any float width."""
        return CodecProperties(
            name=cls.name,
            lossless_mode=True,
            special_values=True,
            freely_available=True,
            fixed_quality=True,
            fixed_cr=False,
            bits_32_and_64=True,
        )


_FILTER_NONE = 0
_FILTER_DELTA = 1
_FILTER_SHUFFLE = 2
_FILTER_SHUFFLE_DELTA = 3


class Mafisc(Compressor):
    """MAFISC-style adaptive filtering + LZMA.

    Tries each reversible filter and keeps the one whose LZMA output is
    smallest; the winning filter id is stored in the payload.  With
    ``adaptive=False`` it degrades to plain LZMA — the paper's "standard
    lossless method" baseline.
    """

    name = "MAFISC"

    def __init__(self, preset: int = 2, adaptive: bool = True):
        if not 0 <= preset <= 9:
            raise ValueError(f"preset must be 0..9, got {preset}")
        self.preset = preset
        self.adaptive = adaptive

    @property
    def variant(self) -> str:
        """MAFISC, or LZMA for the unfiltered baseline."""
        return "MAFISC" if self.adaptive else "LZMA"

    @property
    def is_lossless(self) -> bool:
        """Always True: filters are reversible and LZMA is lossless."""
        return True

    def _filtered(self, values: np.ndarray, filter_id: int) -> bytes:
        if not 0 <= filter_id <= _FILTER_SHUFFLE_DELTA:
            raise ValueError(f"unknown MAFISC filter {filter_id}")
        itemsize = values.dtype.itemsize
        if filter_id in (_FILTER_DELTA, _FILTER_SHUFFLE_DELTA):
            ints = values.view(f"<u{itemsize}")
            values = np.diff(ints, prepend=ints.dtype.type(0))
        raw = values.tobytes()
        if filter_id in (_FILTER_SHUFFLE, _FILTER_SHUFFLE_DELTA):
            raw = shuffle_bytes(raw, itemsize)
        return raw

    def _unfiltered(self, raw: bytes, filter_id: int,
                    dtype: np.dtype) -> np.ndarray:
        if not 0 <= filter_id <= _FILTER_SHUFFLE_DELTA:
            raise ValueError(f"unknown MAFISC filter {filter_id}")
        itemsize = np.dtype(dtype).itemsize
        if filter_id in (_FILTER_SHUFFLE, _FILTER_SHUFFLE_DELTA):
            raw = unshuffle_bytes(raw, itemsize)
        if filter_id in (_FILTER_DELTA, _FILTER_SHUFFLE_DELTA):
            deltas = np.frombuffer(raw, dtype=f"<u{itemsize}")
            return np.cumsum(deltas, dtype=deltas.dtype).view(dtype).copy()
        return np.frombuffer(raw, dtype=dtype).copy()

    def _encode_values(self, values: np.ndarray) -> bytes:
        candidates = (
            (_FILTER_NONE, _FILTER_DELTA, _FILTER_SHUFFLE,
             _FILTER_SHUFFLE_DELTA)
            if self.adaptive else (_FILTER_NONE,)
        )
        best_id, best_body = None, None
        for filter_id in candidates:
            body = lzma.compress(self._filtered(values, filter_id),
                                 preset=self.preset)
            if best_body is None or len(body) < len(best_body):
                best_id, best_body = filter_id, body
        return struct.pack("<B", best_id) + best_body

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        if len(payload) < 2:
            raise ValueError("truncated MAFISC payload")
        (filter_id,) = struct.unpack_from("<B", payload, 0)
        return self._unfiltered(lzma.decompress(payload[1:]), filter_id, dtype)

    @classmethod
    def properties(cls) -> CodecProperties:
        """Lossless filter stack over LZMA: free, exact, any float width."""
        return CodecProperties(
            name=cls.name,
            lossless_mode=True,
            special_values=True,
            freely_available=True,
            fixed_quality=True,
            fixed_cr=False,
            bits_32_and_64=True,
        )
