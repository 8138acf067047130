"""GRIB2 + JPEG2000-style codec.

Mirrors the WMO GRIB2 pipeline the paper evaluates (Section 3.2.3): the
field is quantized by a per-variable *decimal scale factor* ``D`` and an
automatic binary scale factor (``repro.compressors.quantize``), missing /
special values are recorded in a GRIB2-style bitmap, and the integer codes
are compressed with a reversible 5/3 lifting wavelet (JPEG2000's lossless
filter) followed by entropy coding.

Two properties of the real GRIB2 emerge by construction:

- encoding is *always lossy* (the format conversion quantizes, so there is
  no lossless mode even with lossless JPEG2000 — Table 1);
- a single ``D`` cannot serve a variable whose values span many orders of
  magnitude, so large-range fields (CCN3-like) reconstruct poorly in the
  ensemble tests, exactly the paper's Figure 2(d) observation.

``decimal_scale`` may be an integer, ``"auto"`` (choose from the variable's
magnitude, Section 5.4), or a callable for ensemble-guided tuning.
"""

from __future__ import annotations

import struct
from typing import Callable

import numpy as np

from repro.config import SPECIAL_THRESHOLD
from repro.compressors.base import CodecProperties, Compressor
from repro.compressors.quantize import (
    QuantizedField,
    decimal_scale_for,
    dequantize,
    quantize,
)
from repro.compressors.wavelet import forward_53, inverse_53
from repro.encoding.deflate import deflate_mask, inflate_mask
from repro.encoding.container import SectionReader, SectionWriter
from repro.encoding.rice import entropy_decode, rice_or_deflate
from repro.encoding.zigzag import zigzag_decode, zigzag_encode

__all__ = ["Grib2Jpeg2000"]


class Grib2Jpeg2000(Compressor):
    """Decimal/binary scaling + bitmap + reversible wavelet packing."""

    name = "GRIB2"

    def __init__(
        self,
        decimal_scale: int | str | Callable[[np.ndarray], int] = "auto",
        max_bits: int = 24,
        significant_digits: int = 6,
    ):
        if isinstance(decimal_scale, str) and decimal_scale != "auto":
            raise ValueError(
                f"decimal_scale must be an int, 'auto', or callable, "
                f"got {decimal_scale!r}"
            )
        self.decimal_scale = decimal_scale
        self.max_bits = max_bits
        self.significant_digits = significant_digits

    @property
    def variant(self) -> str:
        """Table label (the paper shows a single tuned GRIB2 column)."""
        return self.name

    def _resolve_scale(self, values: np.ndarray) -> int:
        if callable(self.decimal_scale):
            return int(self.decimal_scale(values))
        if self.decimal_scale == "auto":
            return decimal_scale_for(values, self.significant_digits)
        return int(self.decimal_scale)

    def _encode_values(self, values: np.ndarray) -> bytes:
        # A NaN would poison the whole field's quantizer reference, and
        # the bitmap restores one fill exemplar per blob, not +-inf.
        if not np.isfinite(values).all():
            raise ValueError("GRIB2 cannot encode NaN or infinite values")
        # Magnitudes at or above SPECIAL_THRESHOLD are GRIB2 missing values
        # (CESM's fill value is 1e35).
        missing = np.abs(values) >= values.dtype.type(SPECIAL_THRESHOLD)
        valid = values[~missing].astype(np.float64, copy=False)
        writer = SectionWriter()
        n_missing = int(missing.sum())
        if n_missing:
            writer.add("bitmap", deflate_mask(missing))
            # GRIB2 bitmaps flag position only; the value itself (CESM fill)
            # is restored from one stored exemplar per blob.
            writer.add("fill",
                       values[missing][:1].astype(np.float64,
                                                  copy=False).tobytes())
        if valid.size == 0:
            writer.add("meta",
                       struct.pack("<dqqBBQ", 0.0, 0, 0, 0, 0, n_missing))
            return writer.tobytes()

        d = self._resolve_scale(valid)
        field = quantize(valid, d, self.max_bits)
        coeffs, lengths = forward_53(field.codes.astype(np.int64))
        codes = zigzag_encode(coeffs)

        # Compare against DEFLATE on the narrowest dtype that fits; real
        # wavelet subbands often carry structure DEFLATE exploits.
        mode, width, payload = rice_or_deflate(codes, 4)

        writer.add(
            "meta",
            struct.pack(
                "<dqqBBQ",
                field.reference,
                field.decimal_scale,
                field.binary_scale,
                mode,
                width,
                n_missing,
            ),
        )
        writer.add("lengths", np.asarray(lengths, dtype=np.int64).tobytes())
        writer.add("codes", payload)
        return writer.tobytes()

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        reader = SectionReader(payload)
        reference, d, e, mode, width, n_missing = struct.unpack(
            "<dqqBBQ", reader.get("meta")
        )
        missing = np.zeros(count, dtype=bool)
        fill = 0.0
        if n_missing:
            missing = inflate_mask(reader.get("bitmap"), count)
            fill = float(np.frombuffer(reader.get("fill"), dtype=np.float64)[0])

        out = np.full(count, fill, dtype=np.float64)
        n_valid = count - n_missing
        if n_valid:
            codes = entropy_decode(mode, width, reader.get("codes"), n_valid)
            lengths = np.frombuffer(reader.get("lengths"),
                                    dtype=np.int64).tolist()
            ints = inverse_53(zigzag_decode(codes), lengths)
            field = QuantizedField(
                codes=ints.astype(np.uint64),
                reference=reference,
                decimal_scale=int(d),
                binary_scale=int(e),
                nbits=0,
            )
            out[~missing] = dequantize(field)
        return out.astype(dtype, copy=False)

    @classmethod
    def properties(cls) -> CodecProperties:
        """GRIB2's Table 1 row: always lossy, bitmap special values."""
        return CodecProperties(
            name="GRIB2 + jpeg2000",
            lossless_mode=False,
            special_values=True,
            freely_available=True,
            fixed_quality=False,
            fixed_cr=False,
            bits_32_and_64=False,
        )
