"""SZ-style error-bounded predictor-quantizer codec.

Follows the SZ family of error-bounded compressors (Di & Cappello; see
also "Error bounded compression for weather and climate applications"):

1. quantize each value onto a uniform lattice with spacing ``2 * eb``,
   where ``eb`` is the user's absolute bound (or the relative bound
   scaled by the field's finite, non-fill value range) — rounding to the
   nearest lattice point bounds the error by ``eb`` by construction; the
   ``pw`` mode instead quantizes ``ln|x|`` on a uniform lattice (SZ's
   PW_REL), which bounds the *pointwise* relative error — the right
   shape for tracer-like fields spanning many decades, where a
   range-relative bound either fails the acceptance tests or wastes
   bits;
2. predict each lattice code from its neighbours (2-D Lorenzo over
   levels x columns when a layout is available, first-order delta
   otherwise) and entropy code the zigzagged residuals with whichever of
   three backends is smallest: Golomb-Rice, shuffle+DEFLATE, or a
   noise-plane split (:mod:`repro.encoding.bitplane`) that stores the
   incompressible low bit planes raw and DEFLATEs only the skewed high
   planes;
3. store *unpredictable* points — non-finite values, the CESM fill
   value, codes that overflow the lattice, or points whose dequantized
   value would violate the bound after rounding to the target dtype —
   bit-exactly in an escape stream (bitmap + shuffle+DEFLATE).

Because every non-escape point is checked against the bound at encode
time with the exact dequantization expression the decoder uses, the
reconstruction satisfies ``max|x - x_hat| <= eb`` unconditionally.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compressors.base import CodecProperties, Compressor
from repro.encoding.bitplane import candidate_splits, split_encode
from repro.compressors.prediction import predict, unpredict
from repro.config import FILL_VALUE
from repro.encoding.container import SectionReader, SectionWriter
from repro.encoding.deflate import deflate, deflate_mask, inflate, inflate_mask
from repro.encoding.rice import MODE_SPLIT, entropy_decode, rice_or_deflate

__all__ = ["SzLike"]

_DOMAIN_LINEAR = 0
_DOMAIN_LOG = 1

#: Lattice codes at or beyond this magnitude take the escape path; far
#: below 2**63 so the int64 prediction arithmetic can never overflow.
_CODE_CAP = float(1 << 40)

# mode, residual width, lattice domain, ncols, lattice step
_META = struct.Struct("<BBBId")


def _dequantize(codes: np.ndarray, step: float, dtype: np.dtype) -> np.ndarray:
    """Lattice codes back to floats — the decoder's exact expression.

    The encoder validates its bound against this same function, so any
    rounding introduced by the float64 multiply or the cast to ``dtype``
    is accounted for before a point is allowed to skip the escape path.
    """
    return (codes.astype(np.float64, copy=False) * step).astype(
        dtype, copy=False
    )


def _dequantize_log(
    codes: np.ndarray, step: float, dtype: np.dtype
) -> np.ndarray:
    """Log-lattice codes back to magnitudes — the decoder's expression.

    Signs travel separately (a packed bitmask section) because the
    lattice lives on ``ln|x|``; zeros and sign flips the mask cannot
    express ride the escape stream.
    """
    with np.errstate(over="ignore"):
        return np.exp(codes.astype(np.float64, copy=False) * step).astype(
            dtype, copy=False
        )


class SzLike(Compressor):
    """Error-bounded predictor-quantizer with a hard reconstruction bound.

    Parameters
    ----------
    bound:
        The error bound: with ``mode="abs"`` the maximum absolute
        reconstruction error; with ``mode="rel"`` a fraction of the
        field's value range (max - min over finite, non-fill points);
        with ``mode="pw"`` the maximum *pointwise* relative error
        ``|x - x_hat| <= bound * |x|`` (SZ's PW_REL, via a uniform
        lattice on ``ln|x|``).
    mode:
        ``"abs"``, ``"rel"``, or ``"pw"``.
    predictor:
        ``"lorenzo"`` (2-D, degrades to delta on 1-D inputs) or
        ``"delta"``.
    level:
        DEFLATE level for the escape stream and the residual fallback.
    """

    name = "SZ"

    def __init__(self, bound: float = 1e-3, mode: str = "rel",
                 predictor: str = "lorenzo", level: int = 4):
        bound = float(bound)
        if not np.isfinite(bound) or bound <= 0:
            raise ValueError(f"bound must be a positive finite number, "
                             f"got {bound}")
        if mode not in ("abs", "rel", "pw"):
            raise ValueError(
                f"mode must be 'abs', 'rel', or 'pw', got {mode!r}"
            )
        if predictor not in ("delta", "lorenzo"):
            raise ValueError(
                f"predictor must be 'delta' or 'lorenzo', got {predictor!r}"
            )
        if not 0 <= level <= 9:
            raise ValueError(f"deflate level must be 0..9, got {level}")
        self.bound = bound
        self.mode = mode
        self.predictor = predictor
        self.level = level

    @property
    def variant(self) -> str:
        """Table label: SZ-<mode>-<bound>, plus the predictor suffix."""
        suffix = "" if self.predictor == "lorenzo" else "-delta"
        return f"SZ-{self.mode}-{self.bound:g}{suffix}"

    def _absolute_bound(self, finite_values: np.ndarray) -> float:
        """Resolve the configured bound to an absolute error bound.

        Relative bounds scale by the value range of the finite, non-fill
        points (constant fields fall back to the peak magnitude so the
        bound stays meaningful).  Returns 0.0 when no usable bound
        exists — the encoder then routes every point through the escape
        stream, which keeps the guarantee trivially.
        """
        if self.mode == "abs":
            return self.bound
        if not finite_values.size:
            return 0.0
        lo = float(finite_values.min())
        hi = float(finite_values.max())
        span = hi - lo
        if not np.isfinite(span):
            return 0.0
        if span == 0.0:
            span = max(abs(lo), abs(hi))
        eb = self.bound * span
        return eb if np.isfinite(eb) and eb > 0 else 0.0

    def _encode_with_shape(self, values: np.ndarray,
                           shape: tuple[int, ...]) -> bytes:
        ncols = shape[-1] if len(shape) >= 2 else 0
        return self._encode_values(values, ncols=ncols)

    def _quantize_linear(
        self, x: np.ndarray, dtype: np.dtype, finite: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Uniform lattice on the values themselves (abs / rel modes)."""
        eb = self._absolute_bound(x[finite])
        step = 2.0 * eb
        codes = np.zeros(x.shape, dtype=np.int64)
        if eb <= 0.0:
            return codes, np.zeros(x.shape, dtype=bool), step
        with np.errstate(over="ignore", invalid="ignore"):
            scaled = x / step
        in_range = finite & (np.abs(scaled) < _CODE_CAP)
        codes[in_range] = np.rint(scaled[in_range]).astype(
            np.int64, copy=False
        )
        # A cast overflow here just lands the point on the escape path
        # (err comes out inf), so the warnings are noise.
        with np.errstate(over="ignore", invalid="ignore"):
            recon = _dequantize(codes, step, dtype)
            err = np.abs(recon.astype(np.float64, copy=False) - x)
        return codes, in_range & (err <= eb), step

    def _quantize_log(
        self, x: np.ndarray, dtype: np.dtype, finite: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Uniform lattice on ``ln|x|`` (pw mode).

        ``step = 2 * log1p(bound)`` makes the nearest lattice magnitude
        at most a factor ``1 + bound`` away, so the pointwise relative
        bound holds by construction; the handful of points the float64
        exp / dtype cast pushes marginally over simply escape.  Zeros
        have no logarithm and always escape.
        """
        step = 2.0 * float(np.log1p(self.bound))
        absx = np.abs(x)
        codes = np.zeros(x.shape, dtype=np.int64)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.log(absx) / step
        in_range = finite & (absx > 0.0) & (np.abs(scaled) < _CODE_CAP)
        codes[in_range] = np.rint(scaled[in_range]).astype(
            np.int64, copy=False
        )
        mag = _dequantize_log(codes, step, dtype).astype(
            np.float64, copy=False
        )
        err = np.abs(np.where(x < 0.0, -mag, mag) - x)
        return codes, in_range & (err <= self.bound * absx), step

    def _encode_values(self, values: np.ndarray, ncols: int = 0) -> bytes:
        x = values.astype(np.float64, copy=False)
        fill = values == values.dtype.type(FILL_VALUE)
        finite = np.isfinite(x) & ~fill
        if self.mode == "pw":
            domain = _DOMAIN_LOG
            codes, ok, step = self._quantize_log(x, values.dtype, finite)
        else:
            domain = _DOMAIN_LINEAR
            codes, ok, step = self._quantize_linear(x, values.dtype, finite)
        escape = ~ok
        codes[escape] = 0

        residuals, ncols = predict(codes, ncols, self.predictor == "lorenzo")
        splits = ((MODE_SPLIT, split_encode(residuals, k, self.level))
                  for k in candidate_splits(residuals))
        mode, width, payload = rice_or_deflate(residuals, self.level, splits)

        writer = SectionWriter()
        writer.add("meta", _META.pack(mode, width, domain, ncols, step))
        writer.add("q", payload)
        if domain == _DOMAIN_LOG:
            neg = ok & (x < 0.0)
            if neg.any():
                writer.add("sgn", deflate_mask(neg))
        if escape.any():
            writer.add("emask", deflate_mask(escape))
            writer.add("eval", deflate(values[escape].tobytes(), self.level,
                                       itemsize=values.dtype.itemsize))
        return writer.tobytes()

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        reader = SectionReader(payload)
        mode, width, domain, ncols, step = _META.unpack(reader.get("meta"))
        residuals = entropy_decode(mode, width, reader.get("q"), count)
        codes = unpredict(residuals, ncols)
        if domain == _DOMAIN_LOG:
            out = _dequantize_log(codes, step, dtype)
            if "sgn" in reader:
                neg = inflate_mask(reader.get("sgn"), count)
                out[neg] = -out[neg]
        elif domain == _DOMAIN_LINEAR:
            out = _dequantize(codes, step, dtype)
        else:
            raise ValueError(f"unknown SZ lattice domain {domain}")
        if "emask" in reader:
            mask = inflate_mask(reader.get("emask"), count)
            raw = inflate(reader.get("eval"),
                          itemsize=np.dtype(dtype).itemsize)
            out[mask] = np.frombuffer(raw, dtype=dtype)
        return out

    @classmethod
    def properties(cls) -> CodecProperties:
        """SZ's Table 1 row: bounded error (fixed quality), special
        values via the bit-exact escape stream, variable rate."""
        return CodecProperties(
            name=cls.name,
            lossless_mode=False,
            special_values=True,
            freely_available=True,
            fixed_quality=True,
            fixed_cr=False,
            bits_32_and_64=True,
        )
