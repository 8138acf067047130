"""Uniform compressor API: headers, dtype/shape handling, special values.

A :class:`Compressor` turns an n-dimensional float array into a
self-describing byte blob and back.  Subclasses implement only the 1-D
``_encode_values`` / ``_decode_values`` pair; the base class owns the
container framing (shape, dtype, codec name) so blobs are portable across
codecs and sessions.

The compression ratio convention follows the paper's eq. (1):
``CR = compressed_size / original_size`` — *smaller is better* and the
lossless NetCDF-4 baseline lands around 0.6-0.75 on CAM variables.
"""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.check.hooks import boundary
from repro.config import FILL_VALUE
from repro.encoding.container import SectionReader, SectionWriter
from repro.encoding.deflate import deflate_mask, inflate_mask

__all__ = [
    "CodecProperties",
    "Compressor",
    "CompressionOutcome",
    "SpecialValueAdapter",
    "compression_ratio",
]

_SUPPORTED_DTYPES = {"f4": np.float32, "f8": np.float64}

# Observability contract (docs/observability.md): every round trip emits
# the byte counters below; span durations flow to the active sinks.
_BYTES_IN = obs.counter("compressors.bytes_in")
_BYTES_OUT = obs.counter("compressors.bytes_out")
_ROUNDTRIPS = obs.counter("compressors.roundtrips")
_LAST_CR = obs.gauge("compressors.cr")
_COMPRESS_H = obs.histogram("compressors.compress_s")
_DECOMPRESS_H = obs.histogram("compressors.decompress_s")


@dataclass(frozen=True)
class CodecProperties:
    """The Table 1 property matrix for one method."""

    name: str
    lossless_mode: bool
    special_values: bool
    freely_available: bool
    fixed_quality: bool
    fixed_cr: bool
    bits_32_and_64: bool

    def as_row(self) -> dict[str, str]:
        """Render as the Y/N row of the paper's Table 1."""
        flag = lambda b: "Y" if b else "N"  # noqa: E731
        return {
            "Method": self.name,
            "lossless mode": flag(self.lossless_mode),
            "special values": flag(self.special_values),
            "freely avail.": flag(self.freely_available),
            "fixed quality": flag(self.fixed_quality),
            "fixed CR": flag(self.fixed_cr),
            "32- & 64-bit": flag(self.bits_32_and_64),
        }


@dataclass(frozen=True)
class CompressionOutcome:
    """A compress+reconstruct round trip with its bookkeeping."""

    codec: str
    blob: bytes
    reconstructed: np.ndarray
    original_nbytes: int

    @property
    def compressed_nbytes(self) -> int:
        """Size of the emitted blob in bytes."""
        return len(self.blob)

    @property
    def cr(self) -> float:
        """Compression ratio per the paper's eq. (1) (smaller is better)."""
        return self.compressed_nbytes / self.original_nbytes


def compression_ratio(original_nbytes: int, compressed_nbytes: int) -> float:
    """Paper eq. (1): filesize(F_comp) / filesize(F_orig)."""
    if original_nbytes <= 0:
        raise ValueError(f"original size must be positive, got {original_nbytes}")
    return compressed_nbytes / original_nbytes


class Compressor(abc.ABC):
    """Base class for all codecs.

    Subclasses set :attr:`name` (the family name, e.g. ``"fpzip"``) and
    implement :meth:`_encode_values` / :meth:`_decode_values` over flat
    arrays plus :meth:`properties`.  :attr:`variant` is the table label
    (e.g. ``"fpzip-16"``); the default is the family name.
    """

    #: Codec family name; subclasses must override.
    name: str = "abstract"

    _HEADER = struct.Struct("<B2sB")  # version, dtype code, ndim

    @property
    def variant(self) -> str:
        """Label used in the paper's tables (e.g. ``APAX-4``)."""
        return self.name

    @property
    def is_lossless(self) -> bool:
        """Whether this *configured instance* reconstructs bit-for-bit."""
        return False

    def fingerprint(self) -> dict:
        """Cache-key identity for :mod:`repro.store`.

        Captures the codec class, its variant label, and every primitive
        instance parameter (rates, tolerances, precisions), so two
        instances that would produce different blobs derive different
        artifact keys.  Array dtype/shape are *not* included — store
        keys hash the data content separately.
        """
        params = {
            name: value for name, value in sorted(vars(self).items())
            if isinstance(value, (bool, int, float, str))
        }
        return {
            "codec": type(self).__qualname__,
            "variant": self.variant,
            "params": params,
        }

    # -- public API ------------------------------------------------------

    @boundary("compress")
    def compress(self, data: np.ndarray) -> bytes:
        """Compress an array into a self-describing blob.

        Under ``REPRO_SANITIZE=1`` the emitted blob's container header is
        verified against the input's dtype/shape and this codec's tag.
        """
        data = np.asarray(data)
        dtype_code = data.dtype.str.lstrip("<>|=")
        if dtype_code not in _SUPPORTED_DTYPES:
            raise TypeError(
                f"{self.name} supports float32/float64 arrays, got {data.dtype}"
            )
        if dtype_code == "f8" and not self.properties().bits_32_and_64:
            raise TypeError(f"{self.name} does not support 64-bit data")
        if data.ndim == 0 or data.size == 0:
            raise ValueError("cannot compress an empty array")
        if data.ndim > 255:
            raise ValueError("too many dimensions")

        with obs.span("compressors.compress", codec=self.variant) as sp:
            flat = np.ascontiguousarray(data).reshape(-1)
            payload = self._encode_with_shape(flat, data.shape)

            writer = SectionWriter()
            writer.add(
                "head",
                self._HEADER.pack(1, dtype_code.encode(), data.ndim)
                + struct.pack(f"<{data.ndim}Q", *data.shape)
                + self._codec_tag().encode("utf-8"),
            )
            writer.add("data", payload)
            blob = writer.tobytes()
            sp.note(bytes=data.nbytes, bytes_out=len(blob))
            _BYTES_IN.add(data.nbytes)
            _BYTES_OUT.add(len(blob))
        _COMPRESS_H.observe(sp.duration, codec=self.variant)
        return blob

    @boundary("decompress")
    def decompress(self, blob: bytes) -> np.ndarray:
        """Reconstruct the array from a blob produced by :meth:`compress`.

        Under ``REPRO_SANITIZE=1`` the result is verified against the blob
        header (dtype/shape) and, when the blob's source array is still
        known, against the original: same dtype and shape, and no NaN/Inf
        introduced at points that were valid and finite on the way in.
        """
        with obs.span("compressors.decompress", codec=self.variant) as sp:
            payload, dtype, shape = self._open(blob)
            count = int(np.prod(shape))
            values = self._decode_values(payload, count, dtype)
            if values.size != count:
                raise ValueError(
                    f"decoded {values.size} values, expected {count}"
                )
            out = values.astype(dtype, copy=False).reshape(shape)
            sp.note(bytes=out.nbytes)
        _DECOMPRESS_H.observe(sp.duration, codec=self.variant)
        return out

    def _open(self, blob: bytes) -> tuple[bytes, np.dtype, tuple[int, ...]]:
        """Check a blob's header; return its payload, dtype and shape.

        Raises :class:`ValueError` for an unknown blob version or a blob
        written by another codec or variant.
        """
        reader = SectionReader(blob)
        head = reader.get("head")
        version, dtype_code, ndim = self._HEADER.unpack_from(head, 0)
        if version != 1:
            raise ValueError(f"unsupported blob version {version}")
        shape = struct.unpack_from(f"<{ndim}Q", head, self._HEADER.size)
        tag = head[self._HEADER.size + 8 * ndim :].decode("utf-8")
        if tag != self._codec_tag():
            raise ValueError(
                f"blob was written by {tag!r}, "
                f"this codec is {self._codec_tag()!r}"
            )
        dtype = _SUPPORTED_DTYPES[dtype_code.decode()]
        return reader.get("data"), dtype, shape

    def roundtrip(self, data: np.ndarray) -> CompressionOutcome:
        """Compress and reconstruct, returning sizes alongside the result.

        ``data`` is a float32/float64 array; the reconstruction comes back
        with identical dtype and shape.
        """
        data = np.asarray(data)
        with obs.span("compressors.roundtrip", codec=self.variant) as sp:
            blob = self.compress(data)
            outcome = CompressionOutcome(
                codec=self.variant,
                blob=blob,
                reconstructed=self.decompress(blob),
                original_nbytes=data.nbytes,
            )
            sp.note(cr=outcome.cr)
            _ROUNDTRIPS.add(1)
            _LAST_CR.set(outcome.cr, codec=self.variant)
            return outcome

    def roundtrip_chunks(self, chunks):
        """Round-trip a chunk stream, one chunk in memory at a time.

        Yields ``(original, reconstructed, compressed_nbytes)`` per
        chunk — the streaming counterpart of :meth:`roundtrip`, keeping
        peak memory proportional to one chunk rather than the dataset
        (the blob is dropped after its size is taken).  The streaming
        pipeline (:mod:`repro.stream`) folds metrics over this.
        """
        for chunk in chunks:
            chunk = np.asarray(chunk)
            blob = self.compress(chunk)
            yield chunk, self.decompress(blob).reshape(chunk.shape), len(blob)

    # -- subclass hooks ---------------------------------------------------

    def _encode_with_shape(self, values: np.ndarray,
                           shape: tuple[int, ...]) -> bytes:
        """Encode with the original array shape available.

        Most codecs are shape-oblivious (the default forwards to
        :meth:`_encode_values`); codecs with dimensional predictors (e.g.
        fpzip's Lorenzo mode) override this to exploit the layout.
        """
        return self._encode_values(values)

    @abc.abstractmethod
    def _encode_values(self, values: np.ndarray) -> bytes:
        """Encode a flat float array into a payload."""

    @abc.abstractmethod
    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        """Decode ``count`` values of ``dtype`` from ``payload``."""

    @classmethod
    @abc.abstractmethod
    def properties(cls) -> CodecProperties:
        """The codec family's Table 1 property row."""

    def _codec_tag(self) -> str:
        """Identity check written into blobs; variants share decoders only
        when their parameters match, so the tag includes the variant."""
        return self.variant

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.variant!r}>"


class SpecialValueAdapter(Compressor):
    """Wrap a codec with fill-value pre/post-processing.

    The paper notes (Section 5.4) that fpzip and APAX lack special-value
    support but that it "could be ... handled through our pre- and
    post-processing".  This adapter implements that: fill values (CESM's
    1e35) are removed before encoding, recorded in a DEFLATE-compressed
    bitmap, and re-inserted exactly on decode.
    """

    def __init__(self, inner: Compressor, fill_value: float = FILL_VALUE):
        if isinstance(inner, SpecialValueAdapter):
            raise TypeError("SpecialValueAdapter cannot be nested")
        self.inner = inner
        self.fill_value = float(fill_value)
        self.name = inner.name

    @property
    def variant(self) -> str:
        """Inner variant label with the special-value suffix."""
        return self.inner.variant + "+sv"

    @property
    def is_lossless(self) -> bool:
        """Losslessness follows the wrapped codec."""
        return self.inner.is_lossless

    def fingerprint(self) -> dict:
        """Adapter identity plus the wrapped codec's full fingerprint."""
        fp = super().fingerprint()
        fp["inner"] = self.inner.fingerprint()
        return fp

    def _encode_values(self, values: np.ndarray) -> bytes:
        mask = values == values.dtype.type(self.fill_value)
        writer = SectionWriter()
        writer.add("mask", deflate_mask(mask))
        valid = values[~mask]
        if valid.size:
            writer.add("body", self.inner._encode_values(valid))
        return writer.tobytes()

    def _decode_values(
        self, payload: bytes, count: int, dtype: np.dtype
    ) -> np.ndarray:
        reader = SectionReader(payload)
        mask = inflate_mask(reader.get("mask"), count)
        out = np.full(count, self.fill_value, dtype=dtype)
        n_valid = count - int(mask.sum())
        if n_valid:
            out[~mask] = self.inner._decode_values(
                reader.get("body"), n_valid, dtype
            )
        return out

    def properties(self) -> CodecProperties:  # type: ignore[override]
        """Inner codec's properties with special-value support switched on."""
        inner = self.inner.properties()
        return CodecProperties(
            name=inner.name + "+sv",
            lossless_mode=inner.lossless_mode,
            special_values=True,
            freely_available=inner.freely_available,
            fixed_quality=inner.fixed_quality,
            fixed_cr=inner.fixed_cr,
            bits_32_and_64=inner.bits_32_and_64,
        )
