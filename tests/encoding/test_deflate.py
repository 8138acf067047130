"""Shuffle filter + DEFLATE (the NetCDF-4 lossless scheme)."""

import numpy as np
import pytest

from repro.encoding.deflate import (
    deflate,
    deflate_mask,
    inflate,
    inflate_mask,
    shuffle_bytes,
    unshuffle_bytes,
)


class TestShuffle:
    def test_roundtrip(self, rng):
        data = rng.bytes(4000)
        assert unshuffle_bytes(shuffle_bytes(data, 4), 4) == data

    def test_itemsize_one_is_identity(self):
        data = b"hello world!"
        assert shuffle_bytes(data, 1) == data

    def test_byte_plane_layout(self):
        # Two 2-byte items AB CD -> planes AC BD.
        assert shuffle_bytes(b"ABCD", 2) == b"ACBD"

    def test_empty(self):
        assert shuffle_bytes(b"", 4) == b""
        assert unshuffle_bytes(b"", 8) == b""

    def test_misaligned_length_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            shuffle_bytes(b"12345", 4)
        with pytest.raises(ValueError, match="multiple"):
            unshuffle_bytes(b"123", 2)

    def test_bad_itemsize_rejected(self):
        with pytest.raises(ValueError):
            shuffle_bytes(b"12", 0)


class TestDeflate:
    def test_roundtrip(self, rng):
        data = rng.normal(0, 1, 5000).astype(np.float32).tobytes()
        assert inflate(deflate(data, itemsize=4), itemsize=4) == data

    def test_shuffle_improves_float_compression(self):
        # Smooth float data: shuffle groups exponent bytes -> smaller.
        data = np.linspace(0.0, 1.0, 20_000, dtype=np.float32).tobytes()
        with_shuffle = len(deflate(data, itemsize=4))
        without = len(deflate(data, itemsize=1))
        assert with_shuffle < without

    def test_level_zero_roundtrips(self):
        data = b"x" * 100
        assert inflate(deflate(data, level=0)) == data


class TestMask:
    @pytest.mark.parametrize("count", [1, 8, 13, 1024])
    def test_roundtrip(self, rng, count):
        mask = rng.random(count) < 0.3
        out = inflate_mask(deflate_mask(mask), count)
        assert out.dtype == bool
        assert np.array_equal(out, mask)

    def test_short_mask_raises(self):
        # np.unpackbits(count=) would pad the missing flags with False.
        with pytest.raises(ValueError, match="mask"):
            inflate_mask(deflate_mask(np.ones(8, dtype=bool)), 1024)
