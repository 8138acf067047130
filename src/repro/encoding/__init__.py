"""Low-level encoding substrate shared by the compressors.

Everything here is implemented with vectorized NumPy (no per-sample Python
loops) so the pure-Python codecs remain usable at paper scale (~1.5M points
per 3-D variable).  The bit-packing kernels walk long streams block by
block, so their temporaries stay bounded, and emit the same bytes as a
whole-array pass:

- :mod:`repro.encoding.bitio` — fixed-width and unary bit packing.
- :mod:`repro.encoding.rice` — a split-stream Golomb-Rice entropy codec,
  and the codecs' residual stage: :func:`~repro.encoding.rice.rice_or_deflate`
  picks the smallest coding, :func:`~repro.encoding.rice.entropy_decode`
  inverts it.
- :mod:`repro.encoding.bitplane` — raw low planes + DEFLATEd high planes.
- :mod:`repro.encoding.zigzag` — signed/unsigned integer mapping.
- :mod:`repro.encoding.deflate` — HDF5-style shuffle filter + DEFLATE,
  also for integer streams on their narrowest unsigned dtype and for
  boolean masks as packed bits.
- :mod:`repro.encoding.container` — tiny length-prefixed section container
  used by codecs to serialize multi-stream payloads.
"""
