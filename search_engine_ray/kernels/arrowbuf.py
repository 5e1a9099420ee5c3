"""Arrow <-> numpy through raw buffers: the one conversion path of the
serving processes.

In pyarrow 16, ``Array.to_numpy``, ``pa.array``, ``pa.scalar`` and
``DataType.to_pandas_dtype`` import pandas on first use (~40 MB RSS and
~0.2 s per process). Moving null-free numbers and strings between Arrow
and numpy needs none of that: the Arrow buffers already hold the bytes
numpy wants, so these helpers view or build them directly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def view(arr, dtype) -> np.ndarray:
    """numpy view of a null-free fixed-width Arrow array, read as
    ``dtype`` (whose width must match the Arrow type's). Zero-copy for
    an Array or a one-chunk ChunkedArray; several chunks concatenate."""
    dtype = np.dtype(dtype)
    if isinstance(arr, pa.ChunkedArray):
        if arr.num_chunks == 1:
            return view(arr.chunk(0), dtype)
        return np.concatenate([view(c, dtype) for c in arr.chunks]
                              or [np.empty(0, dtype)])
    if arr.null_count:
        raise ValueError(f"{arr.type} array has {arr.null_count} nulls")
    if arr.type.bit_width != 8 * dtype.itemsize:
        raise TypeError(f"cannot view {arr.type} as {dtype}")
    buf = arr.buffers()[1]
    if buf is None:  # zero-length arrays may carry no values buffer
        return np.empty(0, dtype)
    return np.frombuffer(buf, dtype=dtype)[arr.offset:arr.offset + len(arr)]


def string_views(arr: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(offsets, data) views of a string or binary array: row i is
    ``data[offsets[i]:offsets[i + 1]]``. Offsets are int32, or int64
    for the large_* types."""
    b = arr.buffers()
    large = arr.type in (pa.large_string(), pa.large_binary())
    offs = np.frombuffer(b[1], dtype=np.int64 if large else np.int32)[
        arr.offset:arr.offset + len(arr) + 1]
    data = (np.frombuffer(b[2], dtype=np.uint8) if b[2] is not None
            else np.empty(0, dtype=np.uint8))
    return offs, data


# numpy dtype per Arrow number type (DataType.to_pandas_dtype imports
# pandas)
_NP = {pa.int64(): np.int64, pa.float64(): np.float64}


def numbers(values, type_: pa.DataType) -> pa.Array:
    """A null-free Arrow number array holding ``values``."""
    a = np.ascontiguousarray(values, dtype=_NP[type_])
    return pa.Array.from_buffers(type_, len(a), [None, pa.py_buffer(a)])


def strings(items) -> pa.StringArray:
    """A string array of ``items`` (str, or None for a null cell)."""
    valid = np.fromiter((s is not None for s in items), dtype=bool,
                        count=len(items))
    enc = [s.encode() for s in items if s is not None]
    lens = np.zeros(len(items) + 1, dtype=np.int64)
    lens[1:][valid] = [len(e) for e in enc]
    offs = np.cumsum(lens)
    if offs[-1] >= 2**31:
        raise ValueError("string data exceeds int32 offsets")
    nulls = len(items) - len(enc)
    bitmap = (pa.py_buffer(np.packbits(valid, bitorder="little"))
              if nulls else None)
    return pa.Array.from_buffers(
        pa.string(), len(items),
        [bitmap, pa.py_buffer(offs.astype(np.int32)),
         pa.py_buffer(b"".join(enc))], null_count=nulls)
