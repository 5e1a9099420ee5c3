"""Varint (LEB128, 7-bit, high-bit continuation) codecs.

Two layers:

1. Reference-layout codecs (scalar) — byte-identical to the C++
   serialization in the reference's engine/indexer/Posts.hpp:
   - word posts:  varint(location - prev_location) + 1 flags byte
     (Posts.hpp:143-181)
   - doc posts:   varint(start - prev_end) varint(end - start) varint(docId)
     (Posts.hpp:184-242)
   No index path uses them (the compat path neither); they document the
   reference layout and are pinned by tests/test_kernels.py against its
   rules.

2. Columnar stream codecs (numpy-vectorized) — our segment format stores
   doc_id gaps / tfs / position gaps as separate contiguous varint streams,
   which decodes with numpy at ~100x the scalar speed and compresses
   equally. This is the scale path; the encoding scheme (delta-gap + LEB128)
   is the same as the reference's. ``encode_u64_offsets`` is the one
   encoder: the emit stage and the merge slice its stream per posting
   run by its offsets.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------------------
# scalar reference-layout codec
# ---------------------------------------------------------------------------


def encode_varint(value: int, out: bytearray) -> None:
    """EncodeVarLengthDelta (Posts.hpp:105-113)."""
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def decode_varint(buf, offset: int) -> tuple[int, int]:
    """DecodeVarLengthDelta (Posts.hpp:127-140) → (value, new_offset)."""
    value = 0
    shift = 0
    while True:
        b = buf[offset]
        value |= (b & 0x7F) << shift
        offset += 1
        if not (b & 0x80):
            break
        shift += 7
    return value, offset


def encode_word_postlist(locations, flags) -> bytes:
    """Reference WordPost list layout (delta from previous location + flag
    byte per post; PostingList::AddWordPost, Posts.hpp:267-274)."""
    out = bytearray()
    prev = 0
    for loc, fl in zip(locations, flags):
        encode_varint((int(loc) - prev) & 0xFFFFFFFF, out)
        out.append(int(fl) & 0xFF)
        prev = int(loc)
    return bytes(out)


def decode_word_postlist(buf) -> tuple[np.ndarray, np.ndarray]:
    locs, fls = [], []
    offset = 0
    cur = 0
    n = len(buf)
    while offset < n:
        delta, offset = decode_varint(buf, offset)
        cur = (cur + delta) & 0xFFFFFFFF
        locs.append(cur)
        fls.append(buf[offset])
        offset += 1
    return (np.asarray(locs, dtype=np.uint32),
            np.asarray(fls, dtype=np.uint8))


def encode_doc_postlist(posts) -> bytes:
    """Reference DocumentPost list layout (Posts.hpp:184-242,277-284):
    varint(start - prev_end), varint(end - start), varint(doc_id)."""
    out = bytearray()
    prev_end = 0
    for start, end, doc_id in posts:
        encode_varint((int(start) - prev_end) & 0xFFFFFFFF, out)
        encode_varint((int(end) - int(start)) & 0xFFFFFFFF, out)
        encode_varint(int(doc_id), out)
        prev_end = int(end)
    return bytes(out)


def decode_doc_postlist(buf) -> list[tuple[int, int, int]]:
    out = []
    offset = 0
    prev_end = 0
    n = len(buf)
    while offset < n:
        d, offset = decode_varint(buf, offset)
        length, offset = decode_varint(buf, offset)
        doc_id, offset = decode_varint(buf, offset)
        start = (prev_end + d) & 0xFFFFFFFF
        end = (start + length) & 0xFFFFFFFF
        out.append((start, end, doc_id))
        prev_end = end
    return out


# ---------------------------------------------------------------------------
# vectorized columnar streams (the scale path)
# ---------------------------------------------------------------------------

_THRESHOLDS = (1 << 7, 1 << 14, 1 << 21, 1 << 28, 1 << 35, 1 << 42,
               1 << 49, 1 << 56, 1 << 63)


def encode_u64_offsets(vals: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Encode a uint64 array as one LEB128 stream, vectorized; also
    return the byte offset of each value (length n+1) for slicing."""
    v = np.ascontiguousarray(vals, dtype=np.uint64)
    n = len(v)
    if n == 0:
        return b"", np.zeros(1, dtype=np.int64)
    if int(v.max()) < (1 << 14):
        # 1-2 byte fast path (covers within-doc position gaps)
        two = v >= np.uint64(128)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(1 + two.astype(np.int64), out=offsets[1:])
        out = np.zeros(int(offsets[-1]), dtype=np.uint8)
        b0 = (v & np.uint64(0x7F)).astype(np.uint8)
        b0[two] |= 0x80
        out[offsets[:-1]] = b0
        if two.any():
            out[offsets[:-1][two] + 1] = (v[two] >> np.uint64(7)
                                          ).astype(np.uint8)
        return out.tobytes(), offsets
    nb = np.ones(n, dtype=np.int64)
    for t in _THRESHOLDS:
        nb += v >= t
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(nb, out=offsets[1:])
    out = np.zeros(int(offsets[-1]), dtype=np.uint8)
    cur = v.copy()
    active = np.arange(n)
    shift = 0
    while len(active):
        chunk = cur[active]
        byte = (chunk & np.uint64(0x7F)).astype(np.uint8)
        more = chunk >= np.uint64(0x80)
        byte[more] |= 0x80
        out[offsets[active] + shift] = byte
        cur[active] = chunk >> np.uint64(7)
        active = active[more]
        shift += 1
    return out.tobytes(), offsets


def encode_u64_stream(vals: np.ndarray) -> bytes:
    """Concatenated LEB128 varints of a uint64 array, vectorized."""
    return encode_u64_offsets(vals)[0]


def decode_u64_stream(buf) -> np.ndarray:
    """Decode a concatenated varint stream into a uint64 array, vectorized."""
    b = np.frombuffer(buf, dtype=np.uint8)
    if len(b) == 0:
        return np.empty(0, dtype=np.uint64)
    term = (b & 0x80) == 0
    ends = np.nonzero(term)[0]
    nvals = len(ends)
    starts = np.empty(nvals, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    idx = np.arange(len(b), dtype=np.int64)
    seg = np.searchsorted(ends, idx)
    shift = ((idx - starts[seg]) * 7).astype(np.uint64)
    contrib = (b & np.uint8(0x7F)).astype(np.uint64) << shift
    vals = np.zeros(nvals, dtype=np.uint64)
    np.add.at(vals, seg, contrib)
    return vals


def encode_gaps(sorted_vals: np.ndarray) -> bytes:
    """Delta-gap then varint a sorted uint64 array (first value absolute)."""
    v = np.ascontiguousarray(sorted_vals, dtype=np.uint64)
    gaps = np.empty_like(v)
    if len(v):
        gaps[0] = v[0]
        np.subtract(v[1:], v[:-1], out=gaps[1:])
    return encode_u64_stream(gaps)


def decode_gaps(buf) -> np.ndarray:
    gaps = decode_u64_stream(buf)
    return np.cumsum(gaps, dtype=np.uint64)
