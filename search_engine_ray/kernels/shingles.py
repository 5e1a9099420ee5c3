"""Vectorized token/shingle hashing kernels shared by the near-dup and
fingerprinting operators (functions/dedup.py, functions/textstats.py).

All hot paths run numpy / Arrow kernels over a batch's FLATTENED token
stream — no per-token, per-window, or per-doc Python in the hashing.
Token identity is 64-bit FNV-1a of the Arrow-lowercased token bytes
(column-wise in ``fnv1a_64_arrow``); a k-token shingle's hash mixes the
k token hashes with positional odd multipliers plus a splitmix64-style
avalanche, so it is order-sensitive like hashing the joined string was,
at ~1/k the hashing cost and with zero Python-level loops.

Ragged (per-doc variable-length) structure is carried as parallel
(flat_values, per_doc_counts) arrays; ``ragged_window_index`` builds the
flat gather indices for all per-doc sliding windows at once.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .textutils import avalanche64, fnv1a_64_arrow

FNV_BASIS = np.uint64(0xCBF29CE484222325)

# positional odd multipliers for shingle mixing (splitmix64 constants
# extended with golden-ratio odd multiples) — supports k ≤ 8
POS_MULT = np.array([
    0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
    0xD6E8FEB86659FD93, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9,
    0x27D4EB2F165667C5, 0x9E3779B97F4A7C55,
], dtype=np.uint64)


def tokenize_hash_batch(texts) -> tuple[np.ndarray, np.ndarray]:
    """Lowercase + whitespace-tokenize an Arrow string column and hash
    every token, entirely in Arrow/numpy.

    Returns (flat token hashes uint64, per-doc token counts int64) with
    Python ``str.lower().split()`` token semantics (runs of Unicode
    whitespace split; empty edge tokens dropped).
    """
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    if n == 0:
        return np.empty(0, np.uint64), np.empty(0, np.int64)
    toks = pc.utf8_split_whitespace(pc.utf8_lower(texts))
    flat = pc.list_flatten(toks)
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    # Arrow's split keeps '' edge tokens where Python's .split() drops
    # them (leading/trailing whitespace, all-whitespace text)
    nonempty = pc.greater(pc.binary_length(flat), 0).to_numpy(
        zero_copy_only=False)
    if not nonempty.all():
        doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        flat = flat.filter(pa.array(nonempty))
        counts = np.bincount(doc_of[nonempty], minlength=n).astype(np.int64)
    hashes = fnv1a_64_arrow(flat) if len(flat) else np.empty(0, np.uint64)
    return hashes.astype(np.uint64, copy=False), counts


def ragged_window_index(counts: np.ndarray, width: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Flat gather indices for all width-sized sliding windows that lie
    fully inside one segment of a ragged array.

    Returns (window start indices into the flat array, windows per
    segment). Segments shorter than ``width`` contribute 0 windows.
    """
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
    win = np.maximum(counts - width + 1, 0)
    total = int(win.sum())
    if total == 0:
        return np.empty(0, np.int64), win
    seg_start = np.repeat(starts[win > 0], win[win > 0])
    wends = np.cumsum(win)
    within = (np.arange(total, dtype=np.int64)
              - np.repeat(wends - win, win)[: total])
    return seg_start + within, win


def shingle_hash_batch(hashes: np.ndarray, counts: np.ndarray, k: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Order-sensitive k-shingle hashes over a ragged token-hash array.

    Docs with ≥ k tokens emit one hash per k-window (positional-multiply
    mix + avalanche); shorter docs (incl. empty) emit exactly ONE hash
    mixing whatever tokens they have, so every doc has ≥ 1 shingle —
    mirroring the joined-string fallback of the scalar implementation.

    Returns (flat shingle hashes uint64, shingles per doc int64).
    """
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    flat_n = len(hashes)
    out_counts = np.maximum(counts - k + 1, 1)
    out = np.empty(int(out_counts.sum()), dtype=np.uint64)
    out_starts = np.concatenate(([0], np.cumsum(out_counts)))[:-1]

    # long docs: all windows in one vector pass over the flat array
    if flat_n >= k:
        w = hashes[: flat_n - k + 1] * POS_MULT[0]
        for j in range(1, k):
            w = w ^ (hashes[j: flat_n - k + 1 + j] * POS_MULT[j])
        src_idx, win = ragged_window_index(counts, k)
        if len(src_idx):
            long_mask = counts >= k
            win_long = win[long_mask]
            ends = np.cumsum(win_long)
            within = (np.arange(int(ends[-1]), dtype=np.int64)
                      - np.repeat(ends - win_long, win_long))
            dst = np.repeat(out_starts[long_mask], win_long) + within
            out[dst] = avalanche64(w[src_idx])

    # short docs (< k tokens, incl. empty): one mixed hash each — rare
    # at corpus scale, loop is over docs not tokens
    short = np.flatnonzero(counts < k)
    if len(short):
        tok_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        for d in short:
            c = int(counts[d])
            if c == 0:
                out[out_starts[d]] = avalanche64(
                    np.asarray([FNV_BASIS]))[0]
                continue
            seg = hashes[tok_starts[d]: tok_starts[d] + c]
            acc = np.bitwise_xor.reduce(
                seg * POS_MULT[np.arange(c) % len(POS_MULT)])
            out[out_starts[d]] = avalanche64(acc.reshape(1))[0]
    return out, out_counts


def sliding_min_per_segment(values: np.ndarray, counts: np.ndarray,
                            width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment sliding-window minimum (winnowing's window step),
    vectorized over the flat array. Segments shorter than ``width`` (but
    ≥ 1) emit one value: the segment min. Requires every count ≥ 1.

    Returns (flat window minima in segment order, minima per segment).
    """
    counts = np.asarray(counts, dtype=np.int64)
    out_counts = np.maximum(counts - width + 1, 1)
    out = np.empty(int(out_counts.sum()), dtype=values.dtype)
    out_starts = np.concatenate(([0], np.cumsum(out_counts)))[:-1]
    flat_n = len(values)
    if flat_n >= width:
        m = values[: flat_n - width + 1].copy()
        for j in range(1, width):
            np.minimum(m, values[j: flat_n - width + 1 + j], out=m)
        src_idx, win = ragged_window_index(counts, width)
        if len(src_idx):
            long_mask = counts >= width
            win_long = win[long_mask]
            ends = np.cumsum(win_long)
            within = (np.arange(int(ends[-1]), dtype=np.int64)
                      - np.repeat(ends - win_long, win_long))
            dst = np.repeat(out_starts[long_mask], win_long) + within
            out[dst] = m[src_idx]
    short = np.flatnonzero(counts < width)
    if len(short):
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        for d in short:  # rare; numpy min per short segment
            out[out_starts[d]] = values[
                starts[d]: starts[d] + counts[d]].min()
    return out, out_counts


def unique_per_segment(values: np.ndarray, counts: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-unique values within each ragged segment, one lexsort for
    the whole batch. Returns (flat unique values, uniques per segment)."""
    counts = np.asarray(counts, dtype=np.int64)
    n = len(counts)
    if len(values) == 0:
        return values, np.zeros(n, np.int64)
    seg = np.repeat(np.arange(n, dtype=np.int64), counts)
    order = np.lexsort((values, seg))
    v, s = values[order], seg[order]
    keep = np.ones(len(v), dtype=bool)
    keep[1:] = (v[1:] != v[:-1]) | (s[1:] != s[:-1])
    vu, su = v[keep], s[keep]
    return vu, np.bincount(su, minlength=n).astype(np.int64)


def binary_column_from_ragged(values_u64: np.ndarray,
                              counts: np.ndarray) -> pa.Array:
    """Zero-copy-ish Arrow binary column: segment i's value is its uint64
    slice as raw little-endian bytes (np.frombuffer round-trips)."""
    counts = np.asarray(counts, dtype=np.int64)
    offsets = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts * 8, out=offsets[1:])
    return pa.Array.from_buffers(
        pa.binary(), len(counts),
        [None, pa.py_buffer(offsets.tobytes()),
         pa.py_buffer(np.ascontiguousarray(values_u64).tobytes())])


def fixed_binary_matrix(col, itemsize: int, width: int) -> np.ndarray:
    """View an Arrow binary column of uniform-length values as an
    (n, width) numpy matrix without per-row Python when possible."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.empty((0, width), dtype=np.dtype(f"u{itemsize}"))
    bufs = col.buffers()
    offs = np.frombuffer(bufs[1], dtype=np.int32)[
        col.offset: col.offset + n + 1]
    lens = np.diff(offs)
    if (lens == itemsize * width).all():
        data = np.frombuffer(bufs[2], dtype=np.uint8)[
            offs[0]: offs[-1]]
        return data.view(np.dtype(f"u{itemsize}")).reshape(n, width)
    return np.stack([np.frombuffer(x, dtype=np.dtype(f"u{itemsize}"))
                     for x in col.to_pylist()])
