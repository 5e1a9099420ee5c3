"""Exact-match lookup in a byte-sorted Arrow string column: the one
binary search behind segment term rows (pipelines/search.py ShardIndex)
and the pre-stemmed synonym table (query/compile.py SynsetTable)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..kernels.arrowbuf import string_views


class SortedStrings:
    """Row lookup in a string array sorted in byte (= UTF-8 code point)
    order. Probes compare raw bytes through memoryviews over the Arrow
    buffers: zero-copy, so a memory-mapped column stays in the page
    cache, with no per-probe .as_py() string materialization
    (memoryview indexing and slicing cost ~3× less per probe than
    numpy's). The search starts inside the run of rows sharing the
    key's first byte, which saves ~5 of ~17 probes on English words."""

    __slots__ = ("_offs", "_data", "_first")

    def __init__(self, arr: pa.Array):
        offs, data = string_views(arr)
        # leading byte per row, -1 for the empty string (sorts first);
        # first[c + 1]:first[c + 2] is the run of rows led by byte c
        lead = np.full(len(arr), -1, dtype=np.int16)
        nonempty = offs[1:] > offs[:-1]
        lead[nonempty] = data[offs[:-1][nonempty]]
        self._first = memoryview(np.searchsorted(lead, np.arange(-1, 257)))
        self._offs, self._data = memoryview(offs), memoryview(data)

    def __len__(self) -> int:
        return len(self._offs) - 1

    def find(self, key: bytes) -> int | None:
        """Row of ``key``, or None when absent. O(log n) probes."""
        offs, data = self._offs, self._data
        c = key[0] + 1 if key else 0
        lo, end = self._first[c], self._first[c + 1]
        hi = end
        while lo < hi:
            mid = (lo + hi) // 2
            if data[offs[mid]:offs[mid + 1]].tobytes() < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < end and data[offs[lo]:offs[lo + 1]].tobytes() == key:
            return lo
        return None
