"""Per-shard vocabulary Bloom filters — query fan-out pruning.

At serving time every query fans out to every searcher actor; at 100 TB
(10^4-10^5 shards) that is the scale sin for selective queries — a term
that exists in a handful of shards still costs an RPC per actor. Each
shard's merge emits a small Bloom filter over its term vocabulary; the
engine loads all blooms at init (KBs per shard) and skips every actor
none of whose shards can contain any of the plan's terms. False
positives only over-include (an extra RPC that returns empty), never
change results.

Sizing: every filter is built for one false-positive target,
``FP_RATE`` = 1%. For n terms that takes m = ⌈n·ln(1/p)/ln²2⌉ bits
(~9.6 bits/term, rounded up to a whole byte, at least 64) and
k = round(m/n·ln 2) = 7 probes. The k probe positions come from the two
hashes ``hash_terms`` returns, g_i = h1 + i·(h2 − h1) (mod 2^64, then
mod m): Kirsch & Mitzenmacher (*Less Hashing, Same Performance*, ESA
2006) show such double hashing keeps the false-positive rate of k
independent hashes. For i = 0 and 1 these are h1 and h2 themselves, so a
filter written before this sizing (k = 2, a power of two of at least 16
bits/term) reads through the same ``contains_hashed``: k and m come from
each file's header, and an index mixed by append routes with both.

Scale note: one engine holding every shard's bloom works to ~10^4
shards (tens of GB of blooms at web-scale per-shard vocabularies).
The planned replacement is a memory-mapped terms table that stores,
per term, its df and the shards holding it (ROADMAP direction H): one
probe then gives idf and exact routing, with no Bloom files.

No reference analogue: the reference csolver scans every chunk for
every query (csolver.cpp:135-149).
"""

from __future__ import annotations

import math
import struct

import numpy as np

from ..kernels import arrowbuf
from ..kernels.textutils import avalanche64, fnv1a_64_arrow, fnv1a_64_np

_MAGIC = 0x534E424C  # "LBNS"
_HEADER = struct.Struct("<IIQ")  # magic, k, m (bits)
FP_RATE = 0.01
_MAX_K = 16
_STEPS = np.arange(_MAX_K, dtype=np.uint64)
_BIT = (1 << np.arange(8)).astype(np.uint8)  # bit p & 7 of a byte


def hash_terms(terms) -> np.ndarray:
    """(n, 2) raw 64-bit hashes per term — compute ONCE per query, test
    against any number of blooms with contains_hashed (the per-blob bit
    positions are derived from them). Arrow string columns hash
    through the vectorized byte-position kernel (bit-identical to the
    scalar FNV) — bloom.build runs per shard on the merge critical
    path, where a per-byte Python loop over a web-scale vocabulary
    would be minutes of interpreter time."""
    import pyarrow as pa
    if isinstance(terms, (pa.Array, pa.ChunkedArray)):
        h1 = fnv1a_64_arrow(terms)
    elif len(terms) > 64:
        h1 = fnv1a_64_arrow(arrowbuf.strings(list(terms)))
    else:  # tiny query-term lists: skip the Arrow round-trip
        h1 = fnv1a_64_np(list(terms))
    return np.stack([h1, avalanche64(h1)], axis=1)


def _positions(hashes: np.ndarray, k: int, m_bits: int) -> np.ndarray:
    """(n, k) bit positions: FNV-1a (h1) and its splitmix64 avalanche
    (h2) combined as h1 + i·(h2 − h1), i < k, with uint64 wraparound."""
    h1 = hashes[:, :1]
    return (h1 + _STEPS[:k] * (hashes[:, 1:] - h1)) % np.uint64(m_bits)


def build(terms) -> bytes:
    """Serialize a Bloom filter over the term iterable, sized for
    ``FP_RATE`` (module docstring)."""
    n = len(terms)
    m_bits = math.ceil(n * math.log(1 / FP_RATE) / math.log(2) ** 2)
    m_bits = max(64, -(-m_bits // 8) * 8)
    k = min(max(round(m_bits / max(n, 1) * math.log(2)), 1), _MAX_K)
    bitmap = np.zeros(m_bits, dtype=bool)
    if n:
        bitmap[_positions(hash_terms(terms), k, m_bits)] = True
    return _HEADER.pack(_MAGIC, k, m_bits) + \
        np.packbits(bitmap, bitorder="little").tobytes()


def header(blob: bytes) -> tuple[int, int]:
    """(k, m_bits) of a serialized filter; ValueError if ``blob`` is not
    one."""
    magic, k, m_bits = _HEADER.unpack_from(blob, 0)
    if magic != _MAGIC or not 1 <= k <= _MAX_K or m_bits == 0 \
            or len(blob) != _HEADER.size + -(-m_bits // 8):
        raise ValueError("not a vocab bloom")
    return k, m_bits


def contains_hashed(blob: bytes, hashes: np.ndarray) -> np.ndarray:
    """Per-term membership mask from hash_terms output (True may be a
    false positive). Bit p is bit p & 7 of byte p >> 3."""
    k, m_bits = header(blob)
    bits = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size)
    # positions are below m_bits < 2^63: int64 indexes without a cast
    pos = _positions(hashes, k, m_bits).view(np.int64)
    return (bits[pos >> 3] & _BIT[pos & 7]).all(axis=1)


def contains(blob: bytes, terms) -> np.ndarray:
    """Per-term membership mask (True may be a false positive)."""
    return contains_hashed(blob, hash_terms(terms))


def contains_any(blob: bytes, terms) -> bool:
    return bool(len(terms)) and bool(contains(blob, terms).any())


def contains_any_hashed(blob: bytes, hashes: np.ndarray) -> bool:
    return bool(len(hashes)) and bool(contains_hashed(blob, hashes).any())
