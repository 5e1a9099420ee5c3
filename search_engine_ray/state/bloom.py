"""Per-shard vocabulary Bloom filters — query fan-out pruning.

At serving time every query fans out to every searcher actor; at 100 TB
(10^4-10^5 shards) that is the scale sin for selective queries — a term
that exists in a handful of shards still costs an RPC per actor. Each
shard's merge emits a small Bloom filter over its term vocabulary
(~2 bytes/term, k=2); the engine loads all blooms at init (KBs per
shard) and skips every actor none of whose shards can contain any of
the plan's terms. False positives only over-include (an extra RPC that
returns empty), never change results.

Scale note: one engine holding every shard's bloom works to ~10^4
shards (tens of GB of blooms at web-scale per-shard vocabularies).
The planned replacement is a memory-mapped terms table that stores,
per term, its df and the shards holding it (ROADMAP direction H): one
probe then gives idf and exact routing, with no Bloom files.

No reference analogue: the reference csolver scans every chunk for
every query (csolver.cpp:135-149).
"""

from __future__ import annotations

import struct

import numpy as np

from ..kernels import arrowbuf
from ..kernels.textutils import avalanche64, fnv1a_64_arrow, fnv1a_64_np

_MAGIC = 0x534E424C  # "LBNS"
_K = 2


def hash_terms(terms) -> np.ndarray:
    """(n, k) raw 64-bit hashes per term — compute ONCE per query, test
    against any number of blooms with contains_hashed (the per-blob bit
    positions are just a modulo away). Arrow string columns hash
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


def _positions(terms, m_bits: int) -> np.ndarray:
    """(n, k) bit positions for each term: FNV-1a and its splitmix64
    avalanche as the two independent hash functions."""
    return hash_terms(terms) % np.uint64(m_bits)


def build(terms) -> bytes:
    """Serialize a Bloom filter over the term iterable (~16 bits/term,
    k=2 → ~1.4% false-positive rate)."""
    n = len(terms)
    m_bits = 64
    while m_bits < 16 * max(n, 1):
        m_bits *= 2
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    if n:
        pos = _positions(terms, m_bits).reshape(-1)
        np.bitwise_or.at(bits, (pos >> np.uint64(3)).astype(np.int64),
                         (1 << (pos & np.uint64(7))).astype(np.uint8))
    return struct.pack("<IIQ", _MAGIC, _K, m_bits) + bits.tobytes()


def contains_hashed(blob: bytes, hashes: np.ndarray) -> np.ndarray:
    """Per-term membership mask from hash_terms output (True may be a
    false positive)."""
    magic, k, m_bits = struct.unpack_from("<IIQ", blob, 0)
    if magic != _MAGIC or k != _K:
        raise ValueError("not a vocab bloom")
    bits = np.frombuffer(blob, dtype=np.uint8, offset=16)
    pos = hashes % np.uint64(m_bits)
    byte = (pos >> np.uint64(3)).astype(np.int64)
    mask = (1 << (pos & np.uint64(7))).astype(np.uint8)
    return ((bits[byte] & mask) == mask).all(axis=1)


def contains(blob: bytes, terms) -> np.ndarray:
    """Per-term membership mask (True may be a false positive)."""
    return contains_hashed(blob, hash_terms(terms))


def contains_any(blob: bytes, terms) -> bool:
    return bool(len(terms)) and bool(contains(blob, terms).any())


def contains_any_hashed(blob: bytes, hashes: np.ndarray) -> bool:
    return bool(len(hashes)) and bool(contains_hashed(blob, hashes).any())
