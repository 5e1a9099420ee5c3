"""Scalar helpers ported from the reference (exact semantics).

- custom_exp: engine/lib/algorithm.h:116-133 — 7-term Taylor exp with ±20
  clamp; the ranker uses THIS, never math.exp, so score-identity requires it.
- parse_tld / TLD scores: engine/indexer/HashBlob.h:29-56,
  engine/ranker/Ranker.cpp:267-297.
- is_utility_page: engine/ranker/Ranker.cpp:109-124.
- url_decode: query/query.cpp:309-326.
- fnv1a/final_mix url hash: engine/lib/algorithm.h:50-66 (exposed for
  deterministic doc-id fingerprints; 64-bit variant added for our ids).
"""

from __future__ import annotations

import numpy as np

TLD_UNKNOWN, TLD_GOV, TLD_EDU, TLD_ORG, TLD_COM, TLD_NET, TLD_IO, \
    TLD_INFO, TLD_BIZ, TLD_XYZ, TLD_TOP, TLD_US, TLD_DEV = range(13)

_TLD_BY_SUFFIX = {
    ".gov": TLD_GOV, ".edu": TLD_EDU, ".org": TLD_ORG, ".com": TLD_COM,
    ".net": TLD_NET, ".io": TLD_IO, ".info": TLD_INFO, ".biz": TLD_BIZ,
    ".xyz": TLD_XYZ, ".top": TLD_TOP, ".us": TLD_US, ".dev": TLD_DEV,
}

# Ranker::GetTLDScore (Ranker.cpp:267-297)
TLD_SCORES = np.array([
    0.05,  # UNKNOWN
    1.0,   # GOV
    0.95,  # EDU
    0.9,   # ORG
    0.75,  # COM
    0.7,   # NET
    0.6,   # IO
    0.4,   # INFO
    0.3,   # BIZ
    0.2,   # XYZ
    0.1,   # TOP
    0.7,   # US
    0.6,   # DEV
], dtype=np.float64)

_UTILITY_PATTERNS = ("privacy", "terms", "404", "error", "policy", "legal")


def custom_exp(x: float) -> float:
    """algorithm.h:116-133, float64 Horner — bit-identical to the C++."""
    if x > 20.0:
        return 4.85e8
    if x < -20.0:
        return 2.06e-9
    negative = x < 0
    if negative:
        x = -x
    result = 1.0 + x * (1.0 + x * (0.5 + x * (
        1.0 / 6.0 + x * (1.0 / 24.0 + x * (1.0 / 120.0 + x * (1.0 / 720.0))))))
    return 1.0 / result if negative else result


def custom_exp_np(x: np.ndarray) -> np.ndarray:
    """Vectorized custom_exp (same float64 operation order per element)."""
    x = np.asarray(x, dtype=np.float64)
    ax = np.abs(x)
    r = 1.0 + ax * (1.0 + ax * (0.5 + ax * (
        1.0 / 6.0 + ax * (1.0 / 24.0 + ax * (1.0 / 120.0 + ax * (1.0 / 720.0))))))
    out = np.where(x < 0, 1.0 / r, r)
    out = np.where(x > 20.0, 4.85e8, out)
    out = np.where(x < -20.0, 2.06e-9, out)
    return out


def parse_tld(url: str) -> int:
    """ParseTLD (HashBlob.h:31-56): host between '://' and the next '/',
    suffix after the last dot."""
    p = url.find("://")
    if p == -1:
        return TLD_UNKNOWN
    start = p + 3
    end = url.find("/", start)
    host = url[start:end] if end != -1 else url[start:]
    dot = host.rfind(".")
    if dot == -1:
        return TLD_UNKNOWN
    return _TLD_BY_SUFFIX.get(host[dot:], TLD_UNKNOWN)


def is_utility_page(url: str) -> bool:
    """IsUtilityPage (Ranker.cpp:109-124): case-insensitive substring."""
    low = url.lower()
    return any(p in low for p in _UTILITY_PATTERNS)


def _strtol16(s: str) -> int:
    """strtol(s, NULL, 16) over a 2-char chunk: parse the valid hex prefix,
    0 if none."""
    v = 0
    seen = False
    for ch in s:
        if ch in "0123456789abcdefABCDEF":
            v = v * 16 + int(ch, 16)
            seen = True
        else:
            break
    return v if seen else 0


def url_decode(encoded: str) -> str:
    """url_decode (query.cpp:309-326). Quirks preserved: '%' with fewer than
    two following chars is dropped (the following chars then decode
    normally); non-hex after '%' decodes via strtol prefix semantics."""
    out = []
    i = 0
    n = len(encoded)
    while i < n:
        c = encoded[i]
        if c == "%":
            if i + 2 < n:
                out.append(chr(_strtol16(encoded[i + 1:i + 3]) & 0xFF))
                i += 2
            # else: just the '%' is dropped, matches the C++
        elif c == "+":
            out.append(" ")
        else:
            out.append(c)
        i += 1
    return "".join(out)


def fnv1a_64(data: bytes) -> int:
    """64-bit FNV-1a — our deterministic doc-id fingerprint (the reference's
    32-bit hash_url at algorithm.h:50-66 is crawler-side sharding only)."""
    h = 0xCBF29CE484222325
    for b in data:
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def fnv1a_64_np(strs) -> np.ndarray:
    """Vectorized 64-bit FNV-1a over a list/array of strings."""
    out = np.empty(len(strs), dtype=np.uint64)
    for i, s in enumerate(strs):
        out[i] = fnv1a_64(s.encode("utf-8") if isinstance(s, str) else s)
    return out


def avalanche64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer, vectorized (uint64 wraparound)."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def fnv1a_64_arrow(col) -> np.ndarray:
    """64-bit FNV-1a over an Arrow string column, vectorized byte-position-
    wise over the column's raw buffers (identical values to fnv1a_64;
    O(max_len) numpy passes instead of a Python loop per byte)."""
    import pyarrow as pa

    from .arrowbuf import string_views

    if isinstance(col, pa.ChunkedArray):
        chunks = col.chunks
    else:
        chunks = [col]
    outs = []
    prime = np.uint64(0x100000001B3)
    for chunk in chunks:
        chunk = chunk.cast(pa.string()) if chunk.type != pa.string() else chunk
        n = len(chunk)
        if n == 0:
            continue
        offsets, data = string_views(chunk)
        offsets = offsets.astype(np.int64)
        starts, ends = offsets[:-1], offsets[1:]
        lens = ends - starts
        h = np.full(n, 0xCBF29CE484222325, dtype=np.uint64)
        max_len = int(lens.max()) if n else 0
        for i in range(max_len):
            m = lens > i
            idx = starts[m] + i
            hb = h[m]
            hb ^= data[idx].astype(np.uint64)
            hb *= prime
            h[m] = hb
        outs.append(h)
    if not outs:
        return np.empty(0, dtype=np.uint64)
    return np.concatenate(outs)
