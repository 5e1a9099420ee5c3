"""DuckDB SQL renditions of the kernels/shingles.py hash kernels.

Why this exists: the hashing family (winnowed fingerprints, SimHash,
MinHash) was previously "no oracle by nature". It isn't — every kernel
is deterministic integer arithmetic, so the whole computation can be
restated in DuckDB HUGEINT (int128) SQL and cross-checked hash-exactly
against the vectorized numpy implementation. These builders generate
single-statement SQL (the driver's oracle runner executes one query;
no CREATE MACRO) that reproduces, bit for bit:

- FNV-1a 64 over each token's bytes (``list_reduce`` fold; ASCII corpus,
  matching ``fnv1a_64_arrow``'s UTF-8 bytes),
- the k-shingle positional-multiplier mix + splitmix64 avalanche of
  ``shingle_hash_batch`` (incl. the short/empty-doc fallbacks),
- winnowing's sliding-window minima (window function),
- SimHash per-bit majority over unique unigram hashes,
- the MinHash permutation family ``a*lo + ((a*hi)<<32) + b`` (uint64
  wrap) with per-doc segmented minima.

uint64 wraparound is emulated as HUGEINT mod 2^64; products that would
overflow int128 (both operands near 2^64) go through a 32-bit-split
modular multiply (``mulmod64``).
"""

from __future__ import annotations

import numpy as np

TWO64 = "18446744073709551616::HUGEINT"
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mulmod64(a_expr: str, b: int) -> str:
    """(a_expr * b) % 2^64 without INT128 overflow: 32-bit split of a."""
    return (f"(((({a_expr}) // 4294967296::HUGEINT) * {b}::HUGEINT "
            f"% 4294967296::HUGEINT) * 4294967296::HUGEINT "
            f"+ (({a_expr}) % 4294967296::HUGEINT) * {b}::HUGEINT) "
            f"% {TWO64}")


def xor_chain(exprs: list[str]) -> str:
    out = exprs[0]
    for e in exprs[1:]:
        out = f"xor({out}, {e})"
    return out


def _avalanche_ctes(src: str, keep: str, prefix: str = "av",
                    out: str = "shv") -> str:
    """splitmix64 finalizer over column ``mx`` of CTE ``src`` as a chain
    of CTEs (a CTE per step keeps expressions small); yields CTE ``out``
    with columns (keep..., sh). ``prefix`` keeps intermediate CTE names
    unique when the chain appears twice in one query."""
    k1, k2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    p = prefix
    return f"""
{p}1 AS (SELECT {keep}, xor(mx, mx // 1073741824::HUGEINT) AS x FROM {src}),
{p}2 AS (SELECT {keep}, {mulmod64('x', k1)} AS x FROM {p}1),
{p}3 AS (SELECT {keep}, xor(x, x // 134217728::HUGEINT) AS x FROM {p}2),
{p}4 AS (SELECT {keep}, {mulmod64('x', k2)} AS x FROM {p}3),
{out} AS (SELECT {keep}, xor(x, x // 2147483648::HUGEINT) AS sh FROM {p}4)"""


# token CTEs: t (doc_id, toks — lowercased, whitespace-split, empty
# tokens dropped) and tokh (doc_id, n, th LIST<HUGEINT> of FNV-1a token
# hashes) over docs that have ≥ 1 token.
_TOK_CTES = rf"""
t AS (SELECT doc_id,
    list_filter(string_split_regex(trim(lower(text)), '\s+'),
                w -> w <> '') AS toks
  FROM documents),
tokh AS (SELECT doc_id, len(toks) AS n,
    [list_reduce(
       list_prepend({_FNV_BASIS}::HUGEINT,
         [ascii(substr(w, i, 1))::HUGEINT
          FOR i IN range(1, length(w) + 1)]),
       (h, b) -> (xor(h, b) * {_FNV_PRIME}::HUGEINT) % {TWO64})
     FOR w IN toks] AS th
  FROM t WHERE len(toks) > 0)"""


def _pos_mult() -> list[int]:
    from ..kernels.shingles import POS_MULT
    return [int(x) for x in POS_MULT]


def _avalanche_const(x: int) -> int:
    from ..kernels.textutils import avalanche64
    return int(avalanche64(np.asarray([x], dtype=np.uint64))[0])


def shingle_ctes(k: int) -> str:
    """CTE chain ending in ``shv`` (doc_id, pos, sh): all k-shingle
    hashes for docs with ≥ 1 token (short docs emit one mixed hash,
    mirroring shingle_hash_batch's fallback)."""
    m = _pos_mult()
    full = [mulmod64(f"th[pos + {j}]", m[j]) for j in range(k)]
    short = [f"CASE WHEN n > {j} THEN " + mulmod64(f"th[{j + 1}]", m[j])
             + " ELSE 0::HUGEINT END" for j in range(k)]
    return f"""{_TOK_CTES},
shpos AS (SELECT doc_id, n, th,
    UNNEST(range(1, GREATEST(n - {k - 1}, 1) + 1)) AS pos
  FROM tokh),
mixed AS (SELECT doc_id, pos,
    CASE WHEN n >= {k} THEN {xor_chain(full)}
    ELSE {xor_chain(short)} END AS mx
  FROM shpos),{_avalanche_ctes('mixed', 'doc_id, pos')}"""


def _uhuge_to_bigint(e: str) -> str:
    return (f"CAST(CASE WHEN ({e}) >= 9223372036854775808::HUGEINT "
            f"THEN ({e}) - {TWO64} ELSE ({e}) END AS BIGINT)")


def fingerprints_sql(k: int = 5, window: int = 4) -> str:
    """Oracle for functions/textstats.py fingerprints(): winnowing
    minima → per-doc distinct count + xor fold (>> 1)."""
    empty_fold = _avalanche_const(_FNV_BASIS) >> 1
    return f"""
WITH {shingle_ctes(k)},
mins AS (SELECT doc_id, pos,
    MIN(sh) OVER (PARTITION BY doc_id ORDER BY pos
                  ROWS BETWEEN CURRENT ROW AND {window - 1} FOLLOWING
                 ) AS wmin,
    COUNT(*) OVER (PARTITION BY doc_id) AS m
  FROM shv),
wm AS (SELECT doc_id, wmin FROM mins
       WHERE pos <= GREATEST(m - {window - 1}, 1)),
u AS (SELECT DISTINCT doc_id, wmin FROM wm),
g AS (SELECT doc_id, COUNT(*) AS cnt,
    bit_xor({_uhuge_to_bigint('wmin')}) AS fold
  FROM u GROUP BY doc_id)
SELECT d.doc_id,
  CAST(COALESCE(g.cnt, 1) AS BIGINT) AS n_fingerprints,
  CAST(COALESCE(
    (CASE WHEN g.fold < 0 THEN g.fold::HUGEINT + {TWO64}
          ELSE g.fold::HUGEINT END) // 2,
    {empty_fold}::HUGEINT) AS BIGINT) AS fp_fold
FROM documents d LEFT JOIN g ON g.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def simhash_sql() -> str:
    """Oracle for simhash signatures: per-bit majority over each doc's
    UNIQUE unigram token hashes; tokenless docs get signature 0."""
    sums = ",\n    ".join(
        f"SUM(CASE WHEN (th // {1 << b}::HUGEINT) % 2 = 1 "
        f"THEN 1 ELSE -1 END) AS s{b}" for b in range(64))
    sig = " + ".join(
        f"CASE WHEN s{b} > 0 THEN {1 << b}::HUGEINT "
        f"ELSE 0::HUGEINT END" for b in range(64))
    return f"""
WITH {_TOK_CTES},
u AS (SELECT DISTINCT doc_id, th FROM
  (SELECT doc_id, UNNEST(th) AS th FROM tokh)),
bits AS (SELECT doc_id,
    {sums}
  FROM u GROUP BY doc_id),
sig AS (SELECT doc_id, ({sig}) AS sim FROM bits)
SELECT d.doc_id,
  CAST(COALESCE({_uhuge_to_bigint('s.sim')}, 0) AS BIGINT) AS simhash
FROM documents d LEFT JOIN sig s ON s.doc_id = d.doc_id
ORDER BY d.doc_id
"""


def _minhash_wide_ctes(n_perm: int, shingle_k: int, seed: int) -> str:
    """CTE chain ending in ``ush`` (doc_id, sh — unique shingle hashes,
    with the empty-doc fallback shingle) and ``wide`` (doc_id,
    p0..p{n-1} — the per-perm minima)."""
    from .dedup import _perm_params
    a, b = _perm_params(n_perm, seed)
    empty_sh = _avalanche_const(_FNV_BASIS)

    def perm_expr(i: int) -> str:
        ai, bi = int(a[i]), int(b[i])
        lo = "(sh % 4294967296::HUGEINT)"
        hi = "(sh // 4294967296::HUGEINT)"
        return (f"MIN(({mulmod64(lo, ai)} "
                f"+ (({hi} * {ai}::HUGEINT) % 4294967296::HUGEINT) "
                f"* 4294967296::HUGEINT + {bi}::HUGEINT) % {TWO64}) "
                f"AS p{i}")

    mins = ",\n    ".join(perm_expr(i) for i in range(n_perm))
    return f"""{shingle_ctes(shingle_k)},
ush AS (SELECT DISTINCT doc_id, sh FROM shv
        UNION ALL
        SELECT d.doc_id, {empty_sh}::HUGEINT AS sh
        FROM documents d LEFT JOIN tokh ON tokh.doc_id = d.doc_id
        WHERE tokh.doc_id IS NULL),
wide AS (SELECT doc_id,
    {mins}
  FROM ush GROUP BY doc_id)"""


def minhash_sql(n_perm: int = 64, shingle_k: int = 3,
                seed: int = 42) -> str:
    """Oracle for minhash signatures in long form (doc_id, perm, sig):
    per-perm MIN over each doc's unique shingle hashes of
    a*lo + ((a*hi) << 32) + b  (uint64 wrap), permutation params from
    the same seeded generator as functions/dedup.py _perm_params."""
    cols = ", ".join(f"p{i}" for i in range(n_perm))
    return f"""
WITH {_minhash_wide_ctes(n_perm, shingle_k, seed)}
SELECT doc_id, CAST(substr(perm, 2) AS BIGINT) AS perm,
       {_uhuge_to_bigint('val')} AS sig
FROM (UNPIVOT wide ON {cols} INTO NAME perm VALUE val)
ORDER BY doc_id, perm
"""


def simhash_dedup_sql(max_hamming: int = 3) -> str:
    """Full-output oracle for functions/dedup.py simhash_dedup: 4×16-bit
    band buckets (self-join on band+key), Hamming via two's-complement
    ``bit_count(xor(...))`` (= uint64 popcount), distinct pairs."""
    sums = ",\n    ".join(
        f"SUM(CASE WHEN (th // {1 << b}::HUGEINT) % 2 = 1 "
        f"THEN 1 ELSE -1 END) AS s{b}" for b in range(64))
    sig = " + ".join(
        f"CASE WHEN s{b} > 0 THEN {1 << b}::HUGEINT "
        f"ELSE 0::HUGEINT END" for b in range(64))
    keys = ", ".join(f"(sim // {1 << (16 * band)}::HUGEINT) "
                     f"% 65536::HUGEINT" for band in range(4))
    return f"""
WITH {_TOK_CTES},
u AS (SELECT DISTINCT doc_id, th FROM
  (SELECT doc_id, UNNEST(th) AS th FROM tokh)),
bits AS (SELECT doc_id,
    {sums}
  FROM u GROUP BY doc_id),
sigc AS (SELECT doc_id, ({sig}) AS sim FROM bits),
s AS (SELECT d.doc_id, COALESCE(sigc.sim, 0::HUGEINT) AS sim,
        CAST(COALESCE({_uhuge_to_bigint('sigc.sim')}, 0) AS BIGINT) AS simi
      FROM documents d LEFT JOIN sigc ON sigc.doc_id = d.doc_id),
bk AS (SELECT doc_id, simi,
    UNNEST(range(0, 4)) AS band,
    UNNEST([{keys}]) AS key
  FROM s),
p AS (SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
        bit_count(xor(a.simi, b.simi)) AS hamming
      FROM bk a JOIN bk b
        ON a.band = b.band AND a.key = b.key AND a.doc_id < b.doc_id),
d2 AS (SELECT DISTINCT doc_a, doc_b, hamming FROM p
       WHERE hamming <= {max_hamming})
SELECT doc_a, doc_b, CAST(hamming AS BIGINT) AS hamming FROM d2
ORDER BY doc_a, doc_b
"""


def _minhash_pairs_ctes(n_perm: int, n_bands: int, shingle_k: int,
                        seed: int) -> str:
    """CTE chain ending in ``scored`` (doc_a, doc_b, jaccard_bp): banded
    LSH keys (positional-multiplier mix + avalanche over each band's
    perm minima, exactly _band_rows), candidate pairs via band-bucket
    self-join, exact Jaccard over the unique shingle sets. Shared by
    minhash_dedup_sql and dedup_clusters_sql."""
    rows_per_band = n_perm // n_bands
    m = _pos_mult()
    mixes = []
    for band in range(n_bands):
        terms = [mulmod64(f"p{band * rows_per_band + j}",
                          m[j % len(m)]) for j in range(rows_per_band)]
        mixes.append(xor_chain(terms))
    return f"""{_minhash_wide_ctes(n_perm, shingle_k, seed)},
bmix AS (SELECT doc_id,
    UNNEST(range(0, {n_bands})) AS band,
    UNNEST([{", ".join(mixes)}]) AS mx
  FROM wide),{_avalanche_ctes('bmix', 'doc_id, band', prefix='bv',
                              out='bkey')},
bk AS (SELECT doc_id, band, sh // 2 AS key FROM bkey),
cand AS (SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
         FROM bk a JOIN bk b
           ON a.band = b.band AND a.key = b.key
          AND a.doc_id < b.doc_id),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM ush GROUP BY doc_id),
inter AS (SELECT c.doc_a, c.doc_b, COUNT(*) AS i
          FROM cand c
          JOIN ush sa ON sa.doc_id = c.doc_a
          JOIN ush sb ON sb.doc_id = c.doc_b AND sb.sh = sa.sh
          GROUP BY c.doc_a, c.doc_b),
scored AS (SELECT c.doc_a AS doc_a, c.doc_b AS doc_b,
        CAST(COALESCE(i.i, 0) * 10000
             // (na.n + nb.n - COALESCE(i.i, 0)) AS BIGINT) AS jaccard_bp
      FROM cand c
      JOIN sizes na ON na.doc_id = c.doc_a
      JOIN sizes nb ON nb.doc_id = c.doc_b
      LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b)"""


def minhash_dedup_sql(threshold_bp: int = 7000, n_perm: int = 64,
                      n_bands: int = 16, shingle_k: int = 3,
                      seed: int = 42) -> str:
    """Full-output oracle for functions/dedup.py minhash_dedup (see
    _minhash_pairs_ctes). Valid while every band bucket holds ≤ 512 docs
    (the distributed path's hot-bucket star fallback never triggers at
    oracle scale — the sf dirs have ≤ 5000 docs and no 512-way
    band collisions)."""
    return f"""
WITH {_minhash_pairs_ctes(n_perm, n_bands, shingle_k, seed)}
SELECT doc_a, doc_b, jaccard_bp FROM scored
WHERE jaccard_bp >= {threshold_bp}
ORDER BY doc_a, doc_b
"""


def dedup_clusters_sql(threshold_bp: int = 7000, n_perm: int = 64,
                       n_bands: int = 16, shingle_k: int = 3,
                       seed: int = 42) -> str:
    """Full-output oracle for functions/hygiene.py dedup_clusters:
    near-dup pairs (same CTE chain as minhash_dedup_sql) symmetrized
    into an edge list, connected components via a recursive
    reachability closure (label = MIN doc_id over each node's
    component), every document labeled (singletons label themselves)."""
    return f"""
WITH RECURSIVE {_minhash_pairs_ctes(n_perm, n_bands, shingle_k, seed)},
pr AS (SELECT doc_a, doc_b FROM scored WHERE jaccard_bp >= {threshold_bp}),
ed AS (SELECT doc_a AS src, doc_b AS dst FROM pr
       UNION SELECT doc_b AS src, doc_a AS dst FROM pr),
reach(node, lab) AS (
  SELECT doc_id, doc_id FROM documents
  UNION
  SELECT e.dst, r.lab FROM reach r JOIN ed e ON r.node = e.src)
SELECT node AS doc_id, MIN(lab) AS cluster_id,
       CAST(node = MIN(lab) AS BIGINT) AS keep
FROM reach GROUP BY node ORDER BY doc_id
"""


def decontaminate_sql(k: int = 5, holdout_mod: int = 97) -> str:
    """Oracle for functions/hygiene.py decontaminate: a document is
    contaminated iff it shares any k-token-window hash with the held-out
    set (doc_id % holdout_mod = 0). Windows only — docs with < k tokens
    contribute nothing (the shingle fallback hash is excluded on both
    sides, matching the Ray implementation's valid-window mask)."""
    return f"""
WITH {shingle_ctes(k)},
grams AS (SELECT s.doc_id, s.sh FROM shv s
          JOIN tokh t ON t.doc_id = s.doc_id WHERE t.n >= {k}),
hold AS (SELECT DISTINCT sh FROM grams WHERE doc_id % {holdout_mod} = 0),
hits AS (SELECT DISTINCT g.doc_id FROM grams g
         JOIN hold h ON h.sh = g.sh
         WHERE g.doc_id % {holdout_mod} <> 0)
SELECT d.doc_id,
       CAST(h.doc_id IS NOT NULL AS BIGINT) AS contaminated
FROM documents d LEFT JOIN hits h ON h.doc_id = d.doc_id
WHERE d.doc_id % {holdout_mod} <> 0
ORDER BY d.doc_id
"""


def embedding_neardup_sql(n_planes: int = 4, seed: int = 42,
                          threshold_bp: int = 2500, dim: int = 64) -> str:
    """Oracle for functions/dedup.py embedding_neardup: the seeded
    hyperplanes are emitted as literal DOUBLE lists (repr round-trips
    float64 exactly), unit normalization / sign-bit bucketing / in-bucket
    cosine are restated over list ops, and the output is the same
    (vec_a, vec_b, cos_bp=floor(cos*10000)) pair list. ``dim`` must match
    the embeddings fixture (64 across the test sf dirs) because the plane
    literals are dimension-fixed. Float caveat: only the literals are
    exact — numpy and DuckDB sum dot products in different orders, so a
    value within ulps of a sign/floor boundary could diverge on some
    corpus (none exists in the fixtures; validated hash-green at both
    gate scales)."""
    import numpy as np
    planes = np.random.default_rng(seed).standard_normal((n_planes, dim))
    plane_rows = ",\n".join(
        "(%d, [%s])" % (i, ",".join(repr(float(x)) for x in planes[i]))
        for i in range(n_planes))
    return f"""
WITH e AS (SELECT vec_id,
                  list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
           FROM embeddings),
n AS (SELECT vec_id, v,
             sqrt(list_sum(list_transform(v, x -> x*x))) AS nrm FROM e),
u AS (SELECT vec_id,
             CASE WHEN nrm = 0 OR nrm IS NULL THEN v
                  ELSE list_transform(v, x -> x/nrm) END AS uv FROM n),
planes(plane_id, p) AS (VALUES {plane_rows}),
proj AS (SELECT u.vec_id, pl.plane_id,
                list_sum(list_transform(list_zip(u.uv, pl.p),
                                        t -> t[1]*t[2])) AS d
         FROM u CROSS JOIN planes pl),
bkt AS (SELECT vec_id,
               CAST(SUM(CASE WHEN d > 0 THEN 1<<plane_id ELSE 0 END)
                    AS BIGINT) AS bucket
        FROM proj GROUP BY vec_id),
pairs AS (SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                 list_sum(list_transform(list_zip(ua.uv, ub.uv),
                                         t -> t[1]*t[2])) AS cos
          FROM bkt a JOIN bkt b ON a.bucket = b.bucket
                                AND a.vec_id < b.vec_id
          JOIN u ua ON ua.vec_id = a.vec_id
          JOIN u ub ON ub.vec_id = b.vec_id)
SELECT vec_a, vec_b, CAST(FLOOR(cos*10000) AS BIGINT) AS cos_bp
FROM pairs WHERE FLOOR(cos*10000) >= {threshold_bp}
ORDER BY vec_a, vec_b
"""


def ann_topk_lsh_sql(k: int = 10, query_vec_id: int = 0,
                     n_planes: int = 8, n_tables: int = 4,
                     seed: int = 42, dim: int = 64) -> str:
    """Oracle for functions/ann.py ann_topk_lsh: the seeded LSH planes
    (n_tables × n_planes × dim) are emitted as literal DOUBLE lists; a
    vector's table-t key is t*256 + an MSB-first 8-bit sign signature
    (np.packbits semantics → plane p contributes 1<<(7-p)); candidates
    are vectors sharing ANY of the query's table keys; exact cosine
    top-k among them, ties by vec_id — the same (rank, vec_id) output.
    Float caveat (same as embedding_neardup_sql): the plane LITERALS
    round-trip exactly, but numpy (SIMD/pairwise) and DuckDB
    (sequential) sum dot products in different orders, so a projection
    within a few ulps of 0 could flip a sign bucket between engines on
    some corpus. No such knife-edge exists in the fixture embeddings
    (validated hash-green at sf0.001 and sf0.01); a corpus-robust
    variant would quantize projections before the sign test."""
    import numpy as np
    planes = np.random.default_rng(seed).standard_normal(
        (n_tables, n_planes, dim))
    assert n_planes <= 8, "signature uses the first 8 sign bits"
    plane_rows = ",\n".join(
        "(%d, %d, [%s])" % (t, 1 << (7 - p),
                            ",".join(repr(float(x))
                                     for x in planes[t][p]))
        for t in range(n_tables) for p in range(n_planes))
    return f"""
WITH e AS (SELECT vec_id,
                  list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
           FROM embeddings),
planes(t, w, p) AS (VALUES {plane_rows}),
keys AS (SELECT e.vec_id,
                pl.t*256 + SUM(CASE WHEN list_sum(list_transform(
                    list_zip(e.v, pl.p), z -> z[1]*z[2])) > 0
                    THEN pl.w ELSE 0 END) AS key
         FROM e CROSS JOIN planes pl GROUP BY e.vec_id, pl.t),
qk AS (SELECT DISTINCT key FROM keys WHERE vec_id = {query_vec_id}),
cand AS (SELECT DISTINCT kk.vec_id FROM keys kk
         JOIN qk ON kk.key = qk.key),
q AS (SELECT v AS qv FROM e WHERE vec_id = {query_vec_id})
SELECT CAST(row_number() OVER (
         ORDER BY list_cosine_similarity(e.v, (SELECT qv FROM q)) DESC,
                  e.vec_id) AS BIGINT) AS rank,
       e.vec_id
FROM cand c JOIN e ON e.vec_id = c.vec_id
ORDER BY rank LIMIT {k}
"""
