"""Near-duplicate detection over the documents table.

Four detectors, all deterministic (seeded) and shaped for scale:

- MinHash + LSH: word-shingle → 64-perm minhash signature per doc
  (vectorized multiply-shift permutations) → banded LSH keys → groupby
  (band, band_hash) brings only colliding docs together → candidate pairs
  → exact Jaccard verification AS A SECOND SHUFFLE: candidate pairs are
  hash-joined (Dataset.join) against the per-doc shingle sets on doc_a
  then doc_b, so each verify task sees only its partition's pairs — no
  driver-side corpus materialization anywhere.
- SimHash: 64-bit token-hash sign aggregate → 4×16-bit band buckets via
  groupby(band, key); the 8-byte signature travels WITH the band row, so
  Hamming verification happens inside the group — no second pass at all.
- n-gram Jaccard: the exact verifier exposed as its own operator (pairs in
  → jaccard out), running the same distributed join-verify.
- Embedding cosine near-dup: random-hyperplane bucket keys computed in a
  stateful actor stage → groupby(bucket) → within-bucket pairwise cosine
  ≥ threshold, all inside map_groups.

Only the FINAL pair lists (output-sized, LSH-filtered) are collected to
the driver; every corpus-sized structure stays distributed. Outputs use
integer basis points (jaccard_bp / cos_bp) so results hash
deterministically.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray

from ..kernels.shingles import (binary_column_from_ragged,
                                fixed_binary_matrix, shingle_hash_batch,
                                tokenize_hash_batch, unique_per_segment,
                                POS_MULT)
from ..kernels.textutils import avalanche64
from ..pipelines.datasets import read_table
from .join import gated_join

MERSENNE = (1 << 61) - 1


def _pool_size() -> tuple[int, int]:
    """Autoscaling actor-pool bounds sized to the cluster (round-2 review:
    a fixed concurrency=2 starved the signature stage 16× at 32 CPUs)."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return (1, max(2, cpus))


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    """Scalar wrapper over the vectorized batch kernel (kept for tests /
    brute-force oracles — identical values to the batch path)."""
    th, tc = tokenize_hash_batch(pa.array([text], pa.string()))
    sh, _ = shingle_hash_batch(th, tc, k)
    return sh


def _perm_params(n_perm: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    a = rng.integers(1, MERSENNE, size=n_perm, dtype=np.uint64)
    b = rng.integers(0, MERSENNE, size=n_perm, dtype=np.uint64)
    return a, b


def _minhash_sigs_ragged(vals: np.ndarray, counts: np.ndarray,
                         a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n_docs, n_perm) minhash matrix over a ragged shingle-hash array:
    one multiply-add pass + segmented min (np.minimum.reduceat) per perm —
    no per-doc Python. Every doc must have ≥ 1 shingle."""
    n = len(counts)
    if n == 0:
        return np.empty((0, len(a)), dtype=np.uint64)
    lo = vals & np.uint64(0xFFFFFFFF)
    hi = vals >> np.uint64(32)
    bounds = np.concatenate(([0], np.cumsum(counts)))[:-1]
    sigs = np.empty((n, len(a)), dtype=np.uint64)
    for i in range(len(a)):
        # (ai * x + bi) with uint64 wrap as the mixing function — not a
        # true mod-M permutation, but a fixed deterministic hash family
        # is all minhash needs
        v = a[i] * lo + ((a[i] * hi) << np.uint64(32)) + b[i]
        sigs[:, i] = np.minimum.reduceat(v, bounds)
    return sigs


class MinHasher:
    """Stateful per-actor minhash stage: permutation params initialized
    once (T-pattern: setup in __init__, work per batch). Emits the sorted
    unique shingle set alongside the signature so exact-Jaccard
    verification downstream needs no second corpus scan."""

    def __init__(self, n_perm: int = 64, shingle_k: int = 3, seed: int = 42):
        self.a, self.b = _perm_params(n_perm, seed)
        self.n_perm = n_perm
        self.k = shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        th, tc = tokenize_hash_batch(batch.column("text"))
        sh, sc = shingle_hash_batch(th, tc, self.k)
        vu, cu = unique_per_segment(sh, sc)
        sigs = _minhash_sigs_ragged(vu, cu, self.a, self.b)
        # binary (not list<uint64>): Acero hash joins reject list
        # payload columns, and raw bytes round-trip via np.frombuffer
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "sig": binary_column_from_ragged(
                sigs.reshape(-1),
                np.full(len(cu), self.n_perm, dtype=np.int64)),
            "shingles": binary_column_from_ragged(vu, cu),
        })


class Shingler:
    """Shingle-set-only stage for standalone pair verification."""

    def __init__(self, shingle_k: int = 3):
        self.k = shingle_k

    def __call__(self, batch: pa.Table) -> pa.Table:
        th, tc = tokenize_hash_batch(batch.column("text"))
        sh, sc = shingle_hash_batch(th, tc, self.k)
        vu, cu = unique_per_segment(sh, sc)
        return pa.table({
            "doc_id": batch.column("doc_id").cast(pa.int64()),
            "shingles": binary_column_from_ragged(vu, cu),
        })


def _band_rows(batch: pa.Table, n_bands: int, rows_per_band: int) -> pa.Table:
    """Banded LSH keys, vectorized: the signature matrix is viewed
    (n, n_bands, rows_per_band) and each band mixed with positional
    multipliers + avalanche — one vector pass, no per-doc loop."""
    ids = batch.column("doc_id").to_numpy()
    n = len(ids)
    mat = fixed_binary_matrix(batch.column("sig"), 8,
                              n_bands * rows_per_band)
    bands = mat.reshape(n, n_bands, rows_per_band)
    mixed = bands[:, :, 0] * POS_MULT[0]
    for j in range(1, rows_per_band):
        mixed = mixed ^ (bands[:, :, j] * POS_MULT[j % len(POS_MULT)])
    keys = (avalanche64(mixed.reshape(-1)) >> np.uint64(1)).astype(np.int64)
    return pa.table({
        "band": pa.array(np.tile(np.arange(n_bands, dtype=np.int32), n)),
        "band_hash": pa.array(keys, pa.int64()),
        "doc_id": pa.array(np.repeat(ids, n_bands), pa.int64()),
    })


_EMPTY_PAIRS = pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                             "doc_b": pd.Series([], dtype=np.int64)})


# above this bucket size, all-pairs expansion is replaced by a star on
# the smallest doc id: a degenerate band bucket (boilerplate-heavy
# corpora put thousands of near-identical docs in one bucket) would emit
# O(B²) pairs from a single group task. The star emits O(B) pairs that
# still connect the whole duplicate component (every member is verified
# against the representative by the exact-Jaccard join downstream); only
# the exhaustive pair ENUMERATION inside the cluster is dropped.
MAX_BUCKET_ALL_PAIRS = 512


def _candidate_pairs(grp: pd.DataFrame,
                     max_bucket: int = MAX_BUCKET_ALL_PAIRS) -> pd.DataFrame:
    m = len(grp)
    if m < 2:
        return _EMPTY_PAIRS
    ids = np.sort(grp["doc_id"].to_numpy())
    if m > max_bucket:
        a = np.full(m - 1, ids[0], dtype=np.int64)
        b = ids[1:]
    else:
        iu, ju = np.triu_indices(m, 1)
        a, b = ids[iu], ids[ju]
    return pd.DataFrame({"doc_a": pd.Series(a, dtype=np.int64),
                         "doc_b": pd.Series(b, dtype=np.int64)})


def _first_row(grp: pd.DataFrame) -> pd.DataFrame:
    return grp.head(1)


def _collect_sorted(ds, cols: list[str]) -> pd.DataFrame:
    """to_pandas + column-order sort, tolerating the empty-dataset case
    where Ray returns a frame with no columns at all."""
    df = ds.to_pandas()
    if df.empty and not set(cols) <= set(df.columns):
        return pd.DataFrame({c: pd.Series([], dtype=np.int64)
                             for c in cols})
    return df[cols].sort_values(cols[:2]).reset_index(drop=True)


def _binary_col_u64(col) -> tuple[np.ndarray, np.ndarray]:
    """(row counts, flat uint64 values) of a binary column whose values
    are packed uint64 arrays — one buffer view + one aligned copy, no
    per-row Python."""
    a = col.cast(pa.large_binary()).combine_chunks()
    offs = np.frombuffer(a.buffers()[1], dtype=np.int64)[
        a.offset:a.offset + len(a) + 1]
    data = (np.frombuffer(a.buffers()[2], dtype=np.uint8)
            if a.buffers()[2] is not None else np.empty(0, np.uint8))
    counts = np.diff(offs) // 8
    flat = np.frombuffer(
        data[offs[0]:offs[-1]].tobytes(), dtype=np.uint64)
    return counts.astype(np.int64), flat


def _jaccard_verify_batch(batch: pa.Table, threshold_bp: int) -> pa.Table:
    """Exact Jaccard per pair from the two attached shingle-set columns
    (sorted-unique uint64 arrays as raw bytes). Fully vectorized: one
    lexsort over (pair ordinal, value) across the whole batch counts the
    per-pair intersections — no per-pair Python loop (boilerplate-heavy
    corpora make the candidate pair list large)."""
    if batch.num_rows == 0:
        return pa.table({"doc_a": pa.array([], pa.int64()),
                         "doc_b": pa.array([], pa.int64()),
                         "jaccard_bp": pa.array([], pa.int64())})
    da = batch.column("doc_a").to_numpy()
    db = batch.column("doc_b").to_numpy()
    n = len(da)
    cnt_a, flat_a = _binary_col_u64(batch.column("shingles_a"))
    cnt_b, flat_b = _binary_col_u64(batch.column("shingles_b"))
    rows = np.concatenate([
        np.repeat(np.arange(n, dtype=np.int64), cnt_a),
        np.repeat(np.arange(n, dtype=np.int64), cnt_b)])
    vals = np.concatenate([flat_a, flat_b])
    order = np.lexsort((vals, rows))
    sv, sr = vals[order], rows[order]
    # each side is sorted-unique, so a value occurs ≤ 2× per pair: every
    # equal-adjacent (same pair) marks exactly one intersection element
    eq = (sv[1:] == sv[:-1]) & (sr[1:] == sr[:-1])
    inter = np.bincount(sr[:-1][eq], minlength=n) if len(sv) > 1 \
        else np.zeros(n, dtype=np.int64)
    union = np.maximum(cnt_a + cnt_b - inter, 1)
    bp = inter * 10000 // union
    keep = bp >= threshold_bp
    return pa.table({"doc_a": pa.array(da[keep], pa.int64()),
                     "doc_b": pa.array(db[keep], pa.int64()),
                     "jaccard_bp": pa.array(bp[keep], pa.int64())})


def _verify_pairs(pairs_ds, shingles_ds, threshold_bp: int,
                  num_partitions: int) -> pa.Table:
    """Distributed exact-Jaccard verification: hash-join candidate pairs
    against per-doc shingle sets on doc_a then doc_b (two pair-sized
    shuffles), verify vectorized per batch, collect only the final
    (output-sized) pair list."""
    # gate 0: the shingle sets are corpus-sized, so they are always
    # hash-joined and never pass through the driver
    shingles_ds = shingles_ds.materialize()  # read by both joins
    j1 = gated_join(pairs_ds, shingles_ds, ["doc_a"], ["doc_id"],
                    num_partitions=num_partitions, broadcast_gate=0)
    # the right-side key column is dropped by the join itself
    j1 = j1.rename_columns({"shingles": "shingles_a"})
    j2 = gated_join(j1, shingles_ds, ["doc_b"], ["doc_id"],
                    num_partitions=num_partitions, broadcast_gate=0)
    j2 = j2.rename_columns({"shingles": "shingles_b"})
    verified = j2.map_batches(
        lambda b: _jaccard_verify_batch(b, threshold_bp),
        batch_format="pyarrow")
    out = _collect_sorted(verified, ["doc_a", "doc_b", "jaccard_bp"])
    return pa.table({"doc_a": pa.array(out["doc_a"], pa.int64()),
                     "doc_b": pa.array(out["doc_b"], pa.int64()),
                     "jaccard_bp": pa.array(out["jaccard_bp"], pa.int64())})


def minhash_dedup(sf_dir: str, threshold_bp: int = 7000,
                  n_perm: int = 64, n_bands: int = 16,
                  num_partitions: int = 8):
    """MinHash-LSH near-dup pairs with exact Jaccard verification.
    Returns (doc_a, doc_b, jaccard_bp) for pairs ≥ threshold_bp/10000.

    Fully distributed: signatures + shingle sets in one corpus pass,
    LSH-bucket groupby for candidates, distinct-pair groupby, then the
    join-verify shuffle. Nothing corpus-sized touches the driver."""
    rows_per_band = n_perm // n_bands
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    # materialize at the DAG branch point: both the LSH-band branch and
    # the verify-join branch consume sigs; without this Ray re-executes
    # the (expensive) shingle+minhash pass once per branch. Bounded by
    # ~corpus size in the object store, which spills to disk.
    sigs = docs.map_batches(MinHasher,
                            fn_constructor_kwargs={"n_perm": n_perm},
                            batch_format="pyarrow",
                            concurrency=_pool_size(),
                            batch_size=1024).materialize()
    bands = sigs.select_columns(["doc_id", "sig"]).map_batches(
        lambda b: _band_rows(b, n_bands, rows_per_band),
        batch_format="pyarrow")
    cands = (bands.groupby(["band", "band_hash"])
             .map_groups(_candidate_pairs, batch_format="pandas"))
    # a pair colliding in several bands appears once per band → distinct
    pairs = (cands.groupby(["doc_a", "doc_b"])
             .map_groups(_first_row, batch_format="pandas"))
    shingles = sigs.select_columns(["doc_id", "shingles"])
    return _verify_pairs(pairs, shingles, threshold_bp, num_partitions)


# ---------------------------------------------------------------------------
def simhash_batch(batch: pa.Table) -> pa.Table:
    """64-bit SimHash per doc over unique unigram token hashes,
    vectorized: one Arrow tokenize+hash pass for the whole batch, then
    per-bit segmented sums (np.add.reduceat over the flat unique-token
    array) — no per-doc or per-token Python."""
    n = batch.num_rows
    th, tc = tokenize_hash_batch(batch.column("text"))
    hu, cu = unique_per_segment(th, tc)
    out = np.zeros(n, dtype=np.uint64)
    nonzero = cu > 0
    if nonzero.any():
        bounds = np.concatenate(([0], np.cumsum(cu)))[:-1][nonzero]
        byte_mat = hu.view(np.uint8).reshape(-1, 8)
        acc = np.empty((int(nonzero.sum()), 64), dtype=np.int64)
        for byte_i in range(8):  # 8 bytes × 8 bits, memory-bounded
            bits = np.unpackbits(byte_mat[:, byte_i:byte_i + 1], axis=1,
                                 bitorder="little").astype(np.int64)
            acc[:, byte_i * 8:(byte_i + 1) * 8] = np.add.reduceat(
                2 * bits - 1, bounds, axis=0)
        sig = ((acc > 0).astype(np.uint64)
               << np.arange(64, dtype=np.uint64)).sum(axis=1,
                                                      dtype=np.uint64)
        out[nonzero] = sig
    return pa.table({
        "doc_id": batch.column("doc_id").cast(pa.int64()),
        "simhash": pa.array(out.view(np.int64), pa.int64()),
    })


def _simhash_band_rows(batch: pa.Table) -> pa.Table:
    """Explode each signature into 4×16-bit band keys; the signature
    rides along so verification happens inside the bucket group."""
    ids = batch.column("doc_id").to_numpy()
    sim = batch.column("simhash").to_numpy().view(np.uint64)
    n = len(ids)
    bands = np.repeat(np.arange(4, dtype=np.int32), n)
    keys = np.concatenate([
        ((sim >> np.uint64(band * 16)) & np.uint64(0xFFFF)).astype(np.int64)
        for band in range(4)])
    return pa.table({
        "band": pa.array(bands, pa.int32()),
        "key": pa.array(keys, pa.int64()),
        "doc_id": pa.array(np.tile(ids, 4), pa.int64()),
        "simhash": pa.array(np.tile(sim.view(np.int64), 4), pa.int64()),
    })


_EMPTY_HAMMING = pd.DataFrame({"doc_a": pd.Series([], dtype=np.int64),
                               "doc_b": pd.Series([], dtype=np.int64),
                               "hamming": pd.Series([], dtype=np.int64)})


def _simhash_group_pairs(grp: pd.DataFrame, max_hamming: int) -> pd.DataFrame:
    """Hamming-verified pairs within one (band, key) bucket."""
    if len(grp) < 2:
        return _EMPTY_HAMMING
    g = grp.sort_values("doc_id")
    ids = g["doc_id"].to_numpy()
    sim = g["simhash"].to_numpy().view(np.uint64)
    m = len(ids)
    iu, ju = np.triu_indices(m, 1)
    xor = sim[iu] ^ sim[ju]
    ham = np.unpackbits(xor.view(np.uint8).reshape(-1, 8),
                        axis=1).sum(axis=1).astype(np.int64)
    keep = (ham <= max_hamming) & (ids[iu] != ids[ju])
    return pd.DataFrame({
        "doc_a": pd.Series(np.minimum(ids[iu][keep], ids[ju][keep]),
                           dtype=np.int64),
        "doc_b": pd.Series(np.maximum(ids[iu][keep], ids[ju][keep]),
                           dtype=np.int64),
        "hamming": pd.Series(ham[keep], dtype=np.int64),
    })


def simhash_dedup(sf_dir: str, max_hamming: int = 3):
    """SimHash near-dup pairs: 4×16-bit band buckets via groupby, Hamming
    verified inside each bucket group (the signature travels with the band
    row), then a distinct-pair groupby. No driver-side bucketing."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    sigs = docs.map_batches(simhash_batch, batch_format="pyarrow")
    bands = sigs.map_batches(_simhash_band_rows, batch_format="pyarrow")
    pairs = (bands.groupby(["band", "key"])
             .map_groups(lambda g: _simhash_group_pairs(g, max_hamming),
                         batch_format="pandas"))
    distinct = (pairs.groupby(["doc_a", "doc_b"])
                .map_groups(_first_row, batch_format="pandas"))
    out = _collect_sorted(distinct, ["doc_a", "doc_b", "hamming"])
    return pa.table({
        "doc_a": pa.array(out["doc_a"], pa.int64()),
        "doc_b": pa.array(out["doc_b"], pa.int64()),
        "hamming": pa.array(out["hamming"], pa.int64()),
    })


# ---------------------------------------------------------------------------
def ngram_jaccard(sf_dir: str, pairs=None, k: int = 3,
                  num_partitions: int = 8):
    """Exact n-gram Jaccard for given (or all-LSH-candidate) doc pairs,
    via the same distributed join-verify path."""
    import ray.data

    if pairs is None:
        mh = minhash_dedup(sf_dir, threshold_bp=0)
        return mh  # all verified candidates with their jaccard_bp
    pairs_tbl = pa.table({
        "doc_a": pa.array([int(a) for a, _ in pairs], pa.int64()),
        "doc_b": pa.array([int(b) for _, b in pairs], pa.int64()),
    })
    pairs_ds = ray.data.from_arrow(pairs_tbl)
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    shingles = docs.map_batches(
        Shingler(k), batch_format="pyarrow", batch_size=1024)
    return _verify_pairs(pairs_ds, shingles, 0, num_partitions)


def ngram_jaccard_consecutive(sf_dir: str, k: int = 3,
                              num_partitions: int = 8):
    """Exact n-gram Jaccard for every consecutive doc-id pair
    (doc_id, doc_id+1) — a deterministic, SQL-checkable slice of the
    pair-verify path (the inner join against the shingle sets drops the
    one pair whose doc_b doesn't exist). Jaccard over 64-bit shingle
    hashes equals Jaccard over the n-gram strings themselves absent an
    FNV collision, which the DuckDB oracle (``SQL_NGRAM_JACCARD``)
    cross-checks end to end."""
    import ray.data  # noqa: F401

    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def mk_pairs(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        ids = b.column("doc_id").cast(pa.int64())
        return pa.table({"doc_a": ids, "doc_b": pc.add(ids, 1)})

    pairs_ds = docs.select_columns(["doc_id"]).map_batches(
        mk_pairs, batch_format="pyarrow")
    shingles = docs.map_batches(
        Shingler(k), batch_format="pyarrow", batch_size=1024)
    return _verify_pairs(pairs_ds, shingles, 0, num_partitions)


# DuckDB oracle for ngram_jaccard_consecutive: distinct 3-token-window
# shingle strings per doc (short docs fall back to one whole-doc
# shingle, mirroring shingle_hash_batch), intersection via equi-join,
# jaccard in integer basis points (i * 10000 // union).
def ngram_jaccard_sql(pairs_cte: str) -> str:
    """The n-gram-Jaccard oracle parameterized by its pair list (a SQL
    select yielding (doc_a, doc_b)) — shared by the consecutive-pair
    operator and the fixed-pair-list ngram_jaccard entry."""
    return SQL_NGRAM_JACCARD.replace(_CONSECUTIVE_PAIRS, pairs_cte)


_CONSECUTIVE_PAIRS = """SELECT d1.doc_id AS doc_a, d1.doc_id + 1 AS doc_b
          FROM documents d1 JOIN documents d2
            ON d2.doc_id = d1.doc_id + 1"""

SQL_NGRAM_JACCARD = r"""
WITH t AS (SELECT doc_id,
             string_split_regex(trim(lower(text)), '\s+') AS toks
           FROM documents),
shing AS (
  SELECT doc_id, UNNEST(
    CASE WHEN len(toks) < 3 THEN [array_to_string(toks, ' ')]
         ELSE [array_to_string(toks[i:i+2], ' ')
               FOR i IN range(1, len(toks) - 1)]
    END) AS sh
  FROM t),
a AS (SELECT DISTINCT doc_id, sh FROM shing),
sizes AS (SELECT doc_id, COUNT(*) AS n FROM a GROUP BY doc_id),
pairs AS (SELECT d1.doc_id AS doc_a, d1.doc_id + 1 AS doc_b
          FROM documents d1 JOIN documents d2
            ON d2.doc_id = d1.doc_id + 1),
inter AS (SELECT p.doc_a, p.doc_b, COUNT(*) AS i
          FROM pairs p
          JOIN a sa ON sa.doc_id = p.doc_a
          JOIN a sb ON sb.doc_id = p.doc_b AND sb.sh = sa.sh
          GROUP BY p.doc_a, p.doc_b)
SELECT p.doc_a AS doc_a, p.doc_b AS doc_b,
       CAST(COALESCE(i.i, 0) * 10000
            // (na.n + nb.n - COALESCE(i.i, 0)) AS BIGINT) AS jaccard_bp
FROM pairs p
JOIN sizes na ON na.doc_id = p.doc_a
JOIN sizes nb ON nb.doc_id = p.doc_b
LEFT JOIN inter i ON i.doc_a = p.doc_a AND i.doc_b = p.doc_b
ORDER BY p.doc_a, p.doc_b
"""


# ---------------------------------------------------------------------------
class HyperplaneBucketer:
    """Stateful actor stage: seeded random hyperplanes initialized once
    (lazily, from the first batch's embedding dim), then per-batch unit
    normalization + sign-bit bucket keys."""

    def __init__(self, n_planes: int = 12, seed: int = 42):
        self.n_planes = n_planes
        self.seed = seed
        self.planes = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy()
        emb_col = batch.column("embedding").combine_chunks()
        dim = len(emb_col.values) // max(len(emb_col), 1)
        emb = emb_col.values.to_numpy(
            zero_copy_only=False).astype(np.float64).reshape(len(ids), dim)
        if self.planes is None:
            rng = np.random.default_rng(self.seed)
            self.planes = rng.standard_normal((self.n_planes, dim))
        norms = np.linalg.norm(emb, axis=1)
        norms[norms == 0] = 1.0
        unit = emb / norms[:, None]
        keys = ((unit @ self.planes.T) > 0).astype(np.uint64)
        bucket = (keys << np.arange(self.n_planes,
                                    dtype=np.uint64)).sum(axis=1)
        return pa.table({
            "bucket": pa.array(bucket.view(np.int64), pa.int64()),
            "vec_id": pa.array(ids, pa.int64()),
            "unit": pa.array(list(unit), pa.list_(pa.float64())),
        })


_EMPTY_COS = pd.DataFrame({"vec_a": pd.Series([], dtype=np.int64),
                           "vec_b": pd.Series([], dtype=np.int64),
                           "cos_bp": pd.Series([], dtype=np.int64)})


def _cos_pairs_group(grp: pd.DataFrame, threshold_bp: int) -> pd.DataFrame:
    """All pairs with cosine ≥ threshold inside one hyperplane bucket."""
    if len(grp) < 2:
        return _EMPTY_COS
    g = grp.sort_values("vec_id")
    ids = g["vec_id"].to_numpy()
    unit = np.stack(g["unit"].to_numpy())
    cos = unit @ unit.T
    iu, ju = np.triu_indices(len(ids), 1)
    bp = np.floor(cos[iu, ju] * 10000).astype(np.int64)
    keep = bp >= threshold_bp
    return pd.DataFrame({
        "vec_a": pd.Series(ids[iu][keep], dtype=np.int64),
        "vec_b": pd.Series(ids[ju][keep], dtype=np.int64),
        "cos_bp": pd.Series(bp[keep], dtype=np.int64),
    })


def embedding_neardup(sf_dir: str, threshold_bp: int = 9500,
                      n_planes: int = 12, seed: int = 42):
    """Embedding-cosine near-dup pairs via random-hyperplane buckets.

    Ray pipeline end-to-end: read → stateful bucketer actor stage →
    groupby(bucket) → within-bucket pairwise cosine in map_groups. Each
    vector lands in exactly one bucket, so pairs are already distinct."""
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    keyed = ds.map_batches(
        HyperplaneBucketer,
        fn_constructor_kwargs={"n_planes": n_planes, "seed": seed},
        batch_format="pyarrow", batch_size=2048, concurrency=_pool_size())
    pairs = (keyed.groupby("bucket")
             .map_groups(lambda g: _cos_pairs_group(g, threshold_bp),
                         batch_format="pandas"))
    out = _collect_sorted(pairs, ["vec_a", "vec_b", "cos_bp"])
    return pa.table({
        "vec_a": pa.array(out["vec_a"], pa.int64()),
        "vec_b": pa.array(out["vec_b"], pa.int64()),
        "cos_bp": pa.array(out["cos_bp"], pa.int64()),
    })


# ---------------------------------------------------------------------------
# Signature-level oracle surfaces: the full hashing kernels (FNV-1a,
# shingle mix + avalanche, SimHash majority, MinHash permutations) are
# deterministic integer arithmetic, so they're cross-checked bit-exactly
# against pure-SQL DuckDB renditions (functions/sql_hash.py).
# ---------------------------------------------------------------------------
def simhash_signatures(sf_dir: str):
    """Per-doc 64-bit SimHash signatures (doc_id, simhash int64-view)."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return docs.map_batches(simhash_batch, batch_format="pyarrow",
                            batch_size=1024)


def minhash_signatures(sf_dir: str, n_perm: int = 64,
                       shingle_k: int = 3, seed: int = 42):
    """Per-doc MinHash signatures in long form (doc_id, perm, sig):
    one row per permutation, values int64-viewed uint64."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pa.Table:
        out = MinHasher(n_perm, shingle_k, seed)(batch)
        ids = out.column("doc_id").to_numpy()
        sig_buf = b"".join(out.column("sig").to_pylist())
        sigs = np.frombuffer(sig_buf, dtype=np.uint64).reshape(
            len(ids), n_perm)
        return pa.table({
            "doc_id": pa.array(np.repeat(ids, n_perm), pa.int64()),
            "perm": pa.array(np.tile(np.arange(n_perm, dtype=np.int64),
                                     len(ids)), pa.int64()),
            "sig": pa.array(sigs.reshape(-1).view(np.int64), pa.int64()),
        })

    return docs.map_batches(explode, batch_format="pyarrow",
                            batch_size=1024)
