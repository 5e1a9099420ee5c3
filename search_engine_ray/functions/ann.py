"""Similarity search over the embeddings table.

- ``ann_topk``: brute-force cosine top-k — the exact baseline. The query
  matrix is broadcast once (ray.put); each batch does one float64 matmul;
  per-batch top-k partials are merged on the driver (k rows per batch cross
  the wire, not the corpus).
- ``ann_topk_lsh``: the scale path — random-hyperplane LSH bucketing; only
  candidate buckets are scanned. Recall checked against brute force in
  tests/test_ann.py.
- ``ann_topk_ivf`` / ``ann_topk_ivfpq``: k-means partitions; a query
  scans only its nprobe nearest ones.

All four rank through one merge (``_merge_topk``: sim desc, vec_id asc,
each vec_id once); the exact, LSH and IVF scans are one per-batch
top-k scan (``_cosine_topk``) over different inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa

import ray

from ..pipelines.datasets import read_table

K_DEFAULT = 10


def _query_vector(sf_dir: str, vec_id: int = 0) -> np.ndarray:
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    idx = t.column("vec_id").to_pylist().index(vec_id)
    return np.asarray(t.column("embedding")[idx].as_py(), dtype=np.float64)


def _batch_sims(b: pa.Table, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ids, emb = _emb_matrix(b)  # zero-copy list<float> → (n, dim) matrix
    norms = np.linalg.norm(emb, axis=1)
    qn = np.linalg.norm(q)
    sims = emb @ q / np.where(norms * qn == 0.0, 1.0, norms * qn)
    return ids, sims


def _merge_topk(rows: list[dict], k: int) -> pa.Table:
    """(rank, vec_id) of the k best (vec_id, sim) partial rows by (sim
    desc, vec_id asc), each vec_id once; rank is 1-based."""
    ids = np.array([r["vec_id"] for r in rows], dtype=np.int64)
    sims = np.array([r["sim"] for r in rows], dtype=np.float64)
    order = np.lexsort((ids, -sims))
    _, first = np.unique(ids[order], return_index=True)
    top = ids[order[np.sort(first)]][:k]
    return pa.table({"rank": pa.array(np.arange(1, len(top) + 1),
                                      pa.int64()),
                     "vec_id": pa.array(top, pa.int64())})


def _cosine_topk(ds, q: np.ndarray, k: int) -> pa.Table:
    """Cosine top-k of ``q`` over ``ds`` (vec_id, embedding): per-batch
    top-k partials (k rows per batch cross the wire, not the corpus)
    and one merge on the driver."""
    q_ref = ray.put(q)

    def partial(b: pa.Table) -> pa.Table:
        ids, sims = _batch_sims(b, ray.get(q_ref))
        # an LSH vector stored under several tables' buckets can appear
        # more than once in a batch — dedup BEFORE the per-batch top-k,
        # or the duplicates crowd real candidates out of the k slots and
        # the merged result comes up short of k
        ids, first = np.unique(ids, return_index=True)
        sims = sims[first]
        order = np.lexsort((ids, -sims))[:k]
        return pa.table({"vec_id": pa.array(ids[order], pa.int64()),
                         "sim": pa.array(sims[order], pa.float64())})

    return _merge_topk(ds.map_batches(partial, batch_format="pyarrow",
                                      batch_size=4096).take_all(), k)


def _part_paths(index_dir: str, key: str, value: int) -> list[str]:
    """The parquet files of the ``key=value`` partition, if any."""
    d = os.path.join(index_dir, f"{key}={value}")
    if not os.path.isdir(d):
        return []
    return [os.path.join(d, f) for f in sorted(os.listdir(d))
            if f.endswith(".parquet")]


def ann_topk(sf_dir: str, k: int = K_DEFAULT, query_vec_id: int = 0):
    """Exact cosine top-k; returns (rank, vec_id), rank 1-based, ties broken
    by vec_id ascending (same tiebreak as the SQL oracle)."""
    return _cosine_topk(
        read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"]),
        _query_vector(sf_dir, query_vec_id), k)


SQL_ANN_TOPK = """
WITH q AS (SELECT list_transform(embedding, x -> CAST(x AS DOUBLE)) AS qv
           FROM embeddings WHERE vec_id = 0)
SELECT CAST(row_number() OVER (
         ORDER BY list_cosine_similarity(
           list_transform(embedding, x -> CAST(x AS DOUBLE)),
           (SELECT qv FROM q)) DESC, vec_id) AS BIGINT) AS rank,
       vec_id
FROM embeddings
ORDER BY rank LIMIT 10
"""


# ---------------------------------------------------------------------------
# Persisted LSH index: the bucket key is a PARTITION column, so a query
# reads only its buckets' directories (path-level partition pruning) —
# sub-linear scan instead of an O(corpus) pass per query.
# ---------------------------------------------------------------------------

def _lsh_keys(emb: np.ndarray, planes: np.ndarray) -> np.ndarray:
    """(n_rows, n_tables) int keys: table_id*256 + first-8-bit signature."""
    n_tables = planes.shape[0]
    keys = np.empty((emb.shape[0], n_tables), dtype=np.int64)
    for t in range(n_tables):
        sig = (emb @ planes[t].T > 0).astype(np.uint8)
        keys[:, t] = t * 256 + np.packbits(sig[:, :8], axis=1)[:, 0]
    return keys


def _lsh_planes(n_tables: int, n_planes: int, dim: int,
                seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(
        (n_tables, n_planes, dim))


def _index_dir(sf_dir: str, root: str, kind: str,
               cfg: dict) -> tuple[str, dict]:
    """(``root/<kind>_<corpus>_<hash>``, ``cfg`` + corpus fingerprint):
    the cache key holds the embeddings file's size and mtime, so an
    in-place corpus change invalidates the index."""
    st = os.stat(f"{sf_dir}/embeddings.parquet")
    cfg = {**cfg, "src_size": st.st_size, "src_mtime_ns": st.st_mtime_ns}
    h = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
    return os.path.join(root, f"{kind}_{os.path.basename(sf_dir)}_{h}"), cfg


def _publish(out: str, cfg: dict, write,
             arrays: dict[str, np.ndarray] | None = None) -> str:
    """Replace ``out`` atomically: ``write(tmp)`` fills a temp dir, the
    ``.npy`` ``arrays`` and the ``_SUCCESS`` marker (``cfg``) are written
    INSIDE it, and only then does it replace ``out`` — a published dir
    never lacks its marker."""
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    write(tmp)
    for name, a in (arrays or {}).items():
        np.save(os.path.join(tmp, name), a)
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        json.dump(cfg, f)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out


def build_ann_lsh_index(sf_dir: str, n_planes: int = 8, n_tables: int = 4,
                        seed: int = 42,
                        root: str = "/tmp/search_engine_ray") -> str:
    """One-time build: every vector is written under each of its
    n_tables bucket directories (hive partition key=<table*256+sig8>).
    Cached keyed by a corpus fingerprint (size+mtime) + config so an
    in-place corpus change invalidates the index."""
    out, cfg = _index_dir(sf_dir, root, "ann", {
        "n_planes": n_planes, "n_tables": n_tables, "seed": seed,
        "version": 2})
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    first = ds.take(1)[0]
    dim = len(first["embedding"])
    planes_ref = ray.put(_lsh_planes(n_tables, n_planes, dim, seed))

    def keyed(b: pa.Table) -> pa.Table:
        pl = ray.get(planes_ref)
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        emb = np.asarray(b.column("embedding").to_pylist(),
                         dtype=np.float64)
        keys = _lsh_keys(emb, pl)  # (n, n_tables)
        n, nt = keys.shape
        return pa.table({
            "key": pa.array(keys.T.reshape(-1), pa.int32()),
            "vec_id": pa.array(np.tile(ids, nt), pa.int64()),
            "embedding": pa.concat_arrays(
                [b.column("embedding").combine_chunks()] * nt),
        })

    # sort by key before the partitioned write so each bucket directory
    # gets contiguous blocks (unsorted partitioned writes explode into
    # blocks × partitions files)
    return _publish(out, cfg, lambda tmp: (
        ds.map_batches(keyed, batch_format="pyarrow", batch_size=4096)
          .sort("key").write_parquet(tmp, partition_cols=["key"])))


def ann_topk_lsh(sf_dir: str, k: int = K_DEFAULT, query_vec_id: int = 0,
                 n_planes: int = 8, n_tables: int = 4, seed: int = 42):
    """LSH-bucketed ANN over the persisted bucket-partitioned index:
    compute the query's n_tables bucket keys, read ONLY those partition
    directories, brute-force cosine within them. Same candidate set (and
    results) as hashing on the fly — without the corpus scan."""
    import ray.data as rd

    index_dir = build_ann_lsh_index(sf_dir, n_planes=n_planes,
                                    n_tables=n_tables, seed=seed)
    q = _query_vector(sf_dir, query_vec_id)
    planes = _lsh_planes(n_tables, n_planes, len(q), seed)
    q_keys = sorted(set(_lsh_keys(q[None, :], planes)[0].tolist()))
    paths = [p for key in q_keys
             for p in _part_paths(index_dir, "key", key)]
    if not paths:
        return _merge_topk([], k)
    # a vector can appear under several tables' buckets: the merge
    # keeps each vec_id once
    return _cosine_topk(rd.read_parquet(paths), q, k)


# ---------------------------------------------------------------------------
# IVF index: k-means centroids → centroid-partitioned storage → a query
# scans only its nprobe nearest centroids' directories. The brief's "IVF
# variant as the scale path" alongside the LSH index above.
# ---------------------------------------------------------------------------

def _emb_matrix(b: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = b.column("vec_id").to_numpy(zero_copy_only=False)
    col = b.column("embedding").combine_chunks()
    dim = len(col.values) // max(len(col), 1)
    emb = col.values.to_numpy(zero_copy_only=False).astype(
        np.float64).reshape(len(ids), dim)
    return ids, emb


def _kmeans_centroids(sf_dir: str, n_centroids: int, n_iter: int
                      ) -> np.ndarray:
    """Distributed Lloyd iterations: per-batch assignment + partial
    (sum, count) per centroid; the driver reduces n_centroids × dim
    floats per pass. Init = the n_centroids lowest vec_ids
    (deterministic)."""
    import ray.data as rd

    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    # init = the n_centroids lowest vec_ids, found with a per-batch
    # min-k partial + driver merge (n_centroids rows per batch cross the
    # wire) — NOT a distributed sort of the whole corpus for 16 rows

    def _mink(b: pa.Table) -> pa.Table:
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        keep = np.argsort(ids, kind="stable")[:n_centroids]
        return b.take(pa.array(keep.astype(np.int64)))

    first = (ds.map_batches(_mink, batch_format="pyarrow",
                            batch_size=8192).to_pandas()
             .sort_values("vec_id").head(n_centroids))
    cents = np.stack([np.asarray(v, dtype=np.float64)
                      for v in first["embedding"]])
    for _ in range(n_iter):
        c_ref = ray.put(cents)

        def partial(b: pa.Table) -> pa.Table:
            c = ray.get(c_ref)
            _ids, emb = _emb_matrix(b)
            d = ((emb[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
            assign = d.argmin(axis=1)
            k, dim = c.shape
            sums = np.zeros((k, dim))
            np.add.at(sums, assign, emb)
            counts = np.bincount(assign, minlength=k)
            return pa.table({
                "cid": pa.array(np.arange(k), pa.int32()),
                "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                "cnt": pa.array(counts, pa.int64()),
            })

        parts = ds.map_batches(partial, batch_format="pyarrow",
                               batch_size=4096).to_pandas()
        k, dim = cents.shape
        sums = np.zeros((k, dim))
        counts = np.zeros(k)
        for cid, vsum, cnt in zip(parts["cid"], parts["vsum"],
                                  parts["cnt"]):
            sums[cid] += np.asarray(vsum)
            counts[cid] += cnt
        nonzero = counts > 0
        cents[nonzero] = sums[nonzero] / counts[nonzero, None]
    return cents


def build_ann_ivf_index(sf_dir: str, n_centroids: int = 16,
                        n_iter: int = 5,
                        root: str = "/tmp/search_engine_ray") -> str:
    """Centroid-partitioned IVF index, cached by corpus fingerprint."""
    import ray.data as rd

    out, cfg = _index_dir(sf_dir, root, "ivf", {
        "n_centroids": n_centroids, "n_iter": n_iter, "version": 1})
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out

    cents = _kmeans_centroids(sf_dir, n_centroids, n_iter)
    c_ref = ray.put(cents)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def assign(b: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        ids, emb = _emb_matrix(b)
        d = ((emb[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        return pa.table({
            "cid": pa.array(d.argmin(axis=1).astype(np.int32), pa.int32()),
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": b.column("embedding"),
        })

    return _publish(out, cfg, lambda tmp: (
        ds.map_batches(assign, batch_format="pyarrow", batch_size=4096)
          .sort("cid").write_parquet(tmp, partition_cols=["cid"])),
        {"_centroids.npy": cents})


def ann_topk_ivf(sf_dir: str, k: int = K_DEFAULT, query_vec_id: int = 0,
                 n_centroids: int = 16, nprobe: int = 4):
    """IVF ANN: scan only the nprobe centroids nearest the query."""
    import ray.data as rd

    index_dir = build_ann_ivf_index(sf_dir, n_centroids=n_centroids)
    cents = np.load(os.path.join(index_dir, "_centroids.npy"))
    q = _query_vector(sf_dir, query_vec_id)
    d = ((cents - q[None, :]) ** 2).sum(axis=1)
    probe = np.argsort(d, kind="stable")[:nprobe]
    paths = [p for cid in probe
             for p in _part_paths(index_dir, "cid", int(cid))]
    if not paths:
        return _merge_topk([], k)
    return _cosine_topk(rd.read_parquet(paths), q, k)


# ---------------------------------------------------------------------------
# IVF-PQ: product quantization on top of the IVF coarse partitioning —
# the memory-scale path. The candidate scan reads ONLY the m_sub uint8
# code columns (8 bytes/vector at the defaults vs 256 for raw float32 —
# a 32× scan-size reduction; Parquet column pruning makes the saving
# real I/O, not just RAM), ranks candidates by asymmetric distance
# (per-subspace lookup tables against the query residual), then reranks
# a small candidate pool with exact cosine over the raw vectors.
# Codebooks are trained FAISS-style on a bounded deterministic sample
# (the residual distribution, not the corpus, is what PQ models — a
# ~100k-vector sample suffices at any corpus scale).
# ---------------------------------------------------------------------------

def _kmeans_np(x: np.ndarray, n_codes: int, n_iter: int) -> np.ndarray:
    """Deterministic driver-side k-means for PQ codebooks (runs on the
    bounded training sample only). Init: evenly spaced sample rows."""
    n = x.shape[0]
    n_codes = min(n_codes, n)
    cents = x[np.linspace(0, n - 1, n_codes).astype(np.int64)].copy()
    for _ in range(n_iter):
        d = ((x[:, None, :] - cents[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        sums = np.zeros_like(cents)
        np.add.at(sums, assign, x)
        counts = np.bincount(assign, minlength=n_codes)
        nz = counts > 0
        cents[nz] = sums[nz] / counts[nz, None]
    return cents


def _pq_encode(res: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m_sub) uint8 codes: per-subspace nearest codebook entry."""
    m_sub, _, dsub = books.shape
    codes = np.empty((res.shape[0], m_sub), dtype=np.uint8)
    for j in range(m_sub):
        sub = res[:, j * dsub:(j + 1) * dsub]
        d = ((sub[:, None, :] - books[j][None, :, :]) ** 2).sum(axis=2)
        codes[:, j] = d.argmin(axis=1).astype(np.uint8)
    return codes


def build_ann_ivfpq_index(sf_dir: str, n_centroids: int = 16,
                          n_iter: int = 5, m_sub: int = 8,
                          n_codes: int = 256, sample_cap: int = 100_000,
                          root: str = "/tmp/search_engine_ray") -> str:
    """IVF-PQ index build: coarse k-means (distributed, reused from the
    IVF path) → bounded-sample residual collection → driver codebook
    training → one distributed encode pass writing centroid-partitioned
    (vec_id, c0..c{m-1}, embedding) — codes for the ADC scan, raw
    embeddings co-located for the rerank read. Cached by corpus
    fingerprint + config."""
    out, cfg = _index_dir(sf_dir, root, "ivfpq", {
        "n_centroids": n_centroids, "n_iter": n_iter, "m_sub": m_sub,
        "n_codes": n_codes, "sample_cap": sample_cap, "version": 2})
    if os.path.exists(os.path.join(out, "_SUCCESS")):
        return out

    cents = _kmeans_centroids(sf_dir, n_centroids, n_iter)
    c_ref = ray.put(cents)
    ds = read_table(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    n_vecs = ds.count()
    # deterministic bounded sample for codebook training: every
    # sample_mod-th vec_id; at 10^12 vectors sample_mod grows so the
    # driver never sees more than sample_cap residuals
    sample_mod = max(1, n_vecs // sample_cap)

    def residual_sample(b: pa.Table) -> pa.Table:
        ids, emb = _emb_matrix(b)
        keep = ids % sample_mod == 0
        if not keep.any():
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "res": pa.array([], pa.list_(pa.float64()))})
        c = ray.get(c_ref)
        emb = emb[keep]
        d = ((emb[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        res = emb - c[d.argmin(axis=1)]
        return pa.table({"vec_id": pa.array(ids[keep], pa.int64()),
                         "res": pa.array(list(res),
                                         pa.list_(pa.float64()))})

    sample = (ds.map_batches(residual_sample, batch_format="pyarrow",
                             batch_size=4096).to_pandas()
              .sort_values("vec_id"))
    res = np.stack([np.asarray(v) for v in sample["res"]])
    dim = res.shape[1]
    if dim % m_sub:
        raise ValueError(f"dim {dim} not divisible by m_sub {m_sub}")
    dsub = dim // m_sub
    books = np.stack([
        _kmeans_np(res[:, j * dsub:(j + 1) * dsub], n_codes, 8)
        for j in range(m_sub)])
    b_ref = ray.put(books)

    def encode(b: pa.Table) -> pa.Table:
        c = ray.get(c_ref)
        bk = ray.get(b_ref)
        ids, emb = _emb_matrix(b)
        d = ((emb[:, None, :] - c[None, :, :]) ** 2).sum(axis=2)
        assign = d.argmin(axis=1)
        codes = _pq_encode(emb - c[assign], bk)
        cols = {
            "cid": pa.array(assign.astype(np.int32), pa.int32()),
            "vec_id": pa.array(ids, pa.int64()),
        }
        for j in range(codes.shape[1]):
            cols[f"c{j}"] = pa.array(codes[:, j], pa.uint8())
        cols["embedding"] = b.column("embedding")
        return pa.table(cols)

    # sort by (cid, vec_id): vec_id-ordered rows inside each partition
    # give the parquet row groups disjoint vec_id ranges, so the rerank
    # scan's vec_id filter prunes at row-group granularity (bounded
    # bytes read per candidate); row_group_size bounds the granularity
    return _publish(out, cfg, lambda tmp: (
        ds.map_batches(encode, batch_format="pyarrow", batch_size=4096)
          .sort(["cid", "vec_id"]).write_parquet(
              tmp, partition_cols=["cid"], row_group_size=4096)),
        {"_centroids.npy": cents, "_codebooks.npy": books})


def ann_topk_ivfpq(sf_dir: str, k: int = K_DEFAULT, query_vec_id: int = 0,
                   n_centroids: int = 16, nprobe: int = 4,
                   m_sub: int = 8, rerank: int = 100):
    """IVF-PQ ANN: probe the nprobe nearest coarse centroids, ADC-scan
    ONLY their code columns (per-partition lookup tables against the
    query residual), keep the best `rerank` candidates by approximate
    distance, then exact-cosine rerank those candidates from the
    co-located raw vectors. Returns (rank, vec_id) like ann_topk."""
    import ray.data as rd

    index_dir = build_ann_ivfpq_index(sf_dir, n_centroids=n_centroids,
                                      m_sub=m_sub)
    cents = np.load(os.path.join(index_dir, "_centroids.npy"))
    books = np.load(os.path.join(index_dir, "_codebooks.npy"))
    q = _query_vector(sf_dir, query_vec_id)
    d = ((cents - q[None, :]) ** 2).sum(axis=1)
    probe = np.argsort(d, kind="stable")[:nprobe]
    m, n_codes, dsub = books.shape
    code_cols = [f"c{j}" for j in range(m)]

    # one ADC dataset per probed centroid (each partition has its own
    # residual basis → its own lookup table), unioned lazily so the
    # whole probe executes as one streaming pipeline
    parts = []
    for cid in probe:
        paths = _part_paths(index_dir, "cid", int(cid))
        if not paths:
            continue
        q_res = q - cents[int(cid)]
        lut = np.stack([
            ((books[j] - q_res[j * dsub:(j + 1) * dsub][None, :]) ** 2)
            .sum(axis=1) for j in range(m)])  # (m, n_codes)
        lut_ref = ray.put(lut)

        def adc(b: pa.Table, _r=lut_ref) -> pa.Table:
            tl = ray.get(_r)
            ids = b.column("vec_id").to_numpy(zero_copy_only=False)
            dist = np.zeros(len(ids))
            for j, cc in enumerate(code_cols):
                dist += tl[j][b.column(cc).to_numpy(zero_copy_only=False)]
            order = np.lexsort((ids, dist))[:rerank]
            return pa.table({
                "vec_id": pa.array(ids[order], pa.int64()),
                "adist": pa.array(dist[order], pa.float64()),
            })

        parts.append(
            rd.read_parquet(paths, columns=["vec_id"] + code_cols)
            .map_batches(adc, batch_format="pyarrow", batch_size=4096))
    if not parts:
        return _merge_topk([], k)
    cand_ds = parts[0] if len(parts) == 1 else parts[0].union(*parts[1:])
    partials = cand_ds.take_all()
    partials.sort(key=lambda r: (r["adist"], r["vec_id"]))
    cand_ids = np.array(sorted({int(r["vec_id"])
                                for r in partials[:rerank]}),
                        dtype=np.int64)
    if not len(cand_ids):  # probed partitions can be empty
        return _merge_topk([], k)
    cand_ref = ray.put(cand_ids)
    q_ref = ray.put(q)

    def exact(b: pa.Table) -> pa.Table:
        # safety re-filter behind the scan-level pushdown (a no-op when
        # the filter already pruned exactly); guards the empty case too
        cand = ray.get(cand_ref)
        ids = b.column("vec_id").to_numpy(zero_copy_only=False)
        if not len(cand) or not len(ids):
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        pos = np.searchsorted(cand, ids)
        pos[pos == len(cand)] = 0
        b = b.filter(pa.array(cand[pos] == ids))
        if b.num_rows == 0:
            return pa.table({"vec_id": pa.array([], pa.int64()),
                             "sim": pa.array([], pa.float64())})
        ids, sims = _batch_sims(b, ray.get(q_ref))
        return pa.table({"vec_id": pa.array(ids, pa.int64()),
                         "sim": pa.array(sims, pa.float64())})

    # rerank scan reads ONLY the candidates: the vec_id isin filter is
    # pushed into the parquet scan, and the index is written vec_id-
    # sorted per partition with bounded row groups, so bytes read are
    # O(candidate row groups), not O(probed-partition rows)
    import pyarrow.dataset as pads
    rerank_paths = [p for cid in probe
                    for p in _part_paths(index_dir, "cid", int(cid))]
    scored = (rd.read_parquet(rerank_paths,
                              columns=["vec_id", "embedding"],
                              filter=pads.field("vec_id").isin(
                                  pa.array(cand_ids)))
              .map_batches(exact, batch_format="pyarrow",
                           batch_size=4096).take_all())
    return _merge_topk(scored, k)
