"""Index build pipeline: pages → parsed docs → doc-sharded posting-list
segments, checkpoint-resumable with a manifest.

Ray-Data-first rebuild of the reference ingest path (SURVEY.md §3.1):

    read pages (or synthesize from documents)
      → exact url-dedup (8-byte-hash count pass + broadcast filter; only
        flagged duplicate urls go through a groupby — upgrades the
        reference's approximate Bloom filter, Parser.cpp:293-299)
      → map_batches(parse_pages_batch)      [M1-M5, F2/F3, stateless tasks]
      → deterministic doc ids (64-bit url fingerprint) + doc shard
      → postings + docmeta exchange partials (pipelines/exchange.py),
        emitted in the same streaming pass, grouped by shard-group to
        tmpfs
      → write docs/gen=0 parquet, unsorted             [checkpoint 1]
      → terms stage: the merge workers count each group's exchange
        partials (one row per (term, doc) run); the driver sums the
        ≤ 64 group counts into the global df and writes terms/ as
        (term, df, term_id), sorted by term, term_id = row number
      → corpus stats aggregate over the docs' dl column
      → shard stage: stateful actor-pool merge workers concat+sort+encode
        final per-shard segments keyed by term_id (delta-gap varint +
        128-doc block-max) and assemble each shard's NARROW docmeta, one
        file per shard dir, written atomically with build-id markers —
        per-partition resume; Ray sort/groupby appear nowhere in the
        postings path
      → manifest.json                                  [completion marker]

append_to_index (pipelines/append.py) runs the same parse→emit pass,
terms stage and shard stage for a new generation, whose shards start at
the current shard count; its counts fold into the existing terms table.

Skew: the shard key bounds every segment task by docs_per_shard documents
regardless of term skew — a head term's global posting list is the
order-preserving concatenation of its per-shard lists because shards
partition the doc-id space (SURVEY.md §4.3).

Determinism note: doc_id = fnv1a_64(url) >> 1. At 1e12 docs a 64-bit
fingerprint would collide (birthday bound); the scale path is the same
pipeline with a 128-bit hash split into (id_hi, id_lo) — the 64-bit id here
keeps every downstream array a primitive numpy column.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

from ..kernels.textutils import fnv1a_64, fnv1a_64_arrow
from ..stages.parse import parse_pages_batch
from ..state import segments as seg
from .exchange import (_GroupMergeWorker, _PartialExchangeWriter, marker_ok,
                       parquet_options, write_shard_dir)

PARSE_BATCH_SIZE = 1024
# measured (BENCH/BASELINE.md r2): the emit kernel's per-doc cost grows
# with batch size (cache locality of the run lexsort + take) — 2048 adds
# ~2s over parse-only at 800k×5KB/32cpu, 4096 adds ~9s, 16384 is 4× worse
EMIT_BATCH_SIZE = 2048

# file schema of an (empty) per-shard docmeta dir — the shard id lives in
# the hive directory name, exactly as write_parquet(partition_cols) did
_EMPTY_DOCMETA = pa.table({
    "doc_id": pa.array([], pa.int64()),
    "dl": pa.array([], pa.int32()),
    "url": pa.array([], pa.string()),
    "title": pa.array([], pa.string()),
    "word_count": pa.array([], pa.uint32()),
    "title_length": pa.array([], pa.uint32()),
    "url_length": pa.array([], pa.uint32()),
    "english": pa.array([], pa.bool_()),
    "tld": pa.array([], pa.uint8()),
})
TERMS_SCHEMA = pa.schema([("term", pa.string()), ("df", pa.int64()),
                          ("term_id", pa.int32())])


def _fingerprint_urls(urls) -> np.ndarray:
    """Deterministic 64-bit url fingerprints; vectorized over an Arrow
    column when given one."""
    import pyarrow as _pa
    if isinstance(urls, (_pa.Array, _pa.ChunkedArray)):
        return (fnv1a_64_arrow(urls) >> np.uint64(1)).astype(np.int64)
    return np.fromiter((fnv1a_64(u.encode()) >> 1 for u in urls),
                       dtype=np.int64, count=len(urls))


# ---------------------------------------------------------------------------
# stage helpers
# ---------------------------------------------------------------------------

def _dup_hashes_and_count(url_ds, to_hash, known: np.ndarray
                          ) -> tuple[np.ndarray, int, int]:
    """The url-hash pass yields the duplicate set, the page count (the
    count used to be a separate full pass) and the number of distinct
    url hashes outside the sorted ``known`` ones. count() here is
    metadata-only for parquet sources; it also sizes the path choice
    BEFORE anything is collected to the driver."""
    n = url_ds.count()
    hash_ds = url_ds.map_batches(to_hash, batch_format="pyarrow")
    if n <= 50_000_000:
        arrs = [b["url_hash"] for b in hash_ds.iter_batches(
            batch_size=1_048_576, batch_format="numpy")]
        all_h = np.concatenate(arrs) if arrs else np.empty(0, np.int64)
        uniq, cnt = np.unique(all_h, return_counts=True)
        return uniq[cnt > 1], n, int((~np.isin(uniq, known)).sum())
    counts = hash_ds.groupby("url_hash").aggregate(
        Count(alias_name="n")).materialize()
    dup_rows = counts.map_batches(
        lambda t: t.filter(pa.compute.greater(t["n"], 1)),
        batch_format="pyarrow").take_all()
    known_ref = ray.put(known)
    n_new = counts.map_batches(
        lambda t: t.filter(pa.array(~np.isin(
            t["url_hash"].to_numpy(), ray.get(known_ref)))),
        batch_format="pyarrow").count()
    return np.asarray([r["url_hash"] for r in dup_rows],
                      dtype=np.int64), n, n_new


def dedup_pages_with_count(pages_factory) -> tuple["rd.Dataset", int]:
    """Exact, deterministic url dedup; also returns the pre-dedup page
    count from the same hash pass."""
    return _dedup_pages(pages_factory, np.empty(0, np.int64))[:2]


def _dedup_pages(pages_factory, known: np.ndarray
                 ) -> tuple["rd.Dataset", int, int]:
    """(deduped pages, pre-dedup page count, number of distinct urls
    whose fingerprint is not in the sorted ``known``) — all from one
    hash pass.

    Phase 1 shuffles ONLY the url column (pruned read) to find duplicated
    urls — at web scale a tiny fraction. Phase 2 streams the full pages:
    non-flagged urls pass through; flagged urls go through a groupby that
    keeps the copy with the smallest html fingerprint (deterministic
    regardless of block order — the reference's first-arrival Bloom rule is
    racy, SURVEY.md §2.10).
    """
    url_ds = pages_factory(["url"])

    def to_hash(t: pa.Table) -> pa.Table:
        h = _fingerprint_urls(t.column("url"))
        return pa.table({"url_hash": pa.array(h, pa.int64())})

    # shuffle 8-byte hashes, not strings; a hash collision only routes an
    # extra url through the (url-keyed, thus still exact) groupby below.
    # Below ~50M pages the hash array fits on the driver (8B/row): collect
    # and count with numpy instead of paying a full groupby execution; the
    # groupby path engages automatically beyond that.
    dup_hashes, n_pages, n_new = _dup_hashes_and_count(url_ds, to_hash,
                                                       known)
    pages = pages_factory(None)
    if not len(dup_hashes):
        return pages, n_pages, n_new
    dup_ref = ray.put(np.sort(dup_hashes))

    def split(keep_dups: bool):
        def fn(t: pa.Table) -> pa.Table:
            mask = np.isin(_fingerprint_urls(t.column("url")),
                           ray.get(dup_ref))
            return t.filter(pa.array(mask if keep_dups else ~mask))
        return fn

    uniq = pages.map_batches(split(False), batch_format="pyarrow")

    def pick_winner(g: pa.Table) -> pa.Table:
        htmls = g.column("html").to_pylist()
        fps = [fnv1a_64(h) for h in htmls]
        return g.take([int(np.argmin(fps))])

    flagged = (pages.map_batches(split(True), batch_format="pyarrow")
               .groupby("url").map_groups(pick_winner,
                                          batch_format="pyarrow"))
    return uniq.union(flagged), n_pages, n_new


def _assign_ids(num_shards: int, first_shard: int):
    def fn(t: pa.Table) -> pa.Table:
        if "doc_id" in t.column_names:  # source-provided id; ours is the
            t = t.drop_columns(["doc_id"])  # url fingerprint
        doc_ids = _fingerprint_urls(t.column("url"))
        shard = (doc_ids % num_shards + first_shard).astype(np.int32)
        # one flags byte per kept term → dl without touching the terms col
        dl = pa.compute.binary_length(t.column("flags")).cast(
            pa.int32()).to_numpy(zero_copy_only=False)
        t = t.append_column("doc_id", pa.array(doc_ids, pa.int64()))
        t = t.append_column("shard", pa.array(shard, pa.int32()))
        return t.append_column("dl", pa.array(dl, pa.int32()))
    return fn


def _parse_emit(pages: "rd.Dataset", exchange_dir: str, num_shards: int,
                num_groups: int, first_shard: int = 0) -> "rd.Dataset":
    """ONE streaming pass: parse → assign ids → emit postings+docmeta
    exchange partials (side effect, idempotent filenames); the returned
    dataset is the parsed docs, ready for the docs checkpoint. No re-read
    of the wide terms column, no separate docmeta sort."""
    writer = _PartialExchangeWriter(exchange_dir, num_shards, num_groups,
                                    passthrough=True,
                                    first_shard=first_shard)
    return (pages
            .map_batches(parse_pages_batch, batch_format="pyarrow",
                         batch_size=PARSE_BATCH_SIZE)
            .map_batches(_assign_ids(num_shards, first_shard),
                         batch_format="pyarrow")
            .map_batches(writer.__call__, batch_size=EMIT_BATCH_SIZE,
                         batch_format="pyarrow"))


def _corpus_stats(docs_dir: str) -> tuple[int, float]:
    """(n_docs, avgdl) from one narrow (int32 dl) columnar scan of every
    docs generation — parquet column pruning makes this cheap at scale."""
    stats = rd.read_parquet(docs_dir, columns=["dl"]).aggregate(
        Count(alias_name="n_docs"), Sum("dl", alias_name="total_dl"))
    n_docs = int(stats["n_docs"])
    return n_docs, float(stats["total_dl"]) / max(n_docs, 1)


def _kill(pool: list) -> None:
    for a in pool:
        try:
            ray.kill(a)
        except Exception:
            pass
    pool.clear()


def _spawn_merge_pool(index_dir: str, exchange_dir: str, num_shards: int,
                      num_groups: int, build_id: str, terms_dir: str,
                      first_shard: int = 0) -> list:
    """Spawn the stateful merge actor pool EARLY so its process spin-up
    and imports overlap the map pass; avgdl is delivered at
    merge_groups() call time, and the workers key segment rows by the
    ids of ``terms_dir``, which the terms stage writes before the first
    merge. num_cpus=0: the pool idles (holding no CPU slots) while the
    map pass runs; by the time its calls arrive the map is done and
    nothing competes for cores."""
    n_workers = max(1, min(
        num_groups, int(ray.cluster_resources().get("CPU", 8))))
    actor_cls = ray.remote(num_cpus=0)(_GroupMergeWorker)
    return [actor_cls.remote(exchange_dir,
                             os.path.join(index_dir, "segments"),
                             num_shards, build_id,
                             os.path.join(index_dir, "docmeta"),
                             terms_dir, first_shard)
            for _ in range(n_workers)]


def _count_terms(merge_pool: list, num_groups: int) -> list[pa.RecordBatch]:
    """Each exchange group's (term, df) counts, counted on the pool."""
    return ray.get([merge_pool[g % len(merge_pool)].count_terms.remote([g])
                    for g in range(num_groups)])


def _write_terms(terms_dir: str, counts: list[pa.RecordBatch],
                 old: pa.Table | None = None) -> pa.Table:
    """Write the terms table (term, df, term_id), sorted by term, to
    ``terms_dir`` (replaced atomically) through the index writer policy,
    and return it. ``counts`` are (term, df) batches, summed per term.
    Without ``old`` (a fresh build) term_id is the row number; with the
    current table ``old``, its terms keep their ids and add their counts,
    and new terms take ids from its largest id + 1, in term order — ids
    are stable, so no old segment changes."""
    import pyarrow.compute as pc
    tabs = [pa.Table.from_batches([b]) for b in counts] + (
        [old.select(["term", "df"])] if old is not None else [])
    summed = pa.concat_tables(tabs).group_by("term").aggregate(
        [("df", "sum")]).sort_by("term")
    ids = np.arange(summed.num_rows, dtype=np.int64)
    if old is not None and old.num_rows:
        pos = pc.index_in(summed.column("term"),
                          value_set=old.column("term"))
        is_new = pos.is_null().to_numpy(zero_copy_only=False)
        old_ids = old.column("term_id").to_numpy()
        ids[~is_new] = old_ids[pos.fill_null(0).to_numpy()[~is_new]]
        ids[is_new] = int(old_ids.max()) + 1 + np.arange(is_new.sum())
    if summed.num_rows and ids.max() >= 2**31:
        raise ValueError("vocabulary exceeds int32 term ids")
    terms = pa.table({"term": summed.column("term"),
                      "df": summed.column("df_sum"),
                      "term_id": pa.array(ids, pa.int32())})
    tmp = terms_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    pq.write_table(terms, os.path.join(tmp, "terms.parquet"),
                   **parquet_options(TERMS_SCHEMA))
    shutil.rmtree(terms_dir, ignore_errors=True)
    os.replace(tmp, terms_dir)
    return terms


def _merge_shards(index_dir: str, merge_pool: list, shards: range,
                  num_groups: int, build_id: str, avgdl: float) -> None:
    """The shard stage, shared by build and append: merge every shard of
    ``shards`` that lacks a ``build_id`` marker on the pool, kill the
    pool, then backfill an empty segment and docmeta for every shard
    still without one (no docs, or docs without postings), so that a
    searcher can always open its shard."""
    segments_dir = os.path.join(index_dir, "segments")
    docmeta_dir = os.path.join(index_dir, "docmeta")
    groups = sorted({(s - shards.start) % num_groups for s in shards
                     if not (marker_ok(segments_dir, s, build_id)
                             and marker_ok(docmeta_dir, s, build_id))})
    ray.get([merge_pool[i % len(merge_pool)].merge_groups.remote([g], avgdl)
             for i, g in enumerate(groups)])
    _kill(merge_pool)
    empty_segment = seg.SEGMENT_SCHEMA.empty_table().drop_columns(["shard"])
    for s in shards:
        for root, filename, empty, rows in (
                (segments_dir, "segment.parquet", empty_segment, 0),
                (docmeta_dir, "docmeta.parquet", _EMPTY_DOCMETA, 4096)):
            if not marker_ok(root, s, build_id):
                write_shard_dir(root, s, empty, filename, build_id,
                                row_group_size=rows)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _stage_done(index_dir: str, stage: str, cfg_hash: str) -> bool:
    man = seg.read_manifest(index_dir)
    return bool(man and man.get("config_hash") == cfg_hash
                and stage in man.get("stages_done", []))


def _mark_stage(index_dir: str, stage: str, cfg_hash: str, **extra) -> dict:
    man = seg.read_manifest(index_dir) or {}
    if man.get("config_hash") != cfg_hash:
        man = {"config_hash": cfg_hash, "stages_done": [], "stats": {}}
    if stage not in man["stages_done"]:
        man["stages_done"].append(stage)
    man["stats"].update(extra)
    seg.write_manifest(index_dir, man)
    return man


def _exchange_dir_for(index_dir: str) -> str:
    """Transient shuffle data lives on tmpfs (the single-node analogue of
    shuffling through node-local SSD/RAM); final artifacts stay on disk."""
    shm = "/dev/shm" if os.path.isdir("/dev/shm") else index_dir
    return os.path.join(
        shm, "se_exchange_" + hashlib.sha256(
            os.path.abspath(index_dir).encode()).hexdigest()[:12])


def build_index(pages_factory, index_dir: str, *, docs_per_shard: int = 4096,
                force: bool = False) -> dict:
    """Build (or resume) the sharded index under ``index_dir``.

    ``pages_factory(columns)`` returns a pages Dataset, pruning to
    ``columns`` when given (so the dedup url pass never reads html).
    Returns the manifest dict.
    """
    # the early-spawned merge actor pool must die on EVERY exit path —
    # an exception between spawn and merge would otherwise leak
    # num_cpus=0 actors until the driver exits
    merge_pool: list = []
    try:
        return _build_index(pages_factory, index_dir, docs_per_shard,
                            force, merge_pool)
    finally:
        _kill(merge_pool)


def _build_index(pages_factory, index_dir: str, docs_per_shard: int,
                 force: bool, merge_pool: list) -> dict:
    from ray.data import DataContext
    try:  # ~10% faster map-side sort blocks for the cluster exchange
        DataContext.get_current().use_polars_sort = True
    except Exception:
        pass

    cfg = {"docs_per_shard": docs_per_shard, "version": 21}
    cfg_hash = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:16]
    os.makedirs(index_dir, exist_ok=True)
    if force:
        seg.write_manifest(index_dir, {"config_hash": "", "stages_done": [],
                                       "stats": {}})

    docs_dir = os.path.join(index_dir, "docs")
    segments_dir = os.path.join(index_dir, "segments")
    docmeta_dir = os.path.join(index_dir, "docmeta")
    terms_dir = os.path.join(index_dir, "terms")
    exchange_dir = _exchange_dir_for(index_dir)

    t0 = time.time()
    if not _stage_done(index_dir, "docs", cfg_hash):
        # ONE streaming pass: dedup-filter → parse → assign ids → emit
        # exchange partials → write the docs checkpoint
        deduped, n_pages_estimate = dedup_pages_with_count(pages_factory)
        num_shards = max(1, -(-n_pages_estimate // docs_per_shard))
        num_groups = max(1, min(num_shards, 64))
        new_build_id = f"{cfg_hash}-{time.time_ns()}"
        shutil.rmtree(exchange_dir, ignore_errors=True)
        os.makedirs(exchange_dir, exist_ok=True)
        # merge actors spin up (process spawn + imports) while the fused
        # map pass below streams
        merge_pool[:] = _spawn_merge_pool(index_dir, exchange_dir,
                                          num_shards, num_groups,
                                          new_build_id, terms_dir)
        docs = _parse_emit(deduped, exchange_dir, num_shards, num_groups)
        # replace the WHOLE docs dir (a base build resets all generations)
        tmp_root = docs_dir + ".tmp"
        shutil.rmtree(tmp_root, ignore_errors=True)
        docs.write_parquet(os.path.join(tmp_root, "gen=0"))
        shutil.rmtree(docs_dir, ignore_errors=True)
        os.replace(tmp_root, docs_dir)
        _mark_stage(index_dir, "docs", cfg_hash,
                    num_shards=num_shards, generations=1,
                    parse_wall_s=round(time.time() - t0, 3),
                    docs_build_id=new_build_id)
        _mark_stage(index_dir, "exchange", cfg_hash)

    man = seg.read_manifest(index_dir)
    num_shards = man["stats"]["num_shards"]
    num_groups = max(1, min(num_shards, 64))
    build_id = man["stats"].get("docs_build_id", cfg_hash)

    def ensure_pool() -> None:
        """The exchange and a merge pool over it: a resume whose (tmpfs)
        exchange is gone rebuilds it from the docs checkpoint."""
        if not (_stage_done(index_dir, "exchange", cfg_hash)
                and os.path.isdir(exchange_dir)):
            t = time.time()
            shutil.rmtree(exchange_dir, ignore_errors=True)
            os.makedirs(exchange_dir, exist_ok=True)
            docs = rd.read_parquet(
                docs_dir, columns=["doc_id", "dl", "terms", "shard", "url",
                                   "title", "word_count", "title_length",
                                   "url_length", "english", "tld"])
            writer = _PartialExchangeWriter(exchange_dir, num_shards,
                                            num_groups)
            # plain function → stateless tasks (no actor-pool startup;
            # the writer's "state" is a few config values)
            docs.map_batches(writer.__call__, batch_size=EMIT_BATCH_SIZE,
                             batch_format="pyarrow").materialize()
            _mark_stage(index_dir, "exchange", cfg_hash,
                        exchange_wall_s=round(time.time() - t, 3))
        # the pool was spawned before the map pass when possible, so
        # actor spin-up overlaps useful work
        if not merge_pool:
            merge_pool[:] = _spawn_merge_pool(index_dir, exchange_dir,
                                              num_shards, num_groups,
                                              build_id, terms_dir)

    t2 = time.time()
    if not _stage_done(index_dir, "terms", cfg_hash):
        # before the shard stage: segment rows are keyed by these ids
        ensure_pool()
        _write_terms(terms_dir, _count_terms(merge_pool, num_groups))
        _mark_stage(index_dir, "terms", cfg_hash,
                    terms_wall_s=round(time.time() - t2, 3))

    t1 = time.time()
    if not _stage_done(index_dir, "segments", cfg_hash):
        n_docs, avgdl = _corpus_stats(docs_dir)

        os.makedirs(segments_dir, exist_ok=True)
        os.makedirs(docmeta_dir, exist_ok=True)
        # drop shard dirs beyond the current shard count (stale layout)
        for root in (segments_dir, docmeta_dir):
            for name in os.listdir(root):
                if name.startswith("shard=") \
                        and int(name.split("=", 1)[1]) >= num_shards:
                    shutil.rmtree(os.path.join(root, name),
                                  ignore_errors=True)

        if not all(marker_ok(root, s, build_id) for s in range(num_shards)
                   for root in (segments_dir, docmeta_dir)):
            # reduce side: stateful actor-pool merge workers — one
            # shard-group merged+encoded per call; each worker also
            # assembles its shards' docmeta from the meta partials
            ensure_pool()
            tmg = time.time()
            _merge_shards(index_dir, merge_pool, range(num_shards),
                          num_groups, build_id, avgdl)
            _mark_stage(index_dir, "segments", cfg_hash,
                        merge_wall_s=round(time.time() - tmg, 3))
        shutil.rmtree(exchange_dir, ignore_errors=True)
        _mark_stage(index_dir, "docmeta", cfg_hash)
        _mark_stage(index_dir, "segments", cfg_hash, n_docs=n_docs,
                    avgdl=avgdl, num_groups=num_groups,
                    bound_avgdl=[[0, avgdl]],
                    # posting doc values are per-shard dense ordinals
                    # (v18), segment rows are keyed by term id (v20) and
                    # the block-max bounds' avgdl is recorded (v21);
                    # readers and appenders refuse older indexes
                    # (seg.read_index_manifest) instead of misreading them
                    posting_format="ordinal", segment_key="term_id",
                    segments_wall_s=round(time.time() - t1, 3),
                    total_wall_s=round(time.time() - t0, 3))
    return seg.read_manifest(index_dir)
