"""Incremental index append — the Ray-native analogue of the reference's
streaming chunk ingest (docs arrive, chunks freeze; SURVEY.md §2.10).

``append_to_index(pages_factory, index_dir)`` adds a new generation of
pages to a COMPLETE index without touching existing shards:

- cross-run exact dedup: the existing doc_id set IS the url-fingerprint
  set (doc_id = fnv64(url)), read from the compact docmeta table and
  broadcast; new pages whose fingerprint already exists are dropped —
  the exact version of the reference's persisted Bloom filter
  (Parser.cpp:32-34,248-252)
- new docs parse into docs/gen=K; new shards get FRESH shard ids
  (old_num_shards..), so segments/docmeta writes never touch old dirs
- the filesystem exchange + merge build only the new shards
- global stats (n_docs, avgdl, term df) are recomputed; because avgdl
  shifts, OLD shards' stored block-max bounds become stale — WAND is
  automatically disabled for shards whose recorded build avgdl differs
  from the current global (they fall back to exact exhaustive scoring),
  until ``refresh_block_max`` recomputes their bounds. One-block rows
  store no bound (WAND computes theirs at query time), so refresh
  rewrites only the rows of several blocks.
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data as rd
from ray.data.aggregate import Count, Sum

from ..state import segments as seg
from ..stages.parse import parse_pages_batch
from .build import (EMIT_BATCH_SIZE, PARSE_BATCH_SIZE, _assign_ids,
                    _atomic_write, _fingerprint_urls, _exchange_dir_for,
                    dedup_pages_by_url)


def append_to_index(pages_factory, index_dir: str, *,
                    docs_per_shard: int = 4096) -> dict:
    man = seg.read_manifest(index_dir)
    if man is None or "terms" not in man.get("stages_done", []):
        raise FileNotFoundError(f"no complete index at {index_dir}")
    if man["stats"].get("posting_format") != "ordinal":
        # never append ordinal-valued shards onto a pre-v18 index whose
        # old shards hold raw doc fingerprints — the mix would serve
        # wrong results with no error at append time
        raise ValueError(
            f"index at {index_dir} predates the ordinal posting layout "
            "(v18); rebuild it with build_index(force=True) first")
    stats = man["stats"]
    old_shards = stats["num_shards"]
    gen = stats.get("generations", 1)
    docs_dir = os.path.join(index_dir, "docs")
    segments_dir = os.path.join(index_dir, "segments")

    # cross-run dedup set: existing url fingerprints == doc ids
    existing = frozenset(
        pq.read_table(os.path.join(index_dir, "docmeta"),
                      columns=["doc_id"]).column("doc_id").to_pylist())
    existing_ref = ray.put(existing)

    t0 = time.time()
    n_new_est = pages_factory(["url"]).count()
    new_shard_count = max(1, -(-n_new_est // docs_per_shard))

    def drop_known(t: pa.Table) -> pa.Table:
        known = ray.get(existing_ref)
        h = _fingerprint_urls(t.column("url"))
        mask = np.fromiter((int(x) not in known for x in h), dtype=bool,
                           count=t.num_rows)
        return t.filter(pa.array(mask))

    # within-batch dedup first (same winner-pick rule as the base build —
    # otherwise duplicate urls INSIDE the appended generation get distinct
    # rows under one doc_id), then the cross-run drop of known urls
    pages = dedup_pages_by_url(pages_factory).map_batches(
        drop_known, batch_format="pyarrow")
    docs = pages.map_batches(parse_pages_batch, batch_format="pyarrow",
                             batch_size=PARSE_BATCH_SIZE)
    docs = docs.map_batches(_assign_ids(new_shard_count),
                            batch_format="pyarrow")

    def shift_shard(t: pa.Table) -> pa.Table:
        sh = t.column("shard").to_numpy(zero_copy_only=False) + old_shards
        idx = t.schema.get_field_index("shard")
        return t.set_column(idx, "shard", pa.array(sh.astype(np.int32)))

    docs = docs.map_batches(shift_shard, batch_format="pyarrow")
    gen_dir = os.path.join(docs_dir, f"gen={gen}")
    _atomic_write(docs, gen_dir)

    # docmeta for the new shards only (new shard ids → new dirs)
    docmeta = rd.read_parquet(
        gen_dir, columns=["doc_id", "shard", "dl", "url", "title",
                          "word_count", "title_length", "url_length",
                          "english", "tld"])
    tmp_meta = os.path.join(index_dir, "docmeta_append.tmp")
    shutil.rmtree(tmp_meta, ignore_errors=True)
    docmeta.sort("shard").write_parquet(tmp_meta, partition_cols=["shard"])
    for name in os.listdir(tmp_meta):
        if name.startswith("shard="):
            dst = os.path.join(index_dir, "docmeta", name)
            shutil.rmtree(dst, ignore_errors=True)
            os.replace(os.path.join(tmp_meta, name), dst)
    shutil.rmtree(tmp_meta, ignore_errors=True)

    # updated global stats
    agg = rd.read_parquet(os.path.join(index_dir, "docmeta"),
                          columns=["dl"]).aggregate(
        Count(alias_name="n"), Sum("dl", alias_name="t"))
    n_docs = int(agg["n"])
    avgdl = float(agg["t"]) / max(n_docs, 1)
    num_shards = old_shards + new_shard_count

    # build ONLY the new shards through the exchange (scoped to gen=K)
    from .exchange import _GroupMergeWorker, _PartialExchangeWriter

    exchange_dir = _exchange_dir_for(index_dir) + f"_gen{gen}"
    shutil.rmtree(exchange_dir, ignore_errors=True)
    os.makedirs(exchange_dir, exist_ok=True)
    num_groups = max(1, min(new_shard_count, 64))
    build_id = f"append-gen{gen}-{time.time_ns()}"

    from .exchange import DOCMETA_COLUMNS
    new_docs = rd.read_parquet(gen_dir,
                               columns=DOCMETA_COLUMNS + ["terms"])

    # the exchange computes LOCAL shard ids (doc_id % new_shard_count,
    # which equals assigned_shard - old_shards); the merge output dirs are
    # shifted by old_shards when moved into place below. emit_meta=True:
    # the merge worker derives each local shard's doc universe (ordinal
    # space of the posting lists) from the meta partials — the meta
    # "shard" column (already shifted here) is not used for that.
    writer = _PartialExchangeWriter(exchange_dir, new_shard_count,
                                    num_groups, emit_meta=True)
    new_docs.map_batches(writer.__call__, batch_size=EMIT_BATCH_SIZE,
                         batch_format="pyarrow").materialize()

    groups = list(range(num_groups))
    merger_args = (exchange_dir, segments_dir + ".append.tmp",
                   new_shard_count, avgdl, build_id)
    shutil.rmtree(segments_dir + ".append.tmp", ignore_errors=True)
    os.makedirs(segments_dir + ".append.tmp", exist_ok=True)
    n_workers = max(1, min(len(groups),
                           int(ray.cluster_resources().get("CPU", 8))))
    rd.from_items([{"grp": g} for g in groups]).map_batches(
        _GroupMergeWorker, fn_constructor_args=merger_args,
        batch_size=1, batch_format="pyarrow",
        concurrency=n_workers).materialize()
    # move new shard dirs into place with SHIFTED ids
    tmp_seg = segments_dir + ".append.tmp"
    moved = set()
    for name in os.listdir(tmp_seg):
        if name.startswith("shard="):
            local = int(name.split("=", 1)[1])
            dst = os.path.join(segments_dir, f"shard={local + old_shards}")
            shutil.rmtree(dst, ignore_errors=True)
            os.replace(os.path.join(tmp_seg, name), dst)
            moved.add(local + old_shards)
    shutil.rmtree(tmp_seg, ignore_errors=True)
    shutil.rmtree(exchange_dir, ignore_errors=True)
    # empty-segment backfill for new shards with no postings
    for s_id in range(old_shards, num_shards):
        if s_id in moved:
            continue
        dst = os.path.join(segments_dir, f"shard={s_id}")
        os.makedirs(dst, exist_ok=True)
        pq.write_table(seg.SEGMENT_SCHEMA.empty_table()
                       .drop_columns(["shard"]),
                       os.path.join(dst, "segment.parquet"))
        with open(os.path.join(dst, "_SUCCESS"), "w") as f:
            f.write(build_id)

    # refresh global term stats (driver merge; see build.py terms stage)
    terms_path = os.path.join(index_dir, "terms")
    t = pq.read_table(segments_dir, columns=["term", "df"])
    merged = (t.to_pandas()
              .groupby("term", as_index=False)[["df"]].sum())
    tmp = terms_path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    pq.write_table(pa.Table.from_pandas(merged, preserve_index=False),
                   os.path.join(tmp, "terms.parquet"))
    shutil.rmtree(terms_path, ignore_errors=True)
    os.replace(tmp, terms_path)

    # all pre-existing shards now carry stale block-max bounds (avgdl
    # moved); WAND stays off for them until refresh_block_max
    stale = sorted(set(stats.get("wand_stale_shards", []))
                   | set(range(old_shards)))

    stats.update({
        "num_shards": num_shards, "n_docs": n_docs, "avgdl": avgdl,
        "generations": gen + 1, "wand_stale_shards": stale,
        f"append_gen{gen}_wall_s": round(time.time() - t0, 3),
    })
    man["stats"] = stats
    seg.write_manifest(index_dir, man)
    return seg.read_manifest(index_dir)


def refresh_block_max(index_dir: str) -> int:
    """Maintenance op: recompute block-max impacts for shards whose build
    avgdl is stale, re-enabling WAND after appends. Only rows that store
    bounds (several blocks) are recomputed; one-block rows are copied
    unchanged. Returns the number of shards refreshed."""
    man = seg.read_manifest(index_dir)
    stats = man["stats"]
    if stats.get("posting_format") != "ordinal":
        # same guard as SearchEngine/append_to_index: pre-v18 postings
        # hold raw doc fingerprints — indexing d_dls with them would
        # die with an opaque IndexError (or silently mis-score)
        raise ValueError(
            f"index at {index_dir} predates the ordinal posting layout "
            "(v18); rebuild it with build_index(force=True)")
    avgdl = stats["avgdl"]
    stale = sorted(stats.get("wand_stale_shards", []))
    segments_dir = os.path.join(index_dir, "segments")

    @ray.remote
    def refresh(shard: int) -> int:
        path = os.path.join(segments_dir, f"shard={shard}")
        t = pq.read_table(path)
        dmeta = pq.read_table(
            os.path.join(index_dir, "docmeta", f"shard={shard}"),
            columns=["doc_id", "dl"])
        order = np.argsort(dmeta.column("doc_id").to_numpy())
        d_dls = dmeta.column("dl").to_numpy(zero_copy_only=False)[order]
        new_bmax = t.column("block_max_impact").to_pylist()
        for i, bmax in enumerate(new_bmax):
            if bmax is None:  # one block: WAND computes its bound
                continue
            row = {name: t.column(name)[i].as_py()
                   for name in ("term", "df", "doc_gaps", "tfs",
                                "block_offs", "block_last_doc",
                                "block_max_impact")}
            tp = seg.LazyPostings(
                row, where=f"shard {shard} term {row['term']!r}")
            # posting doc values are ordinals into the doc_id-sorted
            # docmeta — direct indexing, no searchsorted
            new_bmax[i] = seg.block_max_bounds(
                seg.bm25_impact(tp.tfs, d_dls[tp.doc_ids], avgdl))
        idx = t.schema.get_field_index("block_max_impact")
        t = t.set_column(idx, "block_max_impact",
                         pa.array(new_bmax, pa.binary()))
        tmp = path + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        # same on-disk layout as the merge writer: byte-bounded row
        # groups (the metadata-only cold start depends on them) and the
        # vocab bloom carried over unchanged (refresh only rewrites
        # block_max_impact — the vocabulary is identical)
        from .exchange import _write_byte_bounded
        _write_byte_bounded(t, os.path.join(tmp, "segment.parquet"))
        old_bloom = os.path.join(path, "_vocab.bloom")
        if os.path.exists(old_bloom):
            shutil.copyfile(old_bloom,
                            os.path.join(tmp, "_vocab.bloom"))
        with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
            f.write(f"refresh-{avgdl}")
        shutil.rmtree(path, ignore_errors=True)
        os.replace(tmp, path)
        return shard

    ray.get([refresh.remote(s) for s in stale])
    stats["wand_stale_shards"] = []
    man["stats"] = stats
    seg.write_manifest(index_dir, man)
    return len(stale)
