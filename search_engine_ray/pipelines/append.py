"""Incremental index append — the Ray-native analogue of the reference's
streaming chunk ingest (docs arrive, chunks freeze; SURVEY.md §2.10).

``append_to_index(pages_factory, index_dir)`` adds a new generation of
pages to a COMPLETE index without touching existing shards. It runs the
build's own stages (pipelines/build.py), with the first shard id taken
from the manifest:

- cross-run exact dedup: the existing doc_id set IS the url-fingerprint
  set (doc_id = fnv64(url)); new pages whose fingerprint is already
  indexed are dropped — the exact version of the reference's persisted
  Bloom filter (Parser.cpp:32-34,248-252)
- the generation's shard count comes from its distinct urls that are
  not yet indexed, so a generation of mostly re-crawls adds no empty
  shards it does not need
- the fused parse → assign ids → exchange-emit pass writes docs/gen=K;
  new docs get FRESH shard ids (old_num_shards..), so the shard stage
  writes new segments/docmeta dirs and never touches old ones
- n_docs and avgdl come from the dl scan over docs/; the terms stage
  folds the generation's term counts into the terms table: old terms
  keep their term_id and add to their df, new terms take ids after the
  largest one, in term order. The folded table is staged beside
  ``terms/`` for the new shards' merge and replaces it only once they
  are written. A generation that adds no docs changes nothing
- avgdl shifts; the manifest's ``bound_avgdl`` records per generation
  the avgdl its shards' block-max bounds hold at, and WAND scales them
  to the current one (seg.LazyPostings.block_bounds), so old shards
  keep WAND. ``refresh_block_max`` is an optional tightening pass that
  recomputes the bounds at the current avgdl; one-block rows store no
  bound, so it rewrites only the rows of several blocks. A shard dir it
  rewrites holds the segment and its marker alone: a vocabulary Bloom
  filter an earlier merge wrote there is not carried over (no reader
  needs it).
"""

from __future__ import annotations

import os
import shutil
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..state import segments as seg
from .build import (_corpus_stats, _count_terms, _dedup_pages,
                    _exchange_dir_for, _fingerprint_urls, _kill,
                    _merge_shards, _parse_emit, _spawn_merge_pool,
                    _write_terms)
from .exchange import write_shard_dir


def append_to_index(pages_factory, index_dir: str, *,
                    docs_per_shard: int = 4096) -> dict:
    # never append onto an older layout: new shards in the current one
    # beside old ones would serve wrong results with no error
    man = seg.read_index_manifest(index_dir)
    stats = man["stats"]
    first_shard = stats["num_shards"]
    gen = stats.get("generations", 1)
    docs_dir = os.path.join(index_dir, "docs")

    # cross-run dedup set: existing url fingerprints == doc ids
    known = np.sort(pq.read_table(
        os.path.join(index_dir, "docmeta"),
        columns=["doc_id"]).column("doc_id").to_numpy())
    known_ref = ray.put(known)

    def drop_known(t: pa.Table) -> pa.Table:
        h = _fingerprint_urls(t.column("url"))
        return t.filter(pa.array(~np.isin(h, ray.get(known_ref))))

    t0 = time.time()
    # within-batch dedup first (same winner-pick rule as the base build),
    # then the cross-run drop of known urls; the shard count comes from
    # the generation's distinct new urls, counted in the same hash pass
    deduped, _, n_new = _dedup_pages(pages_factory, known)
    num_shards = max(1, -(-n_new // docs_per_shard))
    num_groups = max(1, min(num_shards, 64))
    build_id = f"append-gen{gen}-{time.time_ns()}"
    exchange_dir = _exchange_dir_for(index_dir) + f"_gen{gen}"
    gen_dir = os.path.join(docs_dir, f"gen={gen}")
    tmp = gen_dir + ".tmp"
    terms_dir = os.path.join(index_dir, "terms")
    staged_terms = f"{terms_dir}.gen{gen}"
    merge_pool: list = []
    try:
        for d in (exchange_dir, tmp, staged_terms):
            shutil.rmtree(d, ignore_errors=True)
        os.makedirs(exchange_dir)
        merge_pool[:] = _spawn_merge_pool(index_dir, exchange_dir,
                                          num_shards, num_groups, build_id,
                                          staged_terms, first_shard)
        _parse_emit(deduped.map_batches(drop_known, batch_format="pyarrow"),
                    exchange_dir, num_shards, num_groups,
                    first_shard).write_parquet(tmp)
        if not os.path.isdir(tmp):  # Ray writes no dir for zero rows
            return man
        shutil.rmtree(gen_dir, ignore_errors=True)
        os.replace(tmp, gen_dir)
        _write_terms(staged_terms, _count_terms(merge_pool, num_groups),
                     old=seg.read_parquet_dir(terms_dir))
        n_docs, avgdl = _corpus_stats(docs_dir)
        _merge_shards(index_dir, merge_pool,
                      range(first_shard, first_shard + num_shards),
                      num_groups, build_id, avgdl)
        shutil.rmtree(terms_dir)
        os.replace(staged_terms, terms_dir)
    finally:
        _kill(merge_pool)
        for d in (exchange_dir, staged_terms):
            shutil.rmtree(d, ignore_errors=True)

    stats.update({
        "num_shards": first_shard + num_shards, "n_docs": n_docs,
        "avgdl": avgdl, "generations": gen + 1,
        "bound_avgdl": stats["bound_avgdl"] + [[first_shard, avgdl]],
        f"append_gen{gen}_wall_s": round(time.time() - t0, 3),
    })
    man["stats"] = stats
    seg.write_manifest(index_dir, man)
    return seg.read_manifest(index_dir)


def refresh_block_max(index_dir: str) -> int:
    """Optional tightening pass: recompute at the current avgdl the stored
    block-max bounds of every shard recorded at another one (WAND serves
    it exactly through scaled bounds; recomputed ones prune more). One-
    block rows store none and are copied unchanged. Returns the number
    of shards rewritten."""
    # same guard as SearchEngine/append_to_index: pre-v18 postings hold
    # raw doc fingerprints — indexing d_dls with them would die with an
    # opaque IndexError (or silently mis-score)
    man = seg.read_index_manifest(index_dir)
    stats = man["stats"]
    avgdl = stats["avgdl"]
    loose = [s for s in range(stats["num_shards"])
             if seg.shard_bound_avgdl(stats, s) != avgdl]
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
                   for name in ("term_id", "df", "doc_gaps", "tfs",
                                "block_offs", "block_last_doc",
                                "block_max_impact")}
            tp = seg.LazyPostings(
                row, where=f"shard {shard} term_id {row['term_id']}")
            # posting doc values are ordinals into the doc_id-sorted
            # docmeta — direct indexing, no searchsorted
            new_bmax[i] = seg.block_max_bounds(
                seg.bm25_impact(tp.tfs, d_dls[tp.doc_ids], avgdl))
        idx = t.schema.get_field_index("block_max_impact")
        t = t.set_column(idx, "block_max_impact",
                         pa.array(new_bmax, pa.binary()))
        # the merge writer's layout (byte-bounded row groups, which the
        # metadata-only cold start depends on) with term_id carried over
        # unchanged: refresh only rewrites block_max_impact
        write_shard_dir(segments_dir, shard, t, "segment.parquet",
                        f"refresh-{avgdl}")
        return shard

    ray.get([refresh.remote(s) for s in loose])
    stats["bound_avgdl"] = [[0, avgdl]]
    man["stats"] = stats
    seg.write_manifest(index_dir, man)
    return len(loose)
