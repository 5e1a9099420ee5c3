"""Exchange idempotency under Ray task retry (ADVICE r1): a map batch
re-executed after a partial failure must OVERWRITE its part files, not
duplicate rows — df, the posting bytes and docmeta stay exact."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


def _fake_docs_batch(n: int = 64) -> pa.Table:
    rng = np.random.default_rng(7)
    urls = [f"http://x{i}.com/" for i in range(n)]
    terms = [" ".join(rng.choice(["alpha", "beta", "gamma", "delta"],
                                 size=rng.integers(3, 9)))
             for _ in range(n)]
    return pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64), pa.int64()),
        "dl": pa.array([len(t.split()) for t in terms], pa.int32()),
        "terms": pa.array(terms, pa.string()),
        "shard": pa.array((np.arange(n) % 4).astype(np.int32), pa.int32()),
        "url": pa.array(urls, pa.string()),
        "title": pa.array(["t"] * n, pa.string()),
        "word_count": pa.array([5] * n, pa.uint32()),
        "title_length": pa.array([1] * n, pa.uint32()),
        "url_length": pa.array([14] * n, pa.uint32()),
        "english": pa.array([True] * n, pa.bool_()),
        "tld": pa.array([0] * n, pa.uint8()),
    })


def _count_and_merge(worker, groups: list[int]) -> None:
    """The terms stage's count, then the merge, on one worker."""
    from search_engine_ray.pipelines.build import _write_terms

    _write_terms(worker.terms_dir, [worker.count_terms(groups)])
    worker.merge_groups(groups, 5.0)


def _named_segments(segments: str, terms: str, columns=None) -> pa.Table:
    """Every shard's segment rows with each term_id replaced by its term
    string from the terms table."""
    segs = pq.read_table(segments, columns=columns)
    t = pq.read_table(terms, columns=["term", "term_id"])
    by_id = dict(zip(t.column("term_id").to_pylist(),
                     t.column("term").to_pylist()))
    names = [by_id[i] for i in segs.column("term_id").to_pylist()]
    return segs.drop_columns(["term_id"]).append_column(
        "term", pa.array(names, pa.string()))


def test_duplicate_emit_is_idempotent(tmp_path):
    from search_engine_ray.pipelines.exchange import (_GroupMergeWorker,
                                                      _PartialExchangeWriter)

    batch = _fake_docs_batch()

    def run(n_emits: int, tag: str):
        exchange = str(tmp_path / f"ex_{tag}")
        segments = str(tmp_path / f"seg_{tag}")
        docmeta = str(tmp_path / f"meta_{tag}")
        os.makedirs(segments)
        os.makedirs(docmeta)
        w = _PartialExchangeWriter(exchange, num_shards=4, num_groups=2)
        for _ in range(n_emits):  # a retry re-emits the same batch
            w(batch)
        terms = str(tmp_path / f"terms_{tag}")
        m = _GroupMergeWorker(exchange, segments, 4, "bid",
                              docmeta_dir=docmeta, terms_dir=terms)
        _count_and_merge(m, [0, 1])
        # exact tfs bytes: a duplicated posting would change them (and
        # their sum, the collection frequency)
        segs = _named_segments(segments, terms,
                               columns=["term_id", "df", "tfs"])
        meta = pq.read_table(docmeta, columns=["doc_id"])
        return (sorted(zip(segs.column("term").to_pylist(),
                           segs.column("df").to_pylist(),
                           segs.column("tfs").to_pylist())),
                sorted(meta.column("doc_id").to_pylist()),
                pq.read_table(terms).to_pydict())

    once = run(1, "once")
    twice = run(3, "retry")
    assert once == twice
    assert len(once[1]) == 64  # every doc exactly once in docmeta


def test_byte_bounded_row_groups():
    """Row groups split on cumulative binary payload: no group (except a
    single-fat-row one) exceeds ~target bytes, content round-trips, and
    a lone huge row lands in its own group."""
    from search_engine_ray.pipelines.exchange import _write_byte_bounded

    rng = np.random.default_rng(4)
    payloads = [rng.bytes(int(n)) for n in
                [100] * 50 + [300_000] + [100] * 50]
    tab = pa.table({
        "term": pa.array([f"t{i:04d}" for i in range(len(payloads))]),
        "doc_gaps": pa.array(payloads, pa.binary()),
    })
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "seg.parquet")
        _write_byte_bounded(tab, path, target_bytes=4096)
        pf = pq.ParquetFile(path)
        md = pf.metadata
        assert md.num_row_groups > 1
        sizes, rows = [], []
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            rows.append(rg.num_rows)
            sizes.append(sum(rg.column(c).total_uncompressed_size
                             for c in range(rg.num_columns)))
        # the 300KB row must be alone in its group
        assert 1 in rows
        # every other group's payload stays near the target
        small = [s for s, r in zip(sizes, rows) if r > 1]
        assert all(s < 3 * 4096 + 8192 for s in small), small
        # exact round-trip
        assert pf.read().equals(tab)
        # empty table still writes a valid file
        path2 = os.path.join(d, "empty.parquet")
        _write_byte_bounded(tab.slice(0, 0), path2)
        assert pq.read_table(path2).num_rows == 0
