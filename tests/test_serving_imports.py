"""The serving processes stay lean: what a searcher and a frontend run
imports numpy, pyarrow core and pyarrow.parquet, never pandas,
pyarrow.dataset or pyarrow.compute (together ~50 MB RSS and ~0.4 s of
imports per actor), and the frontend hands its results to the caller as
RecordBatches, which pickle without Ray's pandas-importing Table
reducer."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_ray.query.refqueries import REF_QUERIES
from search_engine_ray.sources.fixtures import gen_pages

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BANNED = ("pandas", "pyarrow.dataset", "pyarrow.compute")

# Everything a SegmentSearcher does, scoring (open shards, score_topk)
# and its hosted frontend (shared-pool SearchEngine: compile, route,
# merge, build the result batch and pickle it), in one fresh interpreter.
SERVE = r"""
import json, pickle, sys

import pyarrow as pa

from search_engine_ray.pipelines import search as S
from search_engine_ray.query.refqueries import REF_QUERIES
from search_engine_ray.state import segments as seg

idx = sys.argv[1]
n = seg.read_manifest(idx)["stats"]["num_shards"]
shards = [S.ShardIndex(idx, s) for s in range(n)]
eng = S.SearchEngine(idx, actors=["a0", "a1"],
                     actor_shards=[list(range(0, n, 2)),
                                   list(range(1, n, 2))])
hits = 0
for q in REF_QUERIES:
    plan = eng.compile(q)
    merged = []
    if plan is not None:
        reach, idf = eng._route(plan)
        for sh in (shards[s] for a in reach for s in eng._actor_shards[a]):
            merged.extend(sh.score_topk(plan, 10, idf, eng.avgdl))
        merged = sorted(merged, key=lambda r: (-r[0], r[1]))[:10]
    batch = S.result_batch(merged)
    assert pickle.loads(pickle.dumps(batch)).equals(batch)
    assert pa.Table.from_batches([batch]).num_rows == len(merged)
    hits += batch.num_rows
print(json.dumps({"loaded": sorted(m for m in %r if m in sys.modules),
                  "hits": hits}))
""" % (BANNED,)


@pytest.fixture(scope="module")
def appended_index(ray_session, tmp_path_factory):
    """A built index plus one append."""
    import ray.data as rd

    from search_engine_ray.pipelines.append import append_to_index
    from search_engine_ray.pipelines.build import build_index

    root = tmp_path_factory.mktemp("lean")
    for name, t in (("base", gen_pages(200, seed=42)),
                    ("new", gen_pages(300, seed=42).slice(150, 150))):
        os.makedirs(root / name)
        pq.write_table(t, str(root / name / "p.parquet"))
    out = str(root / "index")
    build_index(lambda columns: rd.read_parquet(str(root / "base"),
                                                columns=columns),
                out, docs_per_shard=64)
    append_to_index(lambda columns: rd.read_parquet(str(root / "new"),
                                                    columns=columns),
                    out, docs_per_shard=64)
    return out


def test_serving_imports_no_pandas_dataset_or_compute(appended_index):
    env = dict(os.environ, PYTHONPATH=REPO)
    p = subprocess.run([sys.executable, "-c", SERVE, appended_index],
                       capture_output=True, text=True, env=env,
                       timeout=300)
    assert p.returncode == 0, p.stderr
    got = json.loads(p.stdout.strip().splitlines()[-1])
    assert got["loaded"] == [], got
    assert got["hits"] > 0, got


def test_frontend_returns_batches_stream_returns_tables(appended_index,
                                                         ray_session):
    import ray

    from search_engine_ray.pipelines.search import (FrontendPool,
                                                    SearchEngine)

    eng = SearchEngine(appended_index, num_searchers=2)
    fp = FrontendPool(appended_index, eng.actors, n_frontends=2,
                      actor_shards=eng._actor_shards)
    try:
        queries = REF_QUERIES + ["~nosuchwordatall", ""]
        parts = ray.get(fp.frontends[0].search_many.remote(queries, 10))
        assert [type(b) for b in parts] == [pa.RecordBatch] * len(queries)
        got = fp.search_stream(queries, k=10, chunk=3)
        assert len(got) == len(queries)
        for q, b, t in zip(queries, parts, got):
            want = eng.search(q, k=10)
            assert isinstance(t, pa.Table) and t.equals(want), q
            assert pa.Table.from_batches([b]).equals(want), q
        assert sum(t.num_rows for t in got) > 0
    finally:
        fp.close()
        eng.close()


def test_arrowbuf_matches_pyarrow():
    """The buffer views and builders agree with pyarrow's own
    conversions: nulls, empty strings, non-ASCII, slices, chunks."""
    import numpy as np

    from search_engine_ray.kernels import arrowbuf

    items = ["", None, "héllo ✓", "a" * 300, None]
    got = arrowbuf.strings(items)
    got.validate(full=True)
    assert got.equals(pa.array(items, pa.string()))
    assert arrowbuf.strings([]).equals(pa.array([], pa.string()))
    assert arrowbuf.numbers([3, -1], pa.int64()).equals(
        pa.array([3, -1], pa.int64()))
    assert arrowbuf.numbers((0.5,), pa.float64()).equals(
        pa.array([0.5], pa.float64()))
    sliced = pa.array([1, 2, 3, 4], pa.int32()).slice(1, 2)
    assert arrowbuf.view(sliced, np.int32).tolist() == [2, 3]
    chunked = pa.chunked_array([[1, 2], [], [3]], pa.int64())
    assert arrowbuf.view(chunked, np.int64).tolist() == [1, 2, 3]
    assert arrowbuf.view(pa.chunked_array([], pa.int64()),
                         np.int64).tolist() == []
    offs, data = arrowbuf.string_views(pa.array(["ab", "", "c"]).slice(1))
    assert offs.tolist() == [2, 2, 3] and data.tobytes() == b"abc"
    with pytest.raises(ValueError, match="nulls"):
        arrowbuf.view(pa.array([1, None], pa.int64()), np.int64)
    with pytest.raises(TypeError):
        arrowbuf.view(pa.array([1], pa.int64()), np.int32)
