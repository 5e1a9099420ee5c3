"""Checkpoint-resume robustness: a build interrupted mid-segments (some
shard dirs missing, stage marker absent) must rebuild ONLY the missing
shards, byte-identical to an uninterrupted build."""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from search_engine_ray.sources.fixtures import gen_pages


def _dir_hash(path: str) -> str:
    h = hashlib.sha256()
    for root, _, files in sorted(os.walk(path)):
        for f in sorted(files):
            fp = os.path.join(root, f)
            h.update(f.encode())
            with open(fp, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data as rd

    from search_engine_ray.pipelines.build import build_index

    root = tmp_path_factory.mktemp("resume")
    pages_path = str(root / "pages")
    os.makedirs(pages_path)
    pq.write_table(gen_pages(250), os.path.join(pages_path, "p.parquet"))

    def factory(columns):
        return rd.read_parquet(pages_path, columns=columns)

    out = str(root / "index")
    man = build_index(factory, out, docs_per_shard=48)
    return out, man, factory


def test_interrupted_segments_rebuild_only_missing(built):
    from search_engine_ray.pipelines.build import build_index

    out, man, factory = built
    num_shards = man["stats"]["num_shards"]
    assert num_shards >= 4

    seg_dir = os.path.join(out, "segments")
    baseline = {s: _dir_hash(os.path.join(seg_dir, f"shard={s}"))
                for s in range(num_shards)}

    # simulate a crash: two shards vanish, the stage marker is gone
    for s in (1, 3):
        shutil.rmtree(os.path.join(seg_dir, f"shard={s}"))
    man_path = os.path.join(out, "manifest.json")
    m = json.load(open(man_path))
    m["stages_done"].remove("segments")
    with open(man_path, "w") as f:
        json.dump(m, f)

    mtimes_before = {
        s: os.path.getmtime(os.path.join(seg_dir, f"shard={s}",
                                         "segment.parquet"))
        for s in range(num_shards) if s not in (1, 3)}

    man2 = build_index(factory, out, docs_per_shard=48)
    assert "segments" in man2["stages_done"]

    for s in range(num_shards):
        assert _dir_hash(os.path.join(seg_dir, f"shard={s}")) \
            == baseline[s], f"shard {s} differs after resume"
    for s, mt in mtimes_before.items():
        assert os.path.getmtime(os.path.join(
            seg_dir, f"shard={s}", "segment.parquet")) == mt, \
            f"shard {s} was needlessly rebuilt"


def test_search_works_after_resume(built, ray_session):
    from search_engine_ray.pipelines.search import SearchEngine

    out, man, factory = built
    eng = SearchEngine(out, num_searchers=2)
    try:
        res = eng.search("running | children", k=5)
        assert res.num_rows > 0
    finally:
        eng.close()
