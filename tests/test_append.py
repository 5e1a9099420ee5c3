"""Incremental append: add a second generation of pages to a built index
without touching existing shards; search correctness over the union corpus
(brute-force cross-check); WAND re-enabled after refresh_block_max; the
merge pool gone when append returns; empty new shards and all-known
generations; one parquet file per shard dir; every index file written
through the one parquet writer policy, while an index in pyarrow's
default layout still serves and appends."""

from __future__ import annotations

import glob
import math
import os
import re
import shutil
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_ray.kernels.textutils import fnv1a_64
from search_engine_ray.sources.fixtures import gen_pages
from search_engine_ray.state import segments as seg
from tests.test_build_search import brute_force_docs


@pytest.fixture(scope="module")
def appended(ray_session, tmp_path_factory):
    import ray.data as rd

    from search_engine_ray.pipelines.append import append_to_index
    from search_engine_ray.pipelines.build import build_index

    root = tmp_path_factory.mktemp("append")
    base_pages = str(root / "base")
    new_pages = str(root / "new")
    os.makedirs(base_pages)
    os.makedirs(new_pages)
    import pyarrow as pa

    t1 = gen_pages(200, seed=42)
    # second corpus overlaps the first (seed 42 prefix) → dedup must drop;
    # it also contains duplicate urls WITHIN itself (ADVICE r1: append
    # must apply the same within-batch url dedup as the base build)
    fresh = gen_pages(300, seed=42).slice(150, 150)
    t2 = pa.concat_tables([fresh, fresh.slice(0, 30)])
    pq.write_table(t1, os.path.join(base_pages, "p.parquet"))
    pq.write_table(t2, os.path.join(new_pages, "p.parquet"))

    def f1(columns):
        return rd.read_parquet(base_pages, columns=columns)

    def f2(columns):
        return rd.read_parquet(new_pages, columns=columns)

    out = str(root / "index")
    build_index(f1, out, docs_per_shard=64)
    man0 = seg.read_manifest(out)
    mtimes = {}
    for s in range(man0["stats"]["num_shards"]):
        p = os.path.join(out, "segments", f"shard={s}", "segment.parquet")
        mtimes[s] = os.path.getmtime(p)
    man = append_to_index(f2, out, docs_per_shard=64)
    return out, man0, man, mtimes, base_pages, new_pages


def union_docs(base_pages, new_pages):
    docs = brute_force_docs(base_pages)
    for url, terms in brute_force_docs(new_pages).items():
        docs.setdefault(url, terms)
    return docs


def test_append_stats_and_untouched_shards(appended):
    out, man0, man, mtimes, base_pages, new_pages = appended
    docs = union_docs(base_pages, new_pages)
    assert man["stats"]["n_docs"] == len(docs)
    assert man["stats"]["num_shards"] > man0["stats"]["num_shards"]
    expect_avgdl = sum(len(t) for t in docs.values()) / len(docs)
    assert abs(man["stats"]["avgdl"] - expect_avgdl) < 1e-9
    # old shard files untouched
    for s, mt in mtimes.items():
        p = os.path.join(out, "segments", f"shard={s}", "segment.parquet")
        assert os.path.getmtime(p) == mt, f"shard {s} touched by append"


def test_append_df_and_search(appended, ray_session):
    from search_engine_ray.pipelines.search import SearchEngine

    out, man0, man, mtimes, base_pages, new_pages = appended
    docs = union_docs(base_pages, new_pages)
    df = {}
    for terms in docs.values():
        for t in set(terms):
            df[t] = df.get(t, 0) + 1
    got = dict(zip(
        pq.read_table(os.path.join(out, "terms")).column("term").to_pylist(),
        pq.read_table(os.path.join(out, "terms")).column("df").to_pylist()))
    assert got == df

    eng = SearchEngine(out, num_searchers=2, use_synonyms=False)
    try:
        for query in ["running", "word1 | word2"]:
            got_urls = eng.search(query, k=10).column("url").to_pylist()
            assert got_urls == brute_force_urls(docs, query, len(got_urls)), \
                query
    finally:
        eng.close()


def brute_force_urls(docs, query: str, k: int) -> list[str]:
    """Top-k urls of a word/OR query by BM25 over ``docs`` (url → terms),
    title and body matches both counted, ties by doc id."""
    from search_engine_ray.kernels.stemmer import stem

    n_docs = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n_docs
    df = {}
    for terms in docs.values():
        for t in set(terms):
            df[t] = df.get(t, 0) + 1
    qstems = [stem(t) for t in query.replace("|", " ").split() if stem(t)]
    scores = {}
    for url, terms in docs.items():
        s_val = 0.0
        hit = False
        for t in qstems:
            for key in ("@" + t, t):
                tf = terms.count(key)
                if tf:
                    hit = True
                    idf = math.log(1 + (n_docs - df[key] + 0.5)
                                   / (df[key] + 0.5))
                    s_val += idf * (tf / (tf + seg.K1 * (
                        1 - seg.B + seg.B * len(terms) / avgdl)))
        if hit:
            scores[url] = s_val
    expect = sorted(scores.items(),
                    key=lambda kv: (-kv[1], fnv1a_64(kv[0].encode()) >> 1))
    return [u for u, _ in expect[:k]]


def test_refresh_block_max_reenables_wand(appended, ray_session):
    from search_engine_ray.pipelines.append import refresh_block_max
    from search_engine_ray.pipelines.search import SearchEngine

    out, man0, man, mtimes, base_pages, new_pages = appended
    stale = man["stats"]["wand_stale_shards"]
    assert stale, "append must leave old shards' bounds stale"

    eng = SearchEngine(out, num_searchers=2, use_synonyms=False)
    before = eng.search("running | children", k=10)
    eng.close()

    n = refresh_block_max(out)
    assert n == len(stale)
    man2 = seg.read_manifest(out)
    assert man2["stats"]["wand_stale_shards"] == []

    eng = SearchEngine(out, num_searchers=2, use_synonyms=False)
    after = eng.search("running | children", k=10)
    eng.close()
    assert before.column("url").to_pylist() == after.column("url").to_pylist()
    assert before.column("score").to_pylist() == \
        after.column("score").to_pylist()


def test_every_shard_dir_is_one_file(appended):
    """Build and append write every shard dir through one writer: one
    parquet file plus a _SUCCESS marker."""
    out, man0, man, mtimes, base_pages, new_pages = appended
    for root in ("segments", "docmeta"):
        for s in range(man["stats"]["num_shards"]):
            d = os.path.join(out, root, f"shard={s}")
            assert len(glob.glob(os.path.join(d, "*.parquet"))) == 1, d
            assert os.path.exists(os.path.join(d, "_SUCCESS")), d


@pytest.mark.parametrize("root", ["segments", "docmeta"])
def test_split_shard_dir_raises(appended, tmp_path, root):
    from search_engine_ray.pipelines.search import ShardIndex

    out = appended[0]
    idx = str(tmp_path / "index")
    for r in ("segments", "docmeta"):
        shutil.copytree(os.path.join(out, r, "shard=0"),
                        os.path.join(idx, r, "shard=0"))
    d = os.path.join(idx, root, "shard=0")
    (f,) = glob.glob(os.path.join(d, "*.parquet"))
    t = pq.read_table(f)
    os.remove(f)
    half = t.num_rows // 2
    for name, part in (("a", t.slice(0, half)), ("b", t.slice(half))):
        pq.write_table(part, os.path.join(d, f"{name}.parquet"))
    with pytest.raises(ValueError,
                       match=re.escape(f"{d} holds 2 parquet files")):
        ShardIndex(idx, 0)


@pytest.fixture(scope="module")
def small_base(ray_session, tmp_path_factory):
    """A small base index plus two page sets to append to copies of it:
    "sparse" (one new doc and two known urls) and "known" (known urls
    only)."""
    import ray.data as rd

    from search_engine_ray.pipelines.build import build_index

    root = tmp_path_factory.mktemp("small_append")
    base = gen_pages(40, seed=7)
    more = gen_pages(80, seed=7).slice(40)
    for name, t in (("base", base), ("more", more)):
        os.makedirs(root / name)
        pq.write_table(t, str(root / name / "p.parquet"))
    base_docs = brute_force_docs(str(root / "base"))
    new_url = next(u for u in brute_force_docs(str(root / "more"))
                   if u not in base_docs)
    urls = more.column("url").to_pylist()
    sparse = pa.concat_tables([more.slice(urls.index(new_url), 1),
                               base.slice(0, 2)])
    for name, t in (("sparse", sparse), ("known", base.slice(0, 5))):
        os.makedirs(root / name)
        pq.write_table(t, str(root / name / "p.parquet"))
    out = str(root / "base_index")
    build_index(lambda columns: rd.read_parquet(str(root / "base"),
                                                columns=columns),
                out, docs_per_shard=32)
    return root, out, base_docs, new_url


def _append_copy(small_base, name: str):
    """Append page set ``name`` to a copy of the base index with one doc
    per new shard; also time a task that needs every CPU, started right
    after append returns. Returns (index, manifest, wait seconds)."""
    import ray
    import ray.data as rd

    from search_engine_ray.pipelines.append import append_to_index

    root, base, _, _ = small_base
    idx = str(root / f"{name}_index")
    shutil.copytree(base, idx)
    every_cpu = ray.remote(num_cpus=ray.cluster_resources()["CPU"])(
        lambda: None)
    ray.get(every_cpu.remote())  # untimed: earlier work has let go
    man = append_to_index(
        lambda columns: rd.read_parquet(str(root / name), columns=columns),
        idx, docs_per_shard=1)
    t = time.perf_counter()
    ray.get(every_cpu.remote())
    return idx, man, time.perf_counter() - t


@pytest.fixture(scope="module")
def sparse_append(small_base):
    return _append_copy(small_base, "sparse")


@pytest.fixture(scope="module")
def known_append(small_base):
    return _append_copy(small_base, "known")


def test_append_returns_with_its_cpus_free(sparse_append):
    """The merge pool is gone when append returns: a task that needs
    every CPU starts at once."""
    assert sparse_append[2] < 5.0


def test_append_with_empty_new_shards_serves(small_base, sparse_append):
    """One new doc over three new shards: the two empty ones still get a
    segment and a docmeta, and the index serves like a brute force."""
    from search_engine_ray.kernels.stemmer import stem
    from search_engine_ray.pipelines.search import SearchEngine

    root, base, base_docs, new_url = small_base
    idx, man, _ = sparse_append
    man0 = seg.read_manifest(base)
    assert man["stats"]["num_shards"] == man0["stats"]["num_shards"] + 3
    assert man["stats"]["n_docs"] == man0["stats"]["n_docs"] + 1
    docs = dict(base_docs)
    docs[new_url] = brute_force_docs(str(root / "sparse"))[new_url]
    new_word = next(t for t in docs[new_url]
                    if not t.startswith("@") and stem(t) == t)
    eng = SearchEngine(idx, num_searchers=2, use_synonyms=False)
    try:
        for query in [new_word, "running", "word1 | word2",
                      f"{new_word} | running"]:
            got = eng.search(query, k=10).column("url").to_pylist()
            assert got == brute_force_urls(docs, query, 10), query
        assert new_url in eng.search(new_word, k=50).column(
            "url").to_pylist()
    finally:
        eng.close()


def test_append_of_known_urls_is_a_noop(small_base, known_append):
    from search_engine_ray.pipelines.search import SearchEngine

    _, base, _, _ = small_base
    idx, man, _ = known_append
    man0 = seg.read_manifest(base)
    assert man == man0
    assert seg.read_manifest(idx) == man0
    assert not os.path.exists(os.path.join(idx, "docs", "gen=1"))
    got = []
    for path in (base, idx):
        eng = SearchEngine(path, num_searchers=2, use_synonyms=False)
        try:
            got.append([eng.search(q, k=10) for q in
                        ["running", "word1 | word2", "children"]])
        finally:
            eng.close()
    assert got[0] == got[1]


# the index writer policy (pipelines/exchange.py), pinned here on its own:
# every other column of an index file is dictionary-coded
POLICY_ENCODING = {"term": "DELTA_BYTE_ARRAY", "url": "DELTA_BYTE_ARRAY",
                   "doc_gaps": "DELTA_LENGTH_BYTE_ARRAY",
                   "pos_gaps": "DELTA_LENGTH_BYTE_ARRAY",
                   "doc_id": "PLAIN"}


def index_files(idx: str) -> list[str]:
    return sorted(f for d in ("segments", "docmeta", "terms")
                  for f in glob.glob(os.path.join(idx, d, "**", "*.parquet"),
                                     recursive=True))


def policy_violations(idx: str) -> list:
    """(file, column, what was found) for every column chunk of an index
    file that the writer policy did not write."""
    bad = []
    for f in index_files(idx):
        meta = pq.ParquetFile(f).metadata
        for g in range(meta.num_row_groups):
            rg = meta.row_group(g)
            for c in range(rg.num_columns):
                col = rg.column(c)
                name = col.path_in_schema
                if col.compression != "ZSTD":
                    bad.append((f, name, col.compression))
                if not rg.num_rows:  # no data page reports an encoding
                    continue
                want = POLICY_ENCODING.get(
                    name, None if col.physical_type == "BOOLEAN"
                    else "RLE_DICTIONARY")
                if (want and want not in col.encodings) or (
                        name in POLICY_ENCODING
                        and "RLE_DICTIONARY" in col.encodings):
                    bad.append((f, name, col.encodings))
    return bad


def arrow_schema_footers(idx: str) -> list[str]:
    """Index files whose footer holds a serialized Arrow schema."""
    return [f for f in index_files(idx)
            if b"ARROW:schema" in (pq.ParquetFile(f).metadata.metadata
                                   or {})]


def test_every_index_file_uses_the_writer_policy(small_base, sparse_append,
                                                 tmp_path):
    """Build, an append that leaves new shards empty, and
    refresh_block_max all write through the one writer policy, with no
    Arrow schema copy in any footer."""
    from search_engine_ray.pipelines.append import refresh_block_max

    _, base, _, _ = small_base
    idx, man, _ = sparse_append
    refreshed = str(tmp_path / "refreshed")
    shutil.copytree(idx, refreshed)
    stale = man["stats"]["wand_stale_shards"]
    # refresh must rewrite what it touches, whatever layout it found
    rewrite_with_pyarrow_defaults(
        [f for s in stale for f in glob.glob(os.path.join(
            refreshed, "segments", f"shard={s}", "*.parquet"))])
    assert refresh_block_max(refreshed) == len(stale) > 0
    assert any(pq.ParquetFile(f).metadata.num_rows == 0
               for f in index_files(idx))  # an empty new shard is checked
    for path in (base, idx, refreshed):
        assert any(f.endswith("terms.parquet") for f in index_files(path))
        assert policy_violations(path) == []
        assert arrow_schema_footers(path) == []


def rewrite_with_pyarrow_defaults(files: list[str]) -> None:
    """Rewrite parquet files as pyarrow's defaults write them (snappy,
    dictionary, statistics), row group by row group: the layout of
    indexes written before the writer policy."""
    for f in files:
        pf = pq.ParquetFile(f)
        groups = [pf.read_row_group(g)
                  for g in range(pf.metadata.num_row_groups)]
        with pq.ParquetWriter(f + ".tmp", pf.schema_arrow) as w:
            for t in groups:
                w.write_table(t)
        pf.close()
        os.replace(f + ".tmp", f)


def test_default_layout_index_serves_and_appends(small_base, tmp_path,
                                                 ray_session):
    """An index in pyarrow's default layout, appended to under the
    writer policy, answers exactly as the same index written under the
    policy throughout."""
    import ray.data as rd

    from search_engine_ray.pipelines.append import append_to_index
    from search_engine_ray.pipelines.search import SearchEngine

    root, base, _, _ = small_base
    old, new = str(tmp_path / "old"), str(tmp_path / "new")
    for path in (old, new):
        shutil.copytree(base, path)
    rewrite_with_pyarrow_defaults(index_files(old))
    for path in (old, new):
        append_to_index(lambda columns: rd.read_parquet(
            str(root / "more"), columns=columns), path, docs_per_shard=32)
    stats = [{k: v for k, v in seg.read_manifest(path)["stats"].items()
              if not k.endswith("_wall_s")} for path in (old, new)]
    assert stats[0] == stats[1]
    codecs = {pq.ParquetFile(f).metadata.row_group(0).column(0).compression
              for f in index_files(old)}
    assert codecs == {"SNAPPY", "ZSTD"}  # one index, both layouts

    queries = ["running", "children & data", "word1 | word2",
               '"word1 word2"', "running & -children", "~nosuchword"]
    got = []
    for path in (old, new):
        eng = SearchEngine(path, num_searchers=2, use_synonyms=False)
        try:
            got.append(([eng.search(q, k=10) for q in queries],
                        eng.search_batch(queries, k=10)))
        finally:
            eng.close()
    assert any(t.num_rows for t in got[1][0])
    for tabs_old, tabs_new in zip(got[0], got[1]):
        for q, a, b in zip(queries, tabs_old, tabs_new):
            assert a.equals(b), q


def test_distributed_terms_stage_matches_local(small_base, tmp_path,
                                                monkeypatch):
    """The terms stage's distributed path (taken above ~1 GiB of
    segments) writes the in-process path's (term, df) rows through the same
    writer policy."""
    from search_engine_ray.pipelines import build

    _, base, _, _ = small_base
    idx = str(tmp_path / "index")
    shutil.copytree(base, idx)
    monkeypatch.setattr(build, "TERMS_LOCAL_MAX_BYTES", -1)
    build._write_terms(idx)
    assert not any(f.endswith("terms.parquet") for f in index_files(idx))
    assert policy_violations(idx) == []
    got, want = (seg.read_parquet_dir(os.path.join(path, "terms"))
                 for path in (idx, base))
    assert got.num_rows == want.num_rows
    assert dict(zip(got.column("term").to_pylist(),
                    got.column("df").to_pylist())) == dict(
        zip(want.column("term").to_pylist(), want.column("df").to_pylist()))
