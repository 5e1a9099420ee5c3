"""Incremental append: add a second generation of pages to a built index
without touching existing shards; search correctness over the union
corpus (brute-force cross-check); serving after an append unchanged by
the optional refresh_block_max tightening; the merge pool gone when
append returns; new shards sized by the generation's new urls, empty
ones included, and all-known generations; one parquet file per shard
dir; every index file written through the one parquet writer policy,
while an index in pyarrow's default layout still serves and appends;
segment rows keyed by stable term ids after a build, an append and a
refresh; no stale vocabulary within one process; and an index in the
term-string layout, or without a recorded bound avgdl, refused by every
entry point."""

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
from tests.test_build_search import (brute_force_docs, check_id_layout,
                                     segment_terms)


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


def test_refresh_block_max_is_optional_tightening(appended, ray_session):
    """The append records one bound avgdl per generation. Serving right
    after it equals serving after refresh_block_max, which rewrites the
    old shards, collapses the record to the current avgdl, and then has
    nothing left to rewrite."""
    from search_engine_ray.pipelines.append import refresh_block_max
    from search_engine_ray.pipelines.search import SearchEngine

    out, man0, man, mtimes, base_pages, new_pages = appended
    n_old = man0["stats"]["num_shards"]
    assert man["stats"]["bound_avgdl"] == [
        [0, man0["stats"]["avgdl"]], [n_old, man["stats"]["avgdl"]]]
    queries = ["running | children", "running", "word1 | word2 | data"]

    def serve():
        eng = SearchEngine(out, num_searchers=2, use_synonyms=False)
        try:
            return eng.search_batch(queries, k=10)
        finally:
            eng.close()

    before = serve()
    assert refresh_block_max(out) == n_old
    man2 = seg.read_manifest(out)
    assert man2["stats"]["bound_avgdl"] == [[0, man["stats"]["avgdl"]]]
    after = serve()
    assert refresh_block_max(out) == 0
    for q, b, a in zip(queries, before, after):
        assert b.num_rows > 0, q
        assert b.column("url").to_pylist() == a.column("url").to_pylist()
        assert b.column("score").to_pylist() == \
            a.column("score").to_pylist()


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
    """A small base index plus page sets to append to copies of it:
    "sparse" (one new doc and two known urls), "pair" (two new docs whose
    url fingerprints share a residue mod 2, and a known url), "known"
    (known urls only) and "more" (40 new pages)."""
    import ray.data as rd

    from search_engine_ray.kernels.stemmer import stem
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
    new_urls = [u for u, terms in brute_force_docs(str(root / "more")).items()
                if u not in base_docs
                and any(not t.startswith("@") and stem(t) == t
                        for t in terms)]
    # doc_id = fnv1a_64(url) >> 1, and a new doc's shard is doc_id % 2
    # past the old ones when the generation has two new shards
    odd = [(fnv1a_64(u.encode()) >> 1) % 2 for u in new_urls]
    pair_urls = [u for u, o in zip(new_urls, odd) if o == odd[0]][:2]
    known = base.column("url").to_pylist().index(next(iter(base_docs)))
    pair = pa.concat_tables([more.slice(urls.index(u), 1)
                             for u in pair_urls] + [base.slice(known, 1)])
    for name, t in (("sparse", sparse), ("known", base.slice(0, 5)),
                    ("pair", pair)):
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


@pytest.fixture(scope="module")
def pair_append(small_base):
    return _append_copy(small_base, "pair")


def test_append_returns_with_its_cpus_free(sparse_append):
    """The merge pool is gone when append returns: a task that needs
    every CPU starts at once."""
    assert sparse_append[2] < 5.0


def _serves_like_brute_force(idx: str, docs: dict, new_urls: list[str]
                             ) -> None:
    """Queries on a word of each new doc, and on old words, answer as a
    brute force over ``docs`` does, and find every new doc."""
    from search_engine_ray.kernels.stemmer import stem
    from search_engine_ray.pipelines.search import SearchEngine

    eng = SearchEngine(idx, num_searchers=2, use_synonyms=False)
    try:
        for url in new_urls:
            new_word = next(t for t in docs[url]
                            if not t.startswith("@") and stem(t) == t)
            for query in [new_word, "running", "word1 | word2",
                          f"{new_word} | running"]:
                got = eng.search(query, k=10).column("url").to_pylist()
                assert got == brute_force_urls(docs, query, 10), query
            assert url in eng.search(new_word, k=50).column(
                "url").to_pylist()
    finally:
        eng.close()


def test_append_with_empty_new_shards_serves(small_base, sparse_append):
    """One new doc and two known urls: the generation is sized by its one
    new url, so it adds one shard, and the index serves like a brute
    force."""
    root, base, base_docs, new_url = small_base
    idx, man, _ = sparse_append
    man0 = seg.read_manifest(base)
    assert man["stats"]["num_shards"] == man0["stats"]["num_shards"] + 1
    assert man["stats"]["n_docs"] == man0["stats"]["n_docs"] + 1
    docs = dict(base_docs)
    docs[new_url] = brute_force_docs(str(root / "sparse"))[new_url]
    _serves_like_brute_force(idx, docs, [new_url])


def test_append_backfills_an_empty_new_shard(small_base, pair_append):
    """Two new docs whose fingerprints share a residue mod 2, and a known
    url: two new shards, one holding both docs and the other empty, which
    still gets a segment and a docmeta; the index serves like a brute
    force."""
    root, base, base_docs, _ = small_base
    idx, man, _ = pair_append
    n0 = seg.read_manifest(base)["stats"]["num_shards"]
    assert man["stats"]["num_shards"] == n0 + 2
    new = {u: t for u, t in brute_force_docs(str(root / "pair")).items()
           if u not in base_docs}
    assert len(new) == 2
    assert man["stats"]["n_docs"] == len(base_docs) + 2
    for d, name in (("docmeta", "docmeta.parquet"),
                    ("segments", "segment.parquet")):
        rows = sorted(pq.read_metadata(os.path.join(
            idx, d, f"shard={s}", name)).num_rows for s in (n0, n0 + 1))
        assert rows[0] == 0 < rows[1], (d, rows)
    _serves_like_brute_force(idx, {**base_docs, **new}, sorted(new))


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
                   "term_id": "DELTA_BINARY_PACKED",
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


def test_every_index_file_uses_the_writer_policy(small_base, pair_append,
                                                 tmp_path):
    """Build, an append that leaves a new shard empty, and
    refresh_block_max all write through the one writer policy, with no
    Arrow schema copy in any footer."""
    from search_engine_ray.pipelines.append import refresh_block_max

    _, base, _, _ = small_base
    idx, man, _ = pair_append
    refreshed = str(tmp_path / "refreshed")
    shutil.copytree(idx, refreshed)
    stats = man["stats"]
    loose = [s for s in range(stats["num_shards"])
             if seg.shard_bound_avgdl(stats, s) != stats["avgdl"]]
    # refresh must rewrite what it touches, whatever layout it found
    rewrite_with_pyarrow_defaults(
        [f for s in loose for f in glob.glob(os.path.join(
            refreshed, "segments", f"shard={s}", "*.parquet"))])
    assert refresh_block_max(refreshed) == len(loose) > 0
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


@pytest.fixture(scope="module")
def more_append(small_base, tmp_path_factory):
    """A copy of the small base index with the "more" pages appended."""
    import ray.data as rd

    from search_engine_ray.pipelines.append import append_to_index

    root, base, _, _ = small_base
    idx = str(tmp_path_factory.mktemp("more_append") / "index")
    shutil.copytree(base, idx)
    append_to_index(lambda columns: rd.read_parquet(
        str(root / "more"), columns=columns), idx, docs_per_shard=32)
    return idx


def _term_ids(idx: str) -> dict:
    t = seg.read_parquet_dir(os.path.join(idx, "terms"))
    assert t.column("term").to_pylist() == sorted(
        t.column("term").to_pylist())
    return dict(zip(t.column("term").to_pylist(),
                    t.column("term_id").to_pylist()))


def test_term_ids_after_build_append_and_refresh(small_base, more_append,
                                                 tmp_path):
    """After the build, after an append that adds new terms and after
    refresh_block_max, segments are keyed by term id alone
    (check_id_layout); the append keeps every old term's id and numbers
    the new terms after the largest one in term order; refresh leaves
    every term_id as it was."""
    from search_engine_ray.pipelines.append import refresh_block_max

    _, base, _, _ = small_base
    check_id_layout(base)
    check_id_layout(more_append)
    old, grown = _term_ids(base), _term_ids(more_append)
    assert {t: grown[t] for t in old} == old
    new = sorted(set(grown) - set(old))
    assert new, "the appended pages must bring new terms"
    top = max(old.values())
    assert [grown[t] for t in new] == list(range(top + 1,
                                                 top + 1 + len(new)))
    refreshed = str(tmp_path / "refreshed")
    shutil.copytree(more_append, refreshed)
    assert refresh_block_max(refreshed) > 0
    check_id_layout(refreshed)
    for f in glob.glob(os.path.join(more_append, "segments", "shard=*",
                                    "*.parquet")):
        g = f.replace(more_append, refreshed)
        assert pq.read_table(g, columns=["term_id"]).equals(
            pq.read_table(f, columns=["term_id"])), f


def test_pool_counted_terms_match_the_segments(small_base, more_append):
    """The terms table the merge pool's counts build (one row per term:
    its df summed over the exchange runs) equals a count over the written
    segments, after a build and after an append, and is written through
    the writer policy."""
    _, base, _, _ = small_base
    for idx in (base, more_append):
        df: dict = {}
        for d in glob.glob(os.path.join(idx, "segments", "shard=*")):
            counts = pq.read_table(d, columns=["df"]).column("df")
            for term, n in zip(segment_terms(d), counts.to_pylist()):
                df[term] = df.get(term, 0) + n
        got = seg.read_parquet_dir(os.path.join(idx, "terms"))
        assert dict(zip(got.column("term").to_pylist(),
                        got.column("df").to_pylist())) == df
        assert policy_violations(idx) == []


def _finds_every_term(idx: str, shard: int) -> None:
    """A ShardIndex opened now on ``shard`` finds each of its segment's
    terms, at that term's own row."""
    from search_engine_ray.pipelines.search import ShardIndex

    d = os.path.join(idx, "segments", f"shard={shard}")
    terms = segment_terms(d)
    assert terms, d
    sh = ShardIndex(idx, shard)
    dfs = pq.read_table(d, columns=["df"]).column("df").to_pylist()
    assert [sh.lookup(t).df for t in terms] == dfs


def test_no_stale_vocabulary_in_one_process(small_base, tmp_path):
    """Shards opened in this process before an append, and after it, and
    after a force rebuild at the same path with another corpus, each
    read the vocabulary the index holds when they open."""
    import ray.data as rd

    from search_engine_ray.pipelines.append import append_to_index
    from search_engine_ray.pipelines.build import build_index
    from search_engine_ray.pipelines.search import ShardIndex

    root, base, _, _ = small_base
    idx = str(tmp_path / "index")
    shutil.copytree(base, idx)
    n0 = seg.read_manifest(idx)["stats"]["num_shards"]
    before = ShardIndex(idx, 0)
    old_terms = segment_terms(os.path.join(idx, "segments", "shard=0"))
    assert before.lookup(old_terms[-1]) is not None
    man = append_to_index(lambda columns: rd.read_parquet(
        str(root / "more"), columns=columns), idx, docs_per_shard=32)
    assert man["stats"]["num_shards"] > n0
    for s in (0, n0 - 1, n0, man["stats"]["num_shards"] - 1):
        _finds_every_term(idx, s)

    other = str(tmp_path / "other")
    os.makedirs(other)
    pq.write_table(gen_pages(40, seed=99), os.path.join(other, "p.parquet"))
    build_index(lambda columns: rd.read_parquet(other, columns=columns),
                idx, docs_per_shard=32, force=True)
    _finds_every_term(idx, 0)
    vocab = set(_term_ids(idx))
    gone = [t for t in _term_ids(base) if t not in vocab]
    assert gone, "the other corpus must drop some terms"
    sh = ShardIndex(idx, 0)
    assert all(sh.lookup(t) is None for t in gone)


def _to_term_string_layout(idx: str) -> None:
    """Rewrite an index into the layout before term ids: segment rows
    keyed and sorted by their term string, a terms table of (term, df)
    and no ``segment_key`` in the manifest."""
    t = seg.read_parquet_dir(os.path.join(idx, "terms"))
    by_id = dict(zip(t.column("term_id").to_pylist(),
                     t.column("term").to_pylist()))
    for f in glob.glob(os.path.join(idx, "segments", "shard=*",
                                    "*.parquet")):
        rows = pq.read_table(f)
        names = pa.array([by_id[i] for i in
                          rows.column("term_id").to_pylist()], pa.string())
        rows = rows.drop_columns(["term_id"])
        rows = rows.add_column(0, "term", names).sort_by("term")
        pq.write_table(rows, f)
    pq.write_table(t.drop_columns(["term_id"]),
                   os.path.join(idx, "terms", "terms.parquet"))
    man = seg.read_manifest(idx)
    del man["stats"]["segment_key"]
    seg.write_manifest(idx, man)


def _assert_refused(root, idx: str, layout: str) -> None:
    """The engine, append and refresh_block_max each raise the rebuild
    ValueError naming ``layout``, and the refused append writes
    nothing."""
    import ray.data as rd

    from search_engine_ray.pipelines.append import (append_to_index,
                                                    refresh_block_max)
    from search_engine_ray.pipelines.search import SearchEngine

    msg = re.escape(f"index at {idx} predates the {layout}; rebuild it "
                    "with build_index(force=True)")
    with pytest.raises(ValueError, match=msg):
        SearchEngine(idx, num_searchers=1)
    with pytest.raises(ValueError, match=msg):
        append_to_index(lambda columns: rd.read_parquet(
            str(root / "more"), columns=columns), idx, docs_per_shard=32)
    with pytest.raises(ValueError, match=msg):
        refresh_block_max(idx)
    assert sorted(os.listdir(os.path.join(idx, "docs"))) == ["gen=0"]


def test_term_string_layout_is_refused(small_base, tmp_path):
    """An index whose segments are keyed by term strings raises the
    rebuild ValueError from the engine, append and refresh_block_max,
    and the refused append writes nothing."""
    root, base, _, _ = small_base
    idx = str(tmp_path / "index")
    shutil.copytree(base, idx)
    _to_term_string_layout(idx)
    _assert_refused(root, idx, "term-id segment layout (v20)")


def test_unrecorded_bound_avgdl_is_refused(small_base, tmp_path):
    """An index from before the bound avgdl record, which still lists
    the shards whose bounds predate an append in ``wand_stale_shards``,
    is refused the same way."""
    root, base, _, _ = small_base
    idx = str(tmp_path / "index")
    shutil.copytree(base, idx)
    man = seg.read_manifest(idx)
    del man["stats"]["bound_avgdl"]
    man["stats"]["wand_stale_shards"] = [0]
    seg.write_manifest(idx, man)
    _assert_refused(root, idx, "recorded block-max avgdl (v21)")
