"""Index build + BM25 search: end-to-end over the adversarial fixture
corpus (includes duplicate urls and oversized-title rejects), with a
brute-force BM25 cross-check and resume semantics."""

from __future__ import annotations

import glob
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_ray.sources.fixtures import gen_pages
from search_engine_ray.kernels.htmlparser import HtmlParser
from search_engine_ray.kernels.stemmer import stem
from search_engine_ray.state import segments as seg


@pytest.fixture(scope="module")
def index_dir(ray_session, tmp_path_factory):
    import ray.data as rd
    from search_engine_ray.pipelines.build import build_index

    root = tmp_path_factory.mktemp("idx")
    pages_path = str(root / "pages")
    os.makedirs(pages_path)
    pq.write_table(gen_pages(300), os.path.join(pages_path, "part0.parquet"))

    def factory(columns):
        return rd.read_parquet(pages_path, columns=columns)

    out = str(root / "index")
    man = build_index(factory, out, docs_per_shard=64)
    return out, man, pages_path


def brute_force_docs(pages_path):
    """Independent reimplementation: parse every unique page, index terms."""
    t = pq.read_table(pages_path)
    seen = {}
    for url, html in zip(t.column("url").to_pylist(),
                         t.column("html").to_pylist()):
        if url in seen:
            continue
        p = HtmlParser(html)
        if len(p.title_words) >= 40:
            seen[url] = None
            continue
        terms = []
        for w in p.title_words:
            s = stem(w.decode("utf-8", "ignore"))
            if s:
                terms.append("@" + s)
        for w, _ in p.words_flags:
            s = stem(w.decode("utf-8", "ignore"))
            if s:
                terms.append(s)
        seen[url] = terms
    return {u: t for u, t in seen.items() if t is not None}


def segment_terms(segment_dir: str) -> list[str]:
    """The term of each row of a segment (INDEX/segments/shard=N), in
    row order: its term_id looked up in the index's terms table."""
    index_dir = os.path.dirname(os.path.dirname(segment_dir))
    t = pq.read_table(os.path.join(index_dir, "terms"),
                      columns=["term", "term_id"])
    by_id = dict(zip(t.column("term_id").to_pylist(),
                     t.column("term").to_pylist()))
    ids = pq.read_table(segment_dir, columns=["term_id"]).column("term_id")
    return [by_id[i] for i in ids.to_pylist()]


def check_id_layout(index_dir: str) -> None:
    """Segment rows are keyed by term id alone: no segment file holds a
    term column; every segment term_id names exactly one terms row; and
    each term's df in the terms table is its decoded postings summed over
    shards."""
    terms = pq.read_table(os.path.join(index_dir, "terms"))
    ids = terms.column("term_id").to_pylist()
    assert len(set(ids)) == len(ids)
    by_id = dict(zip(ids, terms.column("term").to_pylist()))
    postings = dict.fromkeys(by_id.values(), 0)
    for f in glob.glob(os.path.join(index_dir, "segments", "shard=*",
                                    "*.parquet")):
        assert "term" not in pq.read_schema(f).names, f
        seg_rows = pq.read_table(f, columns=["term_id", "doc_gaps"])
        names = [by_id[i] for i in seg_rows.column("term_id").to_pylist()]
        for name, gaps in zip(names, seg_rows.column("doc_gaps").to_pylist()):
            # one varint per posting: count the bytes that end one
            postings[name] += sum(b < 0x80 for b in gaps)
    assert dict(zip(terms.column("term").to_pylist(),
                    terms.column("df").to_pylist())) == postings


def test_build_stats(index_dir):
    out, man, pages_path = index_dir
    docs = brute_force_docs(pages_path)
    assert man["stats"]["n_docs"] == len(docs)
    expect_avgdl = sum(len(t) for t in docs.values()) / len(docs)
    assert abs(man["stats"]["avgdl"] - expect_avgdl) < 1e-9
    assert man["stats"]["num_shards"] >= 2
    assert {"docs", "segments", "terms"} <= set(man["stages_done"])


def test_dedup_exactly_once(index_dir):
    out, man, pages_path = index_dir
    d = pq.read_table(os.path.join(out, "docs"), columns=["url"])
    urls = d.column("url").to_pylist()
    assert len(urls) == len(set(urls))


def test_terms_df_matches_bruteforce(index_dir):
    out, man, pages_path = index_dir
    docs = brute_force_docs(pages_path)
    df = {}
    for terms in docs.values():
        for term in set(terms):
            df[term] = df.get(term, 0) + 1
    t = pq.read_table(os.path.join(out, "terms"))
    got = dict(zip(t.column("term").to_pylist(), t.column("df").to_pylist()))
    assert got == df


def test_terms_table_sums_segment_df_sorted(index_dir):
    """The terms table holds one row per term, sorted by term, whose df
    is the sum of that term's df over every shard's segment row; a fresh
    build numbers the terms by row, and each segment's rows ascend by
    term id."""
    from search_engine_ray.pipelines.build import TERMS_SCHEMA

    out, man, pages_path = index_dir
    assert man["stats"]["segment_key"] == "term_id"
    df = {}
    for name in os.listdir(os.path.join(out, "segments")):
        d = os.path.join(out, "segments", name)
        ids = seg.read_parquet_dir(d, columns=["term_id"]).column(
            "term_id").to_pylist()
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        t = seg.read_parquet_dir(d, columns=["df"])
        for term, n in zip(segment_terms(d), t.column("df").to_pylist()):
            df[term] = df.get(term, 0) + n
    t = seg.read_parquet_dir(os.path.join(out, "terms"))
    assert t.schema == TERMS_SCHEMA
    terms = t.column("term").to_pylist()
    assert terms == sorted(df)
    assert t.column("df").to_pylist() == [df[term] for term in terms]
    assert t.column("term_id").to_pylist() == list(range(len(terms)))
    check_id_layout(out)


def test_dedup_keeps_smallest_html_fingerprint(ray_session, tmp_path):
    """Duplicate urls planted with different html, spread over several
    files: one page per url survives, the copy whose html has the
    smallest fingerprint, and the page count is the pre-dedup one."""
    import pyarrow as pa
    import ray.data as rd

    from search_engine_ray.kernels.textutils import fnv1a_64
    from search_engine_ray.pipelines.build import dedup_pages_with_count

    base = gen_pages(40, seed=5, dup_frac=0)
    html_col = base.schema.get_field_index("html")
    parts = [base]
    for i in range(3):
        dup = base.slice(5 * i, 10)
        htmls = [h + f"<!-- copy {i} -->".encode()
                 for h in dup.column("html").to_pylist()]
        parts.append(dup.set_column(html_col, "html",
                                    pa.array(htmls, pa.binary())))
    pages = str(tmp_path / "pages")
    os.makedirs(pages)
    for i, t in enumerate(reversed(parts)):
        pq.write_table(t, os.path.join(pages, f"p{i}.parquet"))
    winner = {}
    for t in parts:
        for url, html in zip(t.column("url").to_pylist(),
                             t.column("html").to_pylist()):
            if url not in winner or fnv1a_64(html) < fnv1a_64(winner[url]):
                winner[url] = html

    ds, n_pages = dedup_pages_with_count(
        lambda columns: rd.read_parquet(pages, columns=columns))
    rows = ds.select_columns(["url", "html"]).take_all()
    assert n_pages == sum(t.num_rows for t in parts) == 70
    assert len(rows) == len(winner) == 40
    assert {r["url"]: r["html"] for r in rows} == winner


def test_index_bytes_total_is_the_benchmark_figure(index_dir, capsys):
    """scripts/index_bytes.py's rows sum to the index's on-disk size,
    and its printed total is perfbench's index_bytes_per_doc."""
    import importlib.util

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def load(name, *path):
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(repo, *path))
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
        return mod

    script = load("index_bytes", "scripts", "index_bytes.py")
    bench = load("perfbench_run", "perfbench", "run.py")
    out, man, pages_path = index_dir
    size = sum(bench.dir_bytes(os.path.join(out, d))
               for d in ("segments", "docmeta", "terms"))
    rows = script.breakdown(out)
    assert sum(rows.values()) == size
    assert rows["segments", "term_id"] > 0 and rows["docmeta", "url"] > 0
    assert ("segments", "term") not in rows and rows["terms", "term"] > 0
    # routing reads the segments' term ids: a build writes no filter
    assert not glob.glob(os.path.join(out, "segments", "*", "_vocab.bloom"))
    keys = sum(pq.read_metadata(f).num_rows for f in glob.glob(
        os.path.join(out, "segments", "shard=*", "*.parquet")))
    script.main([out])
    n_docs = seg.read_manifest(out)["stats"]["n_docs"]
    printed = capsys.readouterr().out.splitlines()
    vocab = next(line for line in printed if line.startswith("vocabulary:"))
    n_terms = pq.read_metadata(os.path.join(out, "terms",
                                            "terms.parquet")).num_rows
    assert vocab.startswith(f"vocabulary: {n_terms} terms rows, {keys} "
                            "segment rows, "), vocab
    total = printed[-1].split()
    assert total == ["total", str(size), f"{size / n_docs:.4f}"]


def test_bm25_search_matches_bruteforce(index_dir, ray_session):
    from search_engine_ray.pipelines.search import SearchEngine
    from search_engine_ray.kernels.textutils import fnv1a_64

    out, man, pages_path = index_dir
    docs = brute_force_docs(pages_path)
    n_docs = len(docs)
    avgdl = sum(len(t) for t in docs.values()) / n_docs

    eng = SearchEngine(out, num_searchers=2, use_synonyms=False)
    try:
        for query in ["running", "children & data", "word1 | word2"]:
            res = eng.search(query, k=10)
            # brute force: same candidate + scoring semantics
            qterms = [stem(w) for w in
                      query.replace("&", " ").replace("|", " ").split()]
            qterms = [t for t in qterms if t]
            is_and = "&" in query
            df = {}
            for terms in docs.values():
                for t in set(terms):
                    df[t] = df.get(t, 0) + 1
            scores = {}
            for url, terms in docs.items():
                # candidates per engine semantics incl. '@' decoration OR
                hits = [t for t in qterms
                        if t in terms or ("@" + t) in terms]
                ok = (len(hits) == len(qterms)) if is_and else bool(hits)
                if not ok:
                    continue
                dl = len(terms)
                s = 0.0
                for t in qterms:
                    for key in ("@" + t, t):
                        tf = terms.count(key)
                        if tf:
                            idf = math.log(
                                1 + (n_docs - df.get(key, 0) + 0.5)
                                / (df.get(key, 0) + 0.5))
                            s += idf * (tf / (tf + seg.K1 * (
                                1 - seg.B + seg.B * dl / avgdl)))
                scores[url] = s
            expect = sorted(scores.items(),
                            key=lambda kv: (-kv[1],
                                            fnv1a_64(kv[0].encode()) >> 1))
            got_urls = res.column("url").to_pylist()
            got_scores = res.column("score").to_pylist()
            assert got_urls == [u for u, _ in expect[:len(got_urls)]], query
            for g, (_, e) in zip(got_scores, expect):
                assert abs(g - e) < 1e-9, query
    finally:
        eng.close()


def test_candidate_semantics_and_not_phrase(index_dir, ray_session):
    from search_engine_ray.pipelines.search import SearchEngine

    out, man, pages_path = index_dir
    docs = brute_force_docs(pages_path)
    eng = SearchEngine(out, num_searchers=2, use_synonyms=False)
    try:
        # AND-NOT: no result doc may contain the negated term
        res = eng.search("running & -children", k=50)
        for url in res.column("url").to_pylist():
            terms = docs[url]
            assert "run" in terms or "@run" in terms
            # body-side 'child' must be excluded; title-side '@child' is NOT
            # excluded because the word path stems '@children' (the @-stem
            # asymmetry quirk, query.cpp:91 vs Indexer.hpp:355-357)
            assert "child" not in terms
        # bare NOT matches nothing (reference csolver cannot serve NOT)
        assert eng.search("-running", k=10).num_rows == 0
        # stopword-only query compiles to invalid → empty
        assert eng.search("the", k=10).num_rows == 0
        # phrase results must show the exact consecutive kept-term sequence
        res = eng.search('"word1 word2"', k=50)
        for url in res.column("url").to_pylist():
            terms = docs[url]
            body = [t for t in terms if not t.startswith("@")]
            title = [t for t in terms if t.startswith("@")]
            seqs = [body, [t[1:] for t in title]]
            found = any(
                s[i] == "word1" and s[i + 1] == "word2"
                for s in seqs for i in range(len(s) - 1))
            # positions span title++body contiguously; also allow boundary
            full = [t[1:] for t in title] + body
            assert found or any(
                full[i] == "word1" and full[i + 1] == "word2"
                for i in range(len(full) - 1)), url
    finally:
        eng.close()


def test_resume_noop_and_stage_redo(index_dir, ray_session):
    import ray.data as rd
    from search_engine_ray.pipelines.build import build_index

    out, man, pages_path = index_dir

    def factory(columns):
        return rd.read_parquet(pages_path, columns=columns)

    import time
    t0 = time.time()
    man2 = build_index(factory, out, docs_per_shard=64)
    assert time.time() - t0 < 2.0  # all stages skipped
    assert man2["stats"]["n_docs"] == man["stats"]["n_docs"]

    # different config → full rebuild with a different shard count
    man3 = build_index(factory, out, docs_per_shard=128)
    assert man3["stats"]["n_docs"] == man["stats"]["n_docs"]
    assert man3["stats"]["num_shards"] != man["stats"]["num_shards"]


def test_segment_blockmax_bounds_scores(index_dir):
    """block_max_impact must upper-bound every impact in its block, with
    no tolerance (stored bounds round up). One-block rows store no
    bound."""
    out, man, pages_path = index_dir
    t = pq.read_table(os.path.join(out, "segments"))
    # read stats from disk: an earlier test in this module rebuilds the
    # fixture index with a different shard count
    cur_man = seg.read_manifest(out)
    avgdl = cur_man["stats"]["avgdl"]
    # per-shard dl arrays in doc_id-sorted (= ordinal) order: posting
    # doc values are ordinals into the shard's sorted docmeta
    shard_dls = {}
    for name in os.listdir(os.path.join(out, "docmeta")):
        if not name.startswith("shard="):
            continue
        s = int(name.split("=", 1)[1])
        d = pq.read_table(os.path.join(out, "docmeta", name),
                          columns=["doc_id", "dl"])
        o = np.argsort(d.column("doc_id").to_numpy())
        shard_dls[s] = d.column("dl").to_numpy(
            zero_copy_only=False)[o].astype(np.int64)
    for i in range(min(t.num_rows, 200)):
        row = {name: t.column(name)[i].as_py()
               for name in ("df", "doc_gaps", "tfs", "block_offs",
                            "block_last_doc", "block_max_impact")}
        tp = seg.LazyPostings(row)
        if tp.block_max_impact is None:
            assert tp.df <= seg.BLOCK_SIZE
            continue
        dls = shard_dls[int(t.column("shard")[i].as_py())][tp.doc_ids]
        imps = seg.bm25_impact(tp.tfs, dls, avgdl)
        for b in range(len(tp.block_max_impact)):
            blk = imps[b * seg.BLOCK_SIZE:(b + 1) * seg.BLOCK_SIZE]
            assert blk.max() <= tp.block_max_impact[b]
            assert tp.block_last_doc[b] == tp.doc_ids[
                min((b + 1) * seg.BLOCK_SIZE, len(tp.doc_ids)) - 1]


def test_search_batch_matches_per_query(index_dir, ray_session):
    from search_engine_ray.pipelines.search import SearchEngine

    out, _, _ = index_dir
    eng = SearchEngine(out, num_searchers=2)
    try:
        queries = ["running", "children & data", "word1 | word2",
                   '"some phrase"', "~nosuchwordatall", ""]
        batched = eng.search_batch(queries, k=10)
        for q, bt in zip(queries, batched):
            assert bt.equals(eng.search(q, k=10)), q
    finally:
        eng.close()


def test_frontend_pool_matches_engine(index_dir, ray_session):
    """FrontendPool (frontends hosted by the shared searchers) returns
    exactly what the driver-side engine returns, in input order."""
    from search_engine_ray.pipelines.search import (FrontendPool,
                                                    SearchEngine)

    out, _, _ = index_dir
    eng = SearchEngine(out, num_searchers=2)
    fp = FrontendPool(out, eng.actors, n_frontends=3)
    try:
        queries = ["running", "children & data", "word1 | word2",
                   '"some phrase"', "~nosuchwordatall", ""] * 3
        got = fp.search_stream(queries, k=10, chunk=2)
        assert len(got) == len(queries)
        for q, t in zip(queries, got):
            assert t.equals(eng.search(q, k=10)), q
    finally:
        fp.close()
        eng.close()
        # shared pool must survive a frontend close: closing the engine
        # after the pool closed its frontends still worked above


def test_frontends_serve_concurrently_with_the_driver(index_dir,
                                                      ray_session):
    """Frontends hosted in the searchers answer a stream while the
    driver fans out over the same searchers and calls frontends
    directly. Every answer equals ``eng.search``; every wait is bounded,
    so a deadlock fails the test instead of hanging it."""
    import threading

    import ray

    from search_engine_ray.pipelines.search import (FrontendPool,
                                                    SearchEngine)

    out, _, _ = index_dir
    eng = SearchEngine(out, num_searchers=3)
    fp = FrontendPool(out, eng.actors, n_frontends=3)
    try:
        queries = ["running", "children & data", "word1 | word2",
                   '"some phrase"', "~nosuchwordatall", ""] * 4
        want = {q: eng.search(q, k=10) for q in set(queries)}
        got: dict = {}
        threads = [
            threading.Thread(target=lambda: got.update(
                stream=fp.search_stream(queries, k=10, chunk=2)),
                daemon=True),
            threading.Thread(target=lambda: got.update(
                batch=eng.search_batch(queries, k=10)), daemon=True)]
        for th in threads:
            th.start()
        direct = [(queries[i:i + 3],
                   fp.frontends[i // 3 % 3].search_many.remote(
                       queries[i:i + 3], 10))
                  for i in range(0, len(queries), 3)]
        for qs, ref in direct:
            for q, b in zip(qs, ray.get(ref, timeout=120)):
                assert pa.Table.from_batches([b]).equals(want[q]), q
        for th in threads:
            th.join(timeout=120)
            assert not th.is_alive(), "a driver call did not finish"
        for name in ("stream", "batch"):
            assert [t.equals(want[q])
                    for q, t in zip(queries, got[name])] == \
                [True] * len(queries), name
    finally:
        # searchers first: a deadlocked frontend could not close
        eng.close()
        fp.close()


def test_frontend_pool_lifecycle(index_dir, ray_session):
    """A pool closes without touching its searchers; a later pool on
    the same searchers serves with its own settings; a second pool over
    searchers that still host an open one raises; a stream over closed
    searchers raises RayActorError instead of hanging."""
    import threading

    from ray.exceptions import RayActorError

    from search_engine_ray.pipelines.search import (FrontendPool,
                                                    SearchEngine)

    out, _, _ = index_dir
    eng = SearchEngine(out, num_searchers=2)
    plain = SearchEngine(out, actors=eng.actors, use_synonyms=False)
    queries = ["running", "children & data", "word1 | word2",
               '"some phrase"', "~nosuchwordatall", ""]
    try:
        want = [eng.search(q, k=10) for q in queries]
        # synonyms change this answer, so the settings are visible
        assert not want[1].equals(plain.search(queries[1], k=10))
        fp = FrontendPool(out, eng.actors, n_frontends=1)
        with pytest.raises(ValueError, match="already hosts"):
            FrontendPool(out, eng.actors, n_frontends=2,
                         use_synonyms=False)
        assert fp.search_stream(queries, k=10) == want
        fp.close()
        assert [eng.search(q, k=10) for q in queries] == want
        # the failed pool closed the frontend it had opened on actor 1
        fp = FrontendPool(out, eng.actors, n_frontends=2,
                          use_synonyms=False)
        for q, t in zip(queries, fp.search_stream(queries, k=10)):
            assert t.equals(plain.search(q, k=10)), q
    finally:
        eng.close()
    got: dict = {}

    def stream():
        try:
            fp.search_stream(queries, k=10)
        except Exception as e:  # its type is asserted below
            got["error"] = e

    th = threading.Thread(target=stream, daemon=True)
    th.start()
    th.join(timeout=120)
    assert not th.is_alive(), "search_stream hung on dead searchers"
    assert isinstance(got.get("error"), RayActorError), got
    fp.close()


def test_frontends_are_searchers(index_dir, ray_session):
    """A pool starts no actor: its frontends are a subset of the
    searchers, capped at one per searcher."""
    import ray._private.state as ray_state

    from search_engine_ray.pipelines import search as S

    def alive() -> list[str]:  # the GCS actor table
        return [a["ActorClassName"] for a in ray_state.actors().values()
                if a["State"] == "ALIVE"]

    out, _, _ = index_dir
    eng = S.SearchEngine(out, num_searchers=2)
    before = sorted(alive())
    fp = S.FrontendPool(out, eng.actors, n_frontends=5)
    try:
        assert len(fp.frontends) == len(eng.actors) == 2
        ids = {a._actor_id for a in eng.actors}
        assert {f._actor_id for f in fp.frontends} <= ids
        assert sorted(alive()) == before
        assert not hasattr(S, "_FrontendActor")
        assert fp.search_stream(["running"], k=10)[0].equals(
            eng.search("running", k=10))
    finally:
        fp.close()
        eng.close()


def test_dropped_pool_and_engine_free_their_searchers(ray_session,
                                                      tmp_path):
    """An engine and pool dropped without ``close`` leave no searcher
    alive: the hosted engines' handles to every searcher would otherwise
    keep them all alive until ``ray.shutdown``."""
    import gc
    import time

    import ray._private.state as ray_state
    import ray.data as rd

    from search_engine_ray.pipelines.build import build_index
    from search_engine_ray.pipelines.search import (FrontendPool,
                                                    SearchEngine)

    pages_path = str(tmp_path / "pages")
    os.makedirs(pages_path)
    pq.write_table(gen_pages(200), os.path.join(pages_path, "p.parquet"))
    out = str(tmp_path / "index")
    build_index(lambda columns: rd.read_parquet(pages_path,
                                                columns=columns),
                out, docs_per_shard=64)

    def alive(ids: set[str]) -> set[str]:  # the GCS actor table
        return {a["ActorID"] for a in ray_state.actors().values()
                if a["State"] == "ALIVE"} & ids

    eng = SearchEngine(out, num_searchers=2)
    fp = FrontendPool(out, eng.actors, n_frontends=2)
    assert len(fp.frontends) == 2
    assert fp.search_stream(["running"], k=10)[0].equals(
        eng.search("running", k=10))
    ids = {a._actor_id.hex() for a in eng.actors}
    assert alive(ids) == ids
    del eng, fp
    gc.collect()
    deadline = time.monotonic() + 30
    while alive(ids) and time.monotonic() < deadline:
        time.sleep(0.5)
    assert not alive(ids), "dropped searchers are still alive"


def test_lru_evicts_least_recently_used():
    """The serving caches' LRU: a hit moves its key to the recent end,
    so after filling to the bound, touching key 0 and inserting one
    more key, key 0 survives and key 1 (the coldest) is evicted."""
    from search_engine_ray.state.lru import LRU

    c = LRU(256)
    for i in range(256):       # fill to capacity
        c.put(i, f"v{i}")
    assert c.get(0) == "v0"    # hit, moved to the recent end
    c.put(256, "v256")         # evicts the LRU key 1, NOT key 0
    assert 0 in c and 1 not in c and len(c) == 256
    assert c.get(1, "miss") == "miss" and c.get(0) == "v0"
    nothing = LRU(0)           # maxsize 0 caches nothing
    nothing.put("k", 1)
    assert nothing.get("k") is None and len(nothing) == 0


def test_lru_zero_holds_nothing_and_one_holds_the_newest():
    """An LRU(0) caches nothing: its put evicts the key just inserted,
    so a repeated get misses. LRU(1) keeps only the key put last."""
    from search_engine_ray.state.lru import LRU

    zero = LRU(0)
    zero.put(("q", 10), "table")
    assert ("q", 10) not in zero and len(zero) == 0
    assert zero.get(("q", 10), "miss") == "miss"
    one = LRU(1)
    one.put("old", 1)
    one.put("new", 2)
    assert "old" not in one and one.get("new") == 2 and len(one) == 1
