"""Exact fan-out routing: a query reaches exactly the searchers whose
shards hold one of its terms, and every routed front door answers as an
unrouted fan-out over the same pool does. The index has many small
shards in two generations, so shard-local terms exist, and stray filter
files of an earlier format that the engine must never read."""

from __future__ import annotations

import glob
import math
import os
import random
from collections import Counter

import pyarrow.parquet as pq
import pytest

from search_engine_ray.kernels.stemmer import stem
from search_engine_ray.sources.fixtures import gen_pages

# words with WordNet synsets: their queries compile to synonym chains
SYNONYM_WORDS = ("table", "order", "value", "line")


@pytest.fixture(scope="module")
def many_shards(ray_session, tmp_path_factory):
    """400 pages at 64 docs per shard plus an appended generation of 200
    more. Every shard dir also holds a ``_vocab.bloom`` of bytes no filter
    reader accepts, as format-21 indexes hold filters beside their
    segments."""
    import ray.data as rd

    from search_engine_ray.pipelines.append import append_to_index
    from search_engine_ray.pipelines.build import build_index

    root = tmp_path_factory.mktemp("routing")
    out = str(root / "index")
    for name, pages in (("base", gen_pages(400)),
                        ("more", gen_pages(200, seed=11))):
        path = str(root / name)
        os.makedirs(path)
        pq.write_table(pages, os.path.join(path, "p.parquet"))

        def factory(columns, path=path):
            return rd.read_parquet(path, columns=columns)

        if name == "base":
            build_index(factory, out, docs_per_shard=64)
        else:
            append_to_index(factory, out, docs_per_shard=64)
    for d in glob.glob(os.path.join(out, "segments", "shard=*")):
        with open(os.path.join(d, "_vocab.bloom"), "wb") as f:
            f.write(b"not a filter")
    return out


def random_queries(index_dir: str, n: int, seed: int) -> list[str]:
    """``n`` seeded queries in word, AND, OR, NOT, phrase and nested
    shapes over rare (df ≤ 2, so in at most two shards), common,
    synonym-expanding and absent words."""
    t = pq.read_table(os.path.join(index_dir, "terms"),
                      columns=["term", "df"])
    words = [(w, df) for w, df in zip(t.column("term").to_pylist(),
                                      t.column("df").to_pylist())
             if w.isalpha() and stem(w) == w]
    rare = sorted(w for w, df in words if df <= 2)
    common = sorted(w for w, df in words if df >= 20)
    rng = random.Random(seed)

    def word() -> str:
        r = rng.random()
        if r < 0.5:
            return rng.choice(rare)
        if r < 0.75:
            return rng.choice(common)
        if r < 0.9:
            return rng.choice(SYNONYM_WORDS)
        return f"qqzz{rng.randrange(10**6)}"

    shapes = (lambda: word(),
              lambda: f"{word()} & {word()}",
              lambda: f"{word()} | {word()}",
              lambda: f"{word()} -{word()}",
              lambda: f"-{word()}",
              lambda: f'"{word()} {word()}"',
              lambda: f"({word()} | {word()}) & -{word()}")
    return [rng.choice(shapes)() for _ in range(n)]


def test_routing_reaches_exactly_the_searchers_holding_a_plan_term(
        many_shards):
    """For 200 random plans the engine reaches exactly the searchers
    with a shard whose ``lookup`` finds one of the plan's terms, and
    gives each term the idf of its df in the terms table."""
    from search_engine_ray.pipelines.search import (SearchEngine, ShardIndex,
                                                    flatten_terms)
    from search_engine_ray.state.segments import read_manifest

    stats = read_manifest(many_shards)["stats"]
    shards = [ShardIndex(many_shards, s) for s in range(stats["num_shards"])]
    t = pq.read_table(os.path.join(many_shards, "terms"),
                      columns=["term", "df"])
    dfs = dict(zip(t.column("term").to_pylist(), t.column("df").to_pylist()))
    n = stats["n_docs"]
    eng = SearchEngine(many_shards, num_searchers=4)
    try:
        assert len(eng.actors) == 4 and len(shards) > 8
        reached = Counter()
        for q in random_queries(many_shards, 200, seed=0):
            plan = eng.compile(q)
            if plan is None:
                continue
            terms = [t for t, _ in flatten_terms(plan)]
            want = [ai for ai, own in enumerate(eng._actor_shards)
                    if any(shards[s].lookup(t) is not None
                           for s in own for t in terms)]
            reach, idf = eng._route(plan)
            assert reach == want, q
            assert idf == {t: math.log(1.0 + (n - dfs.get(t, 0) + 0.5)
                                       / (dfs.get(t, 0) + 0.5))
                           for t in terms}, q
            reached[len(reach)] += 1
        # absent-only plans reach none, shard-local ones some
        assert reached[0] and reached[4] and \
            sum(reached[i] for i in (1, 2, 3)) >= 20, reached
    finally:
        eng.close()


def test_routed_doors_answer_as_an_unrouted_pool(many_shards):
    """``search``, ``search_batch`` and ``FrontendPool.search_stream``
    route, and return the rows of an engine over the same searchers
    built without ``actor_shards``, which reaches every searcher."""
    from search_engine_ray.pipelines.search import (FrontendPool,
                                                    SearchEngine)

    eng = SearchEngine(many_shards, num_searchers=4)
    unrouted = SearchEngine(many_shards, actors=eng.actors)
    fp = FrontendPool(many_shards, eng.actors, n_frontends=2,
                      actor_shards=eng._actor_shards)
    try:
        queries = random_queries(many_shards, 200, seed=1)
        want = [unrouted.search(q, k=10) for q in queries]
        assert sum(t.num_rows > 0 for t in want) >= len(queries) // 4
        doors = {"search": [eng.search(q, k=10) for q in queries],
                 "search_batch": eng.search_batch(queries, k=10),
                 "search_stream": fp.search_stream(queries, k=10, chunk=7)}
        for door, got in doors.items():
            assert len(got) == len(queries), door
            for q, a, b in zip(queries, got, want):
                assert a.equals(b), (door, q)
    finally:
        fp.close()
        eng.close()


def test_a_searcher_that_routing_rules_out_may_be_dead(many_shards):
    """A query that reaches no dead searcher is still served, by the
    driver's engine and by the hosted frontends; an unrouted fan-out
    would raise RayActorError."""
    import ray

    from search_engine_ray.pipelines.search import (FrontendPool,
                                                    SearchEngine)

    eng = SearchEngine(many_shards, num_searchers=4)
    fp = FrontendPool(many_shards, eng.actors, n_frontends=2,
                      actor_shards=eng._actor_shards)
    try:
        # a rare term whose searchers leave out one hosting no frontend
        for q in random_queries(many_shards, 200, seed=2):
            plan = eng.compile(q)
            reach = eng._route(plan)[0] if plan is not None else []
            idle = [ai for ai in (2, 3) if ai not in reach]
            if reach and idle and eng.search(q, k=10).num_rows:
                break
        else:
            raise AssertionError("fixture has no shard-local term")
        want = eng.search(q, k=10)
        assert fp.search_stream([q], k=10)[0].equals(want)
        ray.kill(eng.actors[idle[0]])
        assert eng.search(q, k=10).equals(want)
        assert eng.search_batch([q], k=10)[0].equals(want)
        assert fp.search_stream([q], k=10)[0].equals(want)
    finally:
        fp.close()
        eng.close()
