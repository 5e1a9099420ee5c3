"""Per-shard vocab blooms + query fan-out pruning: no false negatives,
sane false-positive rate, and pruned search results identical to the
unpruned fan-out, in the driver's engine and in hosted frontends."""

from __future__ import annotations

import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from search_engine_ray.state import bloom


def test_bloom_no_false_negatives_and_fp_rate():
    rng = np.random.default_rng(9)
    vocab = [f"term{i:05d}" for i in range(5000)]
    blob = bloom.build(vocab)
    assert bloom.contains(blob, vocab).all()  # zero false negatives
    probes = [f"absent{i:06d}" for i in range(20000)]
    fp = bloom.contains(blob, probes).mean()
    assert fp < 0.05, fp  # k=2, 16 bits/term → ~1.4% expected
    assert len(blob) - 16 == 16384  # 2^17 bits for 5000 terms


def test_bloom_empty_vocab():
    blob = bloom.build([])
    assert not bloom.contains_any(blob, ["anything"])
    assert not bloom.contains_any(blob, [])


@pytest.fixture(scope="module")
def many_shards(ray_session, tmp_path_factory):
    """400 pages at 64 docs per shard: shard-local terms exist."""
    import ray.data as rd

    from search_engine_ray.pipelines.build import build_index
    from search_engine_ray.sources.fixtures import gen_pages

    root = tmp_path_factory.mktemp("bloom")
    pages_path = str(root / "pages")
    os.makedirs(pages_path)
    pq.write_table(gen_pages(400), os.path.join(pages_path, "p.parquet"))

    def factory(columns):
        return rd.read_parquet(pages_path, columns=columns)

    out = str(root / "index")
    build_index(factory, out, docs_per_shard=64)  # many shards
    return out


def _rare_term(out: str, blooms: dict) -> str:
    """A term of shard 0 that at most half the shards' blooms admit."""
    seg0 = pq.read_table(os.path.join(out, "segments", "shard=0"),
                         columns=["term"])
    for t in seg0.column("term").to_pylist():
        if sum(bool(bloom.contains_any(b, [t]))
               for b in blooms.values()) <= len(blooms) // 2:
            return t
    raise AssertionError("fixture has no shard-local term")


def _queries(rare: str) -> list[str]:
    return [rare, f"{rare} | word1", f"{rare} & word2",
            "absentterm12345", ""]


def test_engine_prunes_and_matches_unpruned(many_shards):
    import search_engine_ray.query.compile as qc
    from search_engine_ray.pipelines.search import SearchEngine

    eng = SearchEngine(many_shards, num_searchers=4)
    assert eng._blooms, "merge must have written vocab blooms"
    try:
        rare = _rare_term(many_shards, eng._blooms)
        plan = qc.Word(rare, rare)
        live = eng._actor_mask(plan)
        assert live is not None and len(live) < len(eng.actors)
        # pruned vs unpruned: identical results across query shapes,
        # for BOTH the interactive and the batch path
        queries = _queries(rare)
        batched = eng.search_batch(queries, k=10)
        for q, bt in zip(queries, batched):
            pruned = eng.search(q, k=10)
            assert bt.equals(pruned), q
            blooms, eng._blooms = eng._blooms, {}
            try:
                full = eng.search(q, k=10)
                full_b = eng.search_batch([q], k=10)[0]
            finally:
                eng._blooms = blooms
            assert pruned.equals(full), q
            assert bt.equals(full_b), q
        # provably-absent term: zero RPCs (empty actor list), empty result
        none_plan = qc.Word("qqzzabsent", "qqzzabsent")
        assert eng._actor_mask(none_plan) == [] or \
            len(eng._actor_mask(none_plan)) <= 2  # bloom fp tolerance
    finally:
        eng.close()


def test_frontends_prune_and_match_the_engine(many_shards):
    """Frontends opened with ``actor_shards`` route by the same blooms
    inside their searchers: they answer what the engine answers, and a
    dead searcher that a query's blooms rule out does not fail it."""
    import ray

    import search_engine_ray.query.compile as qc
    from search_engine_ray.pipelines.search import (FrontendPool,
                                                    SearchEngine)

    eng = SearchEngine(many_shards, num_searchers=4)
    fp = FrontendPool(many_shards, eng.actors, n_frontends=2,
                      actor_shards=eng._actor_shards)
    try:
        # a shard-0 term that rules out a searcher hosting no frontend
        seg0 = pq.read_table(os.path.join(many_shards, "segments",
                                          "shard=0"), columns=["term"])
        for rare in seg0.column("term").to_pylist():
            live = {id(a) for a in eng._actor_mask(qc.Word(rare, rare))}
            idle = [a for a in eng.actors[2:] if id(a) not in live]
            if idle:
                break
        else:
            raise AssertionError("fixture has no shard-local term")
        queries = _queries(rare)
        got = fp.search_stream(queries, k=10, chunk=1)
        assert len(got) == len(queries)
        for q, t in zip(queries, got):
            assert t.equals(eng.search(q, k=10)), q
        # an unpruned fan-out would now raise RayActorError
        ray.kill(idle[0])
        assert fp.search_stream([rare], k=10)[0].equals(got[0])
    finally:
        fp.close()
        eng.close()
