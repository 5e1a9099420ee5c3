"""Per-shard vocab blooms + query fan-out pruning: no false negatives,
sane false-positive rate, and pruned search results identical to the
unpruned fan-out, in the driver's engine and in hosted frontends."""

from __future__ import annotations

import glob
import os
import shutil
import struct

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_ray.state import bloom
from tests.test_build_search import segment_terms

_MAGIC = 0x534E424C


def test_bloom_no_false_negatives_and_fp_rate():
    vocab = [f"term{i:05d}" for i in range(5000)]
    blob = bloom.build(vocab)
    assert bloom.contains(blob, vocab).all()  # zero false negatives
    probes = [f"absent{i:06d}" for i in range(20000)]
    fp = bloom.contains(blob, probes).mean()
    assert fp < 0.015, fp  # sized for FP_RATE = 1%
    # ⌈5000·ln 100 / ln²2⌉ = 47,926 bits → 5,991 bytes; round(m/n·ln 2)
    assert len(blob) - 16 == 5991
    assert struct.unpack_from("<IIQ", blob) == (_MAGIC, 7, 5991 * 8)


def _k2_filter(terms) -> bytes:
    """A filter in the layout written before FP_RATE sizing: k = 2 probes
    at h1 and h2, m a power of two of at least 16 bits per term."""
    m_bits = 64
    while m_bits < 16 * max(len(terms), 1):
        m_bits *= 2
    bits = np.zeros(m_bits // 8, dtype=np.uint8)
    pos = (bloom.hash_terms(terms) % np.uint64(m_bits)).reshape(-1)
    np.bitwise_or.at(bits, (pos >> np.uint64(3)).astype(np.int64),
                     (1 << (pos & np.uint64(7))).astype(np.uint8))
    return struct.pack("<IIQ", _MAGIC, 2, m_bits) + bits.tobytes()


def _k2_contains(blob: bytes, hashes: np.ndarray) -> np.ndarray:
    """The reader of that layout."""
    magic, k, m_bits = struct.unpack_from("<IIQ", blob, 0)
    assert (magic, k) == (_MAGIC, 2)
    bits = np.frombuffer(blob, dtype=np.uint8, offset=16)
    pos = hashes % np.uint64(m_bits)
    byte = (pos >> np.uint64(3)).astype(np.int64)
    mask = (1 << (pos & np.uint64(7))).astype(np.uint8)
    return ((bits[byte] & mask) == mask).all(axis=1)


def test_k2_filters_read_as_before():
    """A k = 2, power-of-two filter answers every probe, present or
    absent, as its own reader does."""
    vocab = [f"term{i:05d}" for i in range(3000)]
    probes = vocab + [f"absent{i:06d}" for i in range(20000)]
    h = bloom.hash_terms(probes)
    for terms in (vocab, vocab[:1], []):
        blob = _k2_filter(terms)
        want = _k2_contains(blob, h)
        assert np.array_equal(bloom.contains_hashed(blob, h), want)
        assert bloom.contains(blob, terms).all()
        if terms is vocab:  # both answers occur among the absent terms
            assert 0 < want[len(vocab):].sum() < len(probes) - len(vocab)


def test_bloom_rejects_a_bad_header():
    blob = bloom.build(["a", "b"])
    h = bloom.hash_terms(["a"])
    for magic, k in ((_MAGIC + 1, 7), (_MAGIC, 0), (_MAGIC, 17)):
        bad = struct.pack("<II", magic, k) + blob[8:]
        with pytest.raises(ValueError):
            bloom.contains_hashed(bad, h)


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


def _shard_filters(index_dir: str) -> dict:
    """{shard dir: (filter bytes, segment terms)}."""
    out = {}
    for p in sorted(glob.glob(os.path.join(index_dir, "segments", "shard=*",
                                           "_vocab.bloom"))):
        with open(p, "rb") as f:
            blob = f.read()
        d = os.path.dirname(p)
        out[d] = blob, pa.array(segment_terms(d), pa.string())
    return out


def test_every_shard_term_is_in_its_filter(many_shards):
    filters = _shard_filters(many_shards)
    assert len(filters) > 4
    for d, (blob, terms) in filters.items():
        assert len(terms) and bloom.contains(blob, terms).all(), d


def _rare_term(out: str, blooms: dict) -> str:
    """A term of shard 0 that at most half the shards' blooms admit."""
    for t in segment_terms(os.path.join(out, "segments", "shard=0")):
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
        for rare in segment_terms(os.path.join(many_shards, "segments",
                                               "shard=0")):
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


def test_mixed_filter_generations_route_like_no_routing(many_shards,
                                                        tmp_path):
    """Shards whose filters are in the k = 2 layout, next to shards an
    append writes in the sized one: Bloom-routed search answers as an
    unrouted fan-out, after the append and after refresh_block_max."""
    import ray.data as rd

    import search_engine_ray.query.compile as qc
    from search_engine_ray.pipelines.append import (append_to_index,
                                                    refresh_block_max)
    from search_engine_ray.pipelines.search import SearchEngine
    from search_engine_ray.sources.fixtures import gen_pages

    idx = str(tmp_path / "index")
    shutil.copytree(many_shards, idx)
    old = {}
    for d, (_, terms) in _shard_filters(idx).items():
        old[d] = _k2_filter(terms)
        with open(os.path.join(d, "_vocab.bloom"), "wb") as f:
            f.write(old[d])
    pages = str(tmp_path / "more")
    os.makedirs(pages)
    pq.write_table(gen_pages(200, seed=11), os.path.join(pages, "p.parquet"))
    append_to_index(lambda columns: rd.read_parquet(pages, columns=columns),
                    idx, docs_per_shard=64)
    new = {d: f for d, f in _shard_filters(idx).items() if d not in old}
    assert new and all(bloom.header(b)[0] == 7 for b, _ in new.values())
    new_term = next(t for _, terms in new.values()
                    for t in terms.to_pylist()
                    if not any(bloom.contains_any(b, [t])
                               for b in old.values()))
    for step in ("append", "refresh"):
        if step == "refresh":
            assert refresh_block_max(idx) > 0
        filters = _shard_filters(idx)
        assert {d: filters[d][0] for d in old} == old  # copied as they are
        routed = SearchEngine(idx, num_searchers=4)
        try:
            rare = _rare_term(idx, routed._blooms)
            live = routed._actor_mask(qc.Word(rare, rare))
            assert live is not None and len(live) < len(routed.actors)
            queries = _queries(rare) + _queries(new_term)
            got = [routed.search(q, k=10) for q in queries]
        finally:
            routed.close()
        unrouted = SearchEngine(idx, num_searchers=4)
        try:
            unrouted._blooms = {}
            want = [unrouted.search(q, k=10) for q in queries]
        finally:
            unrouted.close()
        assert any(t.num_rows for t in want)
        for q, a, b in zip(queries, got, want):
            assert a.equals(b), (step, q)
