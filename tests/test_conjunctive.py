"""Block-lazy posting reads on a 600-page fixture shard, each checked
against a test-local reference: a pure-Python varint decode of each
segment row (``ref_rows``).

- AND plans, both bare AND-of-words and the engine's ``Or('@w', w)``
  shape, score like a brute-force BM25 over the decoded rows, bit for
  bit.
- Block decode, ``gather`` and ``gather_positions`` reassemble the full
  decode, and touch only the blocks their candidates land in.
- Phrases match a brute-force adjacent-position match, and a rare-seeded
  phrase decodes a bounded number of the frequent term's blocks; so does
  WAND."""

from __future__ import annotations

import itertools
import zlib

import numpy as np
import pytest

from search_engine_ray.query import compile as qc
from search_engine_ray.state import segments as seg


@pytest.fixture(scope="module")
def shard_setup(ray_session, tmp_path_factory):
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from search_engine_ray.pipelines.build import build_index
    from search_engine_ray.pipelines.search import ShardIndex
    from search_engine_ray.sources.fixtures import gen_pages

    root = tmp_path_factory.mktemp("conj")
    pages_path = str(root / "pages")
    os.makedirs(pages_path)
    pq.write_table(gen_pages(600), os.path.join(pages_path, "p.parquet"))

    def factory(columns):
        return rd.read_parquet(pages_path, columns=columns)

    out = str(root / "index")
    man = build_index(factory, out, docs_per_shard=600)
    return out, man


@pytest.fixture(scope="module")
def ref_rows(shard_setup):
    """{term: (doc ids, tfs, per-doc positions)} of shard 0, fully
    decoded straight from the segment parquet."""
    import os

    import pyarrow.parquet as pq

    from tests.test_build_search import segment_terms

    out, _ = shard_setup
    d = os.path.join(out, "segments", "shard=0")
    t = pq.read_table(d).to_pylist()
    return {term: _decode_row(r) for term, r in zip(segment_terms(d), t)}


def _uvarints(buf: bytes) -> list[int]:
    out, v, shift = [], 0, 0
    for byte in buf:
        v |= (byte & 0x7F) << shift
        shift += 7
        if not byte & 0x80:
            out.append(v)
            v, shift = 0, 0
    return out


def _decode_row(row):
    docs = np.cumsum(_uvarints(row["doc_gaps"]), dtype=np.int64)
    tfs = _uvarints(row["tfs"])
    gaps = _uvarints(row["pos_gaps"])
    starts = itertools.accumulate([0] + tfs)
    positions = [list(itertools.accumulate(gaps[s:s + tf]))
                 for s, tf in zip(starts, tfs)]
    return docs, np.asarray(tfs, dtype=np.int64), positions


def _brute_phrase(ref, terms) -> np.ndarray:
    """Docs where terms[i] sits at position p + i for every i."""
    if any(t not in ref for t in terms):
        return np.empty(0, dtype=np.int64)
    occ = [{int(d): set(p) for d, p in zip(ref[t][0], ref[t][2])}
           for t in terms]
    docs = set(occ[0]).intersection(*occ[1:])
    return np.asarray(sorted(
        d for d in docs
        if any(all(p + i in occ[i][d] for i in range(len(terms)))
               for p in occ[0][d])), dtype=np.int64)


def _and_plan(terms, engine: bool = False):
    """AND of the terms' words: bare, or in the engine's decorated
    ``Or(Word('@' + stem), Word(stem))`` form (query/compile.py). Vocab
    terms are already stems, so each Word's stem_ is passed explicitly
    and probes the exact index vocabulary."""
    def leaf(t):
        w = qc.Word(t, t)
        return qc.Or(qc.Word("@" + t, "@" + t), w) if engine else w
    plan = leaf(terms[0])
    for t in terms[1:]:
        plan = qc.And(plan, leaf(t))
    return plan


def _df_sorted_vocab(sh):
    terms = sh.vocab()  # in row order, like the df column
    dfs = sh._table.column("df").to_pylist()
    return sorted(zip(terms, dfs), key=lambda x: -x[1])


def _brute_and_topk(ref, doc_ids, dls, plan, idf, avgdl, k=10):
    """(doc_id, score) top-k of an AND of words or of word Ors, by
    definition over the decoded rows: the docs in some word of every
    conjunct, each scored with w * bm25_impact added from 0.0 in
    ``scoring_terms`` order, ranked by (-score, doc)."""
    from search_engine_ray.pipelines.search import scoring_terms

    def docs_of(node):
        if isinstance(node, qc.Word):
            return set(ref[node.stem_][0].tolist()) if node.stem_ in ref \
                else set()
        if isinstance(node, qc.Or):
            return docs_of(node.left) | docs_of(node.right)
        assert isinstance(node, qc.And)
        return docs_of(node.left) & docs_of(node.right)

    scored = []
    for o in sorted(docs_of(plan)):
        score = 0.0
        for t, syn in scoring_terms(plan):
            assert not syn
            if t not in ref:
                continue
            docs, tfs, _ = ref[t]
            j = int(np.searchsorted(docs, o))
            if j < len(docs) and docs[j] == o:
                score += idf[t] * seg.bm25_impact(
                    tfs[j:j + 1], dls[o:o + 1], avgdl)[0]
        scored.append((-score, o))
    return [(int(doc_ids[o]), -neg) for neg, o in sorted(scored)[:k]]


def test_and_plans_match_brute_force(shard_setup, ref_rows):
    """25 seeded rare∧frequent picks (one head term, 1-3 tail terms),
    each as a bare AND-of-words plan and in the engine's decorated
    shape: ``score_topk`` equals the brute force bit for bit."""
    import os

    import pyarrow.parquet as pq

    from search_engine_ray.pipelines.search import (ShardIndex,
                                                    flatten_terms)

    out, man = shard_setup
    avgdl = man["stats"]["avgdl"]
    meta = pq.read_table(os.path.join(out, "docmeta", "shard=0"),
                         columns=["doc_id", "dl"])
    order = np.argsort(meta.column("doc_id").to_numpy())
    doc_ids = meta.column("doc_id").to_numpy()[order]  # ordinal → doc id
    dls = meta.column("dl").to_numpy()[order]
    sh = ShardIndex(out, 0)
    vocab = _df_sorted_vocab(sh)
    rng = np.random.default_rng(11)
    nonempty = 0
    for trial in range(25):
        n = int(rng.integers(2, 5))
        # mix: one frequent head term + rare tail terms (the skew case)
        picks = [vocab[int(rng.integers(0, 5))][0]] + [
            vocab[int(rng.integers(len(vocab) // 2, len(vocab)))][0]
            for _ in range(n - 1)]
        for engine in (False, True):
            plan = _and_plan(picks, engine)
            idf = {t: 1.0 + (zlib.crc32(t.encode()) % 97) / 50.0
                   for t, _ in flatten_terms(plan)}
            want = _brute_and_topk(ref_rows, doc_ids, dls, plan, idf,
                                   avgdl)
            got = [(d, s) for s, d, _, _ in
                   sh.score_topk(plan, 10, idf, avgdl)]
            assert got == want, (picks, engine)
            nonempty += bool(want)
    assert nonempty >= 10  # 12 of the 50 plans match some doc


def test_lazy_postings_block_decode_equals_eager(shard_setup, ref_rows):
    """LazyPostings.block_docs/tfs reassemble exactly a full decode of
    the segment row, block by block, for every term in the shard; so do
    the all-blocks doc_ids/tfs of a fresh view."""
    from search_engine_ray.pipelines.search import ShardIndex

    out, _ = shard_setup
    sh = ShardIndex(out, 0)
    fresh = ShardIndex(out, 0)
    for term in sh.vocab()[:200]:
        ref_docs, ref_tfs, _ = ref_rows[term]
        lz = sh.lookup(term)
        docs = np.concatenate([lz.block_docs(b)
                               for b in range(lz.nblocks)])
        tfs = np.concatenate([lz.block_tfs(b)
                              for b in range(lz.nblocks)])
        np.testing.assert_array_equal(docs, ref_docs)
        np.testing.assert_array_equal(tfs, ref_tfs)
        np.testing.assert_array_equal(fresh.lookup(term).doc_ids, ref_docs)
        np.testing.assert_array_equal(fresh.lookup(term).tfs, ref_tfs)


def _uvarint_bytes(vals) -> bytes:
    out = bytearray()
    for v in vals:
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


def _encode_row(docs: list[int], positions: list[list[int]]) -> dict:
    """A segment row in the on-disk layout, encoded value by value."""
    tfs = [len(p) for p in positions]
    doc_gaps = [d - prev for prev, d in zip([0] + docs[:-1], docs)]
    pos_gaps = [g for p in positions
                for g in [p[0]] + [b - a for a, b in zip(p, p[1:])]]
    offs, lasts = [], []
    for b0 in range(0, len(docs), seg.BLOCK_SIZE):
        offs.append((len(_uvarint_bytes(doc_gaps[:b0])),
                     len(_uvarint_bytes(tfs[:b0])),
                     len(_uvarint_bytes(pos_gaps[:sum(tfs[:b0])]))))
        lasts.append(docs[min(b0 + seg.BLOCK_SIZE, len(docs)) - 1])
    return {"df": len(docs), "cf": sum(tfs),
            "doc_gaps": _uvarint_bytes(doc_gaps),
            "tfs": _uvarint_bytes(tfs),
            "pos_gaps": _uvarint_bytes(pos_gaps),
            "block_last_doc": _uvarint_bytes(
                [b - a for a, b in zip([0] + lasts[:-1], lasts)]),
            "block_max_impact": np.zeros(len(lasts), np.float32).tobytes(),
            "block_offs": np.asarray(offs, dtype=np.int64).tobytes()}


def test_lazy_postings_multiblock_any_order():
    """A 1000-posting (8-block) row: blocks decode in any order, gather
    and gather_positions on fresh views touch only the candidates'
    blocks, and a partly decoded view completes to the full list."""
    rng = np.random.default_rng(7)
    docs = sorted(rng.choice(5000, size=1000, replace=False).tolist())
    positions = [sorted(rng.choice(300, size=int(rng.integers(1, 6)),
                                   replace=False).tolist())
                 for _ in docs]
    tfs = [len(p) for p in positions]
    row = _encode_row(docs, positions)
    bs = seg.BLOCK_SIZE
    lz = seg.LazyPostings(row)
    assert lz.nblocks == 8
    for b in rng.permutation(lz.nblocks):
        np.testing.assert_array_equal(lz.block_docs(b),
                                      docs[b * bs:(b + 1) * bs])
        np.testing.assert_array_equal(lz.block_tfs(b),
                                      tfs[b * bs:(b + 1) * bs])
    np.testing.assert_array_equal(lz.doc_ids, docs)
    at = {d: i for i, d in enumerate(docs)}
    lasts = np.asarray(docs)[bs - 1::bs]
    for _ in range(40):
        lz = seg.LazyPostings(row)
        lz.add_positions(row["pos_gaps"])
        cand = np.unique(rng.choice(5100, size=int(rng.integers(1, 40))))
        hit, got_tfs = lz.gather(cand)
        expect = [int(c) in at for c in cand]
        np.testing.assert_array_equal(hit, expect)
        hits = [at[int(c)] for c in cand[hit]]
        np.testing.assert_array_equal(got_tfs, [tfs[i] for i in hits])
        _, flat, counts = lz.gather_positions(cand)
        np.testing.assert_array_equal(counts, [tfs[i] for i in hits])
        np.testing.assert_array_equal(
            flat, [p for i in hits for p in positions[i]])
        touched = np.unique(np.searchsorted(lasts, cand))
        assert lz.blocks_decoded <= len(touched[touched < lz.nblocks])
        np.testing.assert_array_equal(lz.doc_ids, docs)
        np.testing.assert_array_equal(lz.tfs, tfs)


def test_gather_random_subsets(shard_setup, ref_rows):
    from search_engine_ray.pipelines.search import ShardIndex

    out, _ = shard_setup
    sh = ShardIndex(out, 0)
    rng = np.random.default_rng(3)
    all_docs = np.arange(len(sh.doc_ids))  # postings hold ordinals
    for term in sh.vocab()[:40]:
        ref_docs, ref_tfs, ref_pos = ref_rows[term]
        lz = sh.lookup(term, positions=True)
        cand = np.unique(rng.choice(all_docs,
                                    size=min(50, len(all_docs)),
                                    replace=False))
        hit, tfs = lz.gather(cand)
        tf_of = dict(zip(ref_docs.tolist(), ref_tfs.tolist()))
        expect_hit = np.array([int(c) in tf_of for c in cand])
        np.testing.assert_array_equal(hit, expect_hit)
        np.testing.assert_array_equal(
            tfs, [tf_of[int(c)] for c in cand[expect_hit]])
        # positions of the hits, in candidate order
        pos_of = dict(zip(ref_docs.tolist(), ref_pos))
        hit2, flat, counts = lz.gather_positions(cand)
        np.testing.assert_array_equal(hit2, expect_hit)
        np.testing.assert_array_equal(counts, tfs)
        np.testing.assert_array_equal(
            flat, [p for c in cand[expect_hit] for p in pos_of[int(c)]])


def test_phrase_lazy_matches_eager(shard_setup, ref_rows):
    """The block-lazy phrase evaluator returns exactly the brute-force
    adjacent-position match over the fully decoded rows, across real
    and random vocab bigrams/trigrams (incl. empty results)."""
    from search_engine_ray.pipelines.search import ShardIndex

    out, man = shard_setup
    sh = ShardIndex(out, 0)
    vocab = [t for t, _ in _df_sorted_vocab(sh)]
    rng = np.random.default_rng(5)
    # real adjacent bigrams/trigrams, reconstructed from one document's
    # position lists (guaranteed non-empty phrase results)
    doc0 = int(ref_rows[vocab[0]][0][0])
    seq: dict[int, str] = {}
    for t in vocab:
        docs, _, positions = ref_rows[t]
        j = int(np.searchsorted(docs, doc0))
        if j < len(docs) and docs[j] == doc0:
            for p in positions[j]:
                seq[int(p)] = t
    real = []
    for p, t in sorted(seq.items()):
        if p + 1 in seq:
            real.append([t, seq[p + 1]])
        if p + 1 in seq and p + 2 in seq:
            real.append([t, seq[p + 1], seq[p + 2]])
    assert real, "fixture doc yielded no adjacent pairs"
    trials = real[:20]
    for trial in range(60):
        n = int(rng.integers(2, 4))
        trials.append([vocab[int(rng.integers(0, len(vocab)))]
                       for _ in range(n)])
    nonempty = 0
    for picks in trials:
        got = sh._eval_phrase_uncached(picks)
        want = _brute_phrase(ref_rows, picks)
        np.testing.assert_array_equal(got, want, err_msg=str(picks))
        nonempty += bool(len(want))
    assert nonempty >= 1  # the comparison exercised real matches


def test_phrase_lazy_skips_decoding(shard_setup):
    """A rare-seeded phrase touches a bounded number of the frequent
    term's blocks."""
    from search_engine_ray.pipelines.search import ShardIndex

    out, _ = shard_setup
    sh = ShardIndex(out, 0)
    vocab = _df_sorted_vocab(sh)
    freq_term = vocab[0][0]
    rare_term = next(t for t, d in reversed(vocab) if d >= 1)
    sh._eval_phrase_uncached([freq_term, rare_term])
    lz = sh.lookup(freq_term)
    rare_df = dict(vocab)[rare_term]
    assert lz.blocks_decoded <= min(lz.nblocks, rare_df)


def test_wand_lazy_decodes_bounded_blocks(shard_setup):
    """WAND decodes only the visited intervals' blocks; results stay
    identical to the exhaustive full-decode scorer on a fresh shard."""
    from search_engine_ray.pipelines.search import ShardIndex

    out, man = shard_setup
    avgdl = man["stats"]["avgdl"]
    s = ShardIndex(out, 0)
    dfs = _df_sorted_vocab(s)
    terms = [(t, 1.0 + i * 0.3) for i, (t, _) in enumerate(dfs[:3])]
    got = s.wand_topk(terms, 10, avgdl)
    s2 = ShardIndex(out, 0)
    want = s2.exhaustive_topk(terms, 10, avgdl)
    assert got == want
    for t, _ in terms:
        lz = s.lookup(t)
        assert lz.blocks_decoded <= lz.nblocks


def test_postings_cache_is_bounded(shard_setup):
    """More distinct lookups than the postings bound: the LRU stays at
    the bound, the least recently used view is evicted and a term
    re-touched throughout stays cached (the same view object)."""
    from search_engine_ray.pipelines.search import ShardIndex

    out, _ = shard_setup
    sh = ShardIndex(out, 0)
    bound = sh._postings.maxsize
    vocab = sh.vocab()
    # absent terms are cached too (negative entries), so the stream
    # outgrows the bound however small the fixture vocabulary is
    stream = vocab + [f"zz-absent-{i}" for i in range(bound)]
    hot = sh.lookup(vocab[0])
    for i, t in enumerate(stream[1:], 1):
        sh.lookup(t)
        if i % 100 == 0:
            assert sh.lookup(vocab[0]) is hot
        assert len(sh._postings) <= bound
    assert len(sh._postings) == bound
    assert sh.lookup(vocab[0]) is hot
    assert vocab[1] not in sh._postings


def test_positions_page_in_without_a_second_search(shard_setup, ref_rows):
    """lookup(t) then lookup(t, positions=True) searches the vocabulary
    once: the cached view keeps its segment row, so the positions page
    in from that row, and they are the term's."""
    from search_engine_ray.pipelines.search import ShardIndex

    out, _ = shard_setup
    sh = ShardIndex(out, 0)
    find, calls = sh._find_row, []
    sh._find_row = lambda t: calls.append(t) or find(t)
    term = max(ref_rows, key=lambda t: len(ref_rows[t][0]))
    lz = sh.lookup(term)
    assert not lz.has_positions
    assert sh.lookup(term, positions=True) is lz
    assert calls == [term]
    docs, _, positions = ref_rows[term]
    hit, flat, counts = lz.gather_positions(docs)
    assert hit.all()
    assert flat.tolist() == [p for ps in positions for p in ps]
    assert counts.tolist() == [len(ps) for ps in positions]
