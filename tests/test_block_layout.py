"""Segment block layout: one-block rows store null block metadata, no
index file stores cf, and every stored block-max bound is rounded up and
scaled to the serving avgdl — so WAND stays bit-identical to exhaustive
scoring, ties included, whatever the avgdl moved to since the bounds
were stored."""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from search_engine_ray.state import segments as seg
from test_conjunctive import _encode_row
from tests.test_build_search import segment_terms

BS = seg.BLOCK_SIZE
META = ("block_last_doc", "block_max_impact", "block_offs")


def _write_shard(root, terms: list[str], dls, avgdl: float):
    """Build shard 0 of an index under ``root`` straight through the
    exchange writer, the terms stage's count and the merge worker (no
    Ray) and open it."""
    from search_engine_ray.pipelines.build import _write_terms
    from search_engine_ray.pipelines.exchange import (_GroupMergeWorker,
                                                      _PartialExchangeWriter)
    from search_engine_ray.pipelines.search import ShardIndex

    n = len(terms)
    batch = pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "dl": pa.array(np.asarray(dls, dtype=np.int32)),
        "terms": pa.array(terms, pa.string()),
        "shard": pa.array(np.zeros(n, dtype=np.int32)),
        "url": pa.array([f"http://d{i}.com/" for i in range(n)]),
        "title": pa.array(["t"] * n),
        "word_count": pa.array([5] * n, pa.uint32()),
        "title_length": pa.array([1] * n, pa.uint32()),
        "url_length": pa.array([14] * n, pa.uint32()),
        "english": pa.array([True] * n),
        "tld": pa.array([0] * n, pa.uint8()),
    })
    root = str(root)
    exchange = os.path.join(root, "exchange")
    for d in ("segments", "docmeta"):
        os.makedirs(os.path.join(root, d))
    _PartialExchangeWriter(exchange, 1, 1)(batch)
    terms_dir = os.path.join(root, "terms")
    worker = _GroupMergeWorker(exchange, os.path.join(root, "segments"), 1,
                               "bid",
                               docmeta_dir=os.path.join(root, "docmeta"),
                               terms_dir=terms_dir)
    _write_terms(terms_dir, [worker.count_terms([0])])
    worker.merge_groups([0], avgdl)
    return ShardIndex(root, 0)


def _rows(segments_dir: str) -> list[dict]:
    return pq.read_table(segments_dir).to_pylist()


def _assert_bounds_hold(rows, dls: np.ndarray, avgdl: float) -> int:
    """Every stored bound ≥ the float64 impact of every posting in its
    block, with no tolerance. Returns the number of blocks checked."""
    checked = 0
    for row in rows:
        if row["block_max_impact"] is None:
            continue
        bound = np.frombuffer(row["block_max_impact"], np.float32)
        tp = seg.LazyPostings(row)
        imps = seg.bm25_impact(tp.tfs, dls[tp.doc_ids], avgdl)
        for b in range(len(bound)):
            assert (imps[b * BS:(b + 1) * BS] <= bound[b]).all(), \
                (row["term_id"], b)
            checked += 1
    return checked


# -- the byte-bounded writer --------------------------------------------------

def test_write_byte_bounded_null_binary_cells(tmp_path):
    from search_engine_ray.pipelines.exchange import _write_byte_bounded

    rng = np.random.default_rng(3)
    cells = [None if i % 3 == 0 else rng.bytes(int(rng.integers(0, 900)))
             for i in range(500)]
    tab = pa.table({"term": pa.array([f"t{i:04d}" for i in range(500)]),
                    "blob": pa.array(cells, pa.binary()),
                    "none": pa.array([None] * 500, pa.binary())})
    path = str(tmp_path / "t.parquet")
    _write_byte_bounded(tab, path, target_bytes=4096)
    assert pq.ParquetFile(path).metadata.num_row_groups > 1
    assert pq.read_table(path).equals(tab)


# -- stored bounds round up ---------------------------------------------------

def test_block_max_bounds_round_up_random_rows():
    """Property: for random (tf, dl) rows, each float32 bound is ≥ every
    float64 impact of its block, and is the least float32 that is."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 5 * BS))
        tfs = rng.integers(1, 60, size=n)
        dls = rng.integers(1, 5000, size=n)
        imps = seg.bm25_impact(tfs, dls, float(rng.uniform(5, 3000)))
        bound = np.frombuffer(seg.block_max_bounds(imps), np.float32)
        assert len(bound) == -(-n // BS)
        for b in range(len(bound)):
            m = imps[b * BS:(b + 1) * BS].max()
            assert bound[b] >= m
            assert np.nextafter(bound[b], np.float32(-np.inf)) < m


def test_scaled_bounds_hold_after_any_avgdl_shift():
    """Property: bounds stored at avgdl A (block_max_bounds) and served
    at A' by the production block_bounds are ≥ every float64 impact at
    A', for A ≤ A' and A' < A alike. Tiny shifts and long documents
    bring the ratio A'/A close to tight."""
    def check(tfs, dls, a, a2):
        row = _encode_row(list(range(len(tfs))),
                          [list(range(t)) for t in tfs])
        row["block_max_impact"] = seg.block_max_bounds(
            seg.bm25_impact(tfs, dls, a))
        bound = seg.LazyPostings(row).block_bounds(dls, a2, a)
        imps = seg.bm25_impact(tfs, dls, a2)
        for b in range(len(bound)):
            assert (imps[b * BS:(b + 1) * BS] <= bound[b]).all(), (a, a2)

    rng = np.random.default_rng(17)
    for i in range(400):
        n = int(rng.integers(1, 4 * BS))
        shift = 10 ** rng.uniform(-15, 1) if i % 2 else rng.uniform(-.9, 0)
        a = float(10 ** rng.uniform(0, 4))
        check(rng.integers(1, 60, size=n),
              (10 ** rng.uniform(0, 9, size=n)).astype(np.int64),
              a, a * (1 + shift))
    # impacts a float32 holds exactly get no round-up slack: with A' one
    # or two ulps above A = 1, A'/A times each of these falls below its
    # float64 impact at A'
    for tf, dl, ulps in ((2, 33, 1), (8, 133, 1), (1, 27, 2)):
        check(np.array([tf]), np.array([dl]), 1.0, 1.0 + ulps * 2.0 ** -52)


# -- null block metadata ------------------------------------------------------

@pytest.mark.parametrize("df", [1, 2, 37, BS])
def test_null_metadata_row_reads_like_old_layout(df):
    """A one-block row with null metadata answers every accessor exactly
    as the old layout's encoding of the same list does."""
    rng = np.random.default_rng(df)
    docs = sorted(rng.choice(4 * BS, size=df, replace=False).tolist())
    positions = [sorted(rng.choice(200, size=int(rng.integers(1, 5)),
                                   replace=False).tolist())
                 for _ in docs]
    old_row = _encode_row(docs, positions)
    new_row = dict(old_row, **{c: None for c in META})
    cand = np.unique(np.concatenate([
        rng.choice(docs, size=max(1, df // 2)),
        rng.integers(0, 4 * BS + 10, size=20)]))
    old, new = seg.LazyPostings(old_row), seg.LazyPostings(new_row)
    assert new.nblocks == old.nblocks == 1
    assert new.block_max_impact is None
    np.testing.assert_array_equal(new.doc_ids, old.doc_ids)
    np.testing.assert_array_equal(new.tfs, old.tfs)
    # fresh views per accessor: each must work from an undecoded row
    for name, call in [
            ("gather", lambda lz: lz.gather(cand)),
            ("gather_positions", lambda lz: lz.gather_positions(cand)),
            ("blocks_view", lambda lz: lz.blocks_view(np.array([0]))),
            ("block_last_doc", lambda lz: (lz.block_last_doc,))]:
        got = call(seg.LazyPostings(new_row))
        want = call(seg.LazyPostings(old_row))
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w, err_msg=name)


def test_null_metadata_on_long_row_raises():
    docs = list(range(0, 3 * BS, 2))
    row = _encode_row(docs, [[0]] * len(docs))
    for c in META:
        with pytest.raises(ValueError, match="shard 4 term 'x'"):
            seg.LazyPostings(dict(row, **{c: None}),
                             where="shard 4 term 'x'")


# -- a shard past the WAND gate -----------------------------------------------

@pytest.fixture(scope="module")
def random_shard(tmp_path_factory):
    """8,400 docs: "f" in every doc (66 blocks), "m" in half (33
    blocks), "r" in 40 docs (one block); random tf and dl."""
    rng = np.random.default_rng(5)
    n = 8400
    dls = rng.integers(4, 400, size=n)
    terms = []
    for i in range(n):
        toks = ["f"] * int(rng.integers(1, 6))
        if i % 2 == 0:
            toks += ["m"] * int(rng.integers(1, 4))
        if i % 210 == 7:
            toks += ["r"] * int(rng.integers(1, 8))
        terms.append(" ".join(toks))
    avgdl = float(dls.mean())
    root = tmp_path_factory.mktemp("randshard")
    return _write_shard(root, terms, dls, avgdl), str(root), dls, avgdl


def test_merge_layout_and_bounds(random_shard):
    shard, root, dls, avgdl = random_shard
    rows = _rows(os.path.join(root, "segments"))
    names = segment_terms(os.path.join(root, "segments", "shard=0"))
    assert {t: r["df"] for t, r in zip(names, rows)} == {
        "f": 8400, "m": 4200, "r": 40}
    for r in rows:
        assert "cf" not in r
        if r["df"] <= BS:
            assert all(r[c] is None for c in META), r["term_id"]
        else:
            nb = -(-r["df"] // BS)
            assert len(np.frombuffer(r["block_max_impact"], np.float32)) \
                == nb
            assert len(np.frombuffer(r["block_offs"], np.int64)) == 3 * nb
            assert len(seg.LazyPostings(r).block_last_doc) == nb
    assert _assert_bounds_hold(rows, dls, avgdl) == 66 + 33


@pytest.mark.parametrize("terms", [
    [("r", 2.5), ("f", 0.7)],
    [("r", 3.1), ("m", 1.4), ("f", 0.3)],
    [("r", 0.2), ("f", 1.9)],
])
def test_wand_mixed_single_and_multi_block(random_shard, terms):
    """A pure disjunction mixing a one-block term (exact bound computed at
    query time) with multi-block terms (stored bounds), on a shard past
    score_topk's 4096-per-term gate: bit-identical to exhaustive."""
    shard, _, _, avgdl = random_shard
    assert sum(shard.lookup(t).df for t, _ in terms) >= 4096 * len(terms)
    assert shard.lookup("r").block_max_impact is None
    for k in (1, 5, 10, 40, 60):
        assert shard.wand_topk(terms, k, avgdl) == \
            shard.exhaustive_topk(terms, k, avgdl)


@pytest.mark.parametrize("factor", [1.37, 0.7])
def test_wand_serves_exactly_after_avgdl_moves(random_shard, tmp_path,
                                               factor):
    """The manifest's avgdl moves ×1.37 or ×0.7 with no refresh: a shard
    opened with its recorded bound avgdl serves 120 random disjunctions
    of the head terms through WAND (counted), bit-identical to the
    exhaustive path."""
    from search_engine_ray.pipelines.search import (ShardIndex,
                                                    pure_disjunction_terms)
    from search_engine_ray.query.compile import Or, Word

    _, root, _, avgdl = random_shard
    idx = str(tmp_path / "index")
    shutil.copytree(root, idx)
    stats = {"avgdl": avgdl * factor, "bound_avgdl": [[0, avgdl]]}
    seg.write_manifest(idx, {"stats": stats})
    stats = seg.read_manifest(idx)["stats"]
    shard = ShardIndex(idx, 0, bound_avgdl=seg.shard_bound_avgdl(stats, 0))
    calls = []
    wand = shard.wand_topk
    shard.wand_topk = lambda *a: calls.append(1) or wand(*a)
    # every set past score_topk's 4096-per-term gate (m | r is not)
    sets = [["f"], ["m"], ["f", "m"], ["f", "r"], ["f", "m", "r"]]
    rng = np.random.default_rng(23)
    for i in range(120):
        terms = [str(t) for t in rng.permutation(sets[i % len(sets)])]
        plan = Word(terms[0], terms[0])
        for t in terms[1:]:
            plan = Or(plan, Word(t, t))
        idf = {t: float(rng.uniform(0.1, 4)) for t in terms}
        k = int(rng.choice([1, 3, 10, 40, 60]))
        assert shard.topk(plan, k, idf, stats["avgdl"]) == \
            shard.exhaustive_topk(pure_disjunction_terms(plan, idf), k,
                                  stats["avgdl"]), (terms, idf, k)
    assert len(calls) == 120


def test_corrupt_null_long_row_names_shard_and_term(random_shard,
                                                    tmp_path):
    """Null block metadata on a row of several blocks fails loudly."""
    from search_engine_ray.pipelines.search import ShardIndex

    _, root, _, _ = random_shard
    bad = str(tmp_path / "bad")
    shutil.copytree(root, bad)
    path = os.path.join(bad, "segments", "shard=0", "segment.parquet")
    t = pq.read_table(path)
    cells = t.column("block_last_doc").to_pylist()
    cells[segment_terms(os.path.dirname(path)).index("m")] = None
    t = t.set_column(t.schema.get_field_index("block_last_doc"),
                     "block_last_doc", pa.array(cells, pa.binary()))
    pq.write_table(t, path)
    sh = ShardIndex(bad, 0)
    assert sh.lookup("r") is not None and sh.lookup("f") is not None
    with pytest.raises(ValueError, match="shard 0 term 'm'"):
        sh.lookup("m")


def test_wand_keeps_a_tie_in_a_late_block(tmp_path):
    """One term over 40 blocks, where block 0's best doc ties the k-th
    score but block 0 is visited after the first batch of 32 intervals.
    A bound rounded to the nearest float32 falls below the tie at this
    avgdl, WAND cut block 0, and returned doc 129 where the exhaustive
    path returns doc 0; the rounded-up bound keeps block 0."""
    dl = 8
    one = np.array([1])
    avgdl = next(a for a in 8 + 0.01 * np.arange(1, 1000)
                 if np.float32(seg.bm25_impact(one, one * dl, a)[0])
                 < seg.bm25_impact(one, one * dl, a)[0])
    n = 40 * BS
    tf = np.ones(n, dtype=int)
    tf[BS * np.arange(1, 33)] = 2  # blocks 1..32 hold a tf=2 doc each
    terms = [" ".join(["t"] * int(x) + ["f"] * (dl - int(x))) for x in tf]
    shard = _write_shard(tmp_path, terms, [dl] * n, avgdl)
    k = 33
    want = shard.exhaustive_topk([("t", 1.3)], k, avgdl)
    assert want[-1][1] == 0  # the tie resolves to the smallest doc id
    assert shard.wand_topk([("t", 1.3)], k, avgdl) == want


# -- a built index ------------------------------------------------------------

@pytest.fixture(scope="module")
def built_index(ray_session, tmp_path_factory):
    """400 fixture pages in ONE shard, so frequent terms span blocks."""
    import ray.data as rd

    from search_engine_ray.pipelines.build import build_index
    from search_engine_ray.sources.fixtures import gen_pages

    root = tmp_path_factory.mktemp("layout")
    pages_path = str(root / "pages")
    os.makedirs(pages_path)
    pq.write_table(gen_pages(400), os.path.join(pages_path, "p.parquet"))

    def factory(columns):
        return rd.read_parquet(pages_path, columns=columns)

    out = str(root / "index")
    man = build_index(factory, out, docs_per_shard=4096)
    assert man["stats"]["num_shards"] == 1
    return out


def _sorted_dls(index_dir: str) -> np.ndarray:
    d = pq.read_table(os.path.join(index_dir, "docmeta", "shard=0"),
                      columns=["doc_id", "dl"])
    o = np.argsort(d.column("doc_id").to_numpy())
    return d.column("dl").to_numpy(zero_copy_only=False)[o].astype(np.int64)


def test_built_index_layout(built_index):
    """No segment or terms file stores cf; a row is null-metadata exactly
    when it is one block, and a longer row has ceil(df/128) entries."""
    for sub in ("segments", "terms"):
        for dirpath, _, files in os.walk(os.path.join(built_index, sub)):
            for f in files:
                if f.endswith(".parquet"):
                    names = pq.read_schema(os.path.join(dirpath, f)).names
                    assert "cf" not in names, (sub, f)
    assert pq.read_schema(os.path.join(
        built_index, "terms", "terms.parquet")).names == [
            "term", "df", "term_id"]
    rows = _rows(os.path.join(built_index, "segments", "shard=0"))
    multi = 0
    for r in rows:
        if r["df"] <= BS:
            assert all(r[c] is None for c in META), r["term_id"]
            continue
        multi += 1
        nb = -(-r["df"] // BS)
        lz = seg.LazyPostings(r)
        assert len(lz.block_last_doc) == nb
        assert len(lz.block_max_impact) == nb
        assert len(np.frombuffer(r["block_offs"], np.int64)) == 3 * nb
        np.testing.assert_array_equal(
            lz.block_last_doc,
            lz.doc_ids[np.minimum(np.arange(1, nb + 1) * BS, r["df"]) - 1])
    assert multi
    avgdl = seg.read_manifest(built_index)["stats"]["avgdl"]
    assert _assert_bounds_hold(rows, _sorted_dls(built_index), avgdl) \
        >= 2 * multi


def test_refresh_rewrites_only_stored_bounds(built_index, tmp_path):
    """After avgdl moves, refresh_block_max recomputes the rows that
    store bounds (rounded up under the new avgdl) and copies the null
    rows unchanged."""
    from search_engine_ray.pipelines.append import refresh_block_max

    idx = str(tmp_path / "index")
    shutil.copytree(built_index, idx)
    man = seg.read_manifest(idx)
    avgdl = man["stats"]["avgdl"] * 1.37
    man["stats"].update(avgdl=avgdl,
                        bound_avgdl=[[0, man["stats"]["avgdl"]]])
    with open(os.path.join(idx, "manifest.json"), "w") as f:
        json.dump(man, f)
    before = _rows(os.path.join(idx, "segments", "shard=0"))
    assert refresh_block_max(idx) == 1
    after = _rows(os.path.join(idx, "segments", "shard=0"))
    changed = 0
    for b, a in zip(before, after):
        assert {c: a[c] for c in a if c != "block_max_impact"} == \
            {c: b[c] for c in b if c != "block_max_impact"}
        if b["block_max_impact"] is None:
            assert a["block_max_impact"] is None
        else:
            changed += a["block_max_impact"] != b["block_max_impact"]
    assert changed
    assert _assert_bounds_hold(after, _sorted_dls(idx), avgdl)
