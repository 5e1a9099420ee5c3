"""Bigram co-occurrence statistics over the documents table — the
PMI-style collocation aggregate a training-data pipeline uses to find
multi-word expressions.  Output: the global top-k consecutive token
pairs with their pair count AND each member's corpus unigram count
(everything needed to compute PMI = log(c_xy·N / (c_x·c_y)) — the
counts themselves stay integer so the DuckDB twin is hash-exact; the
float PMI ordering is asserted separately in tests/test_distinct.py).

Scale shape:
- pair counting is the two-level combiner: each batch reduces its
  bigrams with one vectorized arrow ``group_by`` (shuffle ≤ distinct
  pairs per batch, never token-stream-sized), the global
  (w1, w2) groupby sums, then a per-batch top-k partial caps what the
  driver merges at k rows per block.
- unigram counts for the k winners come from a broadcast-filtered pass
  over the vocabulary aggregate: the ≤ 2k needed terms are ``ray.put``
  once and probed by searchsorted inside map_batches — the
  vocabulary-sized table never lands on the driver (≤ 2k rows do).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data.aggregate import Sum

from ..pipelines.datasets import read_table
from .textstats import _tokens_per_doc

TOP_K = 50


def _pair_partial(b: pa.Table) -> pa.Table:
    flat, n_tok = _tokens_per_doc(b.column("text"))
    if len(flat) == 0:
        return pa.table({"w1": pa.array([], pa.string()),
                         "w2": pa.array([], pa.string()),
                         "pair_cnt": pa.array([], pa.int64())})
    # consecutive pairs WITHIN each doc: drop each doc's last token as
    # a left member (offsets are cumulative token counts)
    ends = np.cumsum(n_tok)
    left = np.ones(len(flat), dtype=bool)
    left[ends[n_tok > 0] - 1] = False
    idx_l = np.flatnonzero(left)
    t = pa.table({"w1": flat.take(pa.array(idx_l)),
                  "w2": flat.take(pa.array(idx_l + 1))})
    g = t.group_by(["w1", "w2"]).aggregate([([], "count_all")])
    return g.select(["w1", "w2", "count_all"]).rename_columns(
        ["w1", "w2", "pair_cnt"])


def _topk_pairs(t: pa.Table, k: int) -> pa.Table:
    idx = pc.sort_indices(t, sort_keys=[("pair_cnt", "descending"),
                                        ("w1", "ascending"),
                                        ("w2", "ascending")])
    return t.take(idx[:k])


def bigram_stats(sf_dir: str, k: int = TOP_K):
    """(w1, w2, pair_cnt, cnt1, cnt2): global top-k consecutive token
    pairs by count (ties: w1, w2 asc) with corpus unigram counts."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    pairs = (ds.map_batches(_pair_partial, batch_format="pyarrow")
               .groupby(["w1", "w2"])
               .aggregate(Sum("pair_cnt", alias_name="pair_cnt")))
    tp = pairs.map_batches(lambda b: _topk_pairs(b, k),
                           batch_format="pyarrow").to_pandas()
    if len(tp):
        top = _topk_pairs(pa.Table.from_pandas(tp, preserve_index=False),
                          k)
    else:  # empty output drops the schema — type the empty explicitly
        top = pa.table({"w1": pa.array([], pa.string()),
                        "w2": pa.array([], pa.string()),
                        "pair_cnt": pa.array([], pa.int64())})

    if top.num_rows == 0:  # e.g. every doc has ≤ 1 token: no bigrams
        return pa.table({
            "w1": pa.array([], pa.string()),
            "w2": pa.array([], pa.string()),
            "pair_cnt": pa.array([], pa.int64()),
            "cnt1": pa.array([], pa.int64()),
            "cnt2": pa.array([], pa.int64()),
        })

    # unigram counts for the ≤ 2k distinct winner terms: broadcast the
    # sorted term list, filter the distributed vocab aggregate to it
    # (only the ref is captured — resolve it ONCE per batch so the
    # array ships via the object store, not the pickled closure)
    need = np.unique(np.concatenate([
        top.column("w1").to_numpy(zero_copy_only=False),
        top.column("w2").to_numpy(zero_copy_only=False)]))
    need_ref = ray.put(need)
    del need

    def uni_partial(b: pa.Table) -> pa.Table:
        need_arr = ray.get(need_ref)
        flat, _ = _tokens_per_doc(b.column("text"))
        t = pa.table({"w": flat})
        g = t.group_by("w").aggregate([([], "count_all")])
        w = g.column("w").to_numpy(zero_copy_only=False)
        sel = np.clip(np.searchsorted(need_arr, w), 0,
                      len(need_arr) - 1)
        hit = need_arr[sel] == w
        return pa.table({"w": g.column("w").filter(pa.array(hit)),
                         "cnt": g.column("count_all").cast(
                             pa.int64()).filter(pa.array(hit))})

    uni = (ds.map_batches(uni_partial, batch_format="pyarrow")
             .groupby("w").aggregate(Sum("cnt", alias_name="cnt"))
             .to_pandas())
    uw = uni["w"].to_numpy()
    order = np.argsort(uw)
    uw, ucnt = uw[order], uni["cnt"].to_numpy(dtype=np.int64)[order]

    def lookup(col):
        w = top.column(col).to_numpy(zero_copy_only=False)
        return ucnt[np.searchsorted(uw, w)]

    return pa.table({
        "w1": top.column("w1"), "w2": top.column("w2"),
        "pair_cnt": top.column("pair_cnt"),
        "cnt1": pa.array(lookup("w1"), pa.int64()),
        "cnt2": pa.array(lookup("w2"), pa.int64()),
    })


def bigram_stats_sql(k: int = TOP_K) -> str:
    return rf"""
WITH t AS (SELECT doc_id,
    list_filter(string_split_regex(trim(lower(text)), '\s+'),
                w -> w <> '') AS toks FROM documents),
u AS (SELECT unnest(toks) AS w FROM t),
uc AS (SELECT w, COUNT(*) AS cnt FROM u GROUP BY w),
b AS (SELECT unnest(toks[1:len(toks)-1]) AS w1,
             unnest(toks[2:len(toks)]) AS w2 FROM t),
p AS (SELECT w1, w2, COUNT(*) AS pair_cnt FROM b GROUP BY w1, w2
      ORDER BY pair_cnt DESC, w1, w2 LIMIT {k})
SELECT p.w1, p.w2, p.pair_cnt, u1.cnt AS cnt1, u2.cnt AS cnt2
FROM p JOIN uc u1 ON p.w1 = u1.w JOIN uc u2 ON p.w2 = u2.w
ORDER BY p.pair_cnt DESC, p.w1, p.w2
"""


SQL_BIGRAM_STATS = bigram_stats_sql()


def _tri_partial(b: pa.Table) -> pa.Table:
    flat, n_tok = _tokens_per_doc(b.column("text"))
    empty = pa.table({"w1": pa.array([], pa.string()),
                      "w2": pa.array([], pa.string()),
                      "w3": pa.array([], pa.string()),
                      "tri_cnt": pa.array([], pa.int64())})
    if len(flat) == 0:
        return empty
    # positions whose doc still has ≥ 2 more tokens after them
    ends = np.cumsum(n_tok)
    starts = ends - n_tok
    pos_in_doc = np.arange(len(flat)) - np.repeat(starts, n_tok)
    keep = pos_in_doc < np.repeat(n_tok, n_tok) - 2
    idx = np.flatnonzero(keep)
    if not len(idx):
        return empty
    t = pa.table({"w1": flat.take(pa.array(idx)),
                  "w2": flat.take(pa.array(idx + 1)),
                  "w3": flat.take(pa.array(idx + 2))})
    g = t.group_by(["w1", "w2", "w3"]).aggregate([([], "count_all")])
    return g.select(["w1", "w2", "w3", "count_all"]).rename_columns(
        ["w1", "w2", "w3", "tri_cnt"])


def _topk_tris(t: pa.Table, k: int) -> pa.Table:
    idx = pc.sort_indices(t, sort_keys=[("tri_cnt", "descending"),
                                        ("w1", "ascending"),
                                        ("w2", "ascending"),
                                        ("w3", "ascending")])
    return t.take(idx[:k])


def trigram_stats(sf_dir: str, k: int = TOP_K):
    """(w1, w2, w3, tri_cnt): global top-k consecutive token TRIPLES by
    count (ties: w1, w2, w3 asc) — the n=3 extension of
    ``bigram_stats``, same two-level combiner shape."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    tris = (ds.map_batches(_tri_partial, batch_format="pyarrow")
              .groupby(["w1", "w2", "w3"])
              .aggregate(Sum("tri_cnt", alias_name="tri_cnt")))
    tp = tris.map_batches(lambda b: _topk_tris(b, k),
                          batch_format="pyarrow").to_pandas()
    if not len(tp):
        return pa.table({"w1": pa.array([], pa.string()),
                         "w2": pa.array([], pa.string()),
                         "w3": pa.array([], pa.string()),
                         "tri_cnt": pa.array([], pa.int64())})
    return _topk_tris(pa.Table.from_pandas(tp, preserve_index=False), k)


def trigram_stats_sql(k: int = TOP_K) -> str:
    return rf"""
WITH t AS (SELECT doc_id,
    list_filter(string_split_regex(trim(lower(text)), '\s+'),
                w -> w <> '') AS toks FROM documents),
b AS (SELECT unnest(toks[1:len(toks)-2]) AS w1,
             unnest(toks[2:len(toks)-1]) AS w2,
             unnest(toks[3:len(toks)]) AS w3
      FROM t WHERE len(toks) >= 3)
SELECT w1, w2, w3, COUNT(*) AS tri_cnt FROM b GROUP BY w1, w2, w3
ORDER BY tri_cnt DESC, w1, w2, w3 LIMIT {k}
"""


SQL_TRIGRAM_STATS = trigram_stats_sql()
