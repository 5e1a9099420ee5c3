"""N-gram co-occurrence statistics over the documents table — the
PMI-style collocation aggregates a training-data pipeline uses to find
multi-word expressions. ``bigram_stats`` gives the global top-k
consecutive token pairs with their pair count AND each member's corpus
unigram count (everything needed to compute PMI = log(c_xy·N /
(c_x·c_y)) — the counts themselves stay integer so the DuckDB twin is
hash-exact; the float PMI ordering is asserted separately in
tests/test_distinct.py). ``trigram_stats`` gives the top-k token
triples with their counts.

Scale shape:
- n-gram counting is one two-level combiner for every n: each batch
  reduces its n-grams with one vectorized arrow ``group_by`` (shuffle
  ≤ distinct n-grams per batch, never token-stream-sized), the global
  (w1..wn) groupby sums, then a per-block top-k partial caps what the
  driver merges at k rows per block.
- unigram counts for the k winning pairs come from a
  broadcast-filtered pass over the vocabulary aggregate: the ≤ 2k
  needed terms are ``ray.put`` once and probed by searchsorted inside
  map_batches — the vocabulary-sized table never lands on the driver
  (≤ 2k rows do).
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
_CNT = {2: "pair_cnt", 3: "tri_cnt"}  # count column per n


def _words(n: int) -> list[str]:
    return [f"w{i}" for i in range(1, n + 1)]


def _ngram_empty(n: int) -> pa.Table:
    return pa.table({**{w: pa.array([], pa.string()) for w in _words(n)},
                     _CNT[n]: pa.array([], pa.int64())})


def _ngram_partial(b: pa.Table, n: int) -> pa.Table:
    """One batch's (w1..wn, count) of consecutive n-token runs."""
    flat, n_tok = _tokens_per_doc(b.column("text"))
    # runs start where their doc still has n - 1 more tokens
    starts = np.cumsum(n_tok) - n_tok
    pos_in_doc = np.arange(len(flat)) - np.repeat(starts, n_tok)
    idx = np.flatnonzero(pos_in_doc < np.repeat(n_tok, n_tok) - (n - 1))
    if not len(idx):
        return _ngram_empty(n)
    t = pa.table({w: flat.take(pa.array(idx + i))
                  for i, w in enumerate(_words(n))})
    g = t.group_by(_words(n)).aggregate([([], "count_all")])
    return g.select(_words(n) + ["count_all"]).rename_columns(
        _words(n) + [_CNT[n]])


def _ngram_topk(t: pa.Table, n: int, k: int) -> pa.Table:
    idx = pc.sort_indices(t, sort_keys=[(_CNT[n], "descending")] + [
        (w, "ascending") for w in _words(n)])
    return t.take(idx[:k])


def _ngram_top(ds, n: int, k: int) -> pa.Table:
    """Global top-k n-grams by count (ties: w1..wn asc): batch partials,
    one (w1..wn) groupby, a per-block top-k, the driver's final k."""
    grams = (ds.map_batches(lambda b: _ngram_partial(b, n),
                            batch_format="pyarrow")
               .groupby(_words(n))
               .aggregate(Sum(_CNT[n], alias_name=_CNT[n])))
    tp = grams.map_batches(lambda b: _ngram_topk(b, n, k),
                           batch_format="pyarrow").to_pandas()
    if not len(tp):  # an empty output drops the schema: type it
        return _ngram_empty(n)
    return _ngram_topk(pa.Table.from_pandas(tp, preserve_index=False), n, k)


def bigram_stats(sf_dir: str, k: int = TOP_K):
    """(w1, w2, pair_cnt, cnt1, cnt2): global top-k consecutive token
    pairs by count (ties: w1, w2 asc) with corpus unigram counts."""
    ds = read_table(sf_dir, "documents", columns=["text"])
    top = _ngram_top(ds, 2, k)
    if top.num_rows == 0:  # e.g. every doc has ≤ 1 token: no bigrams
        return top.append_column("cnt1", pa.array([], pa.int64())) \
                  .append_column("cnt2", pa.array([], pa.int64()))

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


def trigram_stats(sf_dir: str, k: int = TOP_K):
    """(w1, w2, w3, tri_cnt): global top-k consecutive token TRIPLES by
    count (ties: w1, w2, w3 asc) — the n=3 case of ``bigram_stats``'s
    counting, without the unigram lookup."""
    return _ngram_top(read_table(sf_dir, "documents", columns=["text"]),
                      3, k)


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
