"""Corpus sampling / distribution operators for training-data curation:
deterministic stratified sampling, exact distributed quantiles, and
per-group top-k — each with a hash-exact DuckDB oracle.

Scale notes (tested at sf, shaped for 1e12 rows):
- ``stratified_sample`` is a stateless per-batch filter — NO shuffle.  The
  keep decision is a pure integer function of (doc_id, lang), so any
  worker (or a resumed run) makes the identical decision; sampling a
  100-TB corpus is one streaming pass.
- ``length_quantiles`` computes EXACT quantiles without a global sort:
  per-batch value_counts partials → one groupby over DISTINCT LENGTHS
  (bounded by the max document length in tokens, ~1e5 — not by corpus
  size), then a driver-side cumsum over that tiny table.  Compare to
  ``ds.sort("n_tokens")`` which would be an all-to-all shuffle of every
  row. ``length_quantiles_by_lang`` is the same code grouped by lang.
- ``top_terms_per_lang`` is the two-level combiner pattern: per-batch
  (lang, term) partial counts shrink the shuffle to distinct terms per
  batch; after the global (lang, term) groupby a per-batch first-k
  caps the final per-lang group at k × n_blocks rows.
  ``per_lang_sample`` runs the same per-lang first-k combiner.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Sum

from ..pipelines.datasets import read_table
from .textstats import _tokens_per_doc

# glibc-LCG step, taken mod 2^31 AFTER reducing doc_id mod 2^31 so the
# intermediate product stays < 2^62: exact in both numpy int64 and
# DuckDB BIGINT (DuckDB errors on overflow; numpy would wrap silently).
_LCG_A, _LCG_C, _LCG_M = 1103515245, 12345, 2_147_483_648

# per-language keep rates in basis points; '*' is the fallback stratum
DEFAULT_RATES_BP: dict[str, int] = {"en": 5000, "*": 2000}


def _keep_hash(doc_id: np.ndarray) -> np.ndarray:
    """Deterministic per-doc bucket in [0, 10000)."""
    # loud guard: for doc_id < 0, np.mod (sign of the divisor) and the
    # DuckDB twins' SQL % (sign of the dividend) disagree
    if len(doc_id) and doc_id.min() < 0:
        raise ValueError(
            "_keep_hash: negative doc_id — numpy mod and SQL % disagree "
            "below zero, so the DuckDB twins would keep different rows")
    m = np.mod(doc_id, _LCG_M)
    return ((m * _LCG_A + _LCG_C) % _LCG_M) % 10000


def stratified_sample(sf_dir: str, rates_bp: dict[str, int] | None = None):
    """Deterministic stratified sample of the documents table: keep a
    per-language fraction decided by an integer hash of doc_id.

    No randomness, no state, no shuffle: re-running (or resuming after a
    failure) keeps exactly the same rows, and the rates are auditable
    per stratum.  Returns (doc_id, lang, bucket) for kept rows.
    """
    rates = dict(DEFAULT_RATES_BP if rates_bp is None else rates_bp)
    default_bp = rates.pop("*", 0)
    langs = sorted(rates)
    lang_arr = pa.array(langs)
    rate_arr = np.array([rates[l] for l in langs], dtype=np.int64)

    def keep(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        bucket = _keep_hash(ids)
        pos = pc.fill_null(pc.index_in(b.column("lang"),
                                       value_set=lang_arr), -1).to_numpy(
            zero_copy_only=False).astype(np.int64)
        rate = np.where(pos >= 0, rate_arr[np.maximum(pos, 0)], default_bp)
        m = bucket < rate
        return pa.table({
            "doc_id": b.column("doc_id").filter(pa.array(m)),
            "lang": b.column("lang").filter(pa.array(m)),
            "bucket": pa.array(bucket[m], pa.int64()),
        })

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])
    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample_sql(rates_bp: dict[str, int] | None = None) -> str:
    rates = dict(DEFAULT_RATES_BP if rates_bp is None else rates_bp)
    default_bp = rates.pop("*", 0)
    case = " ".join(f"WHEN lang = '{l}' THEN {bp}"
                    for l, bp in sorted(rates.items()))
    return f"""
WITH h AS (
  SELECT doc_id, lang,
         (((doc_id % {_LCG_M}) * {_LCG_A} + {_LCG_C}) % {_LCG_M})
           % 10000 AS bucket
  FROM documents)
SELECT doc_id, lang, bucket FROM h
WHERE bucket < (CASE {case} ELSE {default_bp} END)
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
DEFAULT_QS_BP = (2500, 5000, 7500, 9500, 9900)


def _quantiles(sf_dir: str, qs_bp: tuple[int, ...],
               keys: list[str]) -> pa.Table:
    """Exact token-length quantiles per group of the string columns
    ``keys`` (one group when empty) WITHOUT a global sort: per-batch
    (keys…, n_tokens) histogram partials → one groupby over distinct
    (keys…, length) tuples (bounded by #groups × max doc length, not
    corpus size) → one integer quantile walk per group on the driver.

    Quantile definition (exact on both engines): value at q is the
    smallest length v whose cumulative count >= ceil(q * N / 10000),
    with integer ceil = (q*N + 9999) // 10000."""
    ds = read_table(sf_dir, "documents", columns=keys + ["text"])
    hkeys = keys + ["n_tokens"]

    def partial(b: pa.Table) -> pa.Table:
        _, n_tok = _tokens_per_doc(b.column("text"))
        t = pa.table({**{c: b.column(c) for c in keys},
                      "n_tokens": pa.array(n_tok, pa.int64())})
        g = t.group_by(hkeys).aggregate([([], "count_all")])
        return g.select(hkeys + ["count_all"]).rename_columns(
            hkeys + ["cnt"])

    # distinct lengths per group ≤ max tokens/doc — bounded regardless of
    # corpus size, so this driver materialization is scale-safe
    hist = (ds.map_batches(partial, batch_format="pyarrow")
              .groupby(hkeys).aggregate(Sum("cnt", alias_name="cnt"))
              .to_pandas().sort_values(hkeys))
    qs = np.asarray(qs_bp, dtype=np.int64)
    out: dict[str, list] = {c: [] for c in hkeys + ["q_bp"]}
    for key, g in (hist.groupby(keys, sort=True) if keys else [((), hist)]):
        v = g["n_tokens"].to_numpy(dtype=np.int64)
        cum = np.cumsum(g["cnt"].to_numpy(dtype=np.int64))
        i = np.searchsorted(cum, (qs * (cum[-1] if len(cum) else 0)
                                  + 9999) // 10000)
        ok = i < len(v)
        for c, x in zip(keys, key):
            out[c] += [x] * int(ok.sum())
        out["q_bp"] += qs[ok].tolist()
        out["n_tokens"] += v[i[ok]].tolist()
    return pa.table({c: pa.array(out[c], pa.string()) for c in keys} | {
        c: pa.array(out[c], pa.int64()) for c in ("q_bp", "n_tokens")})


def length_quantiles(sf_dir: str, qs_bp: tuple[int, ...] = DEFAULT_QS_BP):
    """Exact token-length quantiles of the corpus WITHOUT a global sort:
    ``_quantiles`` with one group. Returns (q_bp, n_tokens)."""
    return _quantiles(sf_dir, qs_bp, [])


_TOKS = r"string_split_regex(trim(lower(text)), '\s+')"


def length_quantiles_sql(qs_bp: tuple[int, ...] = DEFAULT_QS_BP) -> str:
    vals = ", ".join(f"({q})" for q in qs_bp)
    # len(list_filter(...)) mirrors _tokens_per_doc's empty-token drop
    return f"""
WITH lens AS (
  SELECT len(list_filter({_TOKS}, x -> x <> '')) AS v FROM documents),
cnt AS (SELECT v, COUNT(*) AS c FROM lens GROUP BY v),
cum AS (SELECT v, SUM(c) OVER (ORDER BY v) AS cc FROM cnt),
n AS (SELECT COUNT(*) AS n FROM lens)
SELECT q.q_bp, MIN(cum.v) AS n_tokens
FROM (VALUES {vals}) q(q_bp), n, cum
WHERE cum.cc >= (q.q_bp * n.n + 9999) // 10000
GROUP BY q.q_bp ORDER BY q.q_bp
"""


# ---------------------------------------------------------------------------
def _first_k(t: pa.Table, k: int, order: list[tuple[str, str]],
             rank: bool = False) -> pa.Table:
    """The first k rows per lang of ``t`` by the sort keys ``order``
    (ranked within each run of equal lang), with their 1-based ``rank``
    column when asked."""
    t = t.take(pc.sort_indices(t, sort_keys=[("lang", "ascending")]
                               + order))
    langs = t.column("lang").to_numpy(zero_copy_only=False)
    starts = np.r_[0, np.flatnonzero(langs[1:] != langs[:-1]) + 1]
    pos = np.arange(len(langs)) - np.repeat(
        starts, np.diff(np.r_[starts, len(langs)]))
    keep = pos < k
    t = t.filter(pa.array(keep))
    return t.append_column("rank", pa.array(pos[keep] + 1)) if rank else t


def _per_lang_first_k(ds, k: int, order: list[tuple[str, str]],
                      rank: bool = False):
    """Two-level combiner: each batch keeps its own first k per lang, so
    the final per-lang group holds ≤ k × n_blocks rows — never corpus-
    or vocabulary-sized — and keeps the final k."""
    return (ds.map_batches(lambda b: _first_k(b, k, order),
                           batch_format="pyarrow")
              .groupby("lang")
              .map_groups(lambda g: _first_k(g, k, order, rank),
                          batch_format="pyarrow"))


def top_terms_per_lang(sf_dir: str, k: int = 10):
    """Top-k terms by collection frequency PER LANGUAGE, deterministic
    tie-break (cf desc, term asc). Batch (lang, term) partials → one
    global (lang, term) groupby → the per-lang first-k combiner over
    (cf desc, term)."""
    ds = read_table(sf_dir, "documents", columns=["text", "lang"])

    def partial_cf(b: pa.Table) -> pa.Table:
        flat, n_tok = _tokens_per_doc(b.column("text"))
        langs = pa.Table.from_arrays(
            [b.column("lang").take(pa.array(np.repeat(
                np.arange(len(b), dtype=np.int64), n_tok))), flat],
            names=["lang", "term"])
        g = langs.group_by(["lang", "term"]).aggregate([([], "count_all")])
        return g.select(["lang", "term", "count_all"]).rename_columns(
            ["lang", "term", "cf"])

    cf = ds.map_batches(partial_cf, batch_format="pyarrow") \
           .groupby(["lang", "term"]).aggregate(Sum("cf", alias_name="cf"))
    return _per_lang_first_k(cf, k, [("cf", "descending"),
                                     ("term", "ascending")], rank=True)


def top_terms_per_lang_sql(k: int = 10) -> str:
    return f"""
WITH tok AS (
  SELECT lang, unnest(list_filter({_TOKS}, x -> x <> '')) AS term
  FROM documents),
cf AS (SELECT lang, term, COUNT(*) AS cf FROM tok GROUP BY lang, term),
r AS (SELECT lang, term, cf,
        CAST(row_number() OVER (
          PARTITION BY lang ORDER BY cf DESC, term) AS BIGINT) AS rank
      FROM cf)
SELECT lang, term, cf, rank FROM r WHERE rank <= {k}
ORDER BY lang, rank
"""


# ---------------------------------------------------------------------------
def length_quantiles_by_lang(sf_dir: str,
                             qs_bp: tuple[int, ...] = DEFAULT_QS_BP):
    """Exact per-LANGUAGE token-length quantiles: ``_quantiles`` grouped
    by lang, the same integer rank rule as ``length_quantiles``, so the
    SQL twin is hash-exact. Returns (lang, q_bp, n_tokens)."""
    return _quantiles(sf_dir, qs_bp, ["lang"])


def length_quantiles_by_lang_sql(
        qs_bp: tuple[int, ...] = DEFAULT_QS_BP) -> str:
    vals = ", ".join(f"({q})" for q in qs_bp)
    return f"""
WITH lens AS (
  SELECT lang, len(list_filter({_TOKS}, x -> x <> '')) AS v
  FROM documents),
cnt AS (SELECT lang, v, COUNT(*) AS c FROM lens GROUP BY lang, v),
cum AS (SELECT lang, v,
               SUM(c) OVER (PARTITION BY lang ORDER BY v) AS cc
        FROM cnt),
n AS (SELECT lang, COUNT(*) AS n FROM lens GROUP BY lang)
SELECT cum.lang, q.q_bp, MIN(cum.v) AS n_tokens
FROM (VALUES {vals}) q(q_bp), n, cum
WHERE cum.lang = n.lang
  AND cum.cc >= (q.q_bp * n.n + 9999) // 10000
GROUP BY cum.lang, q.q_bp ORDER BY cum.lang, q.q_bp
"""


# ---------------------------------------------------------------------------
def per_lang_sample(sf_dir: str, k: int = 20):
    """Uniform k-sample PER STRATUM (language), deterministic: the k
    docs with the smallest LCG hash (ties by doc_id) in each language —
    a reservoir-sample replacement whose output is a pure function of
    the corpus, so resumed/re-run jobs agree row-for-row and the DuckDB
    row_number() twin is hash-exact. The per-lang first-k combiner of
    ``top_terms_per_lang`` over (h, doc_id). Returns (lang, doc_id, h).
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang"])
    hashed = ds.map_batches(lambda b: b.select(["lang", "doc_id"])
                            .append_column("h", pa.array(_keep_hash(
                                b.column("doc_id").to_numpy(
                                    zero_copy_only=False)), pa.int64())),
                            batch_format="pyarrow")
    return _per_lang_first_k(hashed, k, [("h", "ascending"),
                                         ("doc_id", "ascending")])


def per_lang_sample_sql(k: int = 20) -> str:
    return f"""
WITH h AS (
  SELECT doc_id, lang,
         (((doc_id % {_LCG_M}) * {_LCG_A} + {_LCG_C}) % {_LCG_M})
           % 10000 AS h
  FROM documents),
r AS (SELECT lang, doc_id, h,
             row_number() OVER (PARTITION BY lang
                                ORDER BY h, doc_id) AS rn
      FROM h)
SELECT lang, doc_id, h FROM r WHERE rn <= {k}
ORDER BY lang, h, doc_id
"""
