"""Feature engineering operators: hashed bag-of-words vectorization and
semi-structured (JSON) field extraction — the last-mile transforms a
training-data pipeline runs after cleaning/dedup.

Scale notes:
- ``feature_hash_bow`` emits the SPARSE long form (doc_id, bucket,
  weight): one stateless vectorized pass, no shuffle, output linear in
  nonzero features (the dense list form at dim=2^20 would ship mostly
  zeros).  Signed feature hashing (Weinberger et al. 2009): bucket =
  h % dim, sign = parity of (h // dim), so collisions cancel in
  expectation.  Token hash is the same FNV-1a-64 the dedup family uses
  (kernels/textutils.fnv1a_64_arrow — buffer-level, no per-token
  Python), and the oracle reuses sql_hash's HUGEINT FNV fold.
- ``events_json_stats`` extracts a typed field from a JSON-ish string
  column with one RE2 kernel pass (pc.extract_regex) and folds through
  per-batch integer partials — the semi-structured analogue of the
  term_stats combiner.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Max, Min, Sum

from ..kernels.textutils import fnv1a_64_arrow
from ..pipelines.datasets import read_table
from .textstats import _tokens_per_doc


def feature_hash_bow(sf_dir: str, dim: int = 64):
    """Signed feature-hashed bag-of-words per document, sparse long form
    (doc_id, bucket, weight), weight = Σ ±1 over tokens in the bucket;
    zero-weight buckets (cancelled or untouched) are absent."""

    def fh(b: pa.Table) -> pa.Table:
        flat, n_tok = _tokens_per_doc(b.column("text"))
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        doc_of = np.repeat(ids, n_tok)
        h = fnv1a_64_arrow(flat)
        bucket = (h % np.uint64(dim)).astype(np.int64)
        sgn = np.where((h // np.uint64(dim)) % np.uint64(2) == 0, 1, -1)
        t = pa.table({"doc_id": pa.array(doc_of, pa.int64()),
                      "bucket": pa.array(bucket, pa.int64()),
                      "weight": pa.array(sgn.astype(np.int64), pa.int64())})
        g = t.group_by(["doc_id", "bucket"]).aggregate([("weight", "sum")])
        g = g.select(["doc_id", "bucket", "weight_sum"]).rename_columns(
            ["doc_id", "bucket", "weight"])
        return g.filter(pc.not_equal(g.column("weight"), 0))

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    # one map_batches = the whole op: a doc's tokens live in one batch,
    # so per-batch group_by IS the final (doc, bucket) aggregation
    return ds.map_batches(fh, batch_format="pyarrow")


def feature_hash_bow_sql(dim: int = 64) -> str:
    from .sql_hash import _TOK_CTES
    return f"""
WITH {_TOK_CTES},
tok AS (SELECT doc_id, UNNEST(th) AS h FROM tokh),
s AS (SELECT doc_id, CAST(h % {dim} AS BIGINT) AS bucket,
        SUM(CASE WHEN (h // {dim}) % 2 = 0 THEN 1 ELSE -1 END) AS w
      FROM tok GROUP BY doc_id, bucket)
SELECT doc_id, bucket, CAST(w AS BIGINT) AS weight
FROM s WHERE w <> 0 ORDER BY doc_id, bucket
"""


# ---------------------------------------------------------------------------
_K_RE = r'"k":\s*(?P<v>[0-9]+)'


def events_json_stats(sf_dir: str):
    """Typed extraction from the JSON-ish ``events.props`` column (one
    RE2 pass per batch) + grouped integer stats per event_type; rows
    whose props lack the field are dropped (matching the SQL twin)."""
    ds = read_table(sf_dir, "events", columns=["event_type", "props"])

    def partial(b: pa.Table) -> pa.Table:
        ex = pc.extract_regex(b.column("props"), _K_RE)
        v = pc.struct_field(ex, "v")
        ok = pc.is_valid(v)
        k = pc.cast(v.filter(ok), pa.int64())
        et = b.column("event_type").filter(ok)
        t = pa.table({"event_type": et, "k": k})
        g = t.group_by("event_type").aggregate(
            [("k", "count"), ("k", "sum"), ("k", "min"), ("k", "max")])
        g = g.select(["event_type", "k_count", "k_sum", "k_min", "k_max"])
        return g.rename_columns(
            ["event_type", "n_events", "sum_k", "min_k", "max_k"])

    return ds.map_batches(partial, batch_format="pyarrow") \
             .groupby("event_type").aggregate(
                 Sum("n_events", alias_name="n_events"),
                 Sum("sum_k", alias_name="sum_k"),
                 Min("min_k", alias_name="min_k"),
                 Max("max_k", alias_name="max_k"))


SQL_EVENTS_JSON_STATS = r"""
WITH x AS (
  SELECT event_type,
         CAST(regexp_extract(props, '"k":\s*([0-9]+)', 1) AS BIGINT) AS k
  FROM events
  WHERE regexp_matches(props, '"k":\s*[0-9]+'))
SELECT event_type, COUNT(*) AS n_events,
       CAST(SUM(k) AS BIGINT) AS sum_k,
       MIN(k) AS min_k, MAX(k) AS max_k
FROM x GROUP BY event_type ORDER BY event_type
"""
