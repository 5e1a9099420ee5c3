"""Corpus-hygiene operators for training-data pipelines: benchmark
decontamination and duplicate-cluster formation.

- decontaminate: flag every document that shares any k-token-window
  hash with a held-out (benchmark) subset. The held-out n-gram set is
  benchmark-sized by construction (decontamination deletes eval-set
  overlap from a crawl; the eval set is ~10^5-10^6 grams while the
  corpus is 10^12 docs), so it is collected once, `ray.put` once, and
  probed with a numpy searchsorted inside a stateless `map_batches` —
  the corpus side streams, nothing corpus-sized reaches the driver.
- dedup_clusters: connected components over the MinHash-LSH verified
  near-dup pairs (functions/dedup.py minhash_dedup), by hash-min label
  propagation — the standard MapReduce CC algorithm: each round is one
  hash join (labels ⋈ edges on src) plus one groupby-min, both
  distributed Dataset ops; rounds needed = component diameter (near-dup
  components are shallow star-ish clusters in practice; a large/small
  star pointer-jumping variant would give O(log n) rounds and is noted
  as the extreme-diameter escape hatch). Convergence is detected with a
  one-row Sum aggregate (labels only ever decrease, so the label sum is
  strictly monotone until fixpoint).

Both have bit-exact DuckDB oracles (functions/sql_hash.py
decontaminate_sql / dedup_clusters_sql) built on the same HUGEINT
restatement of the shingle-hash kernels.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

from ..kernels.shingles import shingle_hash_batch, tokenize_hash_batch
from ..pipelines.datasets import read_table
from .dedup import _pool_size
from .join import gated_join


def _window_hashes(batch: pa.Table, k: int
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat valid-window hashes, windows per doc, doc_ids) for a batch.
    Docs with < k tokens contribute zero windows (the shingle kernel's
    short-doc fallback hash is masked out — a fallback mixes fewer than
    k tokens and must not participate in k-gram containment)."""
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    th, tc = tokenize_hash_batch(batch.column("text"))
    sh, out_counts = shingle_hash_batch(th, tc, k)
    valid_doc = tc >= k
    keep = np.repeat(valid_doc, out_counts)
    win = np.where(valid_doc, out_counts, 0)
    return sh[keep], win, ids


def _holdout_gram_set(docs, k: int, holdout_mod: int) -> np.ndarray:
    """Sorted unique k-gram hashes of the held-out subset. The subset is
    benchmark-sized; per-batch partial uniques are unioned driver-side
    (bounded by the held-out gram count, not the corpus)."""

    def part(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ids % holdout_mod == 0))
        sh, _, _ = _window_hashes(batch, k)
        return pa.table({"sh": pa.array(np.unique(sh).view(np.int64),
                                        pa.int64())})

    parts = docs.map_batches(part, batch_format="pyarrow").to_pandas()
    return np.unique(parts["sh"].to_numpy(dtype=np.int64).view(np.uint64))


class _ContaminationFlagger:
    """Actor stage: holds the broadcast held-out gram set (deserialized
    once per actor from the shared object-store copy)."""

    def __init__(self, hold_ref, k: int, holdout_mod: int):
        self.hold = ray.get(hold_ref) if hasattr(hold_ref, "hex") \
            else np.asarray(hold_ref, dtype=np.uint64)
        self.k = k
        self.mod = holdout_mod

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        batch = batch.filter(pa.array(ids % self.mod != 0))
        sh, win, ids = _window_hashes(batch, self.k)
        if len(self.hold) and len(sh):
            pos = np.searchsorted(self.hold, sh)
            pos[pos == len(self.hold)] = 0
            hit = self.hold[pos] == sh
        else:
            hit = np.zeros(len(sh), dtype=bool)
        doc_of = np.repeat(np.arange(len(ids), dtype=np.int64), win)
        doc_hit = np.bincount(doc_of[hit], minlength=len(ids))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "contaminated": pa.array((doc_hit > 0).astype(np.int64),
                                     pa.int64()),
        })


def decontaminate(sf_dir: str, k: int = 5, holdout_mod: int = 97):
    """(doc_id, contaminated 0/1) for every non-held-out document; a doc
    is contaminated iff any of its k-token windows appears in the
    held-out subset (doc_id % holdout_mod == 0 — a deterministic stand-in
    for an eval-benchmark table). Oracle: sql_hash.decontaminate_sql."""
    docs = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    hold = _holdout_gram_set(docs, k, holdout_mod)
    hold_ref = ray.put(hold)
    return docs.map_batches(
        _ContaminationFlagger,
        fn_constructor_kwargs={"hold_ref": hold_ref, "k": k,
                               "holdout_mod": holdout_mod},
        batch_format="pyarrow", concurrency=_pool_size(),
        batch_size=1024)


# ---------------------------------------------------------------------------
def connected_components(pairs: pa.Table, nodes, num_partitions: int = 8,
                         max_rounds: int = 50):
    """Hash-min label propagation over an undirected pair list.

    ``pairs``: (doc_a, doc_b) table (output-sized — the near-dup pair
    list). ``nodes``: Dataset with a doc_id column covering every node
    (a superset is fine; extra docs become singletons). Each round
    re-labels every node with the min label among itself and its
    neighbors via join + groupby-min; terminates at fixpoint (label-sum
    Sum aggregate unchanged — labels are non-increasing). Returns a
    Dataset (doc_id, cluster_id, keep) where cluster_id is the
    component's min doc_id and keep flags the representative."""
    import ray.data as rd
    from ray.data.aggregate import Min as _Min, Sum as _Sum

    a = pairs.column("doc_a").to_numpy(zero_copy_only=False)
    b = pairs.column("doc_b").to_numpy(zero_copy_only=False)
    edges_tbl = pa.table({
        "src": pa.array(np.concatenate([a, b]), pa.int64()),
        "dst": pa.array(np.concatenate([b, a]), pa.int64()),
    })

    def seed(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id")
        return pa.table({"doc_id": ids, "cluster_id": ids})

    labels = (nodes.select_columns(["doc_id"])
              .map_batches(seed, batch_format="pyarrow").materialize())
    if edges_tbl.num_rows == 0:
        return labels.map_batches(_with_keep, batch_format="pyarrow")
    edges = rd.from_arrow(edges_tbl).materialize()
    # one partition per 32 edges at most: a partition is one aggregator
    # actor per join, two joins a round. On 1 CPU the 6-edge graph of
    # tests/test_hygiene.py takes 52 s at 8 partitions, 13 s at 1.
    num_partitions = max(1, min(num_partitions,
                                edges_tbl.num_rows // 32 or 1))

    def label_sum(ds) -> int:
        agg = ds.aggregate(_Sum("cluster_id", alias_name="s"))
        return int(agg["s"])

    def prop(batch: pa.Table) -> pa.Table:
        return pa.table({"doc_id": batch.column("dst"),
                         "cluster_id": batch.column("cluster_id")})

    def as_edges(batch: pa.Table) -> pa.Table:
        # view each label row as an edge label → node, so joining it
        # against labels yields label(label(node)) for every node
        return pa.table({"src": batch.column("cluster_id"),
                         "dst": batch.column("doc_id")})

    prev = label_sum(labels)
    converged = False
    for _ in range(max_rounds):
        # hash-min step: min label among neighbors (gate 0: labels are
        # node-sized, so both joins stay hash joins)
        j = gated_join(edges, labels, ["src"], ["doc_id"],
                       num_partitions=num_partitions, broadcast_gate=0)
        cand = j.map_batches(prop, batch_format="pyarrow")
        # pointer-jumping step: label(label(node)) — halves the
        # remaining path length each round, so deep chain components
        # converge in O(log diameter) rounds instead of O(diameter)
        # (cluster_id values are always doc_ids present in `labels`, so
        # the inner self-join covers every node)
        j2 = gated_join(labels.map_batches(as_edges, batch_format="pyarrow"),
                        labels, ["src"], ["doc_id"],
                        num_partitions=num_partitions, broadcast_gate=0)
        cand2 = j2.map_batches(prop, batch_format="pyarrow")
        labels = (labels.union(cand).union(cand2).groupby("doc_id")
                  .aggregate(_Min("cluster_id", alias_name="cluster_id"))
                  .materialize())
        cur = label_sum(labels)
        if cur == prev:
            converged = True
            break
        prev = cur
    if not converged:
        raise RuntimeError(
            f"connected_components did not reach the label fixpoint in "
            f"{max_rounds} rounds — with pointer jumping this needs a "
            f"component of diameter > 2^{max_rounds}; the pair list is "
            f"likely inconsistent")
    return labels.map_batches(_with_keep, batch_format="pyarrow")


def _with_keep(batch: pa.Table) -> pa.Table:
    ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    lab = batch.column("cluster_id").to_numpy(zero_copy_only=False)
    return pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "cluster_id": pa.array(lab.astype(np.int64), pa.int64()),
        "keep": pa.array((ids == lab).astype(np.int64), pa.int64()),
    })


def dedup_clusters(sf_dir: str, threshold_bp: int = 7000,
                   n_perm: int = 64, n_bands: int = 16,
                   num_partitions: int = 8):
    """Duplicate-cluster assignment: MinHash-LSH verified near-dup pairs
    → connected components → (doc_id, cluster_id, keep) for EVERY
    document (singletons are their own cluster). `keep == 1` rows are
    the post-dedup corpus. Oracle: sql_hash.dedup_clusters_sql
    (recursive reachability closure)."""
    from .dedup import minhash_dedup

    pairs = minhash_dedup(sf_dir, threshold_bp=threshold_bp,
                          n_perm=n_perm, n_bands=n_bands,
                          num_partitions=num_partitions)
    nodes = read_table(sf_dir, "documents", columns=["doc_id"])
    return connected_components(pairs, nodes,
                                num_partitions=num_partitions)


# ---------------------------------------------------------------------------
def corpus_prep(sf_dir: str, min_quality_bp: int = 4500, k: int = 5,
                holdout_mod: int = 97):
    """End-to-end pretraining-corpus prep — the composed pipeline a
    100-TB data-prep user actually runs: quality filter (integer-bp
    composite) ∧ exact-dedup representative (min doc_id per text) ∧
    benchmark decontamination (no k-gram overlap with the held-out
    subset), emitting (doc_id, n_tokens, quality_bp) for the kept docs.

    Composition is one tagged UNION of the four stage outputs (each a
    (doc_id, value) stream) merged by a single groupby(doc_id) — the
    doc-keyed hash shuffle is the only exchange; no stage materializes
    on the driver, so the composition scales exactly as its parts do.
    DuckDB twin composes the same stage CTEs (hash-exact)."""
    import pyarrow.compute as pc

    from .docops import dedup_exact, token_count
    from .textstats import quality_score

    q = quality_score(sf_dir).map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "quality_bp": b.column("quality_bp").cast(pa.int64()),
            "is_rep": pa.nulls(len(b), pa.int64()),
            "contaminated": pa.nulls(len(b), pa.int64()),
            "n_tokens": pa.nulls(len(b), pa.int64()),
        }), batch_format="pyarrow")
    r = dedup_exact(sf_dir).map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "quality_bp": pa.nulls(len(b), pa.int64()),
            "is_rep": pa.array(np.ones(len(b), np.int64)),
            "contaminated": pa.nulls(len(b), pa.int64()),
            "n_tokens": pa.nulls(len(b), pa.int64()),
        }), batch_format="pyarrow")
    c = decontaminate(sf_dir, k=k, holdout_mod=holdout_mod).map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "quality_bp": pa.nulls(len(b), pa.int64()),
            "is_rep": pa.nulls(len(b), pa.int64()),
            "contaminated": b.column("contaminated").cast(pa.int64()),
            "n_tokens": pa.nulls(len(b), pa.int64()),
        }), batch_format="pyarrow")
    t = token_count(sf_dir).map_batches(
        lambda b: pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "quality_bp": pa.nulls(len(b), pa.int64()),
            "is_rep": pa.nulls(len(b), pa.int64()),
            "contaminated": pa.nulls(len(b), pa.int64()),
            "n_tokens": b.column("n_tokens").cast(pa.int64()),
        }), batch_format="pyarrow")

    def merge(g: pa.Table) -> pa.Table:
        def val(col: str):
            arr = g.column(col)
            m = pc.is_valid(arr).to_numpy(zero_copy_only=False)
            if not m.any():
                return None
            return int(pc.fill_null(arr, 0).to_numpy(
                zero_copy_only=False)[m][0])

        qv = val("quality_bp")
        keep = (val("is_rep") == 1
                and val("contaminated") == 0
                and qv is not None and qv >= min_quality_bp)
        if not keep:
            return pa.table({"doc_id": pa.array([], pa.int64()),
                             "n_tokens": pa.array([], pa.int64()),
                             "quality_bp": pa.array([], pa.int64())})
        return pa.table({
            "doc_id": g.column("doc_id")[:1].cast(pa.int64()),
            "n_tokens": pa.array([val("n_tokens") or 0], pa.int64()),
            "quality_bp": pa.array([qv], pa.int64()),
        })

    return (q.union(r).union(c).union(t)
             .groupby("doc_id")
             .map_groups(merge, batch_format="pyarrow"))


def corpus_prep_sql(min_quality_bp: int = 4500, k: int = 5,
                    holdout_mod: int = 97) -> str:
    """DuckDB twin of corpus_prep: the same stage CTEs composed (k and
    holdout_mod plumb through to the decontamination CTE so non-default
    arguments keep the pair comparable)."""
    from . import sql_hash
    from .docops import SQL as DOC_SQL
    from .textstats import SQL_QUALITY_SCORE

    return f"""
WITH q AS ({SQL_QUALITY_SCORE}),
r AS (SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text),
c AS ({sql_hash.decontaminate_sql(k=k, holdout_mod=holdout_mod)}),
t AS ({DOC_SQL["token_count"]})
SELECT q.doc_id, t.n_tokens, q.quality_bp
FROM q JOIN r USING (doc_id) JOIN c USING (doc_id) JOIN t USING (doc_id)
WHERE q.quality_bp >= {min_quality_bp} AND c.contaminated = 0
ORDER BY q.doc_id
"""
