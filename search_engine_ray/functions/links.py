"""Link-graph extraction (SURVEY.md §2.2 link capture / F8).

The reference parser captures <a href>/<embed src> links and anchor text
(HtmlParser.cpp:120-165) and ships them to crawler peers with the non-http
filter (Parser.cpp:469-476). Here the same capture feeds a link-graph
dataset: edges (src, dst, anchor) and an in-degree aggregate — the
building block for static rank signals at scale.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Count  # noqa: F401

from ..kernels.htmlparser import HtmlParser
from ..pipelines.datasets import pages_dataset
from .join import gated_join


def _edges_batch(batch: pa.Table) -> pa.Table:
    srcs, dsts, anchors = [], [], []
    urls = batch.column("url").to_pylist()
    htmls = batch.column("html").to_pylist()
    for url, html in zip(urls, htmls):
        p = HtmlParser(html)
        base = p.base.decode("latin-1")
        for link in p.links:
            href = link.url.decode("latin-1")
            # non-http link drop unless a <base> exists (Parser.cpp:469-476)
            if not href.startswith("http") and not base:
                continue
            if not href.startswith("http"):
                href = base + href
            srcs.append(url)
            dsts.append(href)
            anchors.append(" ".join(a.decode("latin-1")
                                    for a in link.anchor))
    return pa.table({
        "src": pa.array(srcs, pa.string()),
        "dst": pa.array(dsts, pa.string()),
        "anchor": pa.array(anchors, pa.string()),
    })


def link_edges(sf_dir: str):
    """All (src, dst, anchor) edges from the synthesized pages."""
    return pages_dataset(sf_dir).map_batches(
        _edges_batch, batch_format="pyarrow", batch_size=512)


def link_indegree(sf_dir: str, k: int = 50):
    """Top-k pages by in-degree (partial counts per batch → small groupby).
    Deterministic tie-break on dst."""
    edges = link_edges(sf_dir)

    def partial(b: pa.Table) -> pa.Table:
        vc = pc.value_counts(b.column("dst").combine_chunks())
        return pa.table({"dst": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    from ray.data.aggregate import Sum

    counts = (edges.select_columns(["dst"])
              .map_batches(partial, batch_format="pyarrow")
              .groupby("dst").aggregate(Sum("n", alias_name="in_degree")))
    top = (counts.sort(["in_degree", "dst"], descending=[True, False])
           .limit(k).to_pandas())
    top["in_degree"] = top["in_degree"].astype("int64")
    return top[["dst", "in_degree"]]


# ---------------------------------------------------------------------------
def link_pagerank(sf_dir: str, n_iter: int = 5, k: int = 50,
                  num_partitions: int = 8):
    """PageRank over the extracted link graph (see pagerank_from_edges)."""
    return pagerank_from_edges(
        link_edges(sf_dir).select_columns(["src", "dst"]),
        n_iter=n_iter, k=k, num_partitions=num_partitions)


def pagerank_from_edges(edges_in, n_iter: int = 5, k: int = 50,
                        num_partitions: int = 8):
    """PageRank over an edge dataset (src, dst) — the iterative-algorithm
    pattern: each round is one hash join (ranks ⋈ edges on src) plus one
    groupby(dst) partial-sum, both distributed; the driver never holds
    the node set.

    Deterministic integer arithmetic: ranks are nano-units (1e9 = mass
    1.0), contributions are rank // outdeg and the damping step is
    (85 * insum) // 100 — no float summation order anywhere. Dangling
    mass is dropped rather than redistributed (documented
    simplification; ranking order is unaffected for top-k use).
    Returns the top-k (url, rank_nano).
    """
    import ray.data as rd  # noqa: F401
    from ray.data.aggregate import Count as _Count, Sum as _Sum

    edges = edges_in.materialize()
    # one partition per 32 edges at most: a partition is one aggregator
    # actor per join. On 1 CPU the 3-edge PageRank test in
    # tests/test_graph_sketch.py takes 120 s at 8 partitions, 48 s at 1.
    num_partitions = max(1, min(num_partitions, edges.count() // 32 or 1))
    nodes = (edges.select_columns(["src"])
             .union(edges.select_columns(["dst"]).rename_columns(
                 {"dst": "src"}))
             .groupby("src").aggregate(_Count(alias_name="_c"))
             .drop_columns(["_c"]).rename_columns({"src": "url"})
             .materialize())
    n_nodes = nodes.count()
    # gate 0: outdeg and ranks are node-sized, so every join stays a
    # hash join
    outdeg = edges.groupby("src").aggregate(_Count(alias_name="outdeg"))
    edges_d = gated_join(edges, outdeg, ["src"],
                         num_partitions=num_partitions,
                         broadcast_gate=0).materialize()

    base = int(0.15e9) // n_nodes
    init = int(1e9) // n_nodes

    def seed(b):
        import pyarrow as _pa
        return _pa.table({
            "url": b.column("url"),
            "rank_nano": _pa.array(
                np.full(b.num_rows, init, dtype=np.int64), _pa.int64()),
        })

    ranks = nodes.map_batches(seed, batch_format="pyarrow").materialize()

    for _ in range(n_iter):
        j = gated_join(edges_d, ranks, ["src"], ["url"],
                       num_partitions=num_partitions, broadcast_gate=0)

        def contrib(b):
            import pyarrow as _pa
            r = b.column("rank_nano").to_numpy(zero_copy_only=False)
            d = b.column("outdeg").to_numpy(zero_copy_only=False)
            return _pa.table({
                "url": b.column("dst"),
                "c": _pa.array(r // np.maximum(d, 1), _pa.int64()),
            })

        insum = (j.map_batches(contrib, batch_format="pyarrow")
                 .groupby("url").aggregate(_Sum("c", alias_name="insum")))
        # every node gets the base rank; nodes with no inlinks are kept
        # via a left-ish union trick: zero-insum rows for all nodes
        zero = nodes.map_batches(
            lambda b: __import__("pyarrow").table(
                {"url": b.column("url"),
                 "insum": __import__("pyarrow").array(
                     np.zeros(b.num_rows, dtype=np.int64))}),
            batch_format="pyarrow")
        merged = (insum.union(zero).groupby("url")
                  .aggregate(_Sum("insum", alias_name="insum")))

        def damp(b):
            import pyarrow as _pa
            s = b.column("insum").to_numpy(zero_copy_only=False)
            return _pa.table({
                "url": b.column("url"),
                "rank_nano": _pa.array(base + (85 * s) // 100,
                                       _pa.int64()),
            })

        ranks = merged.map_batches(damp,
                                   batch_format="pyarrow").materialize()

    top = (ranks.sort(["rank_nano", "url"], descending=[True, False])
           .limit(k).to_pandas())
    return pa.table({
        "url": pa.array(top["url"].tolist(), pa.string()),
        "rank_nano": pa.array(top["rank_nano"].astype("int64").tolist(),
                              pa.int64()),
    })


# ---------------------------------------------------------------------------
# DuckDB oracle for link_pagerank (n_iter=3, k=50): the synthesized page
# template embeds exactly one anchor per document
# (sources/fixtures.py pages_from_documents_batch), so the edge list is
# SQL-expressible, and the integer nano-unit arithmetic above
# (rank // outdeg contributions, base + (85*insum)//100 damping) maps
# 1:1 onto DuckDB's BIGINT `//`; one CTE pair per unrolled iteration.
_PR_ITER = """
i{n} AS (SELECT e.dst AS url, CAST(SUM(r.rank // o.od) AS BIGINT) AS insum
       FROM e JOIN outdeg o ON e.src = o.src
              JOIN r{p} r ON e.src = r.url
       GROUP BY e.dst),
r{n} AS (SELECT n.url,
              p.base + (85 * COALESCE(i.insum, 0)) // 100 AS rank
       FROM nodes n CROSS JOIN params p
       LEFT JOIN i{n} i ON n.url = i.url)"""


def pagerank_sql(n_iter: int = 3, k: int = 50) -> str:
    from .docops import _URL_EXPR

    iters = ",".join(_PR_ITER.format(n=i + 1, p=i) for i in range(n_iter))
    return f"""
WITH e AS (SELECT {_URL_EXPR} AS src,
       'http://doc' || CAST((doc_id * 7 + 1) % 100000 AS VARCHAR)
         || '.com/' AS dst
      FROM documents),
nodes AS (SELECT DISTINCT url FROM
  (SELECT src AS url FROM e UNION ALL SELECT dst FROM e)),
params AS (SELECT CAST(1000000000 // COUNT(*) AS BIGINT) AS init,
                  CAST(150000000 // COUNT(*) AS BIGINT) AS base
           FROM nodes),
outdeg AS (SELECT src, COUNT(*) AS od FROM e GROUP BY src),
r0 AS (SELECT n.url, p.init AS rank FROM nodes n CROSS JOIN params p),
{iters}
SELECT url, CAST(rank AS BIGINT) AS rank_nano FROM r{n_iter}
ORDER BY rank_nano DESC, url LIMIT {k}
"""
