"""Per-layer measurements for the traced run.

Every number here comes from timing calls into the program's public
module functions from outside, with spans recorded by the benchmark's
own :class:`spans.Tracer`. Nothing inside the program is instrumented.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
import pyarrow.parquet as pq

from spans import self_time_by_name

SHAPES = ("word", "and", "or", "phrase", "syn", "not")
UNITS = {
    "parse.docs_per_s": "docs/s", "emit.postings_per_s": "postings/s",
    "build.kernel_frac": "ratio", "compile.us": "us", "route.us": "us",
    "route.shard_admit_frac": "ratio", "segments.cold_lookup_ms": "ms",
    "score.ms": "ms", "score.useful_shard_frac": "ratio",
    "rpc.floor_ms": "ms", "rpc.search_ms": "ms", "search.residual_ms": "ms",
    "batch.residual_ms": "ms", **{f"score.{s}_ms": "ms" for s in SHAPES}}


def plan_shape(plan, qc) -> str:
    """Shape of a compiled plan from its node classes: any NOT → not,
    any phrase → phrase, top AND → and, a user OR → or, a synonym
    expansion → syn, else a plain (title-decorated) word."""

    def has(node, cls) -> bool:
        if node is None or isinstance(node, (str, int)):
            return False
        if isinstance(node, cls):
            return True
        return any(has(getattr(node, a, None), cls)
                   for a in ("left", "right", "child", "rest"))

    def decoration(node) -> bool:  # Or(@x, x) wrapping one word/phrase
        return (isinstance(node, qc.Or)
                and type(node.left) is type(node.right)
                and isinstance(node.left, (qc.Word, qc.Phrase)))

    if has(plan, qc.Not):
        return "not"
    if has(plan, qc.Phrase):
        return "phrase"
    if isinstance(plan, qc.And):
        return "and"
    if isinstance(plan, qc.Or) and not decoration(plan):
        return "or"
    if isinstance(plan, qc.SynOr) and plan.rest is not None:
        return "syn"
    return "word"


def _median_time(fn, reps: int = 3) -> float:
    times = []
    for _ in range(reps):
        t = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def kernel_rates(sample_pages, n_docs: int, n_postings: int,
                 build_wall_s: float) -> dict[str, float]:
    """Parse and emit rates over a fixed page sample, in-process with no
    Ray, and the share of build wall time they imply for the whole
    corpus. (The build's merge encodes postings inside its merge actor,
    with no public function to time on its own.)"""
    from search_engine_ray.stages.emit import emit_postings_columnar
    from search_engine_ray.stages.parse import parse_pages_batch

    docs = parse_pages_batch(sample_pages)  # untimed: fills stem caches
    t_parse = _median_time(lambda: parse_pages_batch(sample_pages))
    terms = docs.column("terms")
    toks = [t.split(" ") if t else [] for t in terms.to_pylist()]
    dls = np.asarray([len(t) for t in toks], dtype=np.int64)
    ids = np.arange(len(toks), dtype=np.int64)
    n_runs = len(emit_postings_columnar(ids, dls, terms)["run_doc"])
    t_emit = _median_time(lambda: emit_postings_columnar(ids, dls, terms))

    parse_rate = len(toks) / t_parse
    emit_rate = n_runs / t_emit
    return {"parse.docs_per_s": parse_rate,
            "emit.postings_per_s": emit_rate,
            "build.kernel_frac": (n_docs / parse_rate
                                  + n_postings / emit_rate) / build_wall_s}


def query_layers(eng, index_dir: str, queries: list[str], tracer,
                 ray) -> dict[str, float]:
    """Trace each query through the layers the engine's ``search`` is
    made of, each timed as its own public call:

    compile (``SearchEngine.compile``), routing (``bloom.hash_terms`` +
    ``contains_any_hashed`` over every shard's vocabulary filter), cold
    postings decode (``ShardIndex.lookup`` on freshly opened shards),
    warm shard scoring (``ShardIndex.score_topk``), the searcher RPC
    floor (``ready``) and the searcher ``search`` RPC — plus the engine's
    own ``search`` and ``search_batch`` for the residual."""
    from search_engine_ray.pipelines.search import ShardIndex, flatten_terms
    from search_engine_ray.query import compile as qc
    from search_engine_ray.state import bloom
    from search_engine_ray.state.segments import read_manifest

    stats = read_manifest(index_dir)["stats"]
    n_shards = stats["num_shards"]
    stale = set(stats.get("wand_stale_shards", []))
    blobs = {}
    for s in range(n_shards):
        p = os.path.join(index_dir, "segments", f"shard={s}", "_vocab.bloom")
        if os.path.exists(p):
            with open(p, "rb") as f:
                blobs[s] = f.read()

    def open_shards():
        return [ShardIndex(index_dir, s, wand_ok=s not in stale)
                for s in range(n_shards)]

    warm = open_shards()
    compiled = [(q, eng.compile(q)) for q in queries]
    live = [(q, p) for q, p in compiled if p is not None]
    idfs = {q: {t: eng.idf(t) for t, _ in flatten_terms(p)} for q, p in live}
    for q, p in live:  # untimed: warm the local shards' caches
        for sh in warm:
            sh.score_topk(p, 10, idfs[q], eng.avgdl)
    cold = open_shards()
    actor_shards = getattr(eng, "_actor_shards", None) or [
        list(range(n_shards))] * len(eng.actors)

    shape_ms: dict[str, list[float]] = {s: [] for s in SHAPES}
    admitted = scored = useful = 0
    for qid, q in enumerate(queries):
        with tracer.span("query", qid):
            with tracer.span("search"):
                eng.search(q, k=10)
            with tracer.span("compile"):
                plan = eng.compile(q)
            if plan is None:
                continue
            idf = idfs[q]
            with tracer.span("route"):
                terms = [t for t, _ in flatten_terms(plan)]
                h = bloom.hash_terms(terms)
                adm = [s for s in range(n_shards)
                       if s not in blobs
                       or bloom.contains_any_hashed(blobs[s], h)]
            admitted += len(adm)
            with tracer.span("lookup.cold"):
                for sh in cold:
                    for t in terms:
                        sh.lookup(t)
            # the engine prunes whole searchers: every shard of an
            # admitted searcher is scored
            hit = [(a, shs) for a, shs in zip(eng.actors, actor_shards)
                   if any(s in adm for s in shs)]
            targets = [a for a, _ in hit]
            with tracer.span("score") as sp_score:
                for s in (s for _, shs in hit for s in shs):
                    with tracer.span("score.shard"):
                        hits = warm[s].score_topk(plan, 10, idf, eng.avgdl)
                    scored += 1
                    useful += bool(hits)
            shape_ms[plan_shape(plan, qc)].append(
                (sp_score.end - sp_score.start) * 1e3)
            with tracer.span("rpc.floor"):
                ray.get([a.ready.remote() for a in targets])
            with tracer.span("rpc.search"):
                ray.get([a.search.remote(plan, 10, idf, eng.avgdl)
                         for a in targets])
    with tracer.span("batch"):
        eng.search_batch(queries, k=10)

    st = self_time_by_name(tracer.spans)
    n_q, n_live = len(queries), len(live)

    def ms_per(name: str, n: int) -> float:
        return 1e3 * st.get(name, 0.0) / max(n, 1)

    # per-query means over every query (queries that compile to no plan
    # pay only search + compile)
    compile_ms = ms_per("compile", n_q)
    layers_ms = (compile_ms + ms_per("route", n_q)
                 + ms_per("score.shard", n_q) + ms_per("rpc.floor", n_q))
    out = {
        "compile.us": 1e3 * compile_ms,
        "route.us": 1e3 * ms_per("route", n_live),
        "route.shard_admit_frac": admitted / max(n_live * n_shards, 1),
        "segments.cold_lookup_ms": ms_per("lookup.cold", n_live),
        "score.ms": ms_per("score.shard", n_live),
        "score.useful_shard_frac": useful / max(scored, 1),
        "rpc.floor_ms": ms_per("rpc.floor", n_live),
        "rpc.search_ms": ms_per("rpc.search", n_live)
        - ms_per("score.shard", n_live),
        "search.residual_ms": ms_per("search", n_q) - layers_ms,
        # one searcher fan-out serves the whole batch: its floor is
        # shared by every query in it
        "batch.residual_ms": ms_per("batch", n_q) - layers_ms
        + ms_per("rpc.floor", n_q) - ms_per("rpc.floor", n_live) / max(n_q, 1),
        "trace.search_p50_ms": 1e3 * statistics.median(
            s.end - s.start for s in tracer.spans if s.name == "search"),
    }
    for s in SHAPES:
        v = shape_ms[s]
        out[f"score.{s}_ms"] = sum(v) / len(v) if v else 0.0
    return out


def index_doc_ids(index_dir: str) -> frozenset:
    return frozenset(pq.read_table(os.path.join(index_dir, "docmeta"),
                                   columns=["doc_id"])
                     .column("doc_id").to_pylist())
