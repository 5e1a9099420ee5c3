#!/usr/bin/env python3
"""Benchmark: index build, BM25 serving and append freshness.

Run from the repository root:

    python3 perfbench/run.py --workload ref_serve --seed 0 --trace 0

One workload per process. The run generates its inputs from the seed,
builds the index, sets up the serving tier, measures the serving front
doors and an append, checks every result, and prints as its last stdout
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics (the serving
figures among them), refreshes block-max after the append, and
writes its spans to ``.perfbench_work/spans/<workload>-s<seed>.jsonl``.
See perfbench/README.md for the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

DEFAULT_SEED = 0
WORK = ".perfbench_work"  # inputs, indexes and spans of each run
RAY_TMP = ".pbray"        # Ray session dirs (short: socket path limit)
K = 10
DEADLINE_S = 1.0      # an open-loop request slower than this failed
# Serving runs in ROUNDS rounds at the reference run length REF_SECONDS
# (a longer --seconds adds rounds). Each round serves every front door:
# closed-loop queries, CALLS["batch"] search_batch calls and
# CALLS["stream"] search_stream calls, then the open loop. A slow spell
# on a shared box so hits all of them alike, and medians over queries and
# calls damp it.
REF_SECONDS = 10.0
ROUNDS = 3
CALLS = {"batch": 3, "stream": 2}
# the first build also pays Ray Data's executor start-up and the workers'
# imports; the median of three is a warm one
N_BUILDS = 3
# the processes that serve a query; their CPU time is charged to it
SERVE_TITLES = ("ray::SegmentSearcher", "ray::_FrontendActor")

# Per workload: corpus shape, shard size, the open loop's fixed arrival
# rate (a third to a half of stream_qps on a 1-CPU box) and the queries
# per round of each front door. Closed-loop totals keep ≥10 samples beyond
# the reported p95, open-loop totals ≥10 beyond p90. On ref_serve every
# batch and stream call serves REF_QUERIES once; on zipf_wide a round's
# batch and stream queries are split over its calls.
WORKLOADS = {
    "ref_serve": {"corpus": "sf", "repl": 10, "docs_per_shard": 1024,
                  "open_qps": 30.0, "round": {"closed": 70, "open": 35}},
    # zipf rounds are larger: distinct cold queries vary in cost, so a
    # steady median needs more of them
    "zipf_wide": {"corpus": "zipf", "n_docs": 400, "words_per_doc": 200,
                  "docs_per_shard": 200, "open_qps": 30.0,
                  "round": {"closed": 100, "batch": 60, "stream": 60,
                            "open": 34}},
}


class Inputs:
    """Everything the program is given, generated from the seed."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 work: str) -> None:
        import pyarrow as pa
        import pyarrow.parquet as pq

        import gen
        from search_engine_ray.query.refqueries import REF_QUERIES
        from search_engine_ray.sources.fixtures import (
            pages_from_documents_batch, replicate_documents_batch)

        cfg = WORKLOADS[workload]
        n_rounds = round(ROUNDS * max(1.0, seconds / REF_SECONDS))
        size = cfg["round"]
        self.docs_per_shard = cfg["docs_per_shard"]
        self.marker = gen.zipf_word(10_000_000 + seed)
        if cfg["corpus"] == "sf":
            base = replicate_documents_batch(gen.sf_documents(seed),
                                             cfg["repl"])
            new = gen.sf_documents(seed, n=base.num_rows // 4, part=1,
                                   id_base=gen.APPEND_ID_BASE)
            tag = 4093  # rare per-page tags, as in the repo's bench corpus
            qs = list(REF_QUERIES)

            def cycle(n: int, off: int) -> list[str]:
                return [qs[(off + i) % len(qs)] for i in range(n)]

            self.warm = qs
            self.rounds = [{"closed": cycle(size["closed"],
                                            r * size["closed"]),
                            "batch": [qs] * CALLS["batch"],
                            "stream": [qs] * CALLS["stream"],
                            "open": cycle(size["open"], r * size["open"])}
                           for r in range(n_rounds)]
            self.check = qs
            self.probes = ["agg", "filter"]  # single words with no synsets
        else:
            corpus = gen.zipf_documents(seed, cfg["n_docs"],
                                        cfg["words_per_doc"])
            base = corpus.docs
            new = gen.zipf_documents(seed, cfg["n_docs"] // 4,
                                     cfg["words_per_doc"], part=1,
                                     id_base=gen.APPEND_ID_BASE).docs
            tag = 0
            # every timed query is distinct: none is served warm
            qs = iter(gen.zipf_queries(corpus, seed,
                                       10 + n_rounds * sum(size.values())))
            self.warm = [next(qs) for _ in range(10)]
            self.rounds = [{k: [next(qs) for _ in range(n)]
                            for k, n in size.items()}
                           for _ in range(n_rounds)]
            for rnd in self.rounds:
                for door, n in CALLS.items():
                    q = rnd[door]
                    rnd[door] = [q[i::n] for i in range(n)]
            # every front door serves these again after the timed rounds
            self.check = [q for r in self.rounds for q in r["closed"][::20]]
            self.probes = ["table", "order", "value"]  # synonym expansions
        new_text = new.column("text").to_pylist()
        new_text[0] += " " + self.marker
        new = new.set_column(1, "text", pa.array(new_text, pa.string()))
        second = gen.second_generation(base, new, seed)
        self.n_new = new.num_rows
        pages = pages_from_documents_batch(base, rare_tag_mod=tag)
        pages2 = pages_from_documents_batch(second, rare_tag_mod=tag)
        self.marker_url = pages2.column("url")[0].as_py()
        self.sample = pages.slice(0, 64)
        self.n_pages = pages.num_rows
        self.pages_dir = os.path.join(work, "pages")
        self.pages2_dir = os.path.join(work, "pages2")
        for d, t in ((self.pages_dir, pages), (self.pages2_dir, pages2)):
            os.makedirs(d)
            pq.write_table(t, os.path.join(d, "pages.parquet"))


def nproc() -> int:
    """Usable CPUs as the ``nproc`` command counts them: the affinity
    mask, capped by OMP_NUM_THREADS when that is set."""
    n = len(os.sched_getaffinity(0))
    try:
        return max(1, min(n, int(os.environ.get("OMP_NUM_THREADS", n))))
    except ValueError:
        return n


def box_speed_ms() -> tuple[float, float]:
    """Wall and CPU time of a fixed pure-Python loop: how fast this box
    runs interpreter-bound code right now, and how much of a slowdown
    shows in CPU time too (reported, never used to scale)."""
    t, c = time.perf_counter(), time.process_time()
    x = 0
    for i in range(200_000):
        x += i * i
    return (1e3 * (time.perf_counter() - t),
            1e3 * (time.process_time() - c))


def factory(path: str):
    import ray.data as rd
    return lambda columns=None: rd.read_parquet(path, columns=columns)


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(r, f))
               for r, _, fs in os.walk(path) for f in fs)


def quantile(xs: list[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation)."""
    s = sorted(xs)
    return s[min(len(s) - 1, max(0, int(round(q * len(s))) - 1))]


class Run:
    def __init__(self, args, work: str) -> None:
        self.args = args
        self.work = work
        self.cfg = WORKLOADS[args.workload]
        self.metrics: dict[str, tuple[float, str]] = {}
        self.layers: dict[str, tuple[float, str]] = {}
        self.info: dict = {}

    # -- helpers -------------------------------------------------------------
    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def layer(self, name: str, value: float, unit: str) -> None:
        self.layers[name] = (float(value), unit)

    def guarded(self, phase: str, fn, *a, **kw):
        """Run one operation; an exception counts as a failure."""
        try:
            out = fn(*a, **kw)
        except Exception as e:  # the run goes on and reports the failure
            self.ledger.error(phase, e)
            return None
        self.ledger.op(phase, True)
        return out

    def phase(self, name: str, fn, *a):
        t = time.perf_counter()
        out = fn(*a)
        self.info.setdefault("phase_s", {})[name] = round(
            time.perf_counter() - t, 2)
        return out

    # -- phases --------------------------------------------------------------
    def boot(self) -> None:
        import ray
        from ray.data import DataContext

        os.environ["PYTHONPATH"] = os.pathsep.join(
            [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(
                os.pathsep) if p])
        # Ray's unix sockets live under <tmp>/session_<time>_<pid>/sockets
        # and their paths must stay below 108 bytes: keep the session in
        # the checkout when its path is short enough, else Ray's default
        tmp = os.path.join(ROOT, RAY_TMP)
        kw = {}
        if len(tmp) <= 42:
            os.makedirs(tmp, exist_ok=True)
            kw["_temp_dir"] = tmp
        self.info["ray_tmp"] = kw.get("_temp_dir", "default")
        self.nproc = nproc()
        ray.init(num_cpus=self.nproc, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=300 * 2**20, **kw)
        DataContext.get_current().enable_progress_bars = False
        import search_engine_ray.pipelines.search  # noqa: F401
        from proc import process_age_s
        self.boot_s = process_age_s()
        self.ray = ray
        self.speed = [box_speed_ms()]

    def build(self) -> None:
        from proc import CpuMeter
        from search_engine_ray.pipelines.build import build_index
        from search_engine_ray.state.segments import read_manifest

        inp = self.inp
        self.idx = os.path.join(self.work, "index")
        dps = inp.docs_per_shard
        walls, cpus, mans = [], [], []
        for _ in range(N_BUILDS):
            t = time.perf_counter()
            with CpuMeter() as cpu:
                man = self.guarded("build", build_index,
                                   factory(inp.pages_dir), self.idx,
                                   docs_per_shard=dps, force=True)
            walls.append(time.perf_counter() - t)
            cpus.append(cpu.cpu_s)
            if man is not None:
                mans.append(man["stats"])
        man = read_manifest(self.idx)["stats"]
        self.n_docs = man["n_docs"]
        self.num_shards = man["num_shards"]
        self.build_wall_s = statistics.median(walls)
        # reported ungated: the box's per-instruction speed swings by up
        # to 1.5x between runs (see box_speed_cpu_ms), and this follows it
        self.layer("build_cpu_us_per_doc",
                   1e6 * statistics.median(cpus) / self.n_docs, "us/doc")
        self.layer("build_docs_per_s", self.n_docs / self.build_wall_s,
                   "docs/s")
        size = sum(dir_bytes(os.path.join(self.idx, d))
                   for d in ("segments", "docmeta", "terms"))
        self.put("index_bytes_per_doc", size / self.n_docs, "B/doc")
        for key, name in (("parse_wall_s", "build.parse_emit_s"),
                          ("merge_wall_s", "build.merge_s"),
                          ("segments_wall_s", "build.segments_s"),
                          ("terms_wall_s", "build.terms_s")):
            self.layer(name, statistics.median(m[key] for m in mans), "s")
        self.info["build_s"] = [round(w, 3) for w in walls]
        self.info["build_cpu_s"] = [round(c, 3) for c in cpus]

    def setup(self) -> None:
        """Searcher pool, frontends and a warm-up round through both.
        Timed once per run: each setup costs 7-15 s on a 1-CPU box, and a
        second one would push an evaluation's runs past its time budget."""
        from proc import worker_pids
        from search_engine_ray.pipelines.search import (FrontendPool,
                                                        SearchEngine)
        t = time.perf_counter()
        eng = SearchEngine(self.idx)
        fp = FrontendPool(self.idx, eng.actors, n_frontends=self.nproc,
                          actor_shards=getattr(eng, "_actor_shards", None))
        for q in self.inp.warm:
            tab = self.guarded("warmup", eng.search, q, k=K)
            if tab is not None:
                self.ledger.result("warmup", q, tab)
        tabs = self.guarded("warmup", fp.search_stream, self.inp.warm, k=K)
        for q, tab in zip(self.inp.warm, tabs or []):
            self.ledger.result("warmup", q, tab)
        self.eng, self.fp = eng, fp
        self.serve_pids = worker_pids(SERVE_TITLES)
        self.put("setup_s", self.boot_s + time.perf_counter() - t, "s")
        self.info["boot_s"] = round(self.boot_s, 3)

    def serve_cpu_s(self) -> float:
        from proc import pids_cpu_s
        return pids_cpu_s(self.serve_pids)

    def closed_window(self, queries: list[str]) -> tuple[list, list]:
        """One client: each query is sent when the previous returned.
        Returns each query's latency and CPU seconds."""
        lat, cpus = [], []
        for q in queries:
            c, t = self.serve_cpu_s(), time.perf_counter()
            try:
                tab = self.eng.search(q, k=K)
            except Exception as e:
                self.ledger.error("closed", e)
                continue
            lat.append(time.perf_counter() - t)
            cpus.append(self.serve_cpu_s() - c)
            self.ledger.result("closed", q, tab)
        return lat, cpus

    def window(self, phase: str, fn, queries: list[str]) -> tuple[list,
                                                                   list]:
        """One call serving ``queries``: its qps and CPU seconds per query
        (empty on failure); results checked after."""
        cpu, t = self.serve_cpu_s(), time.perf_counter()
        try:
            tabs = fn(queries, k=K)
        except Exception as e:
            self.ledger.error(phase, e)
            return [], []
        rate = len(queries) / (time.perf_counter() - t)
        cpu = (self.serve_cpu_s() - cpu) / len(queries)
        for q, tab in zip(queries, tabs):
            self.ledger.result(phase, q, tab)
        return [rate], [cpu]

    def open_loop(self, queries: list[str], rate: float, phase: str):
        """Send each request when it is due, whether or not earlier ones
        have finished; time each from its due time."""
        ray = self.ray
        fronts = self.fp.frontends
        pending: dict = {}
        lat, late = [], []
        t0 = time.perf_counter() + 0.05
        i = 0
        while i < len(queries) or pending:
            now = time.perf_counter()
            due = t0 + i / rate
            if i < len(queries) and now >= due:
                fut = fronts[i % len(fronts)].search_many.remote(
                    [queries[i]], K)
                pending[fut] = (i, due)
                late.append(now - due)
                i += 1
                continue
            wait = max(due - now, 0.0) if i < len(queries) else 5 * DEADLINE_S
            if not pending:
                time.sleep(wait)
                continue
            done, _ = ray.wait(list(pending), num_returns=1, timeout=wait)
            for fut in done:
                j, due_j = pending.pop(fut)
                took = time.perf_counter() - due_j
                try:
                    tab = ray.get(fut)[0]
                except Exception as e:
                    self.ledger.error(phase, e)
                    continue
                lat.append(took)
                if took > DEADLINE_S:
                    self.ledger.op(phase, False, f"deadline: {took:.3f}s")
                else:
                    self.ledger.result(phase, queries[j], tab)
            if not done and i >= len(queries):
                for fut in pending:  # nothing finished in 5 deadlines
                    self.ledger.op(phase, False, "timeout")
                    ray.cancel(fut, force=True)
                pending.clear()
        return lat, late

    def serve(self) -> None:
        from proc import actor_rss_mb
        self.searcher_rss0 = actor_rss_mb("ray::SegmentSearcher")
        closed, batch, stream, opened, late = [], [], [], [], []
        cpu = {"closed": [], "batch": [], "stream": []}
        rate = self.cfg["open_qps"]
        for rnd in self.inp.rounds:
            self.speed.append(box_speed_ms())
            lat, c = self.closed_window(rnd["closed"])
            closed += lat
            cpu["closed"] += c
            for phase, fn, rates in (
                    ("batch", self.eng.search_batch, batch),
                    ("stream", self.fp.search_stream, stream)):
                for call in rnd[phase]:
                    r, c = self.window(phase, fn, call)
                    rates += r
                    cpu[phase] += c
            lat, lt = self.open_loop(rnd["open"], rate, "open")
            opened += lat
            late += lt
        # CPU time per query of each front door, median over the queries
        # (closed loop) or calls, next to the wall-clock figures. Both are
        # reported ungated, as layers: on a box whose cores are shared
        # with other tenants, both swing with the box's load (CPU time by
        # up to 1.4x, wall time by over 2x) by more than any bound.
        for phase, name in (("closed", "query_cpu_ms"),
                            ("batch", "batch_cpu_ms"),
                            ("stream", "stream_cpu_ms")):
            self.layer(name, 1e3 * statistics.median(cpu[phase]), "ms")
        self.layer("query_p50_ms", 1e3 * statistics.median(closed), "ms")
        self.layer("tail.query_p95_ms", 1e3 * quantile(closed, 0.95), "ms")
        self.layer("batch_qps", statistics.median(batch), "1/s")
        self.layer("stream_qps", statistics.median(stream), "1/s")
        self.layer("open_p50_ms", 1e3 * statistics.median(opened), "ms")
        self.layer("tail.open_p90_ms", 1e3 * quantile(opened, 0.90), "ms")
        self.info.update({
            "closed_n": len(closed), "open_n": len(opened),
            "open_qps": rate,
            "open_lateness_ms": {
                "p50": round(1e3 * statistics.median(late), 3),
                "max": round(1e3 * max(late), 3)},
            "cpu_ms": {p: [round(1e3 * c, 3) for c in v]
                       for p, v in cpu.items() if p != "closed"}})
        self.served = sum(len(rnd["closed"]) + len(rnd["open"])
                          + sum(len(c) for d in CALLS for c in rnd[d])
                          for rnd in self.inp.rounds)

    def check_paths(self) -> None:
        """Every front door answers the check queries again; the ledger
        compares each answer with the first one seen for that query."""
        qs = self.inp.check
        for q in qs:
            tab = self.guarded("check", self.eng.search, q, k=K)
            if tab is not None:
                self.ledger.result("check", q, tab)
        for fn in (self.eng.search_batch, self.fp.search_stream):
            tabs = self.guarded("check", fn, qs, k=K) or []
            for q, tab in zip(qs, tabs):
                self.ledger.result("check", q, tab)
        self.open_loop(qs, 2 * self.cfg["open_qps"], "check")

    def memory(self) -> None:
        from proc import actor_rss_mb, rss_mb
        drv = rss_mb(os.getpid())
        srch = actor_rss_mb("ray::SegmentSearcher")
        front = actor_rss_mb("ray::_FrontendActor")
        self.put("rss_mb", drv + srch + front, "MB")
        self.layer("mem.driver_rss_mb", drv, "MB")
        self.layer("mem.searcher_rss_mb", srch, "MB")
        self.layer("mem.frontend_rss_mb", front, "MB")
        self.layer("mem.searcher_rss_growth_mb",
                   (srch - self.searcher_rss0) * 1000 / self.served,
                   "MB/kq")

    def traced_layers(self) -> None:
        import pyarrow.parquet as pq

        import layers
        from spans import Tracer
        qs = list(self.inp.check) + self.inp.probes
        untraced = []
        for q in qs:
            t = time.perf_counter()
            self.eng.search(q, k=K)
            untraced.append(time.perf_counter() - t)
        self.tracer = Tracer()
        out = layers.query_layers(self.eng, self.idx, qs, self.tracer,
                                  self.ray)
        p50_traced = out.pop("trace.search_p50_ms")
        self.layer("trace.overhead_ms",
                   p50_traced - 1e3 * statistics.median(untraced), "ms")
        n_post = int(pq.read_table(os.path.join(self.idx, "terms"),
                                   columns=["df"]).column("df")
                     .to_numpy().sum())
        out.update(layers.kernel_rates(self.inp.sample, self.n_docs, n_post,
                                       self.build_wall_s))
        for name, v in out.items():
            self.layer(name, v, layers.UNITS[name])

    def append(self) -> list:
        from layers import index_doc_ids
        from proc import CpuMeter
        from search_engine_ray.pipelines.append import append_to_index
        from search_engine_ray.pipelines.search import SearchEngine

        self.fp.close()
        self.eng.close()
        inp = self.inp
        t0 = time.perf_counter()
        with CpuMeter() as cpu:
            man = self.guarded("append", append_to_index,
                               factory(inp.pages2_dir), self.idx,
                               docs_per_shard=inp.docs_per_shard)
        t1 = time.perf_counter()
        eng = self.guarded("append", SearchEngine, self.idx)
        t2 = time.perf_counter()
        if eng is None:
            return [() for _ in inp.check]
        tab = self.guarded("append", eng.search, inp.marker, k=K)
        t3 = time.perf_counter()
        urls = tab.column("url").to_pylist() if tab is not None else []
        self.ledger.op("append", inp.marker_url in urls,
                       "appended doc not returned")
        added = (man["stats"]["n_docs"] - self.n_docs) if man else 0
        # cross-run dedup: only the new urls are added, re-crawls dropped
        self.ledger.op("append", added == inp.n_new,
                       f"appended {added} docs, expected {inp.n_new}")
        # one append per run, whose CPU is dominated by the start of two
        # worker processes: its spread across runs is too wide for a gate
        self.layer("append.cpu_us_per_doc", 1e6 * cpu.cpu_s / max(added, 1),
                   "us/doc")
        self.layer("fresh_s", t3 - t0, "s")
        self.layer("append_docs_per_s", max(added, 1) / (t1 - t0), "docs/s")
        self.layer("append.append_s", t1 - t0, "s")
        self.layer("append.reopen_s", t2 - t1, "s")
        # serve the check set on the appended index: old shards carry
        # stale block-max bounds, so they take the exhaustive fallback
        self.ledger.reset_references(index_doc_ids(self.idx))
        lat = []
        for q in inp.check:
            t = time.perf_counter()
            tab = self.guarded("append_check", eng.search, q, k=K)
            lat.append(time.perf_counter() - t)
            if tab is not None:
                self.ledger.result("append_check", q, tab)
        tabs = self.guarded("append_check", eng.search_batch, inp.check,
                            k=K) or []
        for q, tab in zip(inp.check, tabs):
            self.ledger.result("append_check", q, tab)
        self.layer("append.stale_query_ms", 1e3 * statistics.median(lat),
                   "ms")
        eng.close()
        if self.args.trace:
            self.phase("refresh", self.refresh)
        return [self.ledger.reference.get(q, ()) for q in inp.check]

    def refresh(self) -> None:
        """Traced run only (3-20 s on a 1-CPU box): recompute block-max
        on the appended index, reopen it and check that the re-enabled
        block-max path answers exactly as the exhaustive fallback did."""
        from search_engine_ray.pipelines.append import refresh_block_max
        from search_engine_ray.pipelines.search import SearchEngine
        from search_engine_ray.state.segments import read_manifest

        t = time.perf_counter()
        self.guarded("refresh", refresh_block_max, self.idx)
        self.layer("append.refresh_s", time.perf_counter() - t, "s")
        stale = read_manifest(self.idx)["stats"].get("wand_stale_shards")
        self.ledger.op("refresh", not stale, f"stale shards left: {stale}")
        eng = self.guarded("refresh", SearchEngine, self.idx)
        if eng is None:
            return
        for q in self.inp.check:
            tab = self.guarded("refresh", eng.search, q, k=K)
            if tab is not None:
                self.ledger.result("refresh", q, tab)
        eng.close()

    def main(self) -> dict:
        import check
        import proc

        a = self.args
        self.boot()
        self.inp = self.phase("inputs", Inputs, a.workload, a.seed,
                              a.seconds, self.work)
        self.ledger = check.Ledger(frozenset())
        self.phase("build", self.build)
        from layers import index_doc_ids
        self.ledger.reset_references(index_doc_ids(self.idx))
        self.phase("setup", self.setup)
        print(json.dumps({"box": proc.box({
            "nproc": self.nproc, "workload": a.workload, "seed": a.seed,
            "pages": self.inp.n_pages, "docs": self.n_docs,
            "shards": self.num_shards, "searchers": len(self.eng.actors),
            "frontends": len(self.fp.frontends)})}), flush=True)
        self.phase("serve", self.serve)
        self.memory()
        self.phase("check", self.check_paths)
        keys = [self.ledger.reference.get(q, ()) for q in self.inp.check]
        if a.trace:
            self.phase("layers", self.traced_layers)
        keys += self.phase("append", self.append)
        self.speed.append(box_speed_ms())
        for i, key in enumerate(("box_speed_ms", "box_speed_cpu_ms")):
            self.info[key] = round(statistics.median(s[i] for s in self.speed),
                                   3)
        dg = check.digest(self.inp.check * 2, keys)
        self.info["digest"] = dg
        if a.seed == DEFAULT_SEED:
            with open(os.path.join(HERE, "digests.json")) as f:
                pinned = json.load(f).get(a.workload)
            self.ledger.op("digest", dg == pinned,
                           f"digest {dg} != pinned {pinned}")
        if a.trace:
            spans = os.path.join(ROOT, WORK, "spans")
            os.makedirs(spans, exist_ok=True)
            self.tracer.write(os.path.join(
                spans, f"{a.workload}-s{a.seed}.jsonl"))
        if not a.trace:  # the ungated figures, for reading a timing run
            self.info["layers"] = {k: round(v, 4)
                                   for k, (v, _) in self.layers.items()}
        led = self.ledger
        self.info["phases"] = {p: [n, led.failed.get(p, 0)]
                               for p, n in led.attempted.items()}
        self.info["errors"] = led.errors
        print(json.dumps({"run": self.info}), flush=True)
        chosen = self.layers if a.trace else self.metrics
        return {"correct": led.total_failed == 0,
                "attempted": led.total_attempted,
                "failed": led.total_failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in sorted(chosen.items())}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=REF_SECONDS,
                    help="serving measurement length; serving rounds are "
                         f"added past {REF_SECONDS:g}s")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sys.path.insert(0, ROOT)
    try:
        import search_engine_ray  # noqa: F401
    except ImportError as e:
        print(f"perfbench: the program is not importable from {ROOT}: {e}",
              file=sys.stderr)
        return 2
    work = os.path.join(ROOT, WORK,
                        f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(work)
    run = Run(args, work)
    try:
        result = run.main()
    finally:
        try:
            import ray
            ray.shutdown()
        finally:
            shutil.rmtree(work, ignore_errors=True)
            # Ray names the session dir after the driver's pid; then drop
            # the session_latest link if it now dangles
            tmp = os.path.join(ROOT, RAY_TMP)
            names = os.listdir(tmp) if os.path.isdir(tmp) else []
            for name in names:
                if name.endswith(f"_{os.getpid()}"):
                    shutil.rmtree(os.path.join(tmp, name), ignore_errors=True)
            for name in names:
                path = os.path.join(tmp, name)
                if os.path.islink(path) and not os.path.exists(path):
                    os.unlink(path)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
