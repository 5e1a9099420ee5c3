"""Two-hop term→shard directory — exact fan-out routing at shard counts
where per-shard Bloom filters stop paying.

The single-hop design (state/bloom.py) loads every shard's vocab Bloom
into the engine; pruning is probabilistic and the whole directory lives
in one process — fine to ~10^4 shards, a scale sin past that. This
module is the second hop that design documents: the term→shard mapping
is hash-partitioned into ``n_buckets`` by FNV-1a(term), each bucket a
parquet partition served by a DirectoryActor, and the engine asks the
directory WHICH shards hold each plan term before fanning out. Routing
is exact: a term absent from the directory is provably absent from the
corpus (zero RPCs), and a rare term RPCs only the actors owning its
shards (O(its shards), not O(all actors)).

Layout: ``{index_dir}/term_dir/bucket={b}/*.parquet`` with rows
(term, shard); plus ``meta.json`` recording n_buckets and the index
fingerprint (num_shards, n_docs) — the engine ignores a directory whose
fingerprint no longer matches the manifest (e.g. after an append
generation) and falls back to Bloom pruning, so a stale directory can
never drop shards from the fan-out.

Scale: rows = Σ per-shard vocabularies (10^10-10^11 at web scale),
hash-split across buckets — per-bucket files stay worker-sized and the
build is a partitioned streaming write, no shuffle. Lookup actors hold
one sorted (term → shard-run) view per bucket, binary-searched on the
raw Arrow buffers like ShardIndex's vocab probe.

No reference analogue (the reference csolver scans every chunk for
every query, csolver.cpp:135-149); the shape is a one-level DHT lookup.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa

import ray

from ..kernels import arrowbuf
from ..kernels.textutils import fnv1a_64_arrow, fnv1a_64_np
from . import segments as seg
from .lru import LRU

META = "meta.json"


def _dir_path(index_dir: str) -> str:
    return os.path.join(index_dir, "term_dir")


def build_term_directory(index_dir: str, n_buckets: int = 32) -> str:
    """Streaming build: read every segment's term column (+ hive shard
    key), bucket by FNV-1a(term) % n_buckets, partitioned parquet write.
    One pass, no shuffle — the groupby happens at actor LOAD time inside
    each bucket (sort, worker-sized)."""
    import ray.data as rd

    man = seg.read_manifest(index_dir)
    out = _dir_path(index_dir)
    ds = rd.read_parquet(os.path.join(index_dir, "segments"),
                         columns=["term", "shard"])

    def bucketize(b: pa.Table) -> pa.Table:
        h = fnv1a_64_arrow(b.column("term"))
        return pa.table({
            "term": b.column("term"),
            "shard": b.column("shard").cast(pa.int32()),
            "bucket": pa.array((h % np.uint64(n_buckets)).astype(
                np.int32), pa.int32()),
        })

    import shutil
    shutil.rmtree(out, ignore_errors=True)
    ds.map_batches(bucketize, batch_format="pyarrow").write_parquet(
        out, partition_cols=["bucket"])
    with open(os.path.join(out, META), "w") as f:
        json.dump({"n_buckets": n_buckets,
                   "num_shards": man["stats"]["num_shards"],
                   "n_docs": man["stats"]["n_docs"]}, f)
    return out


def read_meta(index_dir: str) -> dict | None:
    try:
        with open(os.path.join(_dir_path(index_dir), META)) as f:
            return json.load(f)
    except OSError:
        return None


def directory_matches(index_dir: str, stats: dict) -> dict | None:
    """The directory's meta iff it matches the live manifest (exactness
    guard: a stale directory must never prune a real shard)."""
    meta = read_meta(index_dir)
    if meta is None:
        return None
    if meta.get("num_shards") != stats.get("num_shards") \
            or meta.get("n_docs") != stats.get("n_docs"):
        return None
    return meta


@ray.remote(num_cpus=0)
class DirectoryActor:
    """Serves term→shards lookups for a set of buckets. num_cpus=0:
    lookups are microseconds of binary search; on a multi-node cluster
    give the pool fractional CPUs + SPREAD scheduling."""

    def __init__(self, index_dir: str, buckets: list[int]):
        self._views: dict[int, tuple] = {}
        for b in buckets:
            path = os.path.join(_dir_path(index_dir), f"bucket={b}")
            try:
                t = seg.read_parquet_dir(path, columns=["term", "shard"])
            except (OSError, pa.ArrowInvalid):
                # bucket with no terms: partitioned write emits no dir
                self._views[b] = None
                continue
            t = t.sort_by([("term", "ascending")])
            # large_string: int64 offsets and no 2 GiB-per-bucket data
            # cap (a web-scale bucket's term bytes overflow int32
            # offsets; combine_chunks on plain string would raise)
            terms = t.column("term").cast(pa.large_string()) \
                .combine_chunks()
            offs, data = arrowbuf.string_views(terms)
            shards = arrowbuf.view(t.column("shard"), np.int32)
            self._views[b] = (terms, offs, data, shards)

    def ready(self) -> bool:
        return True

    def _find_run(self, view, key: bytes) -> tuple[int, int]:
        terms, offs, data, _ = view
        n = len(terms)
        lo, hi = 0, n
        while lo < hi:  # leftmost >= key
            mid = (lo + hi) // 2
            if data[offs[mid]:offs[mid + 1]].tobytes() < key:
                lo = mid + 1
            else:
                hi = mid
        start = lo
        hi = n
        while lo < hi:  # leftmost > key
            mid = (lo + hi) // 2
            if data[offs[mid]:offs[mid + 1]].tobytes() <= key:
                lo = mid + 1
            else:
                hi = mid
        return start, lo

    def lookup(self, bucket_terms: dict[int, list[str]]
               ) -> dict[str, np.ndarray]:
        """{bucket: [terms]} → {term: shard ids} (absent term → empty:
        provably nowhere in the corpus)."""
        out: dict[str, np.ndarray] = {}
        for b, terms in bucket_terms.items():
            view = self._views.get(b)
            for term in terms:
                if view is None:
                    out[term] = np.empty(0, np.int32)
                    continue
                s, e = self._find_run(view, term.encode())
                out[term] = view[3][s:e]
        return out


class DirectoryPool:
    """n_actors DirectoryActors covering n_buckets round-robin, plus a
    driver-side term→shards LRU so hot query terms never re-RPC."""

    def __init__(self, index_dir: str, n_buckets: int,
                 n_actors: int = 4):
        n_actors = max(1, min(n_actors, n_buckets))
        assign: list[list[int]] = [[] for _ in range(n_actors)]
        for b in range(n_buckets):
            assign[b % n_actors].append(b)
        self.n_buckets = n_buckets
        self.actors = [DirectoryActor.remote(index_dir, bs)
                       for bs in assign]
        self._actor_of = {b: self.actors[b % n_actors]
                          for b in range(n_buckets)}
        ray.get([a.ready.remote() for a in self.actors])
        self._cache = LRU(100_000)

    def shards_for(self, terms: list[str]) -> dict[str, np.ndarray]:
        out = {t: self._cache.get(t) for t in terms}
        missing = [t for t, sh in out.items() if sh is None]
        if missing:
            h = fnv1a_64_np(missing) % np.uint64(self.n_buckets)
            per_actor: dict[int, dict[int, list[str]]] = {}
            for t, b in zip(missing, h.astype(int)):
                a = id(self._actor_of[b])
                per_actor.setdefault(a, {}).setdefault(b, []).append(t)
            handles = {id(a): a for a in self.actors}
            futs = [handles[a].lookup.remote(bt)
                    for a, bt in per_actor.items()]
            for part in ray.get(futs):
                for t, sh in part.items():
                    self._cache.put(t, sh)
                    out[t] = sh
        return out

    def close(self) -> None:
        for a in self.actors:
            ray.kill(a)
        self.actors = []
