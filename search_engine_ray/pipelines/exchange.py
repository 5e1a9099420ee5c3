"""Filesystem hash-exchange for the postings build — the MapReduce-style
shuffle that replaces sorting the wide docs table.

Map side (_PartialExchangeWriter, map_batches over the flat docs table):
each batch's postings are emitted vectorized (stages/emit.py), grouped by
shard-group (grp = (doc_id % num_shards) % num_groups), and written one
file per (batch, group) under exchange/grp=G/ — the reduce side reads
exactly its own directory, touching no other group's data.

Reduce side (_GroupMergeWorker, actor pool over group ids), in two
calls per group. ``count_terms`` counts the partials' term column, one
row per (term, doc) run, so the counts summed over every group are the
global df that the terms stage writes, with each term's id, to
``terms/`` (pipelines/build.py). ``merge_groups`` then reads a group's
partial runs, maps each term to its id in ``terms/``, sorts them once by
(shard, term_id, doc) — bounded by the group's share of the corpus, the
explicit skew/size bound — and encodes final per-shard segment tables,
written atomically per shard with build-id markers (idempotent resume at
shard granularity; already-valid shards are skipped so their
files/mtimes are untouched).

A build writes shards 0..num_shards-1; an append writes its generation's
shards at ``first_shard`` + (doc_id % num_shards), so every shard dir of
an index, whichever generation wrote it, comes from write_shard_dir: one
parquet file plus a ``_SUCCESS`` marker. Query routing needs no file of
its own: the engine reads each segment's ``term_id`` column
(pipelines/search.py), and ignores the vocabulary Bloom filters that
earlier format-21 merges wrote beside it.

A (term, doc) run is never split across partials because each doc lives in
exactly one batch, so the merge is pure concatenation + sort, no
re-aggregation.

Every index parquet file (segments/, docmeta/, terms/) is written through
ONE writer policy, ``parquet_options``: zstd on every column, and an
encoding fitted to each column's data (``COLUMN_ENCODING``):

- ``term`` (in ``terms/``) is sorted, and ``url`` strings share their
  scheme and host: each shares a long prefix with the value before it,
  and DELTA_BYTE_ARRAY stores it as (shared-prefix length, suffix)
  instead of whole;
- ``term_id`` ascends through a segment and nearly so through
  ``terms/``: DELTA_BINARY_PACKED stores bit-packed deltas, a few bits
  per row;
- ``doc_gaps`` and ``pos_gaps`` are varint byte streams, nearly all
  distinct: dictionary coding finds nothing to share, and PLAIN pays a
  4-byte length per cell, which outweighs the 1-2 byte payload of a
  df = 1 row; DELTA_LENGTH_BYTE_ARRAY packs the lengths as deltas and
  leaves the payloads contiguous for zstd;
- docmeta's ``doc_id`` is a distinct 64-bit url hash per row: a
  dictionary shares nothing, so it is stored PLAIN;
- everything else (``df``, ``tfs``, the block metadata, docmeta's other
  ints, ``title``) is dictionary-coded: those columns repeat values (a
  one-byte ``tfs`` of a df = 1 row, a null block column, a common dl,
  the title of a templated or re-crawled page).

Footers carry no serialized Arrow schema (``store_schema=False``): the
parquet schema already reads back every index column's type, and the
~630-byte ``ARROW:schema`` copy was paid once per file.

Parquet decodes any encoding transparently, so readers never depend on
the policy: indexes written with pyarrow's defaults keep serving, alone
or mixed with shards written since.
"""

from __future__ import annotations

import hashlib
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..kernels import varint
from ..stages.emit import emit_postings_columnar
from ..state import segments as seg


DOCMETA_COLUMNS = ["doc_id", "shard", "dl", "url", "title", "word_count",
                   "title_length", "url_length", "english", "tld"]

# the index writer policy's non-dictionary columns (module docstring);
# every other column of an index file is dictionary-coded
COLUMN_ENCODING = {
    "term": "DELTA_BYTE_ARRAY",
    "term_id": "DELTA_BINARY_PACKED",
    "url": "DELTA_BYTE_ARRAY",
    "doc_gaps": "DELTA_LENGTH_BYTE_ARRAY",
    "pos_gaps": "DELTA_LENGTH_BYTE_ARRAY",
    "doc_id": "PLAIN",
}


def parquet_options(schema: pa.Schema) -> dict:
    """Writer keyword arguments of the index writer policy for a table of
    ``schema``: the same for ``pq.write_table`` and ``pq.ParquetWriter``.
    Statistics are off — the readers binary-search the key columns
    themselves and min/max over MB binary cells is pure write-side
    memcpy."""
    return {
        "compression": "zstd",
        "store_schema": False,
        "use_dictionary": [n for n in schema.names
                           if n not in COLUMN_ENCODING],
        "column_encoding": {n: COLUMN_ENCODING[n] for n in schema.names
                            if n in COLUMN_ENCODING},
        "write_statistics": False,
    }


def _atomic_write(tab: pa.Table, path: str) -> None:
    """Write one partial run file: an uncompressed Arrow IPC stream (raw
    buffer writes here, ZERO-COPY memory-mapped reads on the merge side;
    the partials are transient intra-build spill, so compression buys
    nothing). Write-then-rename with a UNIQUE tmp name: concurrent
    duplicate executions of the same task race only on the atomic
    os.replace (last wins, identical content), never on the file
    bytes."""
    tmp = f"{path}.{os.getpid()}.{id(tab) & 0xffffff:x}.tmp"
    with pa.OSFile(tmp, "wb") as f, pa.ipc.new_stream(f, tab.schema) as w:
        w.write_table(tab)
    os.replace(tmp, path)


def _write_byte_bounded(tab: pa.Table, path: str,
                        target_bytes: int = 128 << 10,
                        max_rows: int = 2048) -> None:
    """Write ``tab`` with BYTE-bounded row groups: split wherever the
    cumulative binary payload passes ~target_bytes (a single fat row gets
    its own group), so a lazy per-row read never decompresses more than
    ~target_bytes no matter how skewed the row sizes are. A null cell
    weighs 0 bytes."""
    import pyarrow.compute as pc
    w = np.zeros(tab.num_rows, dtype=np.int64)
    for field in tab.schema:
        if pa.types.is_binary(field.type) \
                or pa.types.is_large_binary(field.type) \
                or pa.types.is_string(field.type):
            w += pc.fill_null(pc.binary_length(tab.column(field.name)),
                              0).cast(pa.int64()).to_numpy(
                zero_copy_only=False)
    # boundary scan iterates GROUPS (≈ total_bytes/target), not rows:
    # greedy farthest-cut via searchsorted on the cumulative weights
    cum = np.concatenate([[0], np.cumsum(w)])
    n = tab.num_rows
    with pq.ParquetWriter(path, tab.schema,
                          **parquet_options(tab.schema)) as writer:
        if n == 0:
            writer.write_table(tab)
        i = 0
        while i < n:
            j = int(np.searchsorted(cum, cum[i] + target_bytes,
                                    side="right")) - 1
            j = min(max(j, i + 1), i + max_rows, n)
            writer.write_table(tab.slice(i, j - i))
            i = j


def write_shard_dir(root: str, s: int, tab: pa.Table, filename: str,
                    marker: str, row_group_size: int = 0) -> None:
    """Replace ``root/shard=s`` atomically with ONE parquet file and a
    ``_SUCCESS`` marker holding ``marker`` — the only writer of an
    index's shard dirs (merge, empty-shard backfill and the optional
    refresh_block_max tightening pass).

    Small row groups: the serving actor reads only metadata columns at
    init and pages heavy columns (posting/position bytes, urls/titles)
    in PER ROW GROUP on first touch — at 100 TB a shard's segment is GBs
    and actor cold-start must not materialize it all (ShardIndex,
    pipelines/search.py). Segment rows are wildly size-skewed (a head
    term's posting bytes dwarf thousands of tail terms), so groups are
    BYTE-bounded (_write_byte_bounded); row_group_size>0 overrides with a
    fixed row count for uniform-thin-row tables (docmeta). Both paths
    write through ``parquet_options``: zstd, prefix-coded ``term``/``url``
    (each shares a prefix with the value before it), length-delta
    ``doc_gaps``/``pos_gaps`` (distinct varint streams, mostly 1-2 bytes,
    where a PLAIN 4-byte length would dominate), PLAIN ``doc_id``
    (distinct hashes), dictionary-coded others (``df``, ``tfs``, block
    metadata, docmeta's other ints and ``title`` repeat values) and no
    Arrow schema copy in the footer."""
    dst = os.path.join(root, f"shard={s}")
    tmp = f"{dst}.{os.getpid()}.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    path = os.path.join(tmp, filename)
    if row_group_size:
        pq.write_table(tab, path, row_group_size=row_group_size,
                       **parquet_options(tab.schema))
    else:
        _write_byte_bounded(tab, path)
    with open(os.path.join(tmp, "_SUCCESS"), "w") as f:
        f.write(marker)
    shutil.rmtree(dst, ignore_errors=True)
    os.replace(tmp, dst)


def marker_ok(root: str, s: int, marker: str) -> bool:
    """Whether ``root/shard=s`` is complete and written under ``marker``."""
    try:
        with open(os.path.join(root, f"shard={s}", "_SUCCESS")) as f:
            return f.read().strip() == marker
    except OSError:
        return False


def _read_partials(files: list[str],
                   columns: list[str] | None = None) -> pa.Table | None:
    """Concat partial runs (only ``columns`` when given), read zero-copy
    via mmap (Arrow buffers reference the mapping, which stays alive
    with them)."""
    if not files:
        return None
    tabs = []
    for f in files:
        t = pa.ipc.open_stream(pa.memory_map(f)).read_all()
        tabs.append(t.select(columns) if columns else t)
    return pa.concat_tables(tabs, promote_options="default") \
        if len(tabs) > 1 else tabs[0]


class _PartialExchangeWriter:
    """Map side of the exchange: per-group postings partials
    (part_*.arrow) and docmeta partials (meta_*.arrow), so the reduce
    side produces the per-shard docmeta WITHOUT a Ray sort over the docs
    table. ``passthrough`` returns the input batch unchanged so the
    writer can sit inside the fused parse→emit→write-docs chain. A doc's
    shard is ``first_shard`` + doc_id % num_shards; its group is
    (doc_id % num_shards) % num_groups."""

    def __init__(self, exchange_dir: str, num_shards: int, num_groups: int,
                 passthrough: bool = False, first_shard: int = 0):
        self.exchange_dir = exchange_dir
        self.num_shards = num_shards
        self.num_groups = num_groups
        self.passthrough = passthrough
        self.first_shard = first_shard
        os.makedirs(exchange_dir, exist_ok=True)

    def _write_groups(self, tab: pa.Table, grp_sorted: np.ndarray,
                      prefix: str, part_id: str) -> None:
        uniq, starts = np.unique(grp_sorted, return_index=True)
        bounds = np.append(starts, len(grp_sorted))
        for gi in range(len(uniq)):
            lo, hi = int(bounds[gi]), int(bounds[gi + 1])
            d = os.path.join(self.exchange_dir, f"grp={int(uniq[gi])}")
            os.makedirs(d, exist_ok=True)
            _atomic_write(tab.slice(lo, hi - lo),
                          os.path.join(d, f"{prefix}_{part_id}.arrow"))

    def __call__(self, t: pa.Table) -> pa.Table:
        doc_ids = t.column("doc_id").to_numpy(
            zero_copy_only=False).astype(np.int64)
        dls = t.column("dl").to_numpy(zero_copy_only=False).astype(np.int64)
        # deterministic part id from the batch's doc set: a retried task
        # re-emits the SAME filenames, so partially-written groups are
        # overwritten (os.replace) instead of duplicated, keeping df and
        # the posting bytes exact under Ray task retry
        part_id = hashlib.sha1(doc_ids.tobytes()).hexdigest()[:20]

        if len(doc_ids):
            doc_grp = ((doc_ids % self.num_shards)
                       % self.num_groups).astype(np.int32)
            m_order = np.argsort(doc_grp, kind="stable")
            meta = t.select(DOCMETA_COLUMNS).take(
                pa.array(m_order.astype(np.int64)))
            self._write_groups(meta, doc_grp[m_order], "meta", part_id)

        runs = emit_postings_columnar(doc_ids, dls, t.column("terms"))
        n = len(runs["terms"])
        if n == 0:
            return t if self.passthrough else pa.table(
                {"n_runs": pa.array([0], pa.int64())})
        local = runs["run_doc"] % self.num_shards
        shard = (local + self.first_shard).astype(np.int32)
        grp = (local % self.num_groups).astype(np.int32)
        order = np.argsort(grp, kind="stable")

        # zero-copy binary column over the varint position stream
        offs32 = runs["run_byte_offsets"].astype(np.int32)
        pos_arr = pa.Array.from_buffers(
            pa.binary(), n,
            [None, pa.py_buffer(offs32.tobytes()),
             pa.py_buffer(runs["pos_stream"])])
        # one table, one grp-sort take; per-group outputs are zero-copy
        # slices (object-array slicing per group was the map-side hotspot)
        tab = pa.table({
            "shard": pa.array(shard, pa.int32()),
            "term": pa.array(runs["terms"], pa.string()),
            "doc_id": pa.array(runs["run_doc"], pa.int64()),
            "tf": pa.array(runs["run_tf"].astype(np.int32), pa.int32()),
            "dl": pa.array(runs["run_dl"].astype(np.int32), pa.int32()),
            "pos": pos_arr,
        }).take(pa.array(order.astype(np.int64)))

        self._write_groups(tab, grp[order], "part", part_id)
        return t if self.passthrough else pa.table(
            {"n_runs": pa.array([n], pa.int64())})


class _GroupMergeWorker:
    """Stateful merge worker: counts one shard-group's terms
    (``count_terms``), then merges its partial runs into final per-shard
    segments (encode + block-max) keyed by the term ids of
    ``terms_dir``, atomically, and assembles each shard's docmeta from
    the map-side meta partials — replacing the former docmeta Ray sort.
    Shard ids are global: ``first_shard`` + doc_id % num_shards."""

    def __init__(self, exchange_dir: str, segments_dir: str,
                 num_shards: int, avgdl: float | None, build_id: str,
                 docmeta_dir: str, terms_dir: str, first_shard: int = 0):
        self.exchange_dir = exchange_dir
        self.segments_dir = segments_dir
        self.num_shards = num_shards
        self.avgdl = avgdl  # may arrive later via merge_groups()
        self.build_id = build_id
        self.docmeta_dir = docmeta_dir
        self.terms_dir = terms_dir
        self.first_shard = first_shard
        self._terms = None  # (term, term_id) of terms_dir, read once

    def _files(self, g: int, prefix: str) -> list[str]:
        """Group ``g``'s partial files of one kind. An explicit extension
        filter: a crash between write and os.replace can leave a
        truncated *.tmp, which the readers would otherwise try to
        parse."""
        gdir = os.path.join(self.exchange_dir, f"grp={g}")
        if not os.path.isdir(gdir):
            return []
        return [os.path.join(gdir, f) for f in sorted(os.listdir(gdir))
                if f.startswith(prefix) and f.endswith(".arrow")]

    def count_terms(self, groups: list[int]) -> pa.RecordBatch:
        """(term, df) over ``groups``' partial runs: each row of a
        partial is one (term, doc) run and a doc lives in one shard, so
        a term's row count is its df summed over the groups' shards. A
        RecordBatch, not a Table: Ray pickles a Table through a reducer
        that imports pandas (~0.6 s per worker on one CPU)."""
        import pyarrow.compute as pc
        files = [f for g in groups for f in self._files(int(g), "part_")]
        part = _read_partials(files, columns=["term"])
        if part is None or not part.num_rows:
            return pa.RecordBatch.from_arrays(
                [pa.array([], pa.string()), pa.array([], pa.int64())],
                ["term", "df"])
        vc = pc.value_counts(part.column("term"))
        return pa.RecordBatch.from_arrays(
            [vc.field("values"), vc.field("counts")], ["term", "df"])

    def _term_ids(self, strings: pa.Array) -> np.ndarray:
        """term_id of each of the distinct ``strings``, from the terms
        table (read once per worker); every term must be in it."""
        import pyarrow.compute as pc
        if self._terms is None:
            t = seg.read_parquet_dir(self.terms_dir,
                                     columns=["term", "term_id"])
            self._terms = (t.column("term").combine_chunks(),
                           t.column("term_id").to_numpy())
        pos = pc.index_in(strings, value_set=self._terms[0])
        if pos.null_count:
            raise RuntimeError(
                f"{pos.null_count} terms of the exchange missing from "
                f"{self.terms_dir}")
        return self._terms[1][pos.to_numpy()].astype(np.int64)

    def merge_groups(self, groups: list[int], avgdl: float | None = None
                     ) -> int:
        """Explicit actor-pool entry point: lets build_index spawn the
        merge actors EARLY (their process spin-up + imports overlap the
        map pass) and deliver avgdl at call time, once known."""
        if avgdl is not None:
            self.avgdl = avgdl
        out = self(pa.table({"grp": pa.array(groups, pa.int32())}))
        return out.num_rows

    def _shard_done(self, s: int) -> bool:
        return marker_ok(self.segments_dir, s, self.build_id) \
            and marker_ok(self.docmeta_dir, s, self.build_id)

    def _emit_docmeta(self, meta: pa.Table) -> None:
        """Split this group's concatenated meta partials per shard, write
        docmeta/shard=S (skipping shards already done)."""
        if meta.num_rows == 0:
            return
        shards = meta.column("shard").to_numpy(zero_copy_only=False)
        order = np.argsort(shards, kind="stable")
        meta = meta.take(pa.array(order.astype(np.int64)))
        shards_s = shards[order]
        uniq, starts = np.unique(shards_s, return_index=True)
        bounds = np.append(starts, len(shards_s))
        for si in range(len(uniq)):
            s = int(uniq[si])
            if marker_ok(self.docmeta_dir, s, self.build_id):
                continue
            lo, hi = int(bounds[si]), int(bounds[si + 1])
            # the shard column lives in the hive dir name, as with
            # write_parquet(partition_cols=["shard"])
            write_shard_dir(
                self.docmeta_dir, s,
                meta.slice(lo, hi - lo).drop_columns(["shard"]),
                "docmeta.parquet", self.build_id, row_group_size=4096)

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_shard, out_terms = [], []
        for g in batch.column("grp").to_pylist():
            g = int(g)
            files = self._files(g, "part_")
            meta = _read_partials(self._files(g, "meta_"))
            if meta is not None:
                self._emit_docmeta(meta)
            # per-shard doc universe (sorted unique doc ids, keyed by
            # the shard id recomputed from doc_id):
            # postings store ORDINALS into this universe — the position
            # of the doc in the shard's doc_id-sorted docmeta — so doc
            # gaps varint in 1-2 bytes instead of the ~9 bytes a 63-bit
            # fingerprint delta costs, and the searcher's dense paths
            # index docmeta arrays directly
            uni: dict[int, np.ndarray] = {}
            if meta is not None and meta.num_rows:
                m_ids = meta.column("doc_id").to_numpy(
                    zero_copy_only=False).astype(np.int64)
                m_sh = m_ids % self.num_shards + self.first_shard
                mo = np.argsort(m_sh, kind="stable")
                msh_s, mid_s = m_sh[mo], m_ids[mo]
                u_sh, u_starts = np.unique(msh_s, return_index=True)
                u_bounds = np.append(u_starts, len(msh_s))
                for si in range(len(u_sh)):
                    uni[int(u_sh[si])] = np.unique(
                        mid_s[u_bounds[si]:u_bounds[si + 1]])
            if not files:
                continue
            part = _read_partials(files)
            if part.num_rows == 0:
                continue
            codes_a = part.column("term").combine_chunks() \
                .dictionary_encode()
            # each run's term id, through its distinct strings
            tids = self._term_ids(codes_a.dictionary)[
                codes_a.indices.to_numpy(zero_copy_only=False)]
            docs = part.column("doc_id").to_numpy(zero_copy_only=False)
            tfs = part.column("tf").to_numpy(zero_copy_only=False).astype(
                np.int64)
            dls = part.column("dl").to_numpy(zero_copy_only=False).astype(
                np.int64)
            shards = part.column("shard").to_numpy(zero_copy_only=False)

            order = np.lexsort((docs, tids, shards))
            # reorder the pos binary column ONCE; per-run blobs are then
            # contiguous (offset, data) buffer slices — no python bytes
            # large_binary (int64 offsets) so a merge group whose
            # concatenated position data exceeds 2 GiB doesn't raise
            # ArrowCapacityError on combine_chunks
            pos_sorted = part.column("pos").cast(
                pa.large_binary()).combine_chunks().take(
                pa.array(order.astype(np.int64)))
            assert pos_sorted.offset == 0
            pos_offs = np.frombuffer(pos_sorted.buffers()[1],
                                     dtype=np.int64)[:len(order) + 1]
            _pd_buf = pos_sorted.buffers()[2]
            pos_data = (np.frombuffer(_pd_buf, dtype=np.uint8)
                        if _pd_buf is not None
                        else np.empty(0, dtype=np.uint8))
            tids = tids[order]
            docs_s = docs[order]
            tfs_s = tfs[order]
            dls_s = dls[order]
            shards_s = shards[order]

            # map doc ids → per-shard dense ordinals (monotone within a
            # shard, so the (shard, term_id, doc) sort order is preserved)
            ords = np.empty(len(docs_s), dtype=np.int64)
            sh_u, sh_starts = np.unique(shards_s, return_index=True)
            sh_bounds = np.append(sh_starts, len(shards_s))
            for si in range(len(sh_u)):
                slo, shi = int(sh_bounds[si]), int(sh_bounds[si + 1])
                u = uni.get(int(sh_u[si]))
                if u is None:
                    raise RuntimeError(
                        f"exchange meta partials missing for shard "
                        f"{int(sh_u[si])} in grp={g}")
                o_slice = np.searchsorted(u, docs_s[slo:shi])
                if not np.array_equal(u[o_slice], docs_s[slo:shi]):
                    raise RuntimeError(
                        f"posting doc id outside the shard universe "
                        f"(shard {int(sh_u[si])}, grp={g})")
                ords[slo:shi] = o_slice
            docs_s = ords

            # (shard, term) run boundaries
            change = np.empty(len(tids), dtype=bool)
            change[0] = True
            change[1:] = ((shards_s[1:] != shards_s[:-1])
                          | (tids[1:] != tids[:-1]))
            rstarts = np.nonzero(change)[0]
            rbounds = np.append(rstarts, len(tids))

            # vectorized per-group encoding: ONE varint stream per column
            # with per-row byte offsets, so each posting list is a bytes
            # slice instead of a per-run encode call (the per-run python
            # loop was ~0.5 s/group at 350k rows)
            n_rows = len(tids)
            ds64 = docs_s.astype(np.uint64)
            deltas = np.empty(n_rows, np.uint64)
            deltas[0] = ds64[0]
            np.subtract(ds64[1:], ds64[:-1], out=deltas[1:])
            deltas[rstarts] = ds64[rstarts]  # absolute at run starts
            doc_stream, doc_offs = varint.encode_u64_offsets(deltas)
            tf_stream, tf_offs = varint.encode_u64_offsets(
                tfs_s.astype(np.uint64))

            # shard boundaries over the runs
            per_shard: dict[int, dict[str, list]] = {}
            for ri in range(len(rstarts)):
                lo, hi = int(rbounds[ri]), int(rbounds[ri + 1])
                sh = int(shards_s[lo])
                if self._shard_done(sh):
                    continue
                n = hi - lo
                r = per_shard.setdefault(sh, {
                    "term_id": [], "df": [], "doc_gaps": [],
                    "tfs": [], "pos_gaps": [], "block_last_doc": [],
                    "block_max_impact": [], "block_offs": []})
                r["term_id"].append(tids[lo])
                r["df"].append(n)
                r["doc_gaps"].append(doc_stream[doc_offs[lo]:doc_offs[hi]])
                r["tfs"].append(tf_stream[tf_offs[lo]:tf_offs[hi]])
                r["pos_gaps"].append(
                    pos_data[pos_offs[lo]:pos_offs[hi]].tobytes())
                if n <= seg.BLOCK_SIZE:
                    # one block: its decode gives everything the block
                    # metadata would (state/segments.py), so store none
                    r["block_offs"].append(None)
                    r["block_last_doc"].append(None)
                    r["block_max_impact"].append(None)
                    continue
                # per-block byte offsets into the three run streams (the
                # block-lazy seek table, state/segments.py LazyPostings)
                bstarts = lo + np.arange(0, n, seg.BLOCK_SIZE,
                                         dtype=np.int64)
                r["block_offs"].append(np.stack([
                    doc_offs[bstarts] - doc_offs[lo],
                    tf_offs[bstarts] - tf_offs[lo],
                    pos_offs[bstarts] - pos_offs[lo]],
                    axis=1).astype(np.int64).tobytes())
                ends = np.minimum(bstarts - lo + seg.BLOCK_SIZE, n)
                r["block_last_doc"].append(varint.encode_gaps(
                    docs_s[lo:hi][ends - 1].astype(np.uint64)))
                r["block_max_impact"].append(seg.block_max_bounds(
                    seg.bm25_impact(tfs_s[lo:hi], dls_s[lo:hi],
                                    self.avgdl)))

            for sh, r in per_shard.items():
                # rows arrive sorted by term id: the segment's key, which
                # readers binary-search
                tab = pa.table({
                    "term_id": pa.array(r["term_id"], pa.int32()),
                    "df": pa.array(r["df"], pa.int64()),
                    "doc_gaps": pa.array(r["doc_gaps"], pa.binary()),
                    "tfs": pa.array(r["tfs"], pa.binary()),
                    "pos_gaps": pa.array(r["pos_gaps"], pa.binary()),
                    "block_last_doc": pa.array(r["block_last_doc"],
                                               pa.binary()),
                    "block_max_impact": pa.array(r["block_max_impact"],
                                                 pa.binary()),
                    "block_offs": pa.array(r["block_offs"], pa.binary()),
                })
                write_shard_dir(self.segments_dir, sh, tab,
                                "segment.parquet", self.build_id)
                out_shard.append(sh)
                out_terms.append(tab.num_rows)
        return pa.table({
            "shard": pa.array(out_shard, pa.int32()),
            "n_terms": pa.array(out_terms, pa.int64()),
        })
