"""Sharded index segment format + manifest.

Layout under ``index_dir``::

    manifest.json                 corpus stats, config, completed stages
    docmeta/shard=N/*.parquet     per-doc attributes (url, title, dl, ...)
    segments/shard=N/*.parquet    per-(shard, term) posting lists
    terms/terms.parquet           the vocabulary: (term, df, term_id),
                                  sorted by term

The term strings live only in ``terms/``. Its ``term_id`` (int32) is a
term's key in every segment: a fresh build numbers the sorted terms
0, 1, ...; an append keeps every old term's id and numbers its new terms
from the largest id + 1, in term order, so no old shard is rewritten.
A reader finds a term's row by one string search in the vocabulary and
one integer search in the shard.

A segment row is one term's postings within one document shard, and a
shard's rows are sorted by term_id:

    shard:i32  term_id:i32  df:i64
    doc_gaps:binary       varint delta-gaps of sorted doc_ids (abs first)
    tfs:binary            varint term frequencies, one per doc
    pos_gaps:binary       varint within-doc position gaps, concatenated in
                          doc order (tf values per doc); positions are
                          indices into the doc's kept-token sequence
                          [title ++ body] (reference location semantics,
                          Indexer.hpp:407-440, minus the global base)
    block_last_doc:binary varint gaps of the last doc_id per 128-doc block
    block_max_impact:binary float32-LE array: per-block max of the BM25
                          tf-side impact tf/(tf + k1*(1-b+b*dl/avgdl))
                          at the shard's ``shard_bound_avgdl``, rounded
                          up to the next float32 so it bounds every
                          impact of its block — the block-max
                          metadata for WAND (the Ray-native
                          generalization of the reference skip table,
                          Posts.hpp:353-369)
    block_offs:binary     int64-LE (nblocks, 3) array: byte offset of each
                          block's start within (doc_gaps, tfs, pos_gaps) —
                          the seek table that lets a reader decode block k
                          WITHOUT decoding blocks 0..k-1 (phrase and
                          sparse-scoring probes; reference analogue
                          SeekDocumentPost's skip table, Posts.hpp:448-473)

The three block metadata cells are null on a row of one block (df ≤
BLOCK_SIZE): its decode of ≤128 values already gives its last doc, its
seek offsets are zeros, and WAND computes its exact bound from the
decoded postings. The reference sizes its skip table to the list in the
same way (``skipCount``, Posts.hpp:359-362). Rows of several blocks
always store all three; a non-null cell on a one-block row (older
indexes) keeps its meaning.

Sharding is BY DOCUMENT (shard = doc_id % num_shards): each shard is a
self-contained index over its docs — the distributed analogue of the
reference's 5000-doc chunks (constants.h:27). The (shard, term) groupby key
bounds every group by the shard's doc count, which is the salt that keeps
head-term skew out of the shuffle (SURVEY.md §4.3): a term's global posting
list is the order-preserving concatenation of its per-shard lists because
shards partition the doc-id space.

An index whose manifest lacks ``segment_key: "term_id"`` keys its
segment rows by term string (before v20), one without
``posting_format: "ordinal"`` stores raw doc fingerprints in its
postings (before v18), and one without ``bound_avgdl`` hides the avgdl
of its block-max bounds (before v21); ``read_index_manifest`` refuses
all three, loudly, rather than misread them.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..kernels import varint

BLOCK_SIZE = 128
K1 = 1.2
B = 0.75

SEGMENT_SCHEMA = pa.schema([
    ("shard", pa.int32()),
    ("term_id", pa.int32()),
    ("df", pa.int64()),
    ("doc_gaps", pa.binary()),
    ("tfs", pa.binary()),
    ("pos_gaps", pa.binary()),
    ("block_last_doc", pa.binary()),
    ("block_max_impact", pa.binary()),
    ("block_offs", pa.binary()),
])


def bm25_impact(tfs: np.ndarray, dls: np.ndarray, avgdl: float) -> np.ndarray:
    """tf-side BM25 impact (the score contribution divided by idf)."""
    tfs = tfs.astype(np.float64)
    return tfs / (tfs + K1 * (1.0 - B + B * dls.astype(np.float64) / avgdl))


def block_max_bounds(impacts: np.ndarray) -> bytes:
    """float32-LE per-block maxima of the float64 ``impacts`` of one
    posting list, each rounded UP to the next float32 where rounding to
    nearest fell below the float64 max: a stored bound is never below
    the impact of any posting in its block."""
    m = np.maximum.reduceat(impacts, np.arange(0, len(impacts), BLOCK_SIZE))
    f = m.astype(np.float32)
    low = f < m
    f[low] = np.nextafter(f[low], np.float32(np.inf))
    return f.tobytes()


def ragged_arange(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The concatenated ranges [starts[i], starts[i] + lens[i]): the flat
    index of a ragged gather, built without a Python loop."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return (np.arange(total, dtype=np.int64)
            + np.repeat(starts - (ends - lens), lens))


class LazyPostings:
    """Block-lazy view of one segment row, the engine's only decoded form
    of a posting list. Construction decodes just the O(df/128) block
    metadata (block_last_doc, block_offs). Doc ids and tfs decode per
    128-doc block on first touch, through the block_offs seek table, into
    flat df-long arrays that the per-block accessors slice; ``doc_ids``
    and ``tfs`` decode every missing block at once, one varint call per
    stream. A phrase's rarest term seeds candidates that probe each
    more frequent list through gather(), decoding only the blocks the
    candidates land in (the reference's SeekDocumentPost skip-seek,
    Posts.hpp:448-473), and sparse BM25 scoring probes a term the same
    way. Positions are decoded per call, only
    for the blocks a phrase's candidates touch (gather_positions), and
    the pos_gaps bytes — the largest column — may be attached later
    (add_positions): the scoring paths never read them.

    A row of one block may store null block metadata. Its seek offsets
    are then zeros, its ``block_last_doc`` comes from its decode, and
    its ``block_max_impact`` is None: ``block_bounds`` computes that
    bound from the decoded postings. Null metadata on a longer row is a
    corrupt index and raises, naming ``where`` (the shard and term)."""

    __slots__ = ("df", "nblocks", "_last", "block_max_impact",
                 "_bytes", "_offs", "_docs", "_tfs", "_done",
                 "blocks_decoded")

    def __init__(self, row: dict, where: str = "segment row"):
        self.df = row["df"]
        self.nblocks = n = -(-self.df // BLOCK_SIZE)
        last, bmax, offs = (row["block_last_doc"], row["block_max_impact"],
                            row["block_offs"])
        if n > 1 and (last is None or bmax is None or offs is None):
            raise ValueError(
                f"corrupt index: {where} has df={self.df} > {BLOCK_SIZE} "
                "but null block metadata")
        self._last = (None if last is None
                      else varint.decode_gaps(last).astype(np.int64))
        self.block_max_impact = (None if bmax is None
                                 else np.frombuffer(bmax, dtype=np.float32))
        # the three streams, in block_offs column order
        self._bytes = [row["doc_gaps"], row["tfs"], row.get("pos_gaps")]
        offs = (np.zeros((n, 3), dtype=np.int64) if offs is None
                else np.frombuffer(offs, dtype=np.int64).reshape(n, 3))
        # append end sentinels so block b's byte range is offs[b:b+2]
        self._offs = np.vstack([offs, [len(b or b"") for b in self._bytes]])
        self._docs = np.empty(self.df, dtype=np.int64)
        self._tfs = np.empty(self.df, dtype=np.int64)
        self._done = np.zeros(n, dtype=bool)
        self.blocks_decoded = 0

    @property
    def block_last_doc(self) -> np.ndarray:
        """Last doc ordinal of each block; a row stored without block
        metadata is one block, whose decode gives it."""
        if self._last is None:
            self._last = self.doc_ids[-1:]
        return self._last

    def block_bounds(self, dls: np.ndarray, avgdl: float,
                     bound_avgdl: float | None = None) -> np.ndarray:
        """float64 upper bound of each block's BM25 tf-side impact under
        ``avgdl`` (``dls``: the shard's dl per doc ordinal). Stored
        bounds, computed at ``bound_avgdl`` (None: at ``avgdl``), are
        scaled by max(1, avgdl / bound_avgdl): an impact falls with
        avgdl, and for A' ≥ A, with c = tf + k1(1 - b) and x = k1·b·dl,
        impact(A')/impact(A) = (c + x/A)/(c + x/A') ≤ A'/A. 2**-40 of
        slack covers the float rounding (≤ 4 ulps). A one-block row
        stored without bounds gets the exact max over its postings."""
        if self.block_max_impact is not None:
            b = self.block_max_impact.astype(np.float64)
            if bound_avgdl is None or avgdl <= bound_avgdl:
                return b
            return b * (avgdl / bound_avgdl * (1 + 2 ** -40))
        return bm25_impact(self.tfs, dls[self.doc_ids], avgdl).max(
            keepdims=True)

    def add_positions(self, pos_gaps: bytes) -> None:
        self._bytes[2] = pos_gaps
        self._offs[-1, 2] = len(pos_gaps)

    @property
    def has_positions(self) -> bool:
        return self._bytes[2] is not None

    @property
    def doc_ids(self) -> np.ndarray:
        """Every doc ordinal of the list, ascending."""
        self._decode_all()
        return self._docs

    @property
    def tfs(self) -> np.ndarray:
        self._decode_all()
        return self._tfs

    def _decode_all(self) -> None:
        if not self.blocks_decoded:  # one plain decode per stream
            self._docs = np.cumsum(varint.decode_u64_stream(
                self._bytes[0]).astype(np.int64))
            self._tfs = varint.decode_u64_stream(
                self._bytes[1]).astype(np.int64)
            self._done[:] = True
            self.blocks_decoded = self.nblocks
        elif self.blocks_decoded < self.nblocks:
            self.ensure_blocks(np.arange(self.nblocks))

    def block_docs(self, b: int) -> np.ndarray:
        self.ensure_blocks(np.array([b]))
        return self._docs[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE]

    def block_tfs(self, b: int) -> np.ndarray:
        self.ensure_blocks(np.array([b]))
        return self._tfs[b * BLOCK_SIZE:(b + 1) * BLOCK_SIZE]

    def _block_counts(self, blocks: np.ndarray) -> np.ndarray:
        """Posting count per block: BLOCK_SIZE except the final block."""
        counts = np.full(len(blocks), BLOCK_SIZE, dtype=np.int64)
        counts[blocks == self.nblocks - 1] = \
            self.df - (self.nblocks - 1) * BLOCK_SIZE
        return counts

    def _stream(self, col: int, blocks: np.ndarray) -> bytes:
        """Stream ``col``'s bytes of the sorted-unique ``blocks``: a run
        of consecutive blocks is one slice, so decoding every block reads
        the stream whole."""
        buf, o = self._bytes[col], self._offs[:, col]
        if blocks[-1] - blocks[0] == len(blocks) - 1:  # one run
            return buf[o[blocks[0]]:o[blocks[-1] + 1]]
        brk = np.flatnonzero(np.diff(blocks) != 1) + 1
        lo = blocks[np.concatenate(([0], brk))]
        hi = blocks[np.concatenate((brk - 1, [len(blocks) - 1]))] + 1
        return b"".join(buf[o[a]:o[z]] for a, z in zip(lo, hi))

    def ensure_blocks(self, blocks: np.ndarray) -> None:
        """Decode the listed blocks not yet decoded in ONE varint call per
        stream (every block holds exactly BLOCK_SIZE postings except the
        last, so the flat decode splits back deterministically) — the
        per-block python decode loop was ~34 µs/block, 1700× the
        vectorized per-posting cost."""
        need = np.unique(blocks)
        need = need[~self._done[need]]
        if not len(need):
            return
        if len(need) == self.nblocks:
            return self._decode_all()
        counts = self._block_counts(need)
        d = varint.decode_u64_stream(self._stream(0, need)).astype(np.int64)
        # segmented cumsum: flat cumsum, then rebase each block at its
        # predecessor's last doc id (gap chains never restart, so block
        # b's first gap is the delta from block_last_doc[b-1])
        c = np.cumsum(d)
        starts = np.cumsum(counts) - counts
        c_before = np.where(starts > 0, c[starts - 1], 0)
        base = np.where(need > 0, self.block_last_doc[need - 1], 0)
        at = ragged_arange(need * BLOCK_SIZE, counts)
        self._docs[at] = c + np.repeat(base - c_before, counts)
        self._tfs[at] = varint.decode_u64_stream(
            self._stream(1, need)).astype(np.int64)
        self._done[need] = True
        self.blocks_decoded += len(need)

    def _rows(self, blocks: np.ndarray) -> np.ndarray:
        """Flat posting indices of the sorted-unique ``blocks``, decoded."""
        self.ensure_blocks(blocks)
        return ragged_arange(blocks * BLOCK_SIZE, self._block_counts(blocks))

    def blocks_view(self, blocks: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
        """(doc ids, tfs) of the sorted-unique ``blocks``, concatenated:
        ascending, since blocks cover disjoint ascending doc ranges."""
        r = self._rows(blocks)
        return self._docs[r], self._tfs[r]

    def _probe(self, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hit mask over the sorted-unique ``cand`` doc ids, posting
        index per hit): the blocks the candidates land in decode in one
        batch, and one searchsorted over them resolves every candidate."""
        hit = np.zeros(len(cand), dtype=bool)
        if not len(cand) or not self.nblocks:
            return hit, np.empty(0, dtype=np.int64)
        blk = np.searchsorted(self.block_last_doc, cand)
        blocks = np.unique(blk[blk < self.nblocks])
        if len(blocks) == self.nblocks:  # every block: search the list
            rows, docs = None, self.doc_ids
        else:
            rows = self._rows(blocks)
            if not len(rows):
                return hit, rows
            docs = self._docs[rows]
        pos = np.searchsorted(docs, cand)
        np.clip(pos, 0, len(docs) - 1, out=pos)
        np.equal(docs[pos], cand, out=hit)
        return hit, (pos[hit] if rows is None else rows[pos[hit]])

    def gather(self, cand: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
        """(hit mask over cand, tf per hit), decoding only the blocks the
        sorted-unique ``cand`` doc ids land in."""
        hit, rows = self._probe(cand)
        return hit, self._tfs[rows]

    def gather_positions(self, cand: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(hit mask over cand, flat positions of the hits in cand order,
        per-hit position counts) — the phrase-verification analogue of
        gather(): the blocks the hits land in decode their position
        streams in one varint call. Position gap chains restart at every
        posting (one posting = one doc), so any block set decodes on its
        own: flat cumsum rebased at each posting's start."""
        hit, rows = self._probe(cand)
        if not len(rows):
            return hit, rows, rows
        if not self.has_positions:
            raise ValueError("LazyPostings loaded without pos_gaps")
        blocks = np.unique(rows // BLOCK_SIZE)
        span = self._rows(blocks)
        tf = self._tfs[span]
        c = np.cumsum(varint.decode_u64_stream(
            self._stream(2, blocks)).astype(np.int64))
        occ = np.cumsum(tf) - tf  # each posting's first occurrence
        pos = c - np.repeat(np.where(occ > 0, c[occ - 1], 0), tf)
        j = np.searchsorted(span, rows)
        counts = tf[j]
        return hit, pos[ragged_arange(occ[j], counts)], counts


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

def read_index_manifest(index_dir: str) -> dict:
    """The manifest of a complete index in the current layout: postings
    hold per-shard ordinals (v18), segment rows are keyed by term id
    (v20) and the avgdl of every shard's block-max bounds is recorded
    (v21). FileNotFoundError when the build has not finished; ValueError
    for an older layout, whose reading would mis-score or miss terms
    without an error."""
    man = read_manifest(index_dir)
    if man is None or not {"terms", "segments"} <= set(
            man.get("stages_done", [])):
        raise FileNotFoundError(f"no complete index at {index_dir}")
    stats = man["stats"]
    for current, layout in (
            (stats.get("posting_format") == "ordinal",
             "ordinal posting layout (v18)"),
            (stats.get("segment_key") == "term_id",
             "term-id segment layout (v20)"),
            ("bound_avgdl" in stats, "recorded block-max avgdl (v21)")):
        if not current:
            raise ValueError(
                f"index at {index_dir} predates the {layout}; rebuild it "
                "with build_index(force=True)")
    return man


def shard_bound_avgdl(stats: dict, shard: int) -> float:
    """The avgdl ``shard``'s stored block-max bounds were computed at.
    ``stats["bound_avgdl"]`` lists ``[first_shard, avgdl]`` per
    generation, in shard order: build writes one entry, each append one
    for its new shards, and refresh_block_max collapses the list to the
    current avgdl."""
    return [a for first, a in stats["bound_avgdl"] if first <= shard][-1]


def write_manifest(index_dir: str, payload: dict) -> None:
    payload = dict(payload)
    payload["written_at"] = time.time()
    tmp = os.path.join(index_dir, "manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(payload, f, indent=1, sort_keys=True)
    os.replace(tmp, os.path.join(index_dir, "manifest.json"))


def read_manifest(index_dir: str) -> dict | None:
    path = os.path.join(index_dir, "manifest.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        return json.load(f)


def read_parquet_dir(dirpath: str, columns: list[str] | None = None
                     ) -> pa.Table:
    """Every ``*.parquet`` file of a directory, concatenated in file-name
    order and memory-mapped. Unlike ``pq.read_table(dirpath)`` this
    reads through ``pq.ParquetFile`` and never imports pyarrow.dataset
    (~45 MB RSS with the pandas it pulls in), which keeps it fit for
    the serving processes. Subdirectories are not descended into."""
    files = sorted(f for f in os.listdir(dirpath) if f.endswith(".parquet"))
    if not files:
        raise FileNotFoundError(f"no parquet files in {dirpath}")
    return pa.concat_tables(
        [pq.ParquetFile(os.path.join(dirpath, f), memory_map=True)
         .read(columns=columns) for f in files])
