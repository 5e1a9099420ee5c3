"""Query serving: an actor pool over memory-mapped index segments.

Mirrors the reference csolver topology (SURVEY.md §3.2/§3.3) Ray-natively:
each SegmentSearcher actor owns a set of document shards, loads their
segment + docmeta parquet once in __init__ (T3), evaluates the boolean plan
against its shards, scores candidates with BM25 and returns a per-actor
top-k; the driver merges descending (R6 semantics: csolver.cpp:94-121).

Scoring is BM25 (k1=1.2, b=0.75 — documented choice; the reference defines
no BM25 constants, SURVEY.md preamble) with Lucene-style idf
ln(1 + (N - df + 0.5)/(df + 0.5)). N and avgdl come from the build
manifest, each term's id and global df from the terms table, read once
per process role as one ``Vocabulary``. A searcher uses it to find a
term's segment rows, which are keyed by term id. The engine (the
driver's, or a frontend's) resolves each plan term once: its df gives
the idf shipped with the query, and its id routes the query exactly,
only to the searchers whose shards hold a plan term, from each shard's
light ``term_id`` column read when the engine opens (the reference front
end fans out only to the csolvers that own the chunks, query.cpp:775-822).

One scoring core under the three strategies (block-max WAND over a
word-only disjunction, dense, sparse), each piece written once: one plan
walker (``plan_terms``, plus ``word_tree`` for a word-only disjunction),
one boolean evaluator over two set representations (``ShardIndex.eval``:
sorted arrays or bool masks), one BM25 accumulator (``ShardIndex._bm25``)
and one result formatter (``_result_rows``), run once per searcher on
its merged top k.

Boolean semantics (engine mode):
- AND/OR/SynOr → set intersection/union (J6, I3-I5)
- PHRASE → doc intersection + consecutive-position verification (I7) over
  within-doc positions (reference location semantics minus the global base)
- NOT: the reference csolver cannot serve NOT (live assert on a null
  excluded stream — see query/compile.py); this engine implements the
  documented intent: AND(a, NOT(b)) = a ∖ b; a bare/OR-side NOT
  contributes the empty set (J7).

Synonym terms (SynOr right subtrees) score with weight SYN_WEIGHT=0.4,
mirroring the reference ranker's synonym blend factor (Ranker.hpp:110).

Serving processes stay lean, like the reference's csolver nodes: a
frontend (compile, route, merge) runs inside a searcher process rather
than a process of its own, and what a searcher runs, frontend included,
imports numpy, pyarrow core and pyarrow.parquet only — never pandas or
pyarrow.dataset (~45 MB per actor; pinned by
tests/test_serving_imports.py).
"""

from __future__ import annotations

import bisect
import math
import os
import weakref
from functools import partial
from types import SimpleNamespace

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray

from ..kernels import arrowbuf
from ..query import compile as qc
from ..state import segments as seg
from ..state.lru import LRU
from ..state.sorted_strings import SortedStrings

SYN_WEIGHT = 0.4  # Ranker.hpp:110


# ---------------------------------------------------------------------------
# the plan walker (collectTerms analogue, Indexer.hpp:621-628, isr.cpp)
# ---------------------------------------------------------------------------

def plan_terms(node, synonym: bool = False, negated: bool = False,
               out: list | None = None) -> list[tuple[str, bool, bool]]:
    """Every term occurrence of a plan, left to right, as (stem,
    synonym, negated): the one walk every term list below filters. A
    SynOr's tail is synonym and a Not's child negated; a Word keeps an
    empty (stopword) stem, a Phrase drops its empty stems."""
    if out is None:
        out = []
    if isinstance(node, qc.Word):
        out.append((node.stem_, synonym, negated))
    elif isinstance(node, qc.Phrase):
        out.extend((s, synonym, negated) for s in node.stems if s)
    elif isinstance(node, qc.SynOr):
        plan_terms(node.left, synonym, negated, out)
        plan_terms(node.rest, True, negated, out)
    elif isinstance(node, (qc.And, qc.Or)):
        plan_terms(node.left, synonym, negated, out)
        plan_terms(node.right, synonym, negated, out)
    elif isinstance(node, qc.Not):
        plan_terms(node.child, synonym, True, out)
    return out


_DISJUNCTION = (qc.Or, qc.SynOr)


def word_tree(node) -> bool:
    """Whether the plan is a tree of Or/SynOr nodes over Word leaves
    only; a child may be absent (a SynOr chain's None tail)."""
    if node is None or isinstance(node, qc.Word):
        return True
    if not isinstance(node, _DISJUNCTION):
        return False
    rest = node.rest if isinstance(node, qc.SynOr) else node.right
    return word_tree(node.left) and word_tree(rest)


def _first_terms(occurrences, scoring: bool) -> list[tuple[str, bool]]:
    """(stem, synonym) per distinct stem, first occurrence wins
    (ISR_Tree::getFlattenedTerms). ``scoring`` drops negated
    occurrences (the negated side must not add relevance) and empty
    stems."""
    out, seen = [], set()
    for s, syn, neg in occurrences:
        if s not in seen and not (scoring and (neg or not s)):
            seen.add(s)
            out.append((s, syn))
    return out


def flatten_terms(node):
    """(term, is_synonym) in left-to-right traversal order, deduped by term
    string — first occurrence wins, NOT subtrees included."""
    return _first_terms(plan_terms(node), False)


def scoring_terms(node):
    """Terms that contribute BM25 score: flattened terms excluding NOT
    subtrees and stopwords."""
    return _first_terms(plan_terms(node), True)


def pure_disjunction_terms(node, idf: dict[str, float]):
    """If the plan is a pure disjunction of words (Or/SynOr over Word
    leaves only), return [(term, idf*weight)] for the WAND path; else
    None. Duplicate terms keep their first weight (flatten semantics)."""
    if not word_tree(node):
        return None
    return [(t, (SYN_WEIGHT if syn else 1.0) * idf.get(t, 0.0))
            for t, syn in scoring_terms(node)]


# ---------------------------------------------------------------------------
# per-shard evaluation
# ---------------------------------------------------------------------------

_EMPTY = np.empty(0, dtype=np.int64)


def _intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted-unique arrays by probing the larger
    with the smaller — O(min log max), no concatenate-and-sort."""
    if len(a) > len(b):
        a, b = b, a
    if not len(a) or not len(b):
        return a[:0]
    ix = np.searchsorted(b, a)
    ix[ix == len(b)] = 0
    return a[b[ix] == a]


def _topk_tie_aware(docs: np.ndarray, scores: np.ndarray, k: int
                    ) -> np.ndarray:
    """Indices of the lexicographic (-score, doc_id) top-k in O(n):
    argpartition picks strict winners, boundary ties fill with the
    smallest doc_ids, final order by (-score, doc_id)."""
    n = len(docs)
    if n > k:
        kth = -np.partition(-scores, k - 1)[k - 1]
        win = np.nonzero(scores > kth)[0]
        tie = np.nonzero(scores == kth)[0]
        need = k - len(win)
        if need > 0 and len(tie) > need:
            tie = tie[np.argpartition(docs[tie], need - 1)[:need]]
        top = np.concatenate([win, tie[:max(need, 0)]])
    else:
        top = np.arange(n)
    return top[np.lexsort((docs[top], -scores[top]))][:k]


def _seek_all(views: list) -> np.ndarray:
    """Docs in every one of the postings ``views``: the rarest list
    seeds the candidates, each other list, rarest first, is probed
    block-lazily (LazyPostings.gather decodes only the 128-doc blocks
    the candidates land in — the reference's skip-table seek,
    SeekDocumentPost, Posts.hpp:448-473)."""
    views = sorted(views, key=lambda lz: lz.df)
    cand = views[0].doc_ids
    for lz in views[1:]:
        if not len(cand):
            break
        cand = cand[lz.gather(cand)[0]]
    return cand


def _index_of(ids: memoryview, tid: int) -> int | None:
    """Position of ``tid`` in the sorted ``ids``, or None when absent
    (bisect over a memoryview costs a tenth of a scalar np.searchsorted
    call)."""
    i = bisect.bisect_left(ids, tid)
    return i if i < len(ids) and ids[i] == tid else None


def _ranked(cand: np.ndarray, scores: np.ndarray, k: int
            ) -> list[tuple[float, int]]:
    """The (-score, doc_id) top-k of scored candidates as (score,
    ordinal) pairs, the form every scoring strategy returns."""
    return [(float(scores[i]), int(cand[i]))
            for i in _topk_tie_aware(cand, scores, k)]


def _result_rows(hits) -> list[tuple[float, int, str, str]]:
    """(score, doc_id, url, title) of each (score, shard, ordinal) hit:
    the one place a result gets its doc id and docmeta."""
    return [(s, int(sh.doc_ids[o])) + sh.doc_meta(o) for s, sh, o in hits]


def _union_arrays(n: int, lists: list) -> np.ndarray:
    if len(lists) > 1:
        return np.unique(np.concatenate(lists))
    return lists[0] if lists else _EMPTY


def _union_masks(n: int, lists: list) -> np.ndarray:
    m = np.zeros(n, dtype=bool)
    for docs in lists:
        m[docs] = True  # postings ARE dense positions
    return m


# The evaluator's two doc-set representations, with the same operations
# (``of``: the union of sorted doc lists; ``docs``: to sorted ordinals).
# Sorted-unique arrays suit selective plans and never write an operand
# (a leaf may be a cached posting list); bool masks suit heavy plans
# (bitwise algebra, no sort or merge) and run in place on fresh masks.
_ARRAYS = SimpleNamespace(
    of=_union_arrays, inter=_intersect_sorted,
    minus=partial(np.setdiff1d, assume_unique=True), union=np.union1d,
    docs=lambda s: s)
_MASKS = SimpleNamespace(
    of=_union_masks, inter=lambda a, b: np.logical_and(a, b, out=a),
    minus=lambda a, b: np.logical_and(a, ~b, out=a),
    union=lambda a, b: np.logical_or(a, b, out=a), docs=np.flatnonzero)


class Vocabulary:
    """The index's terms table in a form a lookup can search: the byte-
    sorted ``term`` strings under one SortedStrings, and each row's
    ``term_id``, the key of the term's segment rows, and ``df``, its
    document count over every shard. Read once per process role (a
    searcher's shards share one; an engine resolves its plan terms in
    another); the table is immutable until an append or a rebuild
    replaces it, after which a new Vocabulary reads the new one."""

    __slots__ = ("_terms", "_index", "_ids", "_dfs", "_rows")

    def __init__(self, index_dir: str):
        t = seg.read_parquet_dir(os.path.join(index_dir, "terms"),
                                 columns=["term", "term_id", "df"])
        self._terms = t.column("term").combine_chunks()
        self._index = SortedStrings(self._terms)
        # memoryview: indexing it yields an int ~4× faster than numpy
        self._ids = memoryview(arrowbuf.view(t.column("term_id"), np.int32))
        self._dfs = memoryview(arrowbuf.view(t.column("df"), np.int64))
        self._rows = None  # term_id → row, built on first strings()

    def find(self, term: str) -> tuple[int, int] | None:
        """The term's (term_id, df), or None when no shard holds it."""
        i = self._index.find(term.encode())
        return None if i is None else (self._ids[i], self._dfs[i])

    def strings(self, ids: np.ndarray) -> list[str]:
        """The term of each id (testing and diagnostics)."""
        if self._rows is None:
            ids_np = np.asarray(self._ids)
            self._rows = np.empty(int(ids_np.max(initial=-1)) + 1,
                                  dtype=np.int64)
            self._rows[ids_np] = np.arange(len(ids_np))
        return [self._terms[int(r)].as_py() for r in self._rows[ids]]


class ShardIndex:
    """One document shard: block-lazy posting lists + doc attributes.

    Parquet files are opened memory-mapped; a term's row becomes one
    seg.LazyPostings view on first lookup, whose blocks decode on first
    probe (mirrors the csolver mmap+read-on-demand, main.cpp:59-108).
    Every cache here is a bounded LRU: 256 row groups, 1024 postings
    views and 512 phrase results per shard.

    Doc values inside posting lists are per-shard dense ORDINALS — the
    doc's position in the shard's doc_id-sorted docmeta (assigned at
    merge time, pipelines/exchange.py). Ordinals are monotone in doc_id,
    so all sorted-set algebra, tie-breaking and block metadata work
    unchanged; dense scoring indexes the docmeta arrays directly, and
    results map back to real doc ids only at output time.

    Scoring (``topk``): WAND for a word-only disjunction, else ``eval``
    then ``_bm25`` over dense masks or sorted arrays; every path yields
    (score, ordinal) pairs, which ``score_topk`` formats.

    Segment rows are keyed by ``term_id`` and sorted by it; the strings
    live once, in the index's terms table (``Vocabulary``), which a
    searcher reads once and hands to each of its shards as ``vocab``. A
    shard opened without one reads its own. A lookup is one string
    search in the vocabulary and one integer search in the shard.

    A one-block row (df ≤ 128) stores null block metadata: its view
    takes its last doc and its WAND bound from its decode
    (seg.LazyPostings). Null metadata on a longer row raises, naming
    the shard and term.

    Opening a shard imports nothing beyond pyarrow.parquet: doc_id/dl
    become numpy through buffer views (kernels/arrowbuf.py). Every shard
    dir holds ONE parquet file (exchange.write_shard_dir, for build and
    append alike); any other layout raises, naming the dir.
    """

    # segment columns read at open (heavy ones page in per row group)
    _LIGHT = ("df", "block_last_doc", "block_max_impact", "block_offs")

    def __init__(self, index_dir: str, shard: int, wand_ok: bool = True,
                 vocab: Vocabulary | None = None,
                 bound_avgdl: float | None = None):
        # bound_avgdl: the avgdl of the stored block-max bounds, which
        # WAND scales to the query's (seg.shard_bound_avgdl); None trusts
        # them as stored. wand_ok=False pins the exhaustive paths.
        self.wand_ok = wand_ok
        self.bound_avgdl = bound_avgdl
        self.shard = shard
        seg_path = os.path.join(index_dir, "segments", f"shard={shard}")
        doc_path = os.path.join(index_dir, "docmeta", f"shard={shard}")
        # COLD-START IS METADATA-ONLY: posting/position byte columns are
        # ~96% of a segment's size but only touched terms ever need
        # them, so init reads just the light columns (term_id, df, block
        # metadata — null on one-block rows; measured 90× cheaper) and
        # heavy cells page in PER ROW GROUP on first touch (segment row
        # groups are byte-bounded, ~128 KB and at most 2,048 rows:
        # exchange._write_byte_bounded). At 100 TB an actor hosting
        # GB-scale shards boots in metadata time and its resident set
        # tracks the queried vocabulary, not the corpus.
        self._rg_cache = LRU(256)
        self._seg = self._open_lazy(seg_path)
        t = self._seg[0].read(columns=list(self._LIGHT) + ["term_id"])
        # segment rows are written sorted by term id (_index_of)
        self._term_ids = memoryview(arrowbuf.view(t.column("term_id"),
                                                  np.int32))
        self._table = t
        self._dfs = memoryview(arrowbuf.view(t.column("df"), np.int64))
        self._postings = LRU(1024)
        self._phrase_cache = LRU(512)  # the index is immutable
        # docmeta: scoring needs doc_id+dl for every doc; url/title only
        # for the ≤k result rows per query — paged in per row group too
        self._docs = self._open_lazy(doc_path)
        d = self._docs[0].read(columns=["doc_id", "dl"])
        doc_ids = arrowbuf.view(d.column("doc_id"), np.int64)
        order = np.argsort(doc_ids)
        self.doc_ids = doc_ids[order]
        self.dls = arrowbuf.view(d.column("dl"), np.int32)[order]
        self._doc_order = order  # ordinal → on-disk row
        self._vocab = vocab if vocab is not None else Vocabulary(index_dir)

    @staticmethod
    def _open_lazy(dirpath: str):
        """(ParquetFile, row-group starts) of a shard dir's one file."""
        files = [f for f in sorted(os.listdir(dirpath))
                 if f.endswith(".parquet")]
        if len(files) != 1:
            raise ValueError(
                f"shard dir {dirpath} holds {len(files)} parquet files, "
                "not one; rebuild the index with build_index(force=True)")
        pf = pq.ParquetFile(os.path.join(dirpath, files[0]),
                            memory_map=True)
        starts = np.cumsum(
            [0] + [pf.metadata.row_group(g).num_rows
                   for g in range(pf.metadata.num_row_groups)])[:-1]
        return pf, starts

    def _cells(self, part: tuple, i: int, columns: tuple) -> tuple:
        """Row ``i``'s cells of ``columns`` in ``part`` (_open_lazy's
        file and row-group starts), paging its row group's columns in
        with ONE read on first touch (bounded LRU)."""
        pf, starts = part
        g = int(np.searchsorted(starts, i, side="right") - 1)
        key = (g, columns)
        cols = self._rg_cache.get(key)
        if cols is None:
            # use_threads=False: the default thread-pool dispatch costs
            # ~12 ms per small read vs ~0.9 ms single-threaded
            cols = pf.read_row_group(g, columns=list(columns),
                                     use_threads=False).columns
            self._rg_cache.put(key, cols)
        return tuple(c[i - int(starts[g])].as_py() for c in cols)

    def vocab(self) -> list[str]:
        """All terms in this shard, in row order (testing/diagnostics)."""
        return self._vocab.strings(np.asarray(self._term_ids))

    def _find_row(self, term: str) -> int | None:
        hit = self._vocab.find(term)
        return None if hit is None else _index_of(self._term_ids, hit[0])

    def _entry(self, term: str) -> tuple:
        """The term's (segment row, postings view) cache entry: the row
        is None when the shard lacks the term, the view None until a
        lookup builds it. One vocabulary search per cached term, whether
        a gate's ``_df`` or a ``lookup`` asks first."""
        hit = self._postings.get(term)
        if hit is None:
            hit = (self._find_row(term), None)
            self._postings.put(term, hit)
        return hit

    def lookup(self, term: str, positions: bool = False
               ) -> "seg.LazyPostings | None":
        """The term's postings view, or None when the shard lacks it.
        Nothing decodes here beyond the O(df/128) block metadata: doc/tf
        blocks decode on first probe through the block_offs seek table,
        and the pos byte stream — the largest column — pages in only
        when ``positions`` is requested (phrase plans). Views and misses
        share the bounded postings LRU, each cached with its segment
        row so positions page in without another vocabulary search."""
        i, lz = self._entry(term)
        if i is not None and lz is None:
            row = {name: self._table.column(name)[i].as_py()
                   for name in self._LIGHT}
            row["doc_gaps"], row["tfs"] = self._cells(
                self._seg, i, ("doc_gaps", "tfs"))
            lz = seg.LazyPostings(
                row, where=f"shard {self.shard} term {term!r}")
            self._postings.put(term, (i, lz))
        if positions and lz is not None and not lz.has_positions:
            lz.add_positions(*self._cells(self._seg, i, ("pos_gaps",)))
        return lz

    def doc_meta(self, ordinal: int) -> tuple[str, str]:
        """(url, title) of a doc by its shard ordinal — paged in per
        row group (only the ≤k result rows per query ever need them);
        both columns fetch in ONE group read."""
        return self._cells(self._docs, int(self._doc_order[ordinal]),
                           ("url", "title"))

    def doc_dl(self, cand: np.ndarray) -> np.ndarray:
        """dl per doc ordinal — direct index into the docmeta order."""
        return self.dls[cand]

    # -- boolean algebra ----------------------------------------------------
    def eval(self, node, dense: bool = False) -> np.ndarray:
        """The plan's candidate set, as sorted doc ordinals: AND, word
        unions, NOT on either side of an AND, a bare or OR-side NOT as
        the empty set. ``dense`` evaluates over bool masks, else over
        sorted arrays (_MASKS, _ARRAYS): the same set either way."""
        sets = _MASKS if dense else _ARRAYS
        return sets.docs(self._eval(node, sets))

    def _eval(self, node, sets):
        n = len(self.doc_ids)
        if node is not None and word_tree(node):
            # word-only disjunction subtrees union in one shot (62-term
            # synonym chains would otherwise do 62 pairwise unions)
            views = (self.lookup(s) for s, _, _ in plan_terms(node))
            return sets.of(n, [tp.doc_ids for tp in views if tp is not None])
        if isinstance(node, qc.Phrase):
            return sets.of(n, [self._eval_phrase([s for s in node.stems
                                                  if s])])
        if isinstance(node, qc.And):
            l, r = node.left, node.right
            if isinstance(r, qc.Not):
                return sets.minus(self._eval(l, sets),
                                  self._eval(r.child, sets))
            if isinstance(l, qc.Not):
                return sets.minus(self._eval(r, sets),
                                  self._eval(l.child, sets))
            return sets.inter(self._eval(l, sets), self._eval(r, sets))
        if isinstance(node, _DISJUNCTION):
            rest = node.right if isinstance(node, qc.Or) else node.rest
            return sets.union(self._eval(node.left, sets),
                              self._eval(rest, sets))
        if node is None or isinstance(node, qc.Not):
            return sets.of(n, [])
        raise TypeError(type(node))

    def _eval_phrase(self, terms: list[str]) -> np.ndarray:
        if not terms:
            return _EMPTY
        key = tuple(terms)
        hit = self._phrase_cache.get(key)
        if hit is None:
            hit = self._eval_phrase_uncached(terms)
            self._phrase_cache.put(key, hit)
        return hit

    def _eval_phrase_uncached(self, terms: list[str]) -> np.ndarray:
        """Docs holding ``terms`` at consecutive positions: the docs
        holding them all (_seek_all), position-verified through
        gather_positions, so a frequent companion decodes only the
        blocks the candidates land in, docs AND positions."""
        views = [self.lookup(t, positions=True) for t in terms]
        if any(lz is None for lz in views):
            return _EMPTY
        cand = _seek_all(views)
        if len(views) == 1:  # every posting holds >= 1 position
            return cand
        if not len(cand):
            return _EMPTY
        # adjacency: intersect sorted (candidate ordinal, position - i)
        # keys in term order — no per-candidate Python loop; each term's
        # keys cover only the ordinals still alive after the previous
        # terms (ordinal values preserved, so the merge stays valid)
        alive = np.arange(len(cand), dtype=np.int64)
        keys = None
        for i, lz in enumerate(views):
            _, pos, counts = lz.gather_positions(cand[alive])
            ords = np.repeat(alive, counts)
            p = pos - i
            keep = p >= 0
            k_i = (ords[keep] << np.int64(32)) | p[keep]
            keys = k_i if keys is None else _intersect_sorted(keys, k_i)
            if not len(keys):
                return _EMPTY
            ords = keys >> np.int64(32)  # nondecreasing
            alive = ords[np.concatenate(([True], ords[1:] != ords[:-1]))]
        return cand[alive]

    def _views(self, weighted_terms: list[tuple[str, float]]
               ) -> list[tuple["seg.LazyPostings", float]]:
        """(postings, weight) of the weighted terms that can add score."""
        return [(tp, w) for tp, w in
                ((self.lookup(t), w) for t, w in weighted_terms)
                if tp is not None and w > 0 and tp.df]

    def _bm25(self, cand: np.ndarray,
              terms: list[tuple["seg.LazyPostings", float]], avgdl: float,
              full: bool = False) -> np.ndarray:
        """BM25 score of each sorted candidate ordinal: weight × impact
        (weight = (SYN_WEIGHT or 1.0) × idf) adds from 0.0 over ``terms``
        in order, the same float64 adds whichever way a term is read:
        into one full-shard vector when ``full`` or n_docs ≤ 4·|cand|
        (ordinals ARE its positions: no probes); by its postings probing
        the candidates when df < |cand| (sorted-unique both sides, so
        the += is exact); else by the candidates probing it through
        LazyPostings.gather, which decodes only the blocks they land in
        (a phrase's frequent terms stay block-lazy)."""
        n = len(self.doc_ids)
        if full or n <= 4 * len(cand):
            acc = np.zeros(n, dtype=np.float64)
            for tp, w in terms:
                di = tp.doc_ids
                acc[di] += w * seg.bm25_impact(tp.tfs, self.dls[di], avgdl)
            return acc[cand]
        dls = self.dls[cand]
        scores = np.zeros(len(cand), dtype=np.float64)
        for tp, w in terms:
            if tp.df < len(cand):
                pos = np.searchsorted(cand, tp.doc_ids)
                np.clip(pos, 0, len(cand) - 1, out=pos)
                hit = cand[pos] == tp.doc_ids
                ci = pos[hit]
                scores[ci] += w * seg.bm25_impact(tp.tfs[hit], dls[ci],
                                                  avgdl)
            else:
                hit, tfs = tp.gather(cand)
                scores[hit] += w * seg.bm25_impact(tfs, dls[hit], avgdl)
        return scores

    def exhaustive_topk(self, weighted_terms: list[tuple[str, float]],
                        k: int, avgdl: float) -> list[tuple[float, int]]:
        """Vectorized exhaustive union-scorer for a weighted term list —
        the no-skip baseline wand_topk is measured against (bench) and
        must match exactly (tests). Returns (score, doc ORDINAL), like
        wand_topk."""
        terms = self._views(weighted_terms)
        if not terms:
            return []
        cand = np.unique(np.concatenate([tp.doc_ids for tp, _ in terms]))
        return _ranked(cand, self._bm25(cand, terms, avgdl), k)

    # -- vectorized block-max WAND (pure-disjunction top-k, scale path) -----
    _WAND_BATCH = 32  # intervals scored per vector pass

    def wand_topk(self, weighted_terms: list[tuple[str, float]], k: int,
                  avgdl: float) -> list[tuple[float, int]]:
        """Vectorized block-max WAND (skip idea of Broder'03 / Ding &
        Suel'11; the reference's analogue is the posting skip table,
        Posts.hpp:353-369), reformulated block-at-a-time so every step is
        a numpy kernel instead of a per-doc cursor loop:

        1. Overlay all terms' 128-doc block boundaries into ELEMENTARY
           INTERVALS of the doc-id axis; each interval's upper bound is
           the sum of the covering blocks' max impacts (one sort +
           cumsum over ≤ 2·Σblocks boundary events).
        2. Visit intervals best-bound-first in batches; score each
           batch's docs through ``_bm25``, the exhaustive path's
           accumulator.
        3. Stop when the next interval's bound is strictly below the
           current k-th score — remaining docs can neither beat nor tie
           it. Ties at the boundary therefore match the exhaustive
           path's smallest-doc-id rule exactly (same float-add order,
           same lexicographic (-score, doc_id) selection).
        """
        # the interval overlay needs only block metadata, and the score
        # loop decodes just the visited intervals' blocks — a frequent
        # term whose low-impact blocks are pruned is never decoded there
        tws = self._views(weighted_terms)
        if not tws:
            return []
        # interval overlay: +ub at block start, -ub past block end;
        # nextafter leaves one float64 ulp of slack for the envelope's
        # running sum (a bound a hair too low could skip a genuine tie)
        xs, deltas = [], []
        for tp, w in tws:
            ub = np.nextafter(tp.block_bounds(self.dls, avgdl,
                                              self.bound_avgdl), np.inf) * w
            lasts = tp.block_last_doc
            starts = np.empty_like(lasts)
            starts[0] = tp.block_docs(0)[0]
            starts[1:] = lasts[:-1] + 1
            xs.append(starts)
            deltas.append(ub)
            xs.append(lasts + 1)
            deltas.append(-ub)
        x = np.concatenate(xs)
        d = np.concatenate(deltas)
        ev = np.argsort(x, kind="stable")
        env = np.cumsum(d[ev])
        ux, first = np.unique(x[ev], return_index=True)
        env_u = env[np.concatenate((first[1:], [len(x)])) - 1]
        lo, hi, ub_int = ux[:-1], ux[1:], env_u[:-1]
        live = ub_int > 0
        lo, hi, ub_int = lo[live], hi[live], ub_int[live]
        visit = np.argsort(-ub_int, kind="stable")

        best_docs = np.empty(0, np.int64)
        best_scores = np.empty(0, np.float64)
        thresh = -np.inf
        i = 0
        batch = self._WAND_BATCH
        done = False
        while i < len(visit) and not done:
            take = visit[i:i + batch]
            i += len(take)
            # geometric growth: when pruning isn't biting (flat envelope,
            # e.g. several frequent terms over hash-uniform doc ids) the
            # pass count stays O(log intervals), bounding the overhead vs
            # the exhaustive scan to ~one extra partial pass
            batch *= 4
            if len(best_docs) >= k:
                # keep only intervals still able to beat OR TIE the kth;
                # everything past the cut is below it too (ub-descending)
                cut = int(np.searchsorted(-ub_int[take], -thresh,
                                          side="right"))
                if cut == 0:
                    break
                if cut < len(take):
                    take, done = take[:cut], True
            docs_l = []
            for tp, _ in tws:
                # every interval lies inside ONE block of this term (its
                # own block edges are interval boundaries): decode only
                # the touched blocks and keep their docs in the batch
                blk = np.searchsorted(tp.block_last_doc, lo[take])
                need = np.unique(blk[blk < tp.nblocks])
                if len(need):
                    t_docs, _ = tp.blocks_view(need)
                    a = np.searchsorted(t_docs, lo[take])
                    cnt = np.searchsorted(t_docs, hi[take]) - a
                    docs_l.append(t_docs[seg.ragged_arange(a, cnt)])
            docs = np.unique(np.concatenate(docs_l)) if docs_l else _EMPTY
            if len(docs):
                # the exhaustive path's accumulator, hence its float adds;
                # its candidate probes find the blocks decoded above
                scores = self._bm25(docs, tws, avgdl)
                if len(docs) > k:  # O(n) local reduce before the merge
                    keep = _topk_tie_aware(docs, scores, k)
                    docs, scores = docs[keep], scores[keep]
                bd = np.concatenate((best_docs, docs))
                bs = np.concatenate((best_scores, scores))
                sel = np.lexsort((bd, -bs))[:k]
                best_docs, best_scores = bd[sel], bs[sel]
                if len(best_docs) >= k:
                    thresh = best_scores[-1]
        return [(float(s), int(dd))
                for s, dd in zip(best_scores, best_docs)]

    # -- scoring ------------------------------------------------------------
    def _df(self, term: str) -> int:
        """The term's df in this shard, 0 when absent: from the light
        metadata at its cached row (a gate probe decodes and pages in no
        posting bytes)."""
        i = self._entry(term)[0]
        return 0 if i is None else self._dfs[i]

    def score_topk(self, plan, k: int, idf: dict[str, float],
                   avgdl: float) -> list[tuple[float, int, str, str]]:
        """The plan's top-k on this shard as (score, doc_id, url, title)
        rows, in (-score, doc_id) order."""
        return _result_rows((s, self, o)
                            for s, o in self.topk(plan, k, idf, avgdl))

    def topk(self, plan, k: int, idf: dict[str, float],
             avgdl: float) -> list[tuple[float, int]]:
        """The plan's top-k on this shard as (score, doc ORDINAL) pairs,
        unformatted, from the first strategy whose gate admits it."""
        # pure disjunctions take the vectorized block-max WAND path (no
        # full-candidate materialization; whole intervals that cannot
        # reach the top-k are never decoded). Very large synonym
        # expansions overlay too many block boundaries to pay off — cap;
        # and below a few thousand matching postings the interval
        # overlay costs more than just scoring everything (measured:
        # 0.3 ms vs 0.15 ms on a 2k-doc shard, but 4.6× the other way
        # on a 64k-doc shard), so small lookups stay exhaustive.
        wand_terms = (pure_disjunction_terms(plan, idf)
                      if self.wand_ok else None)
        if wand_terms is not None and len(wand_terms) <= 32 \
                and sum(self._df(t) for t, _ in wand_terms) \
                >= 4096 * max(1, len(wand_terms)):
            return self.wand_topk(wand_terms, k, avgdl)
        # heavy plans (leaf postings a sizable fraction of the shard)
        # evaluate as dense bitmaps and score into one full-shard
        # vector; selective plans keep the sorted-array algebra. The
        # evaluation looks every term up, so the gate does it first.
        occ = plan_terms(plan)
        views = [self.lookup(t) for t, _ in _first_terms(occ, False)]
        dense = 4 * sum(tp.df for tp in views if tp is not None) \
            >= len(self.doc_ids)
        cand = self.eval(plan, dense)
        if not len(cand):
            return []
        scored = self._views([(t, (SYN_WEIGHT if syn else 1.0) * idf[t])
                              for t, syn in _first_terms(occ, True)
                              if t in idf])
        return _ranked(cand, self._bm25(cand, scored, avgdl, full=dense),
                       k)


@ray.remote(concurrency_groups={"front": 1})
class SegmentSearcher:
    """Actor owning several shards (T3: state loaded once in __init__)
    and, after ``open_frontend``, a query frontend, on two threads. The
    default group's thread scores (``ready``, ``search``, ``score_many``)
    and is the only one touching ``ShardIndex`` state, so no lock. The
    ``front`` thread runs the frontend, which fans out to every searcher,
    this one included, by the normal RPC; score methods never call out,
    so that wait has no deadlock cycle. A frontend needs no process of
    its own: a bare Ray actor is ~120 MB before it imports anything."""

    def __init__(self, index_dir: str, shards: list[int],
                 bound_avgdls: list[float]):
        vocab = Vocabulary(index_dir)  # one copy for every shard here
        self.shards = [ShardIndex(index_dir, s, vocab=vocab,
                                  bound_avgdl=a)
                       for s, a in zip(shards, bound_avgdls)]
        self._front: SearchEngine | None = None

    def ready(self) -> bool:
        return True

    def search(self, plan, k: int, idf: dict[str, float],
               avgdl: float) -> list[tuple[float, int, str, str]]:
        # merge the shards' unformatted top-k; only the k winners read
        # their docmeta
        hits = [(s, sh, o) for sh in self.shards
                for s, o in sh.topk(plan, k, idf, avgdl)]
        hits.sort(key=lambda h: (-h[0], int(h[1].doc_ids[h[2]])))
        return _result_rows(hits[:k])

    def score_many(self, plans: list, k: int, idfs: list[dict],
                   avgdl: float) -> list[list[tuple]]:
        """Batch scoring: many queries in ONE RPC. Driver fan-out cost
        becomes O(actors) per batch instead of O(actors × queries) —
        the throughput-mode analogue of the reference csolver reading a
        socket stream of queries per node."""
        return [self.search(p, k, i, avgdl)
                for p, i in zip(plans, idfs)]

    @ray.method(concurrency_group="front")
    def open_frontend(self, index_dir: str, actors: list,
                      use_synonyms: bool = True,
                      actor_shards: list | None = None) -> None:
        """Host a shared-pool SearchEngine over ``actors``; a second open
        raises rather than serve with another pool's settings."""
        if self._front is not None:
            raise ValueError("searcher already hosts an open frontend")
        self._front = SearchEngine(index_dir, use_synonyms=use_synonyms,
                                   actors=actors,
                                   actor_shards=actor_shards)

    @ray.method(concurrency_group="front")
    def close_frontend(self) -> None:
        self._front = None

    @ray.method(concurrency_group="front")
    def search_many(self, queries: list[str], k: int = 10
                    ) -> list[pa.RecordBatch]:
        """One result RecordBatch per query (FrontendPool.search_stream
        turns them into the tables ``SearchEngine.search`` returns).
        Not tables: Ray pickles a ``pa.Table`` through its own reducer,
        which imports ray.air and with it pandas (~40 MB in every
        searcher), while a RecordBatch pickles through pyarrow's."""
        if self._front is None:
            raise ValueError("no frontend open on this searcher")
        # each table is built from one batch: one chunk per column
        return [pa.RecordBatch.from_arrays(
                    [c.chunk(0) for c in t.columns], schema=t.schema)
                for t in self._front.search_batch(queries, k)]


# ---------------------------------------------------------------------------
# driver-side engine
# ---------------------------------------------------------------------------

RESULT_SCHEMA = pa.schema([("rank", pa.int64()), ("score", pa.float64()),
                           ("doc_id", pa.int64()), ("url", pa.string()),
                           ("title", pa.string())])


def result_batch(merged: list[tuple[float, int, str, str]]
                 ) -> pa.RecordBatch:
    """Merged (score, doc_id, url, title) rows as a ranked result batch,
    built from buffers (``pa.array`` would import pandas)."""
    scores, doc_ids, urls, titles = zip(*merged) if merged else ((),) * 4
    return pa.RecordBatch.from_arrays(
        [arrowbuf.numbers(np.arange(1, len(merged) + 1), pa.int64()),
         arrowbuf.numbers(scores, pa.float64()),
         arrowbuf.numbers(doc_ids, pa.int64()),
         arrowbuf.strings(urls), arrowbuf.strings(titles)],
        schema=RESULT_SCHEMA)


def _held_term_ids(index_dir: str, shards: list[int]) -> memoryview:
    """The sorted distinct term ids of ``shards``' segment rows, read
    from their light ``term_id`` columns."""
    ids = [arrowbuf.view(ShardIndex._open_lazy(os.path.join(
               index_dir, "segments", f"shard={s}"))[0].read(
               columns=["term_id"]).column("term_id"), np.int32)
           for s in shards]
    return memoryview(np.unique(np.concatenate(
        ids + [np.empty(0, np.int32)])))


class SearchEngine:
    """Compile queries, fan out to the searcher pool, merge top-k.

    With ``actors`` it adopts a shared searcher pool (the frontend
    tier) and owns none. Results are ``pa.Table``s built from buffers
    (result_batch); the terms table is read file by file, so an
    engine in a frontend never imports pandas or pyarrow.dataset."""

    def __init__(self, index_dir: str, num_searchers: int | None = None,
                 use_synonyms: bool = True,
                 actors: list | None = None,
                 profile: str = "latency",
                 actor_shards: list[list[int]] | None = None):
        # an older layout (seg.read_index_manifest) would mis-score or
        # miss terms at query time — fail loud
        man = seg.read_index_manifest(index_dir)
        self.n_docs = man["stats"]["n_docs"]
        self.avgdl = man["stats"]["avgdl"]
        num_shards = man["stats"]["num_shards"]
        self._vocab = Vocabulary(index_dir)
        self.synsets = qc.get_default_synsets() if use_synonyms else None
        self._owns_actors = actors is None
        if self._owns_actors:
            n = num_searchers or self._pool_size(num_shards, profile)
            actor_shards = [list(range(i, num_shards, n))
                            for i in range(min(n, num_shards))]
            # each shard gets the avgdl its block-max bounds hold at
            actors = [SegmentSearcher.remote(index_dir, sh, [
                          seg.shard_bound_avgdl(man["stats"], s)
                          for s in sh]) for sh in actor_shards]
        # else a shared pool (frontend tier): only compile, fan out and
        # merge; actor_shards (parallel to actors) enables routing
        self.actors = list(actors)
        self._actor_shards = ([list(sh) for sh in actor_shards]
                              if actor_shards is not None else None)
        # per searcher, the sorted term ids its shards hold
        self._held = None if actor_shards is None else [
            _held_term_ids(index_dir, sh) for sh in self._actor_shards]
        if self._owns_actors:
            ray.get([a.ready.remote() for a in self.actors])

    @staticmethod
    def _pool_size(num_shards: int, profile: str) -> int:
        """Latency is bounded by the slowest actor's SERIAL shard loop
        (wants more actors: p50 104 → 76 ms at 3.2M docs going cpus/2 →
        cpus), but each actor adds ~0.3 ms of fan-out RPC (wants fewer:
        p50 19.5 → 14.7 ms at 98 shards going 32 → 16 actors), so aim at
        ≈ 8 shards per actor within [cpus/2, cpus]. ``throughput``: one
        searcher per core, for concurrent queries (a FrontendPool's
        frontends pay the per-query fan-out)."""
        cpus = max(1, int(ray.cluster_resources().get("CPU", 4)))
        if profile == "throughput":
            return min(num_shards, cpus)
        return min(num_shards, cpus,
                   max(cpus // 2, -(-num_shards // 8), 1))

    def _route(self, plan) -> tuple[list[int] | None, dict[str, float]]:
        """The searchers (indexes into ``actors``) a plan reaches, and
        the idf of each plan term, from one vocabulary probe per term:
        its id picks the searchers whose shards hold it, its df gives
        the idf. A searcher holding none of the plan's terms (negated
        ones included) has nothing to match, so an absent term reaches
        none; without ``actor_shards`` (None) the plan reaches every
        searcher."""
        idf, ids = {}, []
        for t, _ in flatten_terms(plan):
            hit = self._vocab.find(t)
            idf[t] = self._idf(0 if hit is None else hit[1])
            if hit is not None:
                ids.append(hit[0])
        if self._held is None:
            return None, idf
        return [ai for ai, held in enumerate(self._held)
                if any(_index_of(held, i) is not None for i in ids)], idf

    def _idf(self, df: int) -> float:
        return math.log(1.0 + (self.n_docs - df + 0.5) / (df + 0.5))

    def idf(self, term: str) -> float:
        hit = self._vocab.find(term)
        return self._idf(0 if hit is None else hit[1])

    def compile(self, query: str):
        # engine mode fixes the title decoration so '@' terms match the
        # index vocabulary (the compat path keeps the reference quirk)
        return qc.compile_query(query, self.synsets, title_stem_fix=True)

    def search(self, query: str, k: int = 10) -> pa.Table:
        return self.search_batch([query], k)[0]

    def search_batch(self, queries: list[str], k: int = 10
                     ) -> list[pa.Table]:
        """The one fan-out: one score_many RPC per actor for the whole
        query list (``search`` is this on one query)."""
        plans = [self.compile(q) for q in queries]
        live = [(qi, p) for qi, p in enumerate(plans) if p is not None]
        out: list[pa.Table] = [pa.Table.from_batches([result_batch([])])
                               for _ in queries]
        if not live:
            return out
        # exact routing per query: each actor scores only the sublist
        # of queries its shards hold a term of (results identical — a
        # skipped actor would have returned [] for those queries)
        routes = [self._route(p) for _, p in live]
        actor_qs: list[list[int]] = [[] for _ in self.actors]
        for j, (reach, _) in enumerate(routes):
            for ai in range(len(self.actors)) if reach is None else reach:
                actor_qs[ai].append(j)
        idfs = [idf for _, idf in routes]
        sub_plans = [p for _, p in live]
        futs, fut_qs = [], []
        put_cache: dict[tuple, tuple] = {}  # identical sublists (the
        # unrouted common case) serialize once, not once per actor
        for ai, qjs in enumerate(actor_qs):
            if not qjs:
                continue
            key = tuple(qjs)
            refs = put_cache.get(key)
            if refs is None:
                refs = (ray.put([sub_plans[j] for j in qjs]),
                        ray.put([idfs[j] for j in qjs]))
                put_cache[key] = refs
            futs.append(self.actors[ai].score_many.remote(
                refs[0], k, refs[1], self.avgdl))
            fut_qs.append(qjs)
        per_query: list[list] = [[] for _ in live]
        for parts, qjs in zip(ray.get(futs), fut_qs):
            for local, j in enumerate(qjs):
                per_query[j].extend(parts[local])
        for j, (qi, _) in enumerate(live):
            merged = sorted(per_query[j],
                            key=lambda r: (-r[0], r[1]))[:k]
            out[qi] = pa.Table.from_batches([result_batch(merged)])
        return out

    def close(self) -> None:
        if self._owns_actors:
            for a in self.actors:
                ray.kill(a)
        self.actors = []


# ---------------------------------------------------------------------------
# frontend tier: N query coordinators hosted by the shared searcher pool
# ---------------------------------------------------------------------------

STREAM_DEPTH = 2  # chunks in flight per frontend in search_stream


class FrontendPool:
    """Interactive serving through frontends hosted by the first
    ``min(n_frontends, len(actors))`` searchers (one per searcher): each
    compiles, fans out and merges on its own thread, in parallel, not on
    one driver loop (the reference runs one csolver *driver* per
    front-end machine, csolver/main.cpp). ``search_stream`` returns the
    same ``pa.Table``s as ``SearchEngine.search``, in input order. The
    searchers belong to their SearchEngine: ``close`` drops the hosted
    engines and kills nothing."""

    def __init__(self, index_dir: str, actors: list,
                 n_frontends: int = 4, use_synonyms: bool = True,
                 actor_shards: list | None = None):
        hosts = list(actors)[:n_frontends]
        opening = [a.open_frontend.remote(index_dir, list(actors),
                                          use_synonyms, actor_shards)
                   for a in hosts]
        self.frontends, errors = [], []
        # the hosted engines hold handles to every searcher, a cycle
        # Ray's handle counting never frees: a pool dropped unclosed
        # closes its frontends, so the searchers' owner can free them
        self._finalizer = weakref.finalize(self, _close_frontends,
                                           self.frontends)
        self._finalizer.atexit = False  # ray.shutdown frees them anyway
        for a, ref in zip(hosts, opening):
            try:
                ray.get(ref)
                self.frontends.append(a)
            except Exception as e:
                errors.append(e)
        if errors:  # close only what this pool opened
            self.close()
            raise errors[0]

    def search_stream(self, queries: list[str], k: int = 10,
                      chunk: int = 4) -> list[pa.Table]:
        """Bounded in-flight serving: at most ``STREAM_DEPTH`` chunks
        queued per frontend; each completion hands the NEXT chunk to
        whichever frontend freed up (ray.wait), so one slow frontend
        slows only its in-flight work instead of serializing a static
        share."""
        chunks = [(ci, queries[i:i + chunk])
                  for ci, i in enumerate(range(0, len(queries), chunk))]
        parts: list[list[pa.RecordBatch] | None] = [None] * len(chunks)
        pending: dict = {}  # future -> (chunk_index, frontend)
        nxt = 0
        for f in self.frontends * STREAM_DEPTH:
            if nxt >= len(chunks):
                break
            ci, qs = chunks[nxt]
            pending[f.search_many.remote(qs, k)] = (ci, f)
            nxt += 1
        while pending:
            done, _ = ray.wait(list(pending), num_returns=1)
            ci, f = pending.pop(done[0])
            parts[ci] = ray.get(done[0])
            if nxt < len(chunks):
                cj, qs = chunks[nxt]
                pending[f.search_many.remote(qs, k)] = (cj, f)
                nxt += 1
        return [pa.Table.from_batches([b])
                for part in parts for b in part or []]

    def close(self) -> None:
        for ref in self._finalizer() or ():
            try:
                ray.get(ref)
            except ray.exceptions.RayActorError:
                pass  # its searcher is gone, and its frontend with it
        self.frontends = []


def _close_frontends(frontends: list) -> list:
    """Ask each hosting searcher to drop its frontend; the refs to wait
    on. A no-op once Ray is shut down: the searchers went with it."""
    if not ray.is_initialized():
        return []
    return [f.close_frontend.remote() for f in frontends]
