"""Text analysis operators: language ID, quality scoring, fingerprinting.

All heuristics are deterministic and vectorizable per batch; intended for
the documents table (and at scale, the parsed-docs table).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..kernels.shingles import (shingle_hash_batch, sliding_min_per_segment,
                                tokenize_hash_batch, unique_per_segment)
from ..kernels.stemmer import STOPWORDS
from ..pipelines.datasets import read_table


def _tokens_per_doc(texts: pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(flat lowercased tokens, per-doc counts) with Python
    str.lower().split() semantics (empty edge tokens dropped)."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    n = len(texts)
    toks = pc.utf8_split_whitespace(pc.utf8_lower(texts))
    flat = pc.list_flatten(toks)
    counts = pc.list_value_length(toks).to_numpy(
        zero_copy_only=False).astype(np.int64)
    nonempty = pc.greater(pc.binary_length(flat), 0).to_numpy(
        zero_copy_only=False)
    if len(nonempty) and not nonempty.all():
        doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        flat = flat.filter(pa.array(nonempty))
        counts = np.bincount(doc_of[nonempty], minlength=n).astype(np.int64)
    return flat, counts

# language marker profiles: high-frequency function words per language
_LANG_MARKERS = {
    "en": {"the", "and", "of", "to", "in", "is", "that", "for", "with",
           "was", "this", "are"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "ein", "mit",
           "für", "von", "auf", "zu"},
    "fr": {"le", "la", "les", "et", "est", "une", "dans", "que", "pour",
           "des", "du", "pas"},
    "es": {"el", "la", "los", "las", "es", "una", "en", "que", "para",
           "por", "del", "con"},
}


def detect_lang(text: str) -> str:
    """n-gram/marker heuristic language ID: CJK charset check, then the
    language whose marker set covers the most tokens; 'und' when nothing
    matches."""
    if any("一" <= ch <= "鿿" for ch in text[:500]):
        return "zh"
    toks = text.lower().split()
    if not toks:
        return "und"
    best_lang, best = "und", 0
    for lang, markers in _LANG_MARKERS.items():
        score = sum(1 for t in toks if t in markers)
        if score > best:
            best_lang, best = lang, score
    return best_lang


_LANG_ORDER = list(_LANG_MARKERS)  # en, de, fr, es — tie-break priority


def lang_id(sf_dir: str):
    """Predicted language per document, vectorized: one Arrow tokenize
    pass, one is_in membership pass per language profile, segmented
    counts — no per-doc Python. Oracle-checkable (SQL_LANG_ID)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        texts = b.column("text").combine_chunks()
        n = len(texts)
        flat, counts = _tokens_per_doc(texts)
        doc_of = np.repeat(np.arange(n, dtype=np.int64), counts)
        scores = np.zeros((len(_LANG_ORDER), n), dtype=np.int64)
        for li, lang in enumerate(_LANG_ORDER):
            hits = pc.is_in(flat, value_set=pa.array(
                sorted(_LANG_MARKERS[lang]))).to_numpy(
                zero_copy_only=False)
            scores[li] = np.bincount(doc_of[hits], minlength=n)
        # first language with the (strictly positive) max — argmax's
        # first-tie rule matches the scalar strictly-greater scan
        best = np.argmax(scores, axis=0)
        has_any = scores.max(axis=0) > 0
        cjk = pc.match_substring_regex(
            pc.utf8_slice_codeunits(texts, 0, 500),
            "[一-鿿]").to_numpy(zero_copy_only=False)
        langs = np.asarray(_LANG_ORDER, dtype=object)[best]
        langs[~has_any] = "und"
        langs[cjk] = "zh"
        return pa.table({"doc_id": b.column("doc_id"),
                         "lang_pred": pa.array(langs, pa.string())})

    return ds.map_batches(fn, batch_format="pyarrow")


def _markers_sql(lang: str) -> str:
    return "[" + ",".join(f"'{w}'" for w in sorted(_LANG_MARKERS[lang])) \
        + "]"


SQL_LANG_ID = rf"""
WITH t AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'),
                     w -> w <> '') AS toks,
         regexp_matches(substring(text, 1, 500), '[一-鿿]') AS cjk
  FROM documents
), s AS (
  SELECT doc_id, cjk,
    len(list_filter(toks, w -> list_contains({_markers_sql('en')}, w))) AS s_en,
    len(list_filter(toks, w -> list_contains({_markers_sql('de')}, w))) AS s_de,
    len(list_filter(toks, w -> list_contains({_markers_sql('fr')}, w))) AS s_fr,
    len(list_filter(toks, w -> list_contains({_markers_sql('es')}, w))) AS s_es
  FROM t
)
SELECT doc_id,
  CASE WHEN cjk THEN 'zh'
       WHEN GREATEST(s_en, s_de, s_fr, s_es) = 0 THEN 'und'
       WHEN s_en >= s_de AND s_en >= s_fr AND s_en >= s_es THEN 'en'
       WHEN s_de >= s_fr AND s_de >= s_es THEN 'de'
       WHEN s_fr >= s_es THEN 'fr'
       ELSE 'es' END AS lang_pred
FROM s ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
_PUNCT_RE = r"""[.,;:!?"'()\[\]{}]"""
_ALPHA_RE = r"[A-Za-z]"  # ASCII on both sides (RE2 classes are ASCII)


def quality_score(sf_dir: str):
    """Composite quality score in basis points: blends length fit,
    stopword ratio, alpha ratio, punct density — the standard
    pretraining-corpus heuristics (Gopher/C4-style rules).

    Pure integer arithmetic (each 0.3/0.3/0.3/0.1-weighted term is
    floor-divided in bp space) and vectorized Arrow kernels, so the
    result hashes exactly against the DuckDB oracle (SQL_QUALITY_SCORE).
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        texts = b.column("text").combine_chunks()
        npa = len(texts)
        flat, n = _tokens_per_doc(texts)
        doc_of = np.repeat(np.arange(npa, dtype=np.int64), n)
        stop_hits = pc.is_in(flat, value_set=pa.array(
            sorted(STOPWORDS))).to_numpy(zero_copy_only=False)
        n_stop = np.bincount(doc_of[stop_hits], minlength=npa)
        n_chars = pc.utf8_length(texts).to_numpy(zero_copy_only=False)
        n_alpha = pc.count_substring_regex(texts, _ALPHA_RE).to_numpy(
            zero_copy_only=False)
        n_punct = pc.count_substring_regex(texts, _PUNCT_RE).to_numpy(
            zero_copy_only=False)
        nc = np.maximum(n_chars, 1)
        nz = np.maximum(n, 1)
        bp = (3000 * np.minimum(n, 500) // 500
              + np.minimum(12000 * n_stop // nz, 3000)
              + 3000 * n_alpha // nc
              + 1000 - np.minimum(10000 * n_punct // nc, 1000))
        bp[n == 0] = 0
        return pa.table({"doc_id": b.column("doc_id"),
                         "quality_bp": pa.array(bp.astype(np.int64))})

    return ds.map_batches(fn, batch_format="pyarrow")


_STOPS_SQL = "[" + ",".join(f"'{w}'" for w in sorted(STOPWORDS)) + "]"

SQL_QUALITY_SCORE = rf"""
WITH t AS (
  SELECT doc_id, text,
         list_filter(string_split_regex(lower(text), '\s+'),
                     w -> w <> '') AS toks
  FROM documents
), m AS (
  SELECT doc_id,
         len(toks) AS n,
         len(list_filter(toks, w -> list_contains({_STOPS_SQL}, w))) AS n_stop,
         length(text) AS n_chars,
         length(text) - length(regexp_replace(text, '[A-Za-z]', '', 'g'))
           AS n_alpha,
         length(text) - length(regexp_replace(text,
             '[.,;:!?"''()\[\]{{}}]', '', 'g')) AS n_punct
  FROM t
)
SELECT doc_id,
  CAST(CASE WHEN n = 0 THEN 0 ELSE
       3000 * LEAST(n, 500) // 500
     + LEAST(12000 * n_stop // n, 3000)
     + 3000 * n_alpha // GREATEST(n_chars, 1)
     + 1000 - LEAST(10000 * n_punct // GREATEST(n_chars, 1), 1000)
  END AS BIGINT) AS quality_bp
FROM m ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
def _winnow_batch(texts: pa.Array, k: int = 5, window: int = 4
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Winnowing (Schleimer et al. 2003) for a whole batch: k-gram
    hashes → per-doc sliding-window minima → per-doc dedupe, all on the
    flattened token stream (kernels/shingles.py). Returns the ragged
    (flat fingerprints, fingerprints per doc); every doc has ≥ 1."""
    th, tc = tokenize_hash_batch(texts)
    kh, kc = shingle_hash_batch(th, tc, k)
    wm, wc = sliding_min_per_segment(kh, kc, window)
    return unique_per_segment(wm, wc)


def fingerprints(sf_dir: str):
    """Winnowed fingerprint summary per doc (counts + xor fold are
    integers so results hash exactly)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        vu, cu = _winnow_batch(b.column("text").combine_chunks())
        bounds = np.concatenate(([0], np.cumsum(cu)))[:-1]
        fold = np.bitwise_xor.reduceat(vu, bounds)  # every cu ≥ 1
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_fingerprints": pa.array(cu.astype(np.int64)),
            "fp_fold": pa.array((fold >> np.uint64(1)).astype(np.int64)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Gopher-style quality + repetition filters (Rae et al. 2021 §A1.1-style
# heuristics, adapted to integer outputs so the DuckDB oracle hashes
# exactly). One batch pass, no shuffle.
# ---------------------------------------------------------------------------

_GOPHER_STOPS = ("the", "a", "an", "and", "of", "to", "in", "is")
_GOPHER_STOPSET = frozenset(_GOPHER_STOPS)


def _gopher_row(text: str) -> tuple[int, int, int, int, int, int]:
    toks = text.strip().lower().split()
    n_words = max(len(toks), 1) if not toks else len(toks)
    if not toks:
        toks = [""]
        n_words = 1  # string_split_regex('') yields [''] in the oracle
    wchars = sum(len(w) for w in toks)
    stop_hits = sum(1 for w in toks if w in _GOPHER_STOPSET)
    n_sym = text.count("#") + text.count("...")
    lines = text.split("\n")
    dup_line_bp = (len(lines) - len(set(lines))) * 10000 // len(lines)
    bg = [toks[i] + " " + toks[i + 1] for i in range(len(toks) - 1)]
    if bg:
        from collections import Counter
        top = Counter(bg).most_common(1)[0][1]
    else:
        top = 0
    top_bigram_bp = top * 10000 // max(len(bg), 1)
    return (n_words, 100 * wchars // n_words, stop_hits,
            10000 * n_sym // n_words, dup_line_bp, top_bigram_bp)


def gopher_quality(sf_dir: str):
    """Per-doc Gopher-style quality metrics + pass flag.

    pass_gopher = 1 iff 50 ≤ n_words ≤ 100000, 3.0 ≤ mean word length
    ≤ 10.0, symbol ratio ≤ 0.1, ≥ 2 stopword hits, duplicate-line
    fraction ≤ 0.3, and top-bigram fraction ≤ 0.2.
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(b: pa.Table) -> pa.Table:
        # fully vectorized twin of _gopher_row (pinned equal by
        # tests/test_dedup.py::test_gopher_vectorized_matches_scalar):
        # one tokenize pass, arrow kernels for symbols/lines/bigrams,
        # distinct counts via arrow group_by — no per-doc Python
        texts = b.column("text").combine_chunks()
        n_docs = len(texts)
        flat, n_tok = _tokens_per_doc(texts)
        n_words = np.maximum(n_tok, 1)  # empty doc → [''] in the oracle
        doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_tok)
        wchars = np.bincount(
            doc_of, weights=pc.utf8_length(flat).to_numpy(
                zero_copy_only=False), minlength=n_docs).astype(np.int64)
        stop_set = pa.array(sorted(_GOPHER_STOPSET))
        sh = pc.is_in(flat, value_set=stop_set).to_numpy(
            zero_copy_only=False)
        stop_hits = np.bincount(doc_of[sh], minlength=n_docs).astype(
            np.int64)
        n_sym = (pc.count_substring(texts, "#").to_numpy(
                     zero_copy_only=False).astype(np.int64)
                 + pc.count_substring(texts, "...").to_numpy(
                     zero_copy_only=False).astype(np.int64))
        # duplicate-line fraction: distinct (doc, line) via group_by
        line_lists = pc.split_pattern(texts, "\n")
        n_lines = pc.list_value_length(line_lists).to_numpy(
            zero_copy_only=False).astype(np.int64)
        ldoc = np.repeat(np.arange(n_docs, dtype=np.int64), n_lines)
        uniq = pa.table({"d": pa.array(ldoc),
                         "l": pc.list_flatten(line_lists)}).group_by(
            ["d", "l"]).aggregate([])
        vc = pc.value_counts(uniq.column("d").combine_chunks())
        n_uniq = np.zeros(n_docs, dtype=np.int64)
        n_uniq[vc.field("values").to_numpy(zero_copy_only=False)] = \
            vc.field("counts").to_numpy(zero_copy_only=False)
        dup_line_bp = (n_lines - n_uniq) * 10000 // n_lines
        # top-bigram fraction: adjacent-token pairs within each doc,
        # max multiplicity via group_by count
        top = np.zeros(n_docs, dtype=np.int64)
        n_bg = np.maximum(n_tok - 1, 0)
        if len(flat) > 1:
            within = doc_of[:-1] == doc_of[1:]
            if within.any():
                bg = pc.binary_join_element_wise(
                    flat.slice(0, len(flat) - 1),
                    flat.slice(1), " ").filter(pa.array(within))
                bdoc = doc_of[:-1][within]
                cnt = pa.table({"d": pa.array(bdoc), "g": bg}).group_by(
                    ["d", "g"]).aggregate([("g", "count")])
                cd = cnt.column("d").to_numpy(zero_copy_only=False)
                cc = cnt.column("g_count").to_numpy(
                    zero_copy_only=False).astype(np.int64)
                np.maximum.at(top, cd, cc)
        top_bigram_bp = top * 10000 // np.maximum(n_bg, 1)
        arr = np.stack([n_words, 100 * wchars // n_words, stop_hits,
                        10000 * n_sym // n_words, dup_line_bp,
                        top_bigram_bp], axis=1)
        ok = ((arr[:, 0] >= 50) & (arr[:, 0] <= 100000)
              & (arr[:, 1] >= 300) & (arr[:, 1] <= 1000)
              & (arr[:, 3] <= 1000) & (arr[:, 2] >= 2)
              & (arr[:, 4] <= 3000) & (arr[:, 5] <= 2000))
        return pa.table({
            "doc_id": b.column("doc_id").cast(pa.int64()),
            "n_words": pa.array(arr[:, 0]),
            "mean_word_len_x100": pa.array(arr[:, 1]),
            "stopword_hits": pa.array(arr[:, 2]),
            "symbol_bp": pa.array(arr[:, 3]),
            "dup_line_bp": pa.array(arr[:, 4]),
            "top_bigram_bp": pa.array(arr[:, 5]),
            "pass_gopher": pa.array(ok.astype(np.int64)),
        })

    return ds.map_batches(fn, batch_format="pyarrow")


_GOPHER_STOPS_SQL = "[" + ",".join(f"'{w}'" for w in _GOPHER_STOPS) + "]"

SQL_GOPHER_QUALITY = rf"""
WITH t AS (
  SELECT doc_id, text,
         string_split_regex(trim(lower(text)), '\s+') AS toks,
         string_split(text, chr(10)) AS lines
  FROM documents
), m AS (
  SELECT doc_id, text, toks, lines,
         len(toks) AS n_words,
         list_aggregate(list_transform(toks, w -> length(w)), 'sum') AS wchars,
         len(list_filter(toks,
             w -> list_contains({_GOPHER_STOPS_SQL}, w))) AS stopword_hits,
         (length(text) - length(replace(text, '#', '')))
           + (length(text) - length(replace(text, '...', ''))) // 3 AS n_sym,
         list_transform(generate_series(1, len(toks) - 1),
                        i -> toks[i] || ' ' || toks[i + 1]) AS bg
  FROM t
), f AS (
  SELECT doc_id,
         CAST(n_words AS BIGINT) AS n_words,
         CAST(100 * wchars // n_words AS BIGINT) AS mean_word_len_x100,
         CAST(stopword_hits AS BIGINT) AS stopword_hits,
         CAST(10000 * n_sym // n_words AS BIGINT) AS symbol_bp,
         CAST((len(lines) - len(list_distinct(lines))) * 10000
              // len(lines) AS BIGINT) AS dup_line_bp,
         CAST(COALESCE(list_max(list_transform(list_distinct(bg),
                b -> len(list_filter(bg, x -> x = b)))), 0) * 10000
              // GREATEST(len(bg), 1) AS BIGINT) AS top_bigram_bp
  FROM m
)
SELECT *,
       CAST(CASE WHEN n_words BETWEEN 50 AND 100000
                  AND mean_word_len_x100 BETWEEN 300 AND 1000
                  AND symbol_bp <= 1000 AND stopword_hits >= 2
                  AND dup_line_bp <= 3000 AND top_bigram_bp <= 2000
            THEN 1 ELSE 0 END AS BIGINT) AS pass_gopher
FROM f ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
def _floor_log2_exact(q: np.ndarray) -> np.ndarray:
    """floor(log2(q)) for positive int64 via the float64 exponent
    (frexp) — EXACT for any integer < 2^53, no libm rounding hazard."""
    return (np.frexp(q.astype(np.float64))[1] - 1).astype(np.int64)


def unigram_surprisal(sf_dir: str, vocab_gate: int = 2_000_000):
    """Per-document surprisal under the corpus unigram LM — the
    standard LLM-pretraining quality signal (low = boilerplate /
    repeated text, high = rare-token-heavy) — in EXACT integer
    arithmetic so the DuckDB oracle hashes bit-for-bit:

        rarity(t)       = floor(log2(total_tokens // count(t)))
        surprisal_milli = 1000 * Σ_tok rarity(tok)  //  n_tokens(doc)

    floor(log2(int)) is computed from the float64 exponent (exact for
    ints < 2^53 on both engines). Token counts come from a distributed
    pre-aggregated groupby; then the path is SIZE-GATED on vocabulary
    rows (same pattern as build.py's dedup gate):

    - vocab <= ``vocab_gate``: broadcast (``ray.put`` once) + one
      vectorized ``index_in`` probe per batch;
    - vocab >  ``vocab_gate``: the vocabulary never lands on the
      driver — doc tokens shuffle to their count partition
      (groupby(tok) join), per-doc rarity partials re-shuffle by
      doc_id, and a final doc-keyed merge attaches n_tokens. Three
      hash exchanges, each pre-aggregated, no corpus-sized driver
      materialization."""
    import ray
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(b: pa.Table) -> pa.Table:
        flat, _ = _tokens_per_doc(b.column("text"))
        vc = pc.value_counts(flat)
        return pa.table({"tok": vc.field("values"),
                         "n": vc.field("counts").cast(pa.int64())})

    counts_ds = (ds.map_batches(partial, batch_format="pyarrow")
                   .groupby("tok").aggregate(Sum("n", alias_name="n"))
                   .materialize())  # vocab-sized, object-store-bounded
    n_vocab = counts_ds.count()
    total = int(counts_ds.aggregate(Sum("n", alias_name="s"))["s"])

    if n_vocab <= vocab_gate:
        counts = counts_ds.take_all()
        toks = pa.array([r["tok"] for r in counts], pa.string())
        cnt = np.asarray([r["n"] for r in counts], dtype=np.int64)
        rarity = _floor_log2_exact(
            np.maximum(total // np.maximum(cnt, 1), 1))
        payload = ray.put((toks, rarity))

        def score(b: pa.Table) -> pa.Table:
            vocab, rar = ray.get(payload)
            texts = b.column("text")
            n_docs = len(b)
            flat, n_tok = _tokens_per_doc(texts)
            doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), n_tok)
            idx = pc.index_in(flat, value_set=vocab).to_numpy(
                zero_copy_only=False)
            acc = np.zeros(n_docs, dtype=np.int64)
            np.add.at(acc, doc_of, rar[idx])
            milli = 1000 * acc // np.maximum(n_tok, 1)
            milli[n_tok == 0] = 0
            return pa.table({
                "doc_id": b.column("doc_id"),
                "surprisal_milli": pa.array(milli, pa.int64()),
                "n_tokens": pa.array(n_tok, pa.int64()),
            })

        return ds.map_batches(score, batch_format="pyarrow")

    # ---- distributed path: hash-partitioned token→count join ----
    def rarity_rows(b: pa.Table) -> pa.Table:
        cnt = b.column("n").to_numpy(zero_copy_only=False)
        rar = _floor_log2_exact(
            np.maximum(total // np.maximum(cnt, 1), 1))
        return pa.table({"tok": b.column("tok"),
                         "doc_id": pa.nulls(len(b), pa.int64()),
                         "w": pa.array(rar, pa.int64())})

    def doc_tok_rows(b: pa.Table) -> pa.Table:
        """(tok, doc_id, w=occurrences) — pre-aggregated per batch so
        the token shuffle carries one row per distinct (doc, tok)."""
        flat, n_tok = _tokens_per_doc(b.column("text"))
        doc_ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        doc_of = np.repeat(doc_ids, n_tok)
        combo = pa.table({"tok": flat,
                          "doc_id": pa.array(doc_of, pa.int64())})
        gb = combo.group_by(["tok", "doc_id"]).aggregate(
            [([], "count_all")])
        return pa.table({"tok": gb.column("tok"),
                         "doc_id": gb.column("doc_id"),
                         "w": gb.column("count_all").cast(pa.int64())})

    def join_tok(g: pa.Table) -> pa.Table:
        """One token's partition: rarity row (null doc_id) + per-doc
        occurrence rows → per-doc rarity partial (w_occ * rarity)."""
        doc = g.column("doc_id")
        isr = pc.is_null(doc).to_numpy(zero_copy_only=False)
        w = g.column("w").to_numpy(zero_copy_only=False)
        r = int(w[isr][0]) if isr.any() else 0
        keep = ~isr
        return pa.table({
            "doc_id": pa.array(
                pc.fill_null(doc, 0).to_numpy(
                    zero_copy_only=False)[keep], pa.int64()),
            "rs": pa.array(w[keep] * r, pa.int64()),
        })

    tok_partials = (
        ds.map_batches(doc_tok_rows, batch_format="pyarrow")
          .union(counts_ds.map_batches(rarity_rows,
                                       batch_format="pyarrow"))
          .groupby("tok").map_groups(join_tok, batch_format="pyarrow"))
    acc = tok_partials.groupby("doc_id").aggregate(
        Sum("rs", alias_name="rs"))

    def doc_ntok(b: pa.Table) -> pa.Table:
        _, n_tok = _tokens_per_doc(b.column("text"))
        return pa.table({"doc_id": b.column("doc_id").cast(pa.int64()),
                         "rs": pa.nulls(len(b), pa.int64()),
                         "n_tokens": pa.array(n_tok, pa.int64())})

    def finish(g: pa.Table) -> pa.Table:
        rs_col = g.column("rs")
        have = pc.is_valid(rs_col).to_numpy(zero_copy_only=False)
        rs = int(pc.fill_null(rs_col, 0).to_numpy(
            zero_copy_only=False)[have][0]) if have.any() else 0
        nt_col = g.column("n_tokens")
        ntv = pc.is_valid(nt_col).to_numpy(zero_copy_only=False)
        nt = int(pc.fill_null(nt_col, 0).to_numpy(
            zero_copy_only=False)[ntv][0]) if ntv.any() else 0
        milli = 1000 * rs // max(nt, 1) if nt else 0
        return pa.table({
            "doc_id": g.column("doc_id")[:1].cast(pa.int64()),
            "surprisal_milli": pa.array([milli], pa.int64()),
            "n_tokens": pa.array([nt], pa.int64()),
        })

    def acc_rows(b: pa.Table) -> pa.Table:
        return pa.table({"doc_id": b.column("doc_id").cast(pa.int64()),
                         "rs": b.column("rs").cast(pa.int64()),
                         "n_tokens": pa.nulls(len(b), pa.int64())})

    return (ds.map_batches(doc_ntok, batch_format="pyarrow")
              .union(acc.map_batches(acc_rows, batch_format="pyarrow"))
              .groupby("doc_id")
              .map_groups(finish, batch_format="pyarrow"))


SQL_UNIGRAM_SURPRISAL = r"""
WITH t AS (
  SELECT doc_id,
         list_filter(string_split_regex(lower(text), '\s+'),
                     w -> w <> '') AS toks
  FROM documents
), f AS (
  SELECT doc_id, unnest(toks) AS tok FROM t
), c AS (
  SELECT tok, CAST(COUNT(*) AS BIGINT) AS cnt FROM f GROUP BY tok
), tot AS (SELECT CAST(SUM(cnt) AS BIGINT) AS s FROM c),
r AS (
  -- floor(log2(q)) in pure integer arithmetic (bit length - 1): libm
  -- LOG2 can round UP to the integer for ratios just below a power of
  -- two >= ~2^47, diverging from the engine's exact frexp floor
  SELECT tok,
         CAST(length(bin(GREATEST((SELECT s FROM tot) // cnt, 1))) - 1
              AS BIGINT) AS rar
  FROM c
), d AS (
  SELECT f.doc_id, SUM(r.rar) AS tot_r, COUNT(*) AS n
  FROM f JOIN r USING (tok) GROUP BY f.doc_id
)
SELECT t.doc_id,
       CAST(COALESCE(1000 * d.tot_r // d.n, 0) AS BIGINT)
         AS surprisal_milli,
       CAST(COALESCE(d.n, 0) AS BIGINT) AS n_tokens
FROM t LEFT JOIN d ON t.doc_id = d.doc_id
ORDER BY t.doc_id
"""
