"""Driver contract for the graft builder (Ray Data target).

The driver calls ray.init() itself BEFORE importing this module; nothing
here (or in search_engine_ray) calls ray.init/ray.shutdown.

- entry(): flagship pipeline over /root/testdata/sf0.001.
- queries(): one callable per implemented operator (SURVEY.md §2 et al.);
  each takes sf_dir and returns a Dataset / pandas DataFrame / pa.Table.
- oracle_sql(): DuckDB-equivalent SQL for the SQL-expressible subset, with
  matching column names; non-SQL ops get the weaker rows-only check.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable
from typing import Any

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF0001 = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline: synthesize pages → parse → build the sharded
    inverted index (resumable) → answer the reference query set with the
    BM25 actor-pool engine. Returns the ranked results table."""
    from search_engine_ray.pipelines.flagship import run_reference_queries

    return run_reference_queries(SF0001)


def queries() -> dict[str, Callable[[str], Any]]:
    from search_engine_ray.functions import (ann, dedup, docops, multimodal,
                                             relational, textstats)

    return {
        # flagship, listed first: index build + BM25 serving over the
        # FULL reference query set (phrases, synonyms, stopword cases,
        # NOT) — with a hash-exact DuckDB twin generated from the
        # compiled plans
        "search_bm25": _search_bm25,
        # flagship word-only subset WITH a hash-exact DuckDB BM25 twin
        # (functions/sql_bm25.py): synthesis → parse → stem → dl/avgdl →
        # Lucene idf → float64 score fold → (-score, doc_id) top-k
        "search_bm25_words": _search_bm25_words,
        # phrase-bearing flagship plans: positions restated in SQL as
        # sliding-window scans over the per-doc kept-stem lists
        "search_bm25_phrases": _search_bm25_phrases,
        # WordNet-synonym-expanded plans: SynOr SYN_WEIGHT scoring in SQL
        "search_bm25_synonyms": _search_bm25_synonyms,
        # reference-exact compat ranking, distributed per chunk
        "search_compat": _search_compat,
        # near-dup detection family (non-SQL → rows-only checks; quality
        # gated by tests/test_dedup.py recall assertions)
        "minhash_dedup": dedup.minhash_dedup,
        "simhash_dedup": dedup.simhash_dedup,
        "embedding_neardup": _embedding_neardup,
        "ngram_jaccard": _ngram_jaccard,
        "ngram_jaccard_pairs": dedup.ngram_jaccard_consecutive,
        # signature-level oracle surfaces (bit-exact SQL twins of the
        # hashing kernels, functions/sql_hash.py)
        "simhash_signatures": dedup.simhash_signatures,
        "minhash_signatures": dedup.minhash_signatures,
        # text analysis
        "lang_id": textstats.lang_id,
        "gopher_quality": textstats.gopher_quality,
        "quality_score": textstats.quality_score,
        "unigram_surprisal": textstats.unigram_surprisal,
        "fingerprints": textstats.fingerprints,
        # multimodal actor-pool stages (real in-container decode: WAV,
        # BMP, PNG, animated GIF; only JPEG/mp4-class codecs stubbed)
        "media_image_features": _media_images,
        "media_audio_frames": _media_audio,
        "media_audio_spectrogram": _media_spectrogram,
        "media_video_frames": _media_video,
        # link graph (F8 / anchor capture)
        "link_edges": _link_edges,
        "link_indegree": _link_indegree,
        "link_pagerank": _link_pagerank,
        # §2.2 parse/tokenize surface (byte-identity invariant)
        "extract_text": docops.extract_text,
        "docmeta": docops.docmeta,
        # §2.6 aggregates
        "token_count": docops.token_count,
        "token_count_bpe": docops.token_count_bpe,
        "lang_count": docops.lang_count,
        "term_stats": docops.term_stats,
        "top_terms_sketch": _top_terms,
        "stopword_stats": docops.stopword_stats,
        # dedup (exact; upgrades reference Bloom filter F1/J5)
        "dedup_exact": docops.dedup_exact,
        # corpus hygiene: benchmark decontamination + duplicate-cluster
        # assignment (hash-min connected components over near-dup pairs)
        "decontaminate": _decontaminate,
        "dedup_clusters": _dedup_clusters,
        # the composed end-to-end data-prep pipeline (quality filter ∧
        # exact-dedup rep ∧ decontaminated → token counts), one
        # doc-keyed merge shuffle; stage CTEs composed in the oracle
        "corpus_prep": _corpus_prep,
        # relational / streaming-shaped
        "q1_pricing_summary": relational.q1_pricing_summary,
        "orders_by_segment": relational.orders_by_segment,
        "events_tumbling_window": relational.events_tumbling_window,
        "events_hopping_window": relational.events_hopping_window,
        "events_sessionize": _sessionize,
        "events_asof_join": relational.events_asof_join,
        "events_range_join": relational.events_range_join,
        "orders_by_month": relational.orders_by_month,
        # distributed hash equi-join (both sides partitioned — the shape
        # the broadcast join can't take) + ordered conversion funnel
        "revenue_by_nation": relational.revenue_by_nation,
        "events_funnel": relational.events_funnel,
        "top_parts_by_price": relational.top_parts_by_price,
        "suppliers_per_region": relational.suppliers_per_region,
        "source_stats": relational.source_stats,
        # similarity search
        "ann_topk": ann.ann_topk,
        "ann_topk_lsh": ann.ann_topk_lsh,
        "ann_topk_ivf": ann.ann_topk_ivf,
        "ann_topk_ivfpq": ann.ann_topk_ivfpq,
        # corpus curation: deterministic stratified sampling (stateless
        # integer-hash filter), exact distributed quantiles (histogram,
        # no global sort), per-group top-k (two-level combiner)
        "stratified_sample": _stratified_sample,
        "length_quantiles": _length_quantiles,
        "length_quantiles_by_lang": _length_quantiles_by_lang,
        "top_terms_per_lang": _top_terms_per_lang,
        # feature engineering: signed feature-hashed BoW (sparse long
        # form) + typed JSON field extraction over events.props
        "feature_hash_bow": _feature_hash_bow,
        "events_json_stats": _events_json_stats,
        # row-preserving window functions (LAG + RANGE rolling count):
        # one groupby(user) shuffle, vectorized in-group kernels,
        # event_id tie-break pinned on both engines
        "events_user_lag": _events_user_lag,
        "events_rolling_count": _events_rolling_count,
        "events_running_total": _events_running_total,
        # skew-proof banded variants — SAME oracle SQL as the plain
        # plans, so the scale path is driver-checked hash-exact too
        "events_user_lag_banded": _events_user_lag_banded,
        "events_rolling_count_banded": _events_rolling_count_banded,
        "events_running_total_banded": _events_running_total_banded,
        # distinct counting: exact per-group COUNT(DISTINCT) via the
        # pair-dedup combiner + a deterministic HyperLogLog register
        # sketch (splitmix64) whose 256-row register table hash-matches
        # a pure-integer DuckDB twin
        "events_distinct_users": _events_distinct_users,
        "hll_distinct": _hll_distinct,
        # anti-join (NOT EXISTS): size-gated broadcast-drop vs native
        # left_anti hash join; GROUPING-SETS rollup (distributed finest
        # level, driver-derived coarser levels over a bounded table)
        "customers_without_orders": _customers_without_orders,
        # semi-join (EXISTS): same size-gated plan with left_semi
        "parts_shipped": _parts_shipped,
        "orders_rollup": _orders_rollup,
        # deterministic per-stratum uniform k-sample (reservoir
        # replacement; two-level smallest-k combiner)
        "per_lang_sample": _per_lang_sample,
        # bigram co-occurrence (PMI-ready collocations): two-level pair
        # combiner + broadcast-filtered unigram lookup
        "bigram_stats": _bigram_stats,
        "trigram_stats": _trigram_stats,
    }


def _events_user_lag(sf_dir: str) -> Any:
    from search_engine_ray.functions.windows import events_user_lag

    return events_user_lag(sf_dir)


def _events_rolling_count(sf_dir: str) -> Any:
    from search_engine_ray.functions.windows import events_rolling_count

    return events_rolling_count(sf_dir)


def _events_running_total(sf_dir: str) -> Any:
    from search_engine_ray.functions.windows import events_running_total

    return events_running_total(sf_dir)


def _events_user_lag_banded(sf_dir: str) -> Any:
    from search_engine_ray.functions.windows import events_user_lag_banded

    return events_user_lag_banded(sf_dir)


def _events_rolling_count_banded(sf_dir: str) -> Any:
    from search_engine_ray.functions.windows import \
        events_rolling_count_banded

    return events_rolling_count_banded(sf_dir)


def _events_running_total_banded(sf_dir: str) -> Any:
    from search_engine_ray.functions.windows import \
        events_running_total_banded

    return events_running_total_banded(sf_dir)


def _events_distinct_users(sf_dir: str) -> Any:
    from search_engine_ray.functions.distinct import events_distinct_users

    return events_distinct_users(sf_dir)


def _hll_distinct(sf_dir: str) -> Any:
    from search_engine_ray.functions.distinct import hll_distinct

    return hll_distinct(sf_dir)


def _customers_without_orders(sf_dir: str) -> Any:
    from search_engine_ray.functions.relational import \
        customers_without_orders

    return customers_without_orders(sf_dir)


def _parts_shipped(sf_dir: str) -> Any:
    from search_engine_ray.functions.relational import parts_shipped

    return parts_shipped(sf_dir)


def _per_lang_sample(sf_dir: str) -> Any:
    from search_engine_ray.functions.sampling import per_lang_sample

    return per_lang_sample(sf_dir)


def _orders_rollup(sf_dir: str) -> Any:
    from search_engine_ray.functions.relational import orders_rollup

    return orders_rollup(sf_dir)


def _bigram_stats(sf_dir: str) -> Any:
    from search_engine_ray.functions.cooccur import bigram_stats

    return bigram_stats(sf_dir)


def _trigram_stats(sf_dir: str) -> Any:
    from search_engine_ray.functions.cooccur import trigram_stats

    return trigram_stats(sf_dir)


def _stratified_sample(sf_dir: str) -> Any:
    from search_engine_ray.functions.sampling import stratified_sample

    return stratified_sample(sf_dir)


def _length_quantiles(sf_dir: str) -> Any:
    from search_engine_ray.functions.sampling import length_quantiles

    return length_quantiles(sf_dir)


def _length_quantiles_by_lang(sf_dir: str) -> Any:
    from search_engine_ray.functions.sampling import \
        length_quantiles_by_lang

    return length_quantiles_by_lang(sf_dir)


def _top_terms_per_lang(sf_dir: str) -> Any:
    from search_engine_ray.functions.sampling import top_terms_per_lang

    return top_terms_per_lang(sf_dir)


def _feature_hash_bow(sf_dir: str) -> Any:
    from search_engine_ray.functions.features import feature_hash_bow

    return feature_hash_bow(sf_dir)


def _events_json_stats(sf_dir: str) -> Any:
    from search_engine_ray.functions.features import events_json_stats

    return events_json_stats(sf_dir)


def _top_terms(sf_dir: str) -> Any:
    from search_engine_ray.functions.sketches import top_terms

    return top_terms(sf_dir)


def _decontaminate(sf_dir: str) -> Any:
    from search_engine_ray.functions.hygiene import decontaminate

    return decontaminate(sf_dir)


def _dedup_clusters(sf_dir: str) -> Any:
    from search_engine_ray.functions.hygiene import dedup_clusters

    return dedup_clusters(sf_dir)


def _corpus_prep(sf_dir: str) -> Any:
    from search_engine_ray.functions.hygiene import corpus_prep

    return corpus_prep(sf_dir)


def _sessionize(sf_dir: str) -> Any:
    from search_engine_ray.functions.sessions import sessionize

    return sessionize(sf_dir)


def _embedding_neardup(sf_dir: str) -> Any:
    """Hyperplane-bucketed cosine near-dup pairs. The synthetic
    embeddings have no true near-dups (max off-diagonal cosine ≈ 0.51),
    so the oracle-checked entry runs at a lower threshold / plane count
    than the production defaults — the hash check then exercises real
    bucket collisions and cos_bp values (342 pairs at sf0.01) instead of
    an empty-vs-empty match."""
    from search_engine_ray.functions.dedup import embedding_neardup

    return embedding_neardup(sf_dir, threshold_bp=2500, n_planes=4)


def _ngram_jaccard(sf_dir: str) -> Any:
    """Exact n-gram Jaccard on a fixed deterministic pair list
    (distributed join-verify path; rows-only check)."""
    from search_engine_ray.functions.dedup import ngram_jaccard

    pairs = [(i, i + 1) for i in range(0, 100, 2)]
    return ngram_jaccard(sf_dir, pairs=pairs)


def _search_compat(sf_dir: str) -> Any:
    from search_engine_ray.pipelines.compat import compat_search

    return compat_search(sf_dir)


def _search_bm25(sf_dir: str) -> Any:
    from search_engine_ray.pipelines.flagship import run_reference_queries

    return run_reference_queries(sf_dir)


def _search_bm25_words(sf_dir: str) -> Any:
    from search_engine_ray.pipelines.flagship import run_word_queries

    return run_word_queries(sf_dir)


def _search_bm25_phrases(sf_dir: str) -> Any:
    from search_engine_ray.functions.sql_bm25 import BM25_PHRASE_QUERIES
    from search_engine_ray.pipelines.flagship import run_word_queries

    return run_word_queries(sf_dir, queries=BM25_PHRASE_QUERIES)


BM25_SYN_QUERIES = ["table", "order", "line", "value", "table | line",
                    "fast & order"]


def _search_bm25_synonyms(sf_dir: str) -> Any:
    from search_engine_ray.pipelines.flagship import run_word_queries

    return run_word_queries(sf_dir, queries=BM25_SYN_QUERIES,
                            use_synonyms=True)


def _media_images(sf_dir: str) -> Any:
    from search_engine_ray.functions.multimodal import media_pipeline

    images, _, _ = media_pipeline(sf_dir=sf_dir)
    return images


def _media_video(sf_dir: str) -> Any:
    from search_engine_ray.functions.multimodal import media_pipeline

    _, _, video = media_pipeline(sf_dir=sf_dir)
    return video


def _media_audio(sf_dir: str) -> Any:
    from search_engine_ray.functions.multimodal import media_pipeline

    _, audio, _ = media_pipeline(sf_dir=sf_dir)
    return audio


def _media_spectrogram(sf_dir: str) -> Any:
    from search_engine_ray.functions.multimodal import \
        media_audio_spectrogram

    return media_audio_spectrogram(sf_dir=sf_dir)


def _link_edges(sf_dir: str) -> Any:
    from search_engine_ray.functions.links import link_edges

    return link_edges(sf_dir)


def _link_indegree(sf_dir: str) -> Any:
    from search_engine_ray.functions.links import link_indegree

    return link_indegree(sf_dir)


def _link_pagerank(sf_dir: str) -> Any:
    """Iterative algorithm (join+groupby per round) — rows-only check."""
    from search_engine_ray.functions.links import link_pagerank

    return link_pagerank(sf_dir, n_iter=3)


def oracle_sql() -> dict[str, str]:
    from search_engine_ray.functions import ann, relational
    from search_engine_ray.functions.docops import SQL as DOC_SQL

    out = dict(DOC_SQL)
    out["q1_pricing_summary"] = relational.SQL_Q1
    out["orders_by_segment"] = relational.SQL_ORDERS_BY_SEGMENT
    out["events_tumbling_window"] = relational.SQL_EVENTS_WINDOW
    out["events_hopping_window"] = relational.SQL_EVENTS_HOPPING
    out["orders_by_month"] = relational.SQL_ORDERS_BY_MONTH
    out["top_parts_by_price"] = relational.SQL_TOP_PARTS
    out["suppliers_per_region"] = relational.SQL_SUPPLIERS_PER_REGION
    out["source_stats"] = relational.SQL_SOURCE_STATS
    out["ann_topk"] = ann.SQL_ANN_TOPK
    from search_engine_ray.functions.sessions import SQL_SESSIONIZE
    out["events_sessionize"] = SQL_SESSIONIZE
    out["events_asof_join"] = relational.SQL_EVENTS_ASOF
    out["revenue_by_nation"] = relational.SQL_REVENUE_BY_NATION
    out["events_funnel"] = relational.SQL_EVENTS_FUNNEL
    from search_engine_ray.functions import sampling
    out["stratified_sample"] = sampling.stratified_sample_sql()
    out["length_quantiles"] = sampling.length_quantiles_sql()
    out["length_quantiles_by_lang"] = \
        sampling.length_quantiles_by_lang_sql()
    out["top_terms_per_lang"] = sampling.top_terms_per_lang_sql()
    from search_engine_ray.functions import features
    out["feature_hash_bow"] = features.feature_hash_bow_sql()
    out["events_json_stats"] = features.SQL_EVENTS_JSON_STATS
    out["events_range_join"] = relational.SQL_EVENTS_RANGE_JOIN
    out["customers_without_orders"] = relational.SQL_CUSTOMERS_WITHOUT_ORDERS
    out["orders_rollup"] = relational.SQL_ORDERS_ROLLUP
    out["parts_shipped"] = relational.SQL_PARTS_SHIPPED
    out["per_lang_sample"] = sampling.per_lang_sample_sql()
    from search_engine_ray.functions import cooccur, distinct, windows
    out["events_user_lag"] = windows.SQL_EVENTS_USER_LAG
    out["events_rolling_count"] = windows.SQL_EVENTS_ROLLING
    out["events_running_total"] = windows.SQL_EVENTS_RUNNING_TOTAL
    out["events_user_lag_banded"] = windows.SQL_EVENTS_USER_LAG
    out["events_rolling_count_banded"] = windows.SQL_EVENTS_ROLLING
    out["events_running_total_banded"] = \
        windows.SQL_EVENTS_RUNNING_TOTAL
    out["events_distinct_users"] = distinct.SQL_EVENTS_DISTINCT_USERS
    out["hll_distinct"] = distinct.SQL_HLL_DISTINCT
    out["bigram_stats"] = cooccur.SQL_BIGRAM_STATS
    out["trigram_stats"] = cooccur.SQL_TRIGRAM_STATS
    from search_engine_ray.functions.textstats import (
        SQL_GOPHER_QUALITY, SQL_LANG_ID, SQL_QUALITY_SCORE,
        SQL_UNIGRAM_SURPRISAL)
    out["gopher_quality"] = SQL_GOPHER_QUALITY
    out["lang_id"] = SQL_LANG_ID
    out["quality_score"] = SQL_QUALITY_SCORE
    out["unigram_surprisal"] = SQL_UNIGRAM_SURPRISAL
    from search_engine_ray.functions.sketches import SQL_TOP_TERMS
    out["top_terms_sketch"] = SQL_TOP_TERMS
    # link_edges: the synthesized page template embeds exactly one anchor
    # per document, so the parser-extracted edge list is SQL-expressible
    from search_engine_ray.functions.docops import _TOKS, _URL_EXPR
    out["link_edges"] = f"""
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents)
SELECT {_URL_EXPR} AS src,
       'http://doc' || CAST((doc_id * 7 + 1) % 100000 AS VARCHAR)
         || '.com/' AS dst,
       array_to_string(toks[1:2], ' ') AS anchor
FROM t ORDER BY doc_id
"""
    # link_indegree: top-50 by in-degree over the same edge CTE
    out["link_indegree"] = f"""
WITH t AS (SELECT doc_id, {_TOKS} AS toks FROM documents),
e AS (SELECT 'http://doc' || CAST((doc_id * 7 + 1) % 100000 AS VARCHAR)
        || '.com/' AS dst FROM t)
SELECT dst, COUNT(*) AS in_degree
FROM e GROUP BY dst
ORDER BY in_degree DESC, dst
LIMIT 50
"""
    # link_pagerank: integer nano-unit arithmetic unrolled per iteration
    from search_engine_ray.functions.links import pagerank_sql
    out["link_pagerank"] = pagerank_sql(n_iter=3, k=50)
    # ngram_jaccard_pairs: exact Jaccard over consecutive doc-id pairs
    from search_engine_ray.functions.dedup import (SQL_NGRAM_JACCARD,
                                                   ngram_jaccard_sql)
    out["ngram_jaccard_pairs"] = SQL_NGRAM_JACCARD
    # ngram_jaccard: same oracle over the entry's fixed pair list
    vals = ", ".join(f"({i}, {i + 1})" for i in range(0, 100, 2))
    out["ngram_jaccard"] = ngram_jaccard_sql(
        f"SELECT v.c0 AS doc_a, v.c1 AS doc_b "
        f"FROM (VALUES {vals}) v(c0, c1)")
    # hashing-kernel oracles: FNV-1a / shingle-mix / avalanche / SimHash
    # / MinHash restated in HUGEINT SQL, bit-exact vs the numpy kernels
    from search_engine_ray.functions import sql_hash
    out["fingerprints"] = sql_hash.fingerprints_sql()
    out["simhash_signatures"] = sql_hash.simhash_sql()
    out["minhash_signatures"] = sql_hash.minhash_sql()
    # the end-to-end near-dup pipelines themselves: banding, bucket
    # self-join candidates, Hamming / exact-Jaccard verification
    out["simhash_dedup"] = sql_hash.simhash_dedup_sql()
    out["minhash_dedup"] = sql_hash.minhash_dedup_sql()
    # corpus hygiene: same HUGEINT shingle-hash restatement; clusters add
    # a recursive reachability closure over the verified pair list
    out["decontaminate"] = sql_hash.decontaminate_sql()
    out["dedup_clusters"] = sql_hash.dedup_clusters_sql()
    from search_engine_ray.functions.hygiene import corpus_prep_sql
    out["corpus_prep"] = corpus_prep_sql()
    # embedding near-dup: literal seeded hyperplanes + list-op cosine
    out["embedding_neardup"] = sql_hash.embedding_neardup_sql(
        n_planes=4, threshold_bp=2500)
    # ann_topk_lsh is approximate vs BRUTE-FORCE but fully deterministic
    # given the seeded planes: the oracle restates the bucket keys +
    # candidate union + exact in-candidate cosine (r4; 36th hash row).
    # ann_topk_ivf/ivfpq stay rows-only: k-means is iterative float
    # state the SQL restatement recipe doesn't reach (recall is
    # pytest-gated instead).
    out["ann_topk_lsh"] = sql_hash.ann_topk_lsh_sql()
    # the flagship itself (word-only plans, synonyms off): full BM25
    # restated over the synthesized pages — generated FROM the compiled
    # plan trees so the score fold order matches bit-for-bit (r5)
    from search_engine_ray.functions.sql_bm25 import (BM25_PHRASE_QUERIES,
                                                      bm25_words_sql)
    out["search_bm25_words"] = bm25_words_sql()
    out["search_bm25_phrases"] = bm25_words_sql(BM25_PHRASE_QUERIES)
    out["search_bm25_synonyms"] = bm25_words_sql(BM25_SYN_QUERIES,
                                                 use_synonyms=True)
    # the headline itself: the FULL reference query set (client.cpp
    # expression shapes — phrases, synonyms, stopword-only, NOT) in the
    # run_reference_queries output shape
    from search_engine_ray.query.refqueries import REF_QUERIES
    out["search_bm25"] = bm25_words_sql(REF_QUERIES, use_synonyms=True,
                                        reference_shape=True)
    return out
