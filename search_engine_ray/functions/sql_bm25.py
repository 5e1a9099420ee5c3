"""DuckDB SQL twin of the flagship BM25 engine — the hash-exact oracle
for ``search_bm25_words``.

The flagship (`pipelines/flagship.py` → `pipelines/search.py`) was
previously "no oracle by nature". For word-only query plans it isn't:
every step — page synthesis, parse token stream, stemming, dl/avgdl,
Lucene idf, the BM25 tf impact, float64 accumulation order, and the
(-score, doc_id) tie-break — is deterministic arithmetic that DuckDB
reproduces bit-for-bit, exactly like the MinHash/SimHash kernels in
``sql_hash.py``.

The SQL is generated FROM the compiled plan tree itself
(``query.compile.compile_query`` with synonyms off, engine mode), so the
candidate predicate and the left-to-right score-fold order are by
construction the same ones ``ShardIndex.score_topk`` executes:

- a Word leaf ``w`` compiles to ``Or(Word('@'+stem), Word(stem))``
  (query.cpp:90-147); tf('@'+s) counts the title stream, tf(s) the body
  stream (h1 ++ text ++ bold ++ anchor — the synthesis of
  ``sources/fixtures.pages_from_documents_batch``);
- score = fold-left over ``scoring_terms(plan)`` of
  ``idf(t) * tf/(tf + k1*(1-b + b*dl/avgdl))`` with
  ``idf = ln(1 + (N - df + 0.5)/(df + 0.5))`` — every float64 op emitted
  in the same association order numpy evaluates;
- NOT subtrees restrict candidates but never score (Ranker.h semantics);
  a top-level NOT plan has no candidates at all;
- result doc_id is the url fingerprint ``fnv1a_64(url) >> 1``
  (build.py:77-84), restated as the HUGEINT byte-fold from sql_hash.py.

The stem map is a literal CASE over the driver testdata's CLOSED
31-token vocabulary (TESTDATA.md documents.text; identical token set at
every scale factor) computed by the repo's own reference stemmer at
SQL-generation time.
"""

from __future__ import annotations

TWO64 = "18446744073709551616::HUGEINT"
_FNV_BASIS = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# the driver testdata documents.text vocabulary (closed set, every sf)
_TESTDATA_VOCAB = (
    "a agg batch big column customer data fast filter group hash join "
    "key line merge order part query row scan slow small sort spark "
    "stream table the value vector window"
).split()

#: word-only reference query shapes (single word, implicit AND, &, |,
#: nesting, AND-NOT, top-level NOT) — every term is in the testdata
#: vocabulary so every query has hits at every scale factor.
BM25_WORD_QUERIES: list[str] = [
    "fast",
    "table",
    "order",
    "value",
    "fast table",
    "fast & table",
    "query & data & batch",
    "row | column",
    "fast | table | key | merge",
    "fast & (table | key)",
    "customer & -spark",
    "-(fast | table)",
]

#: phrase-bearing plan shapes (2-3-word phrases, phrase∧word,
#: phrase∨word, NOT-phrase) — positions are SQL-expressible because the
#: index stores them dense over the kept sequence (stages/parse.py).
BM25_PHRASE_QUERIES: list[str] = [
    '"key order"',
    '"fast table"',
    '"slow fast table"',
    '"window table table value"',
    '"group query"',
    '"fast key" & fast',
    '"fast table" | merge',
    'order & "key order"',
    'customer & -"fast table"',
]


def _stem_case(var: str = "w") -> str:
    """Literal stem map over the closed testdata vocabulary."""
    from ..kernels.stemmer import stem
    whens = []
    for t in _TESTDATA_VOCAB:
        s = stem(t)
        if s != t:
            whens.append(f"WHEN '{t}' THEN '{s}'")
    return f"CASE {var} " + " ".join(whens) + f" ELSE {var} END"


def _fnv_fp(var: str) -> str:
    """fnv1a_64(var) >> 1 as BIGINT — build.py:77-84 url fingerprint."""
    return (
        f"CAST(list_reduce(list_prepend({_FNV_BASIS}::HUGEINT, "
        f"[ascii(substr({var}, i, 1))::HUGEINT "
        f"FOR i IN range(1, length({var}) + 1)]), "
        f"(h, b) -> (xor(h, b) * {_FNV_PRIME}::HUGEINT) % {TWO64}) "
        f"// 2 AS BIGINT)")


class _Cols:
    """Stem → SQL tf-column registry: collision-safe names (synonym
    stems may contain spaces/apostrophes) + escaped literals."""

    def __init__(self):
        self.by_stem: dict[str, str] = {}
        self.sql: dict[str, str] = {}

    @staticmethod
    def _lit(s: str) -> str:
        return s.replace("'", "''")

    def col(self, stem: str) -> str:
        c = self.by_stem.get(stem)
        if c is None:
            import re
            base = ("t_" if stem.startswith("@") else "b_") + re.sub(
                r"[^a-z0-9]", "_", stem.lstrip("@"))
            c = base
            i = 2
            while c in self.sql:
                c = f"{base}{i}"
                i += 1
            src = "tst" if stem.startswith("@") else "bst"
            lit = self._lit(stem[1:] if stem.startswith("@") else stem)
            self.sql[c] = (f"len(list_filter({src}, "
                           f"s -> s = '{lit}')) AS {c}")
            self.by_stem[stem] = c
        return c


def _phrase_pred(stems: list[str]) -> str:
    """Consecutive-kept-positions phrase predicate: the index stores
    positions dense over the kept sequence (title ++ body,
    stages/parse.py), so a phrase matches iff its stems appear at
    adjacent indices of the per-doc kept-stem LIST — a sliding-window
    scan over tst ('@'-side) or bst. Empty-stem (stopword) terms are
    dropped first, like the phrase leaf of ShardIndex.eval, whose one
    evaluator (ShardIndex._eval_phrase_uncached) intersects the same
    (doc, position - i) adjacency."""
    stems = [s for s in stems if s and s != "@"]
    if not stems:
        return "FALSE"
    src = "tst" if stems[0].startswith("@") else "bst"
    lits = [_Cols._lit(s[1:] if s.startswith("@") else s)
            for s in stems]
    k = len(lits)
    if k == 1:
        return f"list_contains({src}, '{lits[0]}')"
    conds = " AND ".join(
        f"{src}[i + {j}] = '{lit}'" if j else f"{src}[i] = '{lit}'"
        for j, lit in enumerate(lits))
    return (f"len([i FOR i IN range(1, len({src}) - {k - 2}) "
            f"IF {conds}]) > 0")


def _pred(node, qc, cols: "_Cols") -> str:
    """Candidate predicate from the plan tree — mirrors ShardIndex.eval
    (pipelines/search.py) exactly."""
    if node is None:
        return "FALSE"
    if isinstance(node, qc.Word):
        if not node.stem_ or node.stem_ == "@":
            return "FALSE"  # stopword leaf: empty posting list
        return f"{cols.col(node.stem_)} > 0"
    if isinstance(node, qc.Phrase):
        return _phrase_pred(list(node.stems))
    if isinstance(node, qc.And):
        l, r = node.left, node.right
        if isinstance(r, qc.Not):
            return (f"(({_pred(l, qc, cols)}) AND NOT "
                    f"({_pred(r.child, qc, cols)}))")
        if isinstance(l, qc.Not):
            return (f"(({_pred(r, qc, cols)}) AND NOT "
                    f"({_pred(l.child, qc, cols)}))")
        return f"(({_pred(l, qc, cols)}) AND ({_pred(r, qc, cols)}))"
    if isinstance(node, (qc.Or, qc.SynOr)):
        rest = node.right if isinstance(node, qc.Or) else node.rest
        return (f"(({_pred(node.left, qc, cols)}) OR "
                f"({_pred(rest, qc, cols)}))")
    if isinstance(node, qc.Not):
        return "FALSE"  # bare NOT: eval() returns the empty set
    raise TypeError(type(node))


def bm25_words_sql(queries: list[str] | None = None, k: int = 10,
                   use_synonyms: bool = False,
                   reference_shape: bool = False) -> str:
    """One-statement DuckDB oracle for ``flagship.run_word_queries``:
    (query_id, rank, score, doc_id, url, title), hash-exact.
    ``use_synonyms=True`` compiles with the vendored WordNet synsets:
    SynOr subtrees score with weight SYN_WEIGHT (Ranker.hpp:110) —
    multi-word synonym stems can never match single-token postings on
    either engine, so their tf is 0 on both."""
    from ..query import compile as qc
    from ..pipelines.search import SYN_WEIGHT, flatten_terms, scoring_terms

    queries = list(queries or BM25_WORD_QUERIES)
    synsets = qc.get_default_synsets() if use_synonyms else None
    plans = [qc.compile_query(q, synsets, title_stem_fix=True)
             for q in queries]

    # every (stream, stem) tf column any query needs, insertion-ordered
    # (flatten_terms, not scoring_terms: NOT-side terms never score but
    # the candidate predicate still probes their tf)
    cols = _Cols()
    for plan in plans:
        if plan is None:
            continue
        for stem, _syn in flatten_terms(plan):
            cols.col(stem)

    smap = _stem_case("w")
    tf_cols = ",\n        ".join(cols.sql.values()) \
        if cols.sql else "0 AS none_"
    df_cols = ",\n        ".join(
        f"CAST(SUM(CASE WHEN {c} > 0 THEN 1 ELSE 0 END) AS BIGINT) "
        f"AS df_{c}" for c in cols.sql) or "0 AS df_none_"

    parts = []
    for qid, plan in enumerate(plans):
        if plan is None:
            continue  # invalid query → no rows (engine returns empty)
        pred = _pred(plan, qc, cols)
        # score: fold-left in scoring_terms order, each op in numpy's
        # association (bm25_impact, segments.py:70-73; idf, search.py:1158;
        # synonym weight applied as (SYN_WEIGHT * idf) * imp — float
        # multiplication is exactly commutative, so this matches both the
        # exhaustive path's (SYN*w)*imp and WAND's (w*SYN)*imp). The fold
        # is a flat list_reduce from 0.0 — bit-identical to a nested
        # (((0+c1)+c2)+…) chain but O(1) binder depth (a 62-synonym
        # SynOr would blow DuckDB's 128-deep expression recursion)
        contribs = []
        for stem, is_syn in scoring_terms(plan):
            c = cols.col(stem)
            idf = (f"ln(1.0 + (g.n - g.df_{c} + 0.5) "
                   f"/ (g.df_{c} + 0.5))")
            if is_syn:
                idf = f"({SYN_WEIGHT!r} * {idf})"
            imp = (f"(CAST({c} AS DOUBLE) / (CAST({c} AS DOUBLE) "
                   f"+ 1.2 * (0.25 + (0.75 * CAST(dl AS DOUBLE)) "
                   f"/ g.avgdl)))")
            contribs.append(f"CASE WHEN {c} > 0 "
                            f"THEN {idf} * {imp} ELSE 0.0 END")
        if contribs:
            sc = (f"list_reduce(list_prepend(0.0, [{', '.join(contribs)}"
                  f"]), (h, x) -> h + x)")
        else:
            sc = "0.0"
        if reference_shape:
            # run_reference_queries emits (query_id, query, rank,
            # score, doc_id, url) — query string literal, no title
            qlit = _Cols._lit(queries[qid])
            sel = (f"CAST({qid} AS BIGINT) AS query_id, "
                   f"'{qlit}' AS query,\n         "
                   f"CAST(row_number() OVER (ORDER BY score DESC, fp) "
                   f"AS BIGINT)\n           AS rank,\n"
                   f"         score, fp AS doc_id, url")
        else:
            sel = (f"CAST({qid} AS BIGINT) AS query_id,\n         "
                   f"CAST(row_number() OVER (ORDER BY score DESC, fp) "
                   f"AS BIGINT)\n           AS rank,\n"
                   f"         score, fp AS doc_id, url, title")
        parts.append(f"""
SELECT * FROM (
  SELECT {sel}
  FROM (SELECT fp, url, title, {sc} AS score
        FROM tf, g WHERE {pred})
  ORDER BY score DESC, fp LIMIT {k})""")

    body = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (SELECT doc_id,
    list_filter(string_split_regex(trim(lower(text)), '\\s+'),
                w -> w <> '') AS toks
  FROM documents),
d0 AS (SELECT doc_id, toks,
    toks[1:8] || toks || toks[9:12] || toks[1:2] AS bstream
  FROM t),
d AS (SELECT doc_id, toks,
    list_filter(list_transform(toks[1:8], w -> {smap}),
                s -> s <> '') AS tst,
    list_filter(list_transform(bstream, w -> {smap}),
                s -> s <> '') AS bst
  FROM d0),
dd AS (SELECT doc_id, tst, bst, len(tst) + len(bst) AS dl,
    'http://doc' || CAST(doc_id AS VARCHAR) || '.' ||
      (['gov','edu','org','com','net','io','info','biz','xyz','top',
        'us','dev','example'])[(doc_id % 13) + 1] ||
      '/p/' || CAST(doc_id % 97 AS VARCHAR) AS url,
    array_to_string(toks[1:8], ' ') AS title
  FROM d),
tf AS (SELECT doc_id, dl, url, title, tst, bst,
        {_fnv_fp('url')} AS fp,
        {tf_cols}
  FROM dd),
g AS (SELECT CAST(COUNT(*) AS BIGINT) AS n,
        CAST(SUM(dl) AS DOUBLE) / COUNT(*) AS avgdl,
        {df_cols}
  FROM tf)
SELECT * FROM ({body})
ORDER BY query_id, rank
"""
