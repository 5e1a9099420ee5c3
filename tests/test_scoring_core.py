"""The shard scoring core, pinned without Ray.

- The plan walker: what ``flatten_terms``, ``scoring_terms`` and
  ``pure_disjunction_terms`` yield for the 30 reference queries and for crafted plans (NOT on either side of
  an AND, nested Or/SynOr with duplicate and empty stems, phrases,
  stopword-only queries) equals ``tests/golden/scoring_core.json``.
- The boolean evaluator: sorted arrays and dense masks give the same
  candidate set for every plan on a fixture shard, and that set equals a
  brute-force evaluation over the shard's documents.
- The BM25 accumulator: its three modes (full vector, postings probe,
  candidate probe) give bit-identical scores for the same terms, and
  WAND, which scores through it, returns exhaustive scoring's bits.
- ``score_topk`` rows equal the golden's bit for bit.

The golden was written by the code before the scoring core was merged,
so these tests pin that code's results. ``PYTHONPATH=. python
tests/test_scoring_core.py`` rewrites it; do that only for a deliberate
change of results.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np
import pytest

from search_engine_ray.query import compile as qc
from search_engine_ray.query.refqueries import REF_QUERIES

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "scoring_core.json")
N_DOCS = 400
ABSENT = "zzabsentzz"  # a stem no fixture document holds


def _w(stem_: str) -> "qc.Word":
    return qc.Word(stem_, stem_)


def _syn(left, rest) -> "qc.SynOr":
    return qc.SynOr(left, rest, 1, 0)


def _crafted() -> dict:
    """Hand-built plans over index stems (fresh nodes on every call)."""
    fast, tabl, key, merg = _w("fast"), _w("tabl"), _w("key"), _w("merg")
    return {
        "not-right": qc.And(_w("fast"), qc.Not(_w("tabl"))),
        "not-left": qc.And(qc.Not(_w("tabl")), _w("fast")),
        "not-both-sides": qc.And(qc.Not(_w("key")),
                                 qc.And(_w("fast"), qc.Not(_w("merg")))),
        "bare-not": qc.Not(_w("fast")),
        "or-side-not": qc.Or(qc.Not(fast), tabl),
        "not-first-then-positive": qc.And(qc.Not(_w("key")),
                                          qc.Or(_w("key"), _w("fast"))),
        "not-over-synonyms": qc.And(
            _w("tabl"), qc.Not(_syn(_w("key"), _syn(_w("merg"), None)))),
        "nested-or-synor-dups-empty": _syn(
            qc.Or(_w("fast"), qc.Word("the", "")),
            _syn(qc.Or(_w("tabl"), _w("fast")),
                 _syn(qc.Or(_w("key"), qc.Word("a", "")), None))),
        "synonym-then-plain-dup": qc.Or(_syn(_w("key"), _syn(_w("tabl"),
                                                             None)),
                                        _w("tabl")),
        "and-of-words-dup": qc.And(qc.And(key, merg), _w("key")),
        "and-of-words-empty": qc.And(_w("fast"), qc.Word("the", "")),
        "and-of-or": qc.And(_w("fast"), qc.Or(_w("tabl"), _w("key"))),
        "phrase-with-stopword": qc.Phrase(["fast", "the", "key"],
                                          ["fast", "", "key"]),
        "phrase-and-word": qc.And(qc.Phrase(["key", "order"],
                                            ["key", "order"]), _w("fast")),
        "phrase-in-or": qc.Or(qc.Phrase(["slow", "fast"], ["slow", "fast"]),
                              qc.Phrase(["@slow", "@fast"],
                                        ["@slow", "@fast"])),
        "empty-phrase": qc.Phrase(["the"], [""]),
        "stopword-word": qc.Word("the", ""),
        "absent-word": _w(ABSENT),
        "and-with-absent": qc.And(_w("fast"), _w(ABSENT)),
        "or-with-none": qc.Or(_w("fast"), None),
        "synor-tail-none": _syn(_w("fast"), None),
    }


def _plans() -> dict:
    """name → plan: the reference queries compiled as the engine does
    (synonyms, engine-mode title decoration), then the crafted plans."""
    syn = qc.get_default_synsets()
    out = {f"q:{q}": qc.compile_query(q, syn, title_stem_fix=True)
           for q in REF_QUERIES}
    out.update({f"c:{n}": p for n, p in _crafted().items()})
    return out


def _idf(stem_: str) -> float:
    return 1.0 + (zlib.crc32(stem_.encode()) % 97) / 50.0


def _walks(plan) -> dict:
    from search_engine_ray.pipelines import search as S

    flat = S.flatten_terms(plan)
    idf = {t: _idf(t) for t, _ in flat}
    disj = S.pure_disjunction_terms(plan, idf)
    return {"flatten": [list(x) for x in flat],
            "scoring": [list(x) for x in S.scoring_terms(plan)],
            "disjunction": None if disj is None else [list(x) for x in disj]}


# -- fixture shard -----------------------------------------------------------

def _docs() -> list[list[str]]:
    """Seeded token lists over the plans' one-token stems (a multi-word
    synonym never matches: the index splits it), most-used query stems
    most frequent (Zipf), with phrases planted in every 5th doc."""
    vocab: list[str] = []
    phrases: list[list[str]] = []
    for p in _plans().values():
        for t, _ in _flat(p):
            if t and " " not in t and t not in vocab and t != ABSENT:
                vocab.append(t)
        _collect_phrases(p, phrases)
    rng = np.random.default_rng(15)
    ranks = rng.zipf(1.3, size=(N_DOCS, 40))
    docs = []
    for i in range(N_DOCS):
        n = int(rng.integers(4, 40))
        toks = [vocab[(int(r) - 1) % len(vocab)] for r in ranks[i, :n]]
        if i % 5 == 0 and phrases:
            ph = phrases[int(rng.integers(0, len(phrases)))]
            at = int(rng.integers(0, len(toks) + 1))
            toks[at:at] = ph
        docs.append(toks)
    return docs


def _flat(plan):
    from search_engine_ray.pipelines.search import flatten_terms
    return flatten_terms(plan)


def _collect_phrases(node, out: list) -> None:
    if isinstance(node, qc.Phrase):
        stems = [s for s in node.stems if s]
        if stems:
            out.append(stems)
    for c in ("left", "right", "rest", "child"):
        if hasattr(node, c):
            _collect_phrases(getattr(node, c), out)


@pytest.fixture(scope="module")
def shard(tmp_path_factory):
    from test_block_layout import _write_shard

    docs = _docs()
    dls = [len(d) for d in docs]
    avgdl = float(np.mean(dls))
    root = str(tmp_path_factory.mktemp("core"))
    sh = _write_shard(root, [" ".join(d) for d in docs], dls, avgdl)
    return sh, avgdl, docs, root


def _brute(node, docs) -> set[int]:
    """Candidate set by definition, over the raw token lists (ordinal =
    doc id here: the fixture's doc ids are 0..n-1)."""
    if node is None or isinstance(node, qc.Not):
        return set()
    if isinstance(node, qc.Word):
        return {i for i, d in enumerate(docs) if node.stem_ in d}
    if isinstance(node, qc.Phrase):
        ph = [s for s in node.stems if s]
        if not ph:
            return set()
        return {i for i, d in enumerate(docs)
                if any(d[j:j + len(ph)] == ph for j in range(len(d)))}
    if isinstance(node, qc.And):
        l, r = node.left, node.right
        if isinstance(r, qc.Not):
            return _brute(l, docs) - _brute(r.child, docs)
        if isinstance(l, qc.Not):
            return _brute(r, docs) - _brute(l.child, docs)
        return _brute(l, docs) & _brute(r, docs)
    rest = node.right if isinstance(node, qc.Or) else node.rest
    return _brute(node.left, docs) | _brute(rest, docs)


def _topk(sh, plan, avgdl) -> list:
    idf = {t: _idf(t) for t, _ in _flat(plan)}
    return [list(r) for r in sh.score_topk(plan, 10, idf, avgdl)]


# -- tests -------------------------------------------------------------------

def _golden() -> dict:
    with open(GOLDEN) as f:
        return json.load(f)


def test_plan_walks_match_golden():
    want = _golden()["walks"]
    plans = _plans()
    assert sorted(plans) == sorted(want)
    for name, plan in plans.items():
        assert _walks(plan) == want[name], name


def test_evaluator_representations_agree(shard):
    sh, _, docs, _ = shard
    nonempty = 0
    for name, plan in _plans().items():
        arrays = sh.eval(plan)
        masks = sh.eval(plan, dense=True)
        assert arrays.dtype == masks.dtype == np.int64, name
        np.testing.assert_array_equal(arrays, masks, err_msg=name)
        assert set(arrays.tolist()) == _brute(plan, docs), name
        nonempty += bool(len(arrays))
    assert nonempty >= 25


def test_accumulator_modes_bit_identical(shard):
    from search_engine_ray.pipelines.search import SYN_WEIGHT
    from search_engine_ray.state.segments import bm25_impact

    sh, avgdl, _, _ = shard
    rng = np.random.default_rng(3)
    n = len(sh.doc_ids)
    vocab = sh.vocab()
    modes_seen = set()
    for trial in range(60):
        picks = rng.choice(len(vocab), size=int(rng.integers(1, 6)),
                           replace=False)
        terms = [(sh.lookup(vocab[int(i)]),
                  (SYN_WEIGHT if rng.random() < 0.3 else 1.0)
                  * _idf(vocab[int(i)])) for i in picks]
        size = int(rng.choice([1, 5, 40, n // 4, n // 2, n]))
        cand = np.unique(rng.choice(n, size=size, replace=False))
        full = sh._bm25(cand, terms, avgdl, full=True)
        got = {"full": full}
        if n > 4 * len(cand):
            # the per-term probe direction follows df vs |cand|
            got["probe"] = sh._bm25(cand, terms, avgdl)
            modes_seen.update("postings" if tp.df < len(cand) else "cand"
                              for tp, _ in terms)
        want = np.zeros(len(cand))
        for tp, w in terms:
            at = {int(d): j for j, d in enumerate(tp.doc_ids)}
            for ci, d in enumerate(cand.tolist()):
                if d in at:
                    j = at[d]
                    want[ci] += w * bm25_impact(tp.tfs[j:j + 1],
                                                sh.dls[d:d + 1], avgdl)[0]
        for mode, scores in got.items():
            assert scores.tobytes() == want.tobytes(), (trial, mode)
    assert modes_seen == {"postings", "cand"}


def test_wand_adds_like_exhaustive(shard):
    """WAND scores each batch through the exhaustive path's accumulator:
    for 3 to 8 frequent terms (docs where three or more add up, which
    a pairwise or reordered sum would round differently) both return
    the same bits."""
    sh, avgdl, _, _ = shard
    vocab = sh.vocab()
    top = sorted(vocab, key=lambda t: -sh._df(t))[:12]
    rng = np.random.default_rng(1)
    for trial in range(100):
        picks = rng.choice(len(top), size=int(rng.integers(3, 9)),
                           replace=False)
        terms = [(top[int(i)], float(rng.uniform(0.3, 3.0)))
                 for i in picks]
        assert sh.wand_topk(terms, 10, avgdl) == \
            sh.exhaustive_topk(terms, 10, avgdl), terms


def test_score_topk_matches_golden(shard):
    sh, avgdl, _, _ = shard
    want = _golden()["topk"]
    for name, plan in _plans().items():
        assert _topk(sh, plan, avgdl) == want[name]["generic"], name


if __name__ == "__main__":
    import tempfile

    from test_block_layout import _write_shard

    docs = _docs()
    dls = [len(d) for d in docs]
    avgdl = float(np.mean(dls))
    with tempfile.TemporaryDirectory() as root:
        sh = _write_shard(root, [" ".join(d) for d in docs], dls, avgdl)
        plans = _plans()
        golden = {
            "walks": {n: _walks(p) for n, p in plans.items()},
            "topk": {n: {"generic": _topk(sh, p, avgdl)}
                     for n, p in plans.items()},
        }
    with open(GOLDEN, "w") as f:  # one line per plan
        f.write("{\n" + ",\n".join(
            f" {json.dumps(part)}: {{\n" + ",\n".join(
                f"  {json.dumps(n)}: {json.dumps(v, sort_keys=True)}"
                for n, v in sorted(entries.items())) + "\n }"
            for part, entries in golden.items()) + "\n}\n")
    print(f"wrote {GOLDEN}: {len(plans)} plans")
