"""Seeded input generators for the benchmark workloads.

Everything here is a pure function of its arguments: the same seed gives
byte-identical tables and query lists, a different seed gives different
ones. The program under test only ever sees what these functions return
(parquet pages and query strings).

- :func:`sf_documents` — a stand-in for the sf0.01 ``documents`` table
  (500 short texts over a closed 31-token vocabulary, ~5% near-duplicate
  texts), replicated into pages like the repo's bench corpus.
- :func:`zipf_documents` / :func:`zipf_queries` — a wide-vocabulary
  corpus (Zipf-Mandelbrot over tens of thousands of synthetic words that
  the stemmer leaves unchanged, plus a few English words with synonyms)
  and a stream of distinct queries across df bands and plan shapes.
- :func:`second_generation` — an append batch: new urls plus a slice of
  already-indexed urls that cross-run dedup must drop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

# the sf documents vocabulary (30 words; "dup" marks near-duplicates)
SF_VOCAB = sorted(
    "agg a batch big column customer data fast filter group hash join key "
    "line merge order part query row scan slow small sort spark stream "
    "table the value vector window".split())
ENGLISH_WORDS = [w for w in SF_VOCAB if w not in ("a", "the")]
LANGS = ["en", "zh", "es", "de", "fr"]
LANG_P = [0.44, 0.14, 0.14, 0.14, 0.14]

# syllables of the synthetic zipf vocabulary: consonant+vowel pairs, and
# every word ends in "x", so the stemmer maps each word to itself and no
# two words share a stem (pinned by the generator tests)
_SYL = [c + v for c in "bdfgklmnprtvz" for v in "aiou"]

# doc_id ranges: replicated sf docs use rep * 10M + i (the repo's
# replicate_documents_batch); zipf docs and appended docs get their own
ZIPF_ID_BASE = 100_000_000
APPEND_ID_BASE = 500_000_000


def zipf_word(i: int) -> str:
    """The i-th synthetic vocabulary word (three or more syllables)."""
    i += len(_SYL) ** 2
    out = []
    while i:
        i, r = divmod(i, len(_SYL))
        out.append(_SYL[r])
    return "".join(reversed(out)) + "x"


def _docs_table(doc_ids, texts, langs) -> pa.Table:
    return pa.table({
        "doc_id": pa.array(doc_ids, pa.int64()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })


def sf_documents(seed: int, n: int = 500, part: int = 0,
                 id_base: int = 0) -> pa.Table:
    """``n`` short documents shaped like the sf0.01 documents table:
    10-99 words drawn uniformly from :data:`SF_VOCAB`, ~5% of texts
    copied from an earlier doc (half of those tagged ``dup``). ``part``
    selects an independent stream for the same seed."""
    rng = np.random.default_rng([seed, 1, part])
    lens = rng.integers(10, 100, size=n)
    words = rng.integers(0, len(SF_VOCAB), size=int(lens.sum()))
    vocab = np.asarray(SF_VOCAB, dtype=object)
    texts, pos = [], 0
    for ln in lens:
        texts.append(" ".join(vocab[words[pos:pos + ln]]))
        pos += ln
    for i in range(1, n):
        if rng.random() < 0.05:
            j = int(rng.integers(0, i))
            texts[i] = texts[j] + (" dup" if rng.random() < 0.5 else "")
    langs = list(rng.choice(LANGS, size=n, p=LANG_P))
    return _docs_table(list(range(id_base, id_base + n)), texts, langs)


@dataclass
class ZipfCorpus:
    """A generated wide-vocabulary corpus plus what the query generator
    needs to know about it (per-word document frequency)."""
    docs: pa.Table
    vocab: list[str]       # rank order: vocab[0] is the most frequent
    df: np.ndarray         # documents containing vocab[r]
    first_bigram: list[tuple[str, str]]  # one adjacent pair per doc


def _zipf_p(v: int, s: float = 1.0, q: float = 2.7) -> np.ndarray:
    p = 1.0 / (np.arange(v, dtype=np.float64) + q) ** s
    return p / p.sum()


def zipf_documents(seed: int, n_docs: int, words_per_doc: int = 300,
                   vocab_size: int = 50_000, part: int = 0,
                   id_base: int = ZIPF_ID_BASE) -> ZipfCorpus:
    """``n_docs`` documents of ``words_per_doc`` ± 1/3 words each, drawn
    from a Zipf-Mandelbrot distribution over ``vocab_size`` synthetic
    words. The seed picks which word holds which frequency rank (so
    seeds differ in their head terms); ``part`` draws further documents
    over the same vocabulary ranking."""
    rng = np.random.default_rng([seed, 2])
    perm = rng.permutation(vocab_size)
    vocab = [zipf_word(int(i)) for i in perm]
    # a few English words with WordNet synsets sit at torso ranks, so
    # synonym-expanded plans have postings to score here too
    for w, r in zip(ENGLISH_WORDS,
                    rng.choice(np.arange(100, 2000), len(ENGLISH_WORDS),
                               replace=False)):
        vocab[int(r)] = w
    rng = np.random.default_rng([seed, 2, part])
    lo, hi = words_per_doc * 2 // 3, words_per_doc * 4 // 3
    lens = rng.integers(lo, hi + 1, size=n_docs)
    ranks = rng.choice(vocab_size, size=int(lens.sum()), p=_zipf_p(vocab_size))
    vocab_arr = np.asarray(vocab, dtype=object)
    bounds = np.concatenate(([0], np.cumsum(lens)))
    doc_of = np.repeat(np.arange(n_docs), lens)
    # df: distinct (rank, doc) pairs
    pair = np.unique(ranks.astype(np.int64) * n_docs + doc_of)
    df = np.bincount(pair // n_docs, minlength=vocab_size)
    texts, bigrams = [], []
    for d in range(n_docs):
        r = ranks[bounds[d]:bounds[d + 1]]
        texts.append(" ".join(vocab_arr[r]))
        bigrams.append((vocab[int(r[20])], vocab[int(r[21])]))
    langs = list(rng.choice(LANGS, size=n_docs, p=LANG_P))
    docs = _docs_table(list(range(id_base, id_base + n_docs)), texts, langs)
    return ZipfCorpus(docs, vocab, df, bigrams)


def zipf_queries(corpus: ZipfCorpus, seed: int, n: int) -> list[str]:
    """``n`` distinct queries over ``corpus``: terms from the head (top
    100 ranks), torso (next 4,900) and tail (df ≥ 1 beyond) bands, ~5%
    absent words, in word / AND / OR / phrase / NOT shapes."""
    rng = np.random.default_rng([seed, 3])
    present = np.flatnonzero(corpus.df > 0)
    head = present[present < 100]
    torso = present[(present >= 100) & (present < 5000)]
    tail = present[present >= 5000]
    v = len(corpus.vocab)

    def term() -> str:
        u = rng.random()
        if u < 0.05:  # absent: a valid word outside the vocabulary
            return zipf_word(v + int(rng.integers(0, 10 * v)))
        band = head if u < 0.30 else torso if u < 0.70 else tail
        return corpus.vocab[int(band[rng.integers(0, len(band))])]

    out: list[str] = []
    seen: set[str] = set()
    while len(out) < n:
        shape = rng.random()
        if shape < 0.25:
            q = term()
        elif shape < 0.50:
            q = f"{term()} & {term()}"
        elif shape < 0.70:
            q = f"{term()} | {term()}"
        elif shape < 0.85:
            pick = int(rng.integers(0, len(corpus.first_bigram)))
            a, b = corpus.first_bigram[pick]
            q = f'"{a} {b}"'
        else:
            q = f"{term()} & -{term()}"
        if q not in seen:
            seen.add(q)
            out.append(q)
    return out


def second_generation(base: pa.Table, new_docs: pa.Table, seed: int,
                      known_frac: float = 0.05) -> pa.Table:
    """An append batch of *documents*: every row of ``new_docs`` plus
    ``known_frac`` × len(base) rows re-using doc_ids (hence urls) of
    ``base`` with fresh text — re-crawls that cross-run dedup drops."""
    rng = np.random.default_rng([seed, 4])
    k = max(1, int(round(known_frac * base.num_rows)))
    pick = np.sort(rng.choice(base.num_rows, size=k, replace=False))
    known = base.take(pa.array(pick)).select(["doc_id", "text", "lang"])
    texts = [t + " recrawl" for t in known.column("text").to_pylist()]
    known = known.set_column(1, "text", pa.array(texts, pa.string()))
    return pa.concat_tables([new_docs.select(["doc_id", "text", "lang"]),
                             known])
