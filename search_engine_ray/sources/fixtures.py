"""Deterministic synthetic pages (FIXTURES.md §1).

Two generators:

- :func:`gen_pages` — adversarial corpus exercising every parser path of the
  reference HTML tokenizer (SURVEY.md §2.2 M2/M3): discard sections,
  comments, broken tags, anchors with quoted '>', base/embed, flag spans,
  oversized titles, duplicate urls, utility urls, all 13 TLDs, lang sniff.
- :func:`pages_from_documents` — wraps the driver testdata ``documents``
  table text into simple deterministic HTML at sf scale, for entry()/bench.

Everything is seeded (default seed=42); no wall-clock, no external data.
Output schema (BASELINE.json input_hint):
url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string
"""

from __future__ import annotations

import random

import numpy as np
import pyarrow as pa

TLDS = ["gov", "edu", "org", "com", "net", "io", "info", "biz", "xyz",
        "top", "us", "dev", "example"]  # "example" → TLD::UNKNOWN

_UTILITY = ["privacy", "terms", "policy", "legal", "404", "error"]

# vocabulary chosen to exercise the stemmer (exceptions, stopwords, short
# words, y-cases, doubles) and synonym expansion (words in synsets.txt)
_VOCAB = (
    "children women men news data media analysis series species money "
    "information person people teeth geese feet mice indices matrices oxen "
    "dice knives leaves wives lives thieves wolves potatoes tomatoes heroes "
    "echoes buses polite the a an and or but if with by on for in of to at "
    "is are was were be been being unit whole object animal being plant "
    "running flies cried hopping hoping luxuriating rational national "
    "organization generously happily past fastest bigger dying saying lying "
    "say cry by ws us ab xy running, cats. dogs; fish: go went gone "
    "quickly slowly brightly darkness happiness usefulness activity "
    "creation station nation relation vacation position decision "
    "privacy policy legal terms error contact about cookies"
).split()
_ZIPF_VOCAB = [f"word{i}" for i in range(400)]


def _make_url(rng: random.Random, i: int) -> str:
    tld = TLDS[i % len(TLDS)]
    host = f"{rng.choice(_VOCAB).strip('.,;:')}{i}"
    segs = rng.randint(0, 4)
    path = "/".join(rng.choice(_VOCAB).strip(".,;:") for _ in range(segs))
    if rng.random() < 0.05:
        path = (path + "/" if path else "") + rng.choice(_UTILITY)
    url = f"http://{host}.{tld}/{path}"
    if rng.random() < 0.1:
        url += "x" * rng.randint(10, 120)  # long urls for the length score
    return url


def _words(rng: random.Random, k: int) -> str:
    seps = [" ", "  ", "\t", "\n", " \r\n ", "\n\t"]
    out = []
    for _ in range(k):
        w = rng.choice(_VOCAB) if rng.random() < 0.6 else rng.choice(_ZIPF_VOCAB)
        if rng.random() < 0.15:
            w = w.upper() if rng.random() < 0.5 else w.capitalize()
        out.append(w)
    return "".join(w + rng.choice(seps) for w in out)


def _gen_html(rng: random.Random, i: int, lang: str) -> bytes:
    parts: list[str] = []
    lang_mode = i % 3
    if lang_mode == 0:
        parts.append(f'<!DOCTYPE html><HTML lang="{lang}">')
    elif lang_mode == 1:
        parts.append("<html>")
    else:
        parts.append('<html LANG="%s" class="x">' % lang)

    # title — some oversized (>=40 words → indexer reject, F2)
    if i % 17 == 3:
        tw = 40 + (i % 6)
    else:
        tw = rng.randint(0, 14)
    if tw or i % 5 != 1:
        parts.append("<head><TITLE>" + _words(rng, tw) + "</title>")
        parts.append('<meta charset="utf-8"><link rel="x" href="y">')
        if i % 7 == 2:
            parts.append(f'<base href="http://base{i}.example.com/sub/">')
            parts.append('<base href="http://second-base-ignored.com/">')
        parts.append("</head>")
    parts.append("<body>")

    nblocks = rng.randint(3, 10)
    for bi in range(nblocks):
        kind = rng.randint(0, 11)
        if kind == 0:
            parts.append("<p>" + _words(rng, rng.randint(3, 30)) + "</p>")
        elif kind == 1:
            parts.append("<B>" + _words(rng, rng.randint(1, 5)) + "</b>")
        elif kind == 2:
            h = rng.randint(1, 6)
            parts.append(f"<h{h}>" + _words(rng, rng.randint(1, 6)) + f"</h{h}>")
        elif kind == 3:
            href = _make_url(rng, i * 100 + bi)
            if rng.random() < 0.2:
                parts.append(f'<a title="q > t" href="{href}">'
                             + _words(rng, rng.randint(1, 4)) + "</a>")
            elif rng.random() < 0.2:
                parts.append("<a>" + _words(rng, 2) + "</a>")  # no href
            else:
                parts.append(f'<a href="{href}">'
                             + _words(rng, rng.randint(0, 5)) + "</a>")
        elif kind == 4:
            parts.append(f'<embed src="http://media{i}.com/v{bi}.mp4">')
        elif kind == 5:
            tag = rng.choice(["script", "style", "svg"])
            parts.append(f"<{tag}>decoy words SHOULD not appear "
                         f"<b>nor this</b> </{tag}>")
        elif kind == 6:
            parts.append("<!-- a comment with <tags> and words -->")
        elif kind == 7:
            parts.append("<unknowntag>" + _words(rng, 3))
            parts.append("<blah2 attr=1>" + _words(rng, 2))
        elif kind == 8:
            # unknown >20-char tag, properly closed → split into words
            parts.append("<averyverylongunknowntagname attr=v>"
                         + _words(rng, 3))
        elif kind == 9:
            # broken unclosed long tag → recovery path merges prev word
            parts.append(_words(rng, 2)
                         + "prefix<anotherveryverylongbrokentagname "
                         + _words(rng, 3))
        elif kind == 10:
            parts.append(_words(rng, rng.randint(2, 8)))
            if i % 9 == 4 and bi < 3:
                # deterministic sentence → phrase queries have hits
                parts.append("Information Retrieval ranks web documents")
        else:
            parts.append("word</b>more" + _words(rng, 2))  # stray closing
    if i % 13 == 5:
        parts.append("<script>unclosed discard to EOF ")
    elif i % 13 == 6:
        parts.append("<!-- unterminated comment ")
    else:
        parts.append("</body></html>")
    return "\n".join(parts).encode("utf-8")


def gen_pages(n: int = 200, seed: int = 42, dup_frac: float = 0.03) -> pa.Table:
    """Adversarial pages table; ~dup_frac duplicated urls for exact dedup."""
    rng = random.Random(seed)
    urls, htmls, langs = [], [], []
    for i in range(n):
        lang = "en" if rng.random() < 0.9 else rng.choice(
            ["de", "fr", "es", "zh"])
        urls.append(_make_url(rng, i))
        htmls.append(_gen_html(rng, i, lang))
        langs.append(lang)
    # duplicates: reuse earlier urls (same html) at the end
    ndup = int(n * dup_frac)
    for d in range(ndup):
        j = rng.randrange(0, n)
        urls.append(urls[j])
        htmls.append(htmls[j])
        langs.append(langs[j])
    total = len(urls)
    ts = np.arange(total, dtype="int64") * 1_000_000 + 1_500_000_000_000_000
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(ts, pa.timestamp("us")),
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array([""] * total, pa.string()),
        "lang": pa.array(langs, pa.string()),
    })


def replicate_documents_batch(batch: pa.Table, repl: int) -> pa.Table:
    """Replicate a documents batch ``repl`` times with distinct doc_ids
    (rep * 10M offset) — the FIXTURES.md bench-scale duplication."""
    tables = []
    for rep in range(repl):
        t = batch.set_column(
            batch.schema.get_field_index("doc_id"), "doc_id",
            pa.compute.add(batch.column("doc_id"), rep * 10_000_000))
        tables.append(t)
    return pa.concat_tables(tables)


def pages_from_documents_batch(batch: pa.Table, seed: int = 42,
                               body_repeats: int = 1,
                               rare_tag_mod: int = 0) -> pa.Table:
    """Wrap a ``documents`` batch (doc_id, text, lang, ...) into pages.

    Deterministic per doc_id (independent of batching/order) so the same
    corpus is produced at any parallelism level. ``body_repeats`` inflates
    the body toward realistic Common-Crawl page sizes (the raw documents
    are ~400B; real pages are tens of KB) — each repeat is a <p> block so
    parse work grows proportionally.

    ``rare_tag_mod`` > 0 appends one ``rtag{doc_id % mod}`` token per
    page: a low-df term family (df ≈ corpus/mod) in an otherwise
    ~50-term replicated vocabulary, so rare-term routing and rare∧frequent
    phrase skip-seeking have something to measure. Off by default — the correctness
    oracles restate the default synthesis in SQL.
    """
    doc_ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    langs = batch.column("lang").to_pylist()
    urls, htmls = [], []
    for doc_id, text, lang in zip(doc_ids, texts, langs):
        rng = random.Random((seed << 20) ^ doc_id)
        tld = TLDS[doc_id % len(TLDS)]
        url = f"http://doc{doc_id}.{tld}/p/{doc_id % 97}"
        words = text.split()
        title = " ".join(words[:8]) if words else f"doc {doc_id}"
        body = text
        if body_repeats > 1:
            body = "</p><p>".join(
                " ".join(words[(r * 7) % max(len(words) - 1, 1):]
                         + words[:(r * 7) % max(len(words) - 1, 1)])
                for r in range(body_repeats))
        bold = " ".join(words[8:12])
        if rare_tag_mod:
            body = f"{body} rtag{doc_id % rare_tag_mod}"
        html = (f'<html lang="{lang}"><head><title>{title}</title></head>'
                f"<body><h1>{title}</h1><p>{body}</p><b>{bold}</b>"
                f'<a href="http://doc{(doc_id * 7 + 1) % 100000}.com/">'
                f"{' '.join(words[:2])}</a></body></html>")
        urls.append(url)
        htmls.append(html.encode("utf-8"))
    ts = pa.array([1_500_000_000_000_000 + int(d) for d in doc_ids],
                  pa.timestamp("us"))
    return pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": ts,
        "html": pa.array(htmls, pa.binary()),
        "text": pa.array(texts, pa.string()),
        "lang": pa.array(langs, pa.string()),
        "doc_id": batch.column("doc_id"),  # extra column; build selects its own
    })
