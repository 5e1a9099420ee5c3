"""The generators are pure functions of their seed."""

import gen


def test_sf_documents_deterministic_and_seeded():
    a, b = gen.sf_documents(1), gen.sf_documents(1)
    assert a.equals(b)
    assert not a.equals(gen.sf_documents(2))
    assert not a.equals(gen.sf_documents(1, part=1))
    assert a.num_rows == 500
    words = {w for t in a.column("text").to_pylist() for w in t.split()}
    assert words <= set(gen.SF_VOCAB) | {"dup"}


def test_zipf_corpus_deterministic_and_seeded():
    a, b = gen.zipf_documents(1, 40), gen.zipf_documents(1, 40)
    assert a.docs.equals(b.docs) and a.vocab == b.vocab
    c = gen.zipf_documents(2, 40)
    assert not a.docs.equals(c.docs)
    assert a.vocab[:100] != c.vocab[:100]
    lens = [len(t.split()) for t in a.docs.column("text").to_pylist()]
    assert min(lens) >= 200 and max(lens) <= 400
    # df counts documents, so it never exceeds the corpus size
    assert a.df.max() <= 40 and a.df.sum() > 0


def test_zipf_queries_distinct_deterministic_seeded():
    corpus = gen.zipf_documents(3, 60)
    q1 = gen.zipf_queries(corpus, 3, 500)
    assert q1 == gen.zipf_queries(corpus, 3, 500)
    assert len(set(q1)) == 500
    assert q1 != gen.zipf_queries(corpus, 4, 500)
    shapes = {"&": 0, "|": 0, '"': 0, "-": 0}
    for q in q1:
        for k in shapes:
            shapes[k] += k in q
    assert all(v > 0 for v in shapes.values())


def test_zipf_words_are_their_own_stems():
    from search_engine_ray.kernels.stemmer import stem
    words = [gen.zipf_word(i) for i in range(0, 60_000, 7)]
    assert len(set(words)) == len(words)
    assert all(stem(w) == w for w in words)


def test_second_generation_mixes_known_urls():
    base = gen.sf_documents(5)
    new = gen.sf_documents(5, n=100, part=1, id_base=gen.APPEND_ID_BASE)
    s1 = gen.second_generation(base, new, 5)
    assert s1.equals(gen.second_generation(base, new, 5))
    assert not s1.equals(gen.second_generation(base, new, 6))
    ids = s1.column("doc_id").to_pylist()
    known = [i for i in ids if i < gen.APPEND_ID_BASE]
    assert len(known) == 25  # 5% of the 500 base docs
    assert set(known) <= set(base.column("doc_id").to_pylist())
