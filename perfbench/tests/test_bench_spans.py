"""Self time = duration minus the union of the children's intervals."""

import pytest

from spans import Span, Tracer, self_time_by_name, self_times


def test_self_time_on_synthetic_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 3.0, 0, 1),
        Span(2, "b", 2.0, 5.0, 0, 1),   # overlaps a: union is [1, 5)
        Span(3, "c", 8.0, 12.0, 0, 1),  # runs past root: clipped to 10
        Span(4, "d", 3.5, 4.5, 2, 1),   # grandchild: only b loses it
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(4.0)
    assert st[4] == pytest.approx(1.0)
    # self times add up to the root's interval, plus what children
    # spill past it (2) and what overlapping siblings share (1)
    assert sum(st.values()) == pytest.approx(10.0 + 2.0 + 1.0)


def test_self_time_by_name_sums_repeats():
    spans = [Span(0, "q", 0.0, 4.0, None, 1),
             Span(1, "x", 0.0, 1.0, 0, 1),
             Span(2, "x", 2.0, 3.0, 0, 1)]
    assert self_time_by_name(spans) == pytest.approx({"q": 2.0, "x": 2.0})


def test_tracer_nests_and_inherits_query_id():
    tr = Tracer()
    with tr.span("query", qid=5):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans
    assert inner.parent == outer.id and inner.qid == 5
    assert outer.start <= inner.start <= inner.end <= outer.end
