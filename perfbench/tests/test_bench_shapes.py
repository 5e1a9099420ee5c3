"""Plan shapes come from the compiled node classes."""

import pytest

import layers


@pytest.mark.parametrize("query,shape", [
    ("agg", "word"), ("table", "syn"), ("agg & filter", "and"),
    ("agg | filter", "or"), ('"agg filter"', "phrase"),
    ("agg & -filter", "not"), ("-agg", "not"),
])
def test_plan_shape(query, shape):
    from search_engine_ray.query import compile as qc
    plan = qc.compile_query(query, qc.get_default_synsets(),
                            title_stem_fix=True)
    assert layers.plan_shape(plan, qc) == shape
