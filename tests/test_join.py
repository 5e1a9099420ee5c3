"""``functions.join.gated_join`` against one in-process Arrow join of
the same inputs, on both halves (broadcast and native hash join) and
every join type, with the inputs that break a raw Ray Data hash join:
an empty first block, more partitions than keys, an empty side. The
broadcast probe alone is also checked against ``Table.join`` on
multi-column, string and null keys."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from search_engine_ray.functions.join import BROADCAST_GATE

_VERB = {"inner": "inner", "left_semi": "left semi",
         "left_anti": "left anti"}


def _rows(t: pa.Table) -> list:
    t = t.select(sorted(t.column_names))
    return sorted(zip(*t.to_pydict().values()), key=repr)  # None-safe


@pytest.mark.parametrize("gate", [0, BROADCAST_GATE])
@pytest.mark.parametrize("how", ["inner", "left_semi", "left_anti"])
def test_gated_join_matches_arrow_join(ray_session, how, gate):
    import ray
    import ray.data as rd

    from search_engine_ray.functions.join import gated_join

    # keys 1..3 over 8 partitions; key 4 has no right row, key 2 has two
    # (every match is emitted); the left's FIRST block is empty
    left = pa.table({"k": pa.array([1, 2, 2, 3, 4, 1], pa.int64()),
                     "lv": pa.array([10, 20, 21, 30, 40, 11], pa.int64())})
    right = pa.table({"rk": pa.array([1, 2, 2, 3], pa.int64()),
                      "rv": pa.array(["a", "b", "b2", "c"])})
    for rt in (right, right.slice(0, 0)):
        left_ds = rd.from_arrow([left.slice(0, 0), left.slice(0, 3),
                                 left.slice(3)])
        out = gated_join(left_ds, rd.from_arrow(rt), ["k"], ["rk"],
                         how=how, num_partitions=8, broadcast_gate=gate)
        tabs = [t for t in ray.get(out.to_arrow_refs()) if t.num_columns]
        want = left.join(rt, keys="k", right_keys="rk",
                         join_type=_VERB[how])
        if not tabs:
            assert want.num_rows == 0, (how, gate, rt.num_rows)
            continue
        got = pa.concat_tables(tabs)
        assert sorted(got.column_names) == sorted(want.column_names)
        assert _rows(got) == _rows(want), (how, gate, rt.num_rows)
    if gate == 0:  # a left with no rows against a right past the gate
        out = gated_join(rd.from_arrow(left.slice(0, 0)),
                         rd.from_arrow(right), ["k"], ["rk"], how=how,
                         num_partitions=8, broadcast_gate=gate)
        assert out.count() == 0


def _keys(rng, n: int, typ: pa.DataType) -> pa.Array:
    v = rng.integers(0, 6, n)
    nulls = rng.random(n) < 0.2
    return pa.array([None if z else (f"s{x}" if typ == pa.string() else
                                     int(x)) for x, z in zip(v, nulls)], typ)


@pytest.mark.parametrize("how", ["inner", "left_semi", "left_anti"])
def test_broadcast_probe_matches_arrow_join(how):
    """The broadcast half's sorted-key probe, per left batch, returns
    what ``Table.join`` returns: duplicate right keys emit every match,
    a null key never matches, one or two key columns."""
    from search_engine_ray.functions.join import _SortedRight

    rng = np.random.default_rng(7)
    for trial in range(24):
        typ = [pa.int64(), pa.string(), pa.int32()][trial % 3]
        nl, nr = int(rng.integers(0, 50)), int(rng.integers(0, 30))
        if trial % 8 == 0:
            nr = 0  # an empty right side
        left = pa.table({"a": _keys(rng, nl, typ),
                         "b": _keys(rng, nl, pa.int64()),
                         "lv": pa.array(np.arange(nl))})
        right = pa.table({"ra": _keys(rng, nr, typ),
                          "rb": _keys(rng, nr, pa.int64()),
                          "rv": pa.array(np.arange(nr) * 10)})
        for keys, rkeys in [(["a"], ["ra"]), (["a", "b"], ["ra", "rb"]),
                            (["b", "a"], ["rb", "ra"])]:
            got = _SortedRight(right, rkeys, keys, how)(left)
            want = left.join(right, keys=keys, right_keys=rkeys,
                             join_type=_VERB[how])
            assert got.schema == want.schema, (trial, keys)
            assert _rows(got) == _rows(want), (trial, keys)
