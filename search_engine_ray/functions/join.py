"""``gated_join``: the operator library's one Dataset ⋈ Dataset equi-join.

The right side is materialised and counted once; that count picks one
of two halves:

- **broadcast** (≤ ``broadcast_gate`` right rows): the right side is
  ``ray.put`` once as one Arrow table, and each actor of a pool of one
  or two sorts it by key once; each left batch then finds its matches
  by binary search, with no shuffle and no hash table rebuilt per
  batch;
- **native**: Ray Data's partitioned hash join, whose aggregators take
  a tenth of a CPU so a join's actor pool co-schedules with the map
  tasks on small boxes.

The probe actors hold no CPU: they run in the plan of the left input,
after its read, and a read task needs a whole CPU. At one CPU each, two
probe actors in a 2-CPU session held both CPUs and the read never ran;
at a tenth of a CPU, one actor still starved the read in a 1-CPU
session. The pool starts at one actor, so a one-block left input
starts no second.

Both halves return what ``pyarrow.Table.join`` returns (Ray's join
aggregators call it per partition; the broadcast probe is pinned to it
by tests/test_join.py): every match is emitted, a null key never
matches, the right key columns are dropped, and row order is never
kept.

Why the native half strips empty blocks: Ray 2.49's hash shuffle sends
an input's schema to every partition only with the first block it
shuffles for that input, and marks the schema as sent even when that
block has zero rows, yet it returns before sending anything for a
zero-row block. When an input's first block is empty, every partition
that no later block hashes into is built column-less, and its join
raises ``ArrowInvalid: No match … FieldRef.Name(<key>)``. Whether the
first block is empty depends on task timing. With no empty block in
either input, the first block shuffled always carries the schema. An
input with no rows at all takes the broadcast half.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray

BROADCAST_GATE = 4_000_000  # right-side rows


def gated_join(left, right, on, right_on=None, how: str = "inner",
               num_partitions: int = 8,
               broadcast_gate: int = BROADCAST_GATE):
    """``left ⋈ right`` on ``on`` = ``right_on``, ``how`` one of
    inner / left_semi / left_anti."""
    on, right_on = tuple(on), tuple(right_on or on)
    right = right.materialize()
    if right.count() <= broadcast_gate:
        table = _as_table(right)
    else:
        left = left.materialize()
        if left.count():
            return _nonempty(left).join(
                _nonempty(right), join_type=how,
                num_partitions=num_partitions, on=on, right_on=right_on,
                aggregator_ray_remote_args={"num_cpus": 0.1})
        table = _empty_table(right)
    return left.map_batches(
        _SortedRight, fn_constructor_args=(ray.put(table), right_on, on, how),
        batch_format="pyarrow", concurrency=(1, 2), num_cpus=0)


def _nonempty(ds):
    """A materialised ``ds`` rebuilt from its non-empty blocks."""
    import ray.data as rd

    return rd.from_arrow_refs([
        ref for bundle in ds.iter_internal_ref_bundles()
        for ref, meta in bundle.blocks if meta.num_rows])


def _as_table(ds) -> pa.Table:
    """A materialised dataset as one Arrow table."""
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_columns]
    return pa.concat_tables(tabs) if tabs else _empty_table(ds)


def _empty_table(ds) -> pa.Table:
    schema = ds.schema()
    if schema is None:
        raise ValueError("gated_join: the right side has no rows and no "
                         "schema to join against")
    return pa.schema(list(zip(schema.names, schema.types))).empty_table()


class _SortedRight:
    """The broadcast probe. Each actor indexes the right side once: each
    key tuple gets a dense int64 code and ``rows`` (the non-key columns)
    is sorted by it, so a left batch finds its matches by binary search
    instead of a hash table rebuilt over the whole right side."""

    def __init__(self, table, right_keys, keys, how: str):
        if isinstance(table, ray.ObjectRef):
            table = ray.get(table)
        self.keys, self.how = list(keys), how
        table = table.filter(pa.array(_valid(table, right_keys)))
        code = np.zeros(table.num_rows, np.int64)
        self.steps = []  # per key: sorted values, sorted codes of the prefix
        for k in right_keys:
            vals, rank = np.unique(_np(table.column(k)), return_inverse=True)
            codes, code = np.unique(code * len(vals) + rank,
                                    return_inverse=True)
            self.steps.append((vals, codes))
        self.rows = table.drop_columns(list(right_keys)).take(
            np.argsort(code, kind="stable"))
        self.count = np.bincount(code)
        self.first = np.cumsum(self.count) - self.count

    def __call__(self, b: pa.Table) -> pa.Table:
        """``b ⋈ right`` as ``Table.join`` returns it, up to row order."""
        n = first = np.zeros(b.num_rows, np.int64)
        if self.count.size:  # else the right side is empty: no match
            xs = [_np(b.column(k).fill_null(pa.scalar(vals[0],
                                                      b.column(k).type)))
                  for k, (vals, _) in zip(self.keys, self.steps)]
            order = np.argsort(xs[0])  # search in key order: fewer misses
            b, hit, code = b.take(order), _valid(b, self.keys)[order], 0
            for x, (vals, codes) in zip(xs, self.steps):
                pos = np.minimum(np.searchsorted(vals, x[order]),
                                 len(vals) - 1)
                hit &= vals[pos] == x[order]
                c = code * len(vals) + pos
                code = np.minimum(np.searchsorted(codes, c), len(codes) - 1)
                hit &= codes[code] == c
            n, first = np.where(hit, self.count[code], 0), self.first[code]
        if self.how != "inner":
            return b.filter(pa.array((n > 0) == (self.how == "left_semi")))
        out = b.take(np.repeat(np.arange(b.num_rows), n))
        got = self.rows.take(np.arange(int(n.sum()))
                             + np.repeat(first - np.cumsum(n) + n, n))
        for name in got.column_names:
            out = out.append_column(name, got.column(name))
        return out


def _valid(t: pa.Table, keys) -> np.ndarray:
    """Rows whose keys are all non-null: a null key never matches."""
    return np.logical_and.reduce([_np(t.column(k).is_valid()) for k in keys])


def _np(col) -> np.ndarray:
    return col.to_numpy(zero_copy_only=False)
