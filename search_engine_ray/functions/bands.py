"""``banded``: the one per-user plan of the event operators (the three
windows in windows.py, the asof and range joins and the funnel in
relational.py, sessionize in sessions.py; the funnel and sessionize
run only the plain plan).

Each operator is a kernel over one group of a user's events, sorted
once by (ts_us, event_id) so ties never fall to an engine. With
``band_us`` None a group is the user's whole history: one
groupby(user_id) shuffle. With ``band_us`` the key is (user_id, band =
ts_us // band_us), which splits a hot user into bounded groups (DS2's
hot-key split, with the time band as the split). A band sees the rest
of its user's history through VISITOR rows, which its kernel reads but
never emits:

- halo rows: copies of rows into a nearby band (the rolling count's
  window tail into band + 1, the range join's purchases into band ± 1);
- carry rows: one row per band that summarises the user's earlier
  bands: their latest (ts_us, event_id) eligible row, whose ``total``
  column holds the sum over those earlier eligible rows. Per-batch
  partials (one row per (user, band)) take one summary shuffle by user,
  where a vectorised forward-fill and exclusive prefix sum over the
  user's bands build every carry row at once. A carry row sorts before
  every row of its band, since earlier bands hold earlier timestamps.

Every shuffle but the one grouping is summary-sized, and a group is
bounded by events per user per band however hot the user is; the
banded plans are pinned row-identical to the plain ones (and to DuckDB)
in tests/test_distinct.py and tests/test_relational_edges.py.

A kernel's group holds event_id, user_id, ts_us, the operator's own
columns, visitor, and band when banded. It returns its own rows only:
a typed empty table when it has none.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa


class Carry(NamedTuple):
    """What a band's carry row summarises of its user's earlier bands:
    the latest (ts_us, event_id) row whose bool column ``eligible``
    holds (any row when None), with the int64 column ``total`` (when
    named) replaced by its sum over those earlier eligible rows."""
    eligible: str | None = None
    total: str | None = None


def col(t: pa.Table, name: str) -> np.ndarray:
    return t.column(name).to_numpy(zero_copy_only=False)


def _set(t: pa.Table, name: str, values) -> pa.Table:
    """``t`` with column ``name`` replaced in place, or appended."""
    i = t.schema.get_field_index(name)
    if i < 0:
        return t.append_column(name, pa.array(values))
    return t.set_column(i, name, pa.array(values, t.schema.field(i).type))


def _visitors(rows: pa.Table, band: np.ndarray) -> pa.Table:
    """``rows`` as visitors of ``band`` (one band per row)."""
    rows = _set(rows, "band", band)
    return _set(rows, "visitor", np.ones(rows.num_rows, dtype=bool))


def _tag(b: pa.Table, band_us: int | None) -> pa.Table:
    us = b.column("ts").cast(pa.int64())
    cols = {"event_id": b.column("event_id").cast(pa.int64()),
            "user_id": b.column("user_id").cast(pa.int64()),
            "ts_us": us}
    if band_us is not None:
        cols["band"] = pa.array(us.to_numpy() // band_us)
    cols.update((n, b.column(n)) for n in b.column_names
                if n not in ("event_id", "user_id", "ts"))
    cols["visitor"] = pa.array(np.zeros(b.num_rows, dtype=bool))
    return pa.table(cols)


def _band_last(t: pa.Table, eligible: np.ndarray,
               total: str | None) -> pa.Table:
    """One row per (user, band) of ``t``: its latest (ts_us, event_id)
    eligible row (else its latest row, as a placeholder), with ``has``
    (an eligible row exists) and ``total`` summed over eligible rows."""
    order = np.lexsort((col(t, "event_id"), col(t, "ts_us"), eligible,
                        col(t, "band"), col(t, "user_id")))
    u, b = col(t, "user_id")[order], col(t, "band")[order]
    end = np.ones(len(order), dtype=bool)  # last row of its (user, band)
    end[:-1] = (u[1:] != u[:-1]) | (b[1:] != b[:-1])
    last = order[end]
    out = _set(t.take(last), "has", eligible[last])
    if total is not None:
        run = np.cumsum(np.where(eligible, col(t, total), 0)[order])[end]
        out = _set(out, total, np.diff(run, prepend=0))
    return out


def _carry_rows(g: pa.Table, total: str | None) -> pa.Table:
    """One user's carry rows from the partials of its bands: band j
    gets the last row of the latest earlier band with an eligible row,
    its ``total`` the exclusive prefix sum of the band sums."""
    last = _band_last(g, col(g, "has"), total)  # in band order
    src = np.where(col(last, "has"), np.arange(last.num_rows), -1)
    prev = np.full(last.num_rows, -1)
    prev[1:] = np.maximum.accumulate(src)[:-1]
    ok = prev >= 0
    rows = last.take(prev[ok]).drop_columns(["has"])
    if total is not None:
        sums = col(last, total)
        rows = _set(rows, total, (np.cumsum(sums) - sums)[ok])
    return _visitors(rows, col(last, "band")[ok])


def banded(ds, kernel: Callable[[pa.Table], pa.Table],
           band_us: int | None = None,
           halo: Callable[[pa.Table], list] | None = None,
           carry: Carry | None = None):
    """``kernel`` over each (user_id[, band]) group of ``ds``, an events
    dataset with event_id, user_id and ts columns plus the operator's
    own. ``halo(t)`` lists (row mask, band shift) pairs of a tagged
    batch's rows to copy as visitors; halo and carry need ``band_us``."""
    # the plain plan tags each group instead: Ray runs a map after a
    # read as a stage of its own, ~50 ms on a 120 ms plain window at
    # sf0.001 (1 CPU)
    tagged = ds if band_us is None else ds.map_batches(
        lambda b: _tag(b, band_us), batch_format="pyarrow")
    if carry is not None:
        # materialize: the tagged rows feed both the summary and the
        # grouping; left lazy, each would re-read the events
        tagged = tagged.materialize()
        partials = tagged.map_batches(
            lambda t: _band_last(
                t, (col(t, carry.eligible) if carry.eligible
                    else np.ones(t.num_rows, dtype=bool)), carry.total),
            batch_format="pyarrow")
        carries = partials.groupby("user_id").map_groups(
            lambda g: _carry_rows(g, carry.total), batch_format="pyarrow")
    stream = tagged
    if halo is not None:
        def with_halo(t: pa.Table) -> pa.Table:
            band = col(t, "band")
            return pa.concat_tables([t] + [
                _visitors(t.filter(pa.array(m)), band[m] + shift)
                for m, shift in halo(t)])
        stream = tagged.map_batches(with_halo, batch_format="pyarrow")
    if carry is not None:
        stream = stream.union(carries)

    def run(g: pa.Table) -> pa.Table:
        if band_us is None:
            g = _tag(g, None)
        return kernel(g.take(np.lexsort((col(g, "event_id"),
                                         col(g, "ts_us")))))

    grouped = (stream.groupby("user_id") if band_us is None
               else stream.groupby(["user_id", "band"]))
    return grouped.map_groups(run, batch_format="pyarrow")
