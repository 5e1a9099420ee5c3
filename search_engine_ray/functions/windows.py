"""Per-event window functions over the events table: LAG (gap to the
previous event of the same user) and a time-RANGE rolling count — the
row-preserving window shapes (SQL ``OVER (PARTITION BY … ORDER BY …)``)
that Ray Data has no native operator for, expressed as one
groupby(user_id) shuffle + vectorized in-group kernels.

Scale notes (same partitioning assumption as sessions.py, documented
there): one shuffle co-locates each user's history; within a group
everything is numpy (one lexsort, one diff, two searchsorteds — no
Python loop).  For pathological hot users the scale path is BUILT, not
just documented: ``events_running_total_banded`` splits groups by
(user_id, time-band) and reconciles bands with a per-user exclusive
prefix sum over band TOTALS (summary-sized, never event-sized),
pinned row-identical to the plain plan on an 83%-hot-user fixture; at
this corpus's per-user cardinality the plain key is the faster plan.  All outputs are integer µs so the
DuckDB window-function oracles hash exactly; nullable ints are Arrow
int64 + mask (→ float64/NaN in pandas, same as DuckDB's fetchdf) and
ties on ts are broken by event_id on BOTH engines (ADVICE r4: never
leave a tie engine-defined).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..pipelines.datasets import read_table
from .join import BROADCAST_GATE, gated_join

ROLL_WINDOW_US = 10 * 60 * 1_000_000  # 10 min


def _sorted_group(g: pa.Table):
    """(event_id, user_id, ts_us) numpy views in (ts, event_id) order."""
    us = g.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    ev = g.column("event_id").to_numpy(zero_copy_only=False)
    uid = g.column("user_id").to_numpy(zero_copy_only=False)
    order = np.lexsort((ev, us))  # deterministic on both engines
    return ev[order], uid[order], us[order]


def _lag_group(g: pa.Table) -> pa.Table:
    ev, uid, us = _sorted_group(g)
    gap = np.zeros(len(us), dtype=np.int64)
    gap[1:] = np.diff(us)
    first = np.zeros(len(us), dtype=bool)
    if len(first):
        first[0] = True  # LAG of the first row per user is NULL
    return pa.table({
        "event_id": pa.array(ev, pa.int64()),
        "user_id": pa.array(uid, pa.int64()),
        "ts_us": pa.array(us, pa.int64()),
        "gap_us": pa.array(gap, pa.int64(), mask=first),
    })


def events_user_lag(sf_dir: str):
    """(event_id, user_id, ts_us, gap_us): per event, the µs elapsed
    since the same user's previous event (NULL for the first)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return ds.groupby("user_id").map_groups(_lag_group,
                                            batch_format="pyarrow")


SQL_EVENTS_USER_LAG = """
WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us FROM events)
SELECT event_id, user_id, ts_us,
       ts_us - LAG(ts_us) OVER (PARTITION BY user_id
                                ORDER BY ts_us, event_id) AS gap_us
FROM e ORDER BY event_id
"""


def _rolling_group(g: pa.Table, window_us: int) -> pa.Table:
    ev, uid, us = _sorted_group(g)
    # SQL RANGE frame: peers with equal ts are all included, so the
    # count is a pure function of the ts multiset — side='right' at ts,
    # side='left' at ts - window reproduce it exactly.
    n = (np.searchsorted(us, us, side="right")
         - np.searchsorted(us, us - window_us, side="left"))
    return pa.table({
        "event_id": pa.array(ev, pa.int64()),
        "user_id": pa.array(uid, pa.int64()),
        "ts_us": pa.array(us, pa.int64()),
        "n_window": pa.array(n.astype(np.int64), pa.int64()),
    })


def events_rolling_count(sf_dir: str, window_us: int = ROLL_WINDOW_US):
    """(event_id, user_id, ts_us, n_window): per event, how many of the
    same user's events fall in [ts - window, ts] (RANGE-frame
    semantics — equal-ts peers counted)."""
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    return ds.groupby("user_id").map_groups(
        lambda g: _rolling_group(g, window_us), batch_format="pyarrow")


SQL_EVENTS_ROLLING = f"""
WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us FROM events)
SELECT event_id, user_id, ts_us,
       COUNT(*) OVER (PARTITION BY user_id ORDER BY ts_us
                      RANGE BETWEEN {ROLL_WINDOW_US} PRECEDING
                            AND CURRENT ROW) AS n_window
FROM e ORDER BY event_id
"""


def _value_micros(value: pa.ChunkedArray) -> np.ndarray:
    """floor(value * 1e6) as int64 µ-units. A null or NaN value would
    cast to INT64_MIN and poison every later running sum, so it
    raises instead."""
    v = value.to_numpy(zero_copy_only=False)  # a null reads as NaN
    if np.isnan(v).any():
        raise ValueError("events.value holds a null or NaN; the running "
                         "total needs every value")
    return np.floor(v * 1e6).astype(np.int64)


def _cumsum_group(g: pa.Table) -> pa.Table:
    us = g.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
    ev = g.column("event_id").to_numpy(zero_copy_only=False)
    val = _value_micros(g.column("value"))
    order = np.lexsort((ev, us))
    return pa.table({
        "event_id": pa.array(ev[order], pa.int64()),
        "user_id": pa.array(g.column("user_id").to_numpy(
            zero_copy_only=False)[order], pa.int64()),
        "ts_us": pa.array(us[order], pa.int64()),
        "running_micros": pa.array(np.cumsum(val[order]), pa.int64()),
    })


def events_running_total(sf_dir: str):
    """(event_id, user_id, ts_us, running_micros): per event, the
    cumulative value (integer µ-units) of the same user's events so
    far — the ROWS UNBOUNDED PRECEDING window shape, completing the
    family (LAG, RANGE rolling count, running sum)."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "value"])
    return ds.groupby("user_id").map_groups(_cumsum_group,
                                            batch_format="pyarrow")


SQL_EVENTS_RUNNING_TOTAL = """
WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                  CAST(floor(value * 1e6) AS BIGINT) AS vmicros
           FROM events)
SELECT event_id, user_id, ts_us,
       SUM(vmicros) OVER (PARTITION BY user_id
                          ORDER BY ts_us, event_id
                          ROWS UNBOUNDED PRECEDING) AS running_micros
FROM e ORDER BY event_id
"""


# ---------------------------------------------------------------------------
BAND_US = 6 * 60 * 60 * 1_000_000  # 6 h


def events_running_total_banded(sf_dir: str, band_us: int = BAND_US,
                                num_partitions: int = 8,
                                broadcast_gate: int = BROADCAST_GATE):
    """Skew-proof running total: the scale path for the hot-user case
    the plain ``events_running_total`` documents away.

    Instead of co-locating each user's ENTIRE history (unbounded under
    skew), events group by (user, time-band): each band computes its
    in-band cumulative sums independently, band TOTALS (one row per
    nonempty (user, band)) take a per-user exclusive prefix sum — a
    tiny second groupby over summaries, never events — and the
    resulting offsets are added back per batch.  Group size is bounded
    by events-per-user-per-band regardless of how hot a user is; total
    shuffle = events once + two summary-sized exchanges.  Offsets are
    applied by ``gated_join`` on (user, band), gated at
    ``broadcast_gate`` summary rows.  Pinned row-identical to the plain
    plan (and to the DuckDB window oracle) in tests/test_distinct.py,
    including on the 83%-hot-user skew fixture.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "ts", "value"])

    def prep(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        val = _value_micros(b.column("value"))
        return pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "band": pa.array(us // band_us, pa.int64()),
            "ts_us": pa.array(us, pa.int64()),
            "vmicros": pa.array(val, pa.int64()),
        })

    # materialize: base feeds BOTH the in-band groupby and the totals
    # aggregation; left lazy, each consumer would re-read and re-prep
    # the whole events table
    base = ds.map_batches(prep, batch_format="pyarrow").materialize()

    def in_band(g: pa.Table) -> pa.Table:
        us = g.column("ts_us").to_numpy(zero_copy_only=False)
        ev = g.column("event_id").to_numpy(zero_copy_only=False)
        val = g.column("vmicros").to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, us))
        return pa.table({
            "event_id": pa.array(ev[order], pa.int64()),
            "user_id": g.column("user_id").take(pa.array(order)),
            "band": g.column("band").take(pa.array(order)),
            "ts_us": pa.array(us[order], pa.int64()),
            "in_cum": pa.array(np.cumsum(val[order]), pa.int64()),
        })

    inband = base.groupby(["user_id", "band"]).map_groups(
        in_band, batch_format="pyarrow")

    def tot_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"user_id": b.column("user_id"),
                      "band": b.column("band"),
                      "tot": b.column("vmicros")})
        g = t.group_by(["user_id", "band"]).aggregate([("tot", "sum")])
        return g.select(["user_id", "band", "tot_sum"]).rename_columns(
            ["user_id", "band", "tot"])

    totals = (base.map_batches(tot_partial, batch_format="pyarrow")
                  .groupby(["user_id", "band"])
                  .aggregate(Sum("tot", alias_name="tot")))

    def prefix(g: pa.Table) -> pa.Table:
        bands = g.column("band").to_numpy(zero_copy_only=False)
        tot = g.column("tot").to_numpy(zero_copy_only=False)
        order = np.argsort(bands)
        off = np.zeros(len(tot), dtype=np.int64)
        off[1:] = np.cumsum(tot[order])[:-1]  # exclusive prefix
        return pa.table({
            "user_id": g.column("user_id").take(pa.array(order)),
            "band": pa.array(bands[order], pa.int64()),
            "offset": pa.array(off, pa.int64()),
        })

    offsets = totals.groupby("user_id").map_groups(
        prefix, batch_format="pyarrow")

    def finish(b: pa.Table) -> pa.Table:
        run = (b.column("in_cum").to_numpy(zero_copy_only=False)
               + b.column("offset").to_numpy(zero_copy_only=False))
        return pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "ts_us": b.column("ts_us"),
            "running_micros": pa.array(run, pa.int64()),
        })

    return gated_join(inband, offsets, ["user_id", "band"],
                      num_partitions=num_partitions,
                      broadcast_gate=broadcast_gate).map_batches(
        finish, batch_format="pyarrow")


def events_user_lag_banded(sf_dir: str, band_us: int = BAND_US,
                           num_partitions: int = 8,
                           broadcast_gate: int = BROADCAST_GATE):
    """Skew-proof LAG: (user, time-band) groups + a per-user pass over
    band SUMMARIES that hands every band its previous NONEMPTY band's
    last timestamp (empty bands simply don't appear in the summary, so
    there is no carry-chain problem).  Each band computes its interior
    gaps locally; only its first event needs the carried timestamp.
    Bounded groups under any user heat; shuffle = events once + two
    summary-sized exchanges.  Pinned row-identical to the plain plan in
    tests/test_distinct.py, including the hot-user fixture and its NULL
    first-event rows.
    """
    from ray.data.aggregate import Max

    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "band": pa.array(us // band_us, pa.int64()),
            "ts_us": pa.array(us, pa.int64()),
        })

    # materialize: base feeds both the in-band groupby and the summary
    # aggregation (see events_running_total_banded)
    base = ds.map_batches(prep, batch_format="pyarrow").materialize()

    def in_band(g: pa.Table) -> pa.Table:
        us = g.column("ts_us").to_numpy(zero_copy_only=False)
        ev = g.column("event_id").to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, us))
        us, ev = us[order], ev[order]
        gap = np.zeros(len(us), dtype=np.int64)
        gap[1:] = np.diff(us)
        first = np.zeros(len(us), dtype=bool)
        if len(first):
            first[0] = True  # needs the carried prev-band last ts
        return pa.table({
            "event_id": pa.array(ev, pa.int64()),
            "user_id": g.column("user_id").take(pa.array(order)),
            "band": g.column("band").take(pa.array(order)),
            "ts_us": pa.array(us, pa.int64()),
            "in_gap": pa.array(gap, pa.int64()),
            "is_first": pa.array(first),
        })

    inband = base.groupby(["user_id", "band"]).map_groups(
        in_band, batch_format="pyarrow")

    def summary_partial(b: pa.Table) -> pa.Table:
        t = pa.table({"user_id": b.column("user_id"),
                      "band": b.column("band"),
                      "last_ts": b.column("ts_us")})
        g = t.group_by(["user_id", "band"]).aggregate([("last_ts", "max")])
        return g.select(["user_id", "band", "last_ts_max"]).rename_columns(
            ["user_id", "band", "last_ts"])

    summaries = (base.map_batches(summary_partial, batch_format="pyarrow")
                     .groupby(["user_id", "band"])
                     .aggregate(Max("last_ts", alias_name="last_ts")))

    def carry(g: pa.Table) -> pa.Table:
        bands = g.column("band").to_numpy(zero_copy_only=False)
        last = g.column("last_ts").to_numpy(zero_copy_only=False)
        order = np.argsort(bands)
        prev = np.zeros(len(last), dtype=np.int64)
        none = np.zeros(len(last), dtype=bool)
        if len(last):
            prev[1:] = last[order][:-1]  # previous NONEMPTY band's max
            none[0] = True               # user's very first band: NULL
        return pa.table({
            "user_id": g.column("user_id").take(pa.array(order)),
            "band": pa.array(bands[order], pa.int64()),
            "prev_last": pa.array(prev, pa.int64(), mask=none),
        })

    carries = summaries.groupby("user_id").map_groups(
        carry, batch_format="pyarrow")

    def finish(b: pa.Table) -> pa.Table:
        first = b.column("is_first").to_numpy(zero_copy_only=False)
        gap = b.column("in_gap").to_numpy(zero_copy_only=False)
        pl = b.column("prev_last")
        prev_null = pc.is_null(pl).to_numpy(zero_copy_only=False)
        prev = pc.fill_null(pl, 0).to_numpy(zero_copy_only=False)
        ts = b.column("ts_us").to_numpy(zero_copy_only=False)
        out_gap = np.where(first, ts - prev, gap)
        isnull = first & prev_null
        return pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "ts_us": b.column("ts_us"),
            "gap_us": pa.array(np.where(isnull, 0, out_gap).astype(
                np.int64), pa.int64(), mask=isnull),
        })

    return gated_join(inband, carries, ["user_id", "band"],
                      num_partitions=num_partitions,
                      broadcast_gate=broadcast_gate).map_batches(
        finish, batch_format="pyarrow")


def events_rolling_count_banded(sf_dir: str,
                                window_us: int = ROLL_WINDOW_US,
                                band_us: int = BAND_US):
    """Skew-proof RANGE rolling count: (user, time-band) groups with
    the range-join replication trick — every event in a band's last
    ``window_us`` also ships a read-only carry copy into the NEXT band,
    so each band counts its own rows against a complete window history
    without ever co-locating a whole user.  Requires
    ``window_us <= band_us`` (events two bands back cannot be inside
    the window); extra shuffle is only the window-tail fraction of each
    band.  Pinned row-identical to the plain plan in
    tests/test_distinct.py, hot-user fixture included.
    """
    if window_us > band_us:
        raise ValueError("banded rolling count needs window <= band")
    ds = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        band = us // band_us
        own = pa.table({
            "event_id": b.column("event_id"),
            "user_id": b.column("user_id"),
            "band": pa.array(band, pa.int64()),
            "ts_us": pa.array(us, pa.int64()),
            "is_carry": pa.array(np.zeros(len(us), dtype=bool)),
        })
        tail = us >= (band + 1) * band_us - window_us
        idx = pa.array(np.flatnonzero(tail))
        carry = pa.table({
            "event_id": b.column("event_id").take(idx),
            "user_id": b.column("user_id").take(idx),
            "band": pa.array(band[tail] + 1, pa.int64()),
            "ts_us": pa.array(us[tail], pa.int64()),
            "is_carry": pa.array(np.ones(int(tail.sum()), dtype=bool)),
        })
        return pa.concat_tables([own, carry])

    def per_group(g: pa.Table) -> pa.Table:
        us = g.column("ts_us").to_numpy(zero_copy_only=False)
        ev = g.column("event_id").to_numpy(zero_copy_only=False)
        carry = g.column("is_carry").to_numpy(zero_copy_only=False)
        order = np.lexsort((ev, us))
        us, ev, carry = us[order], ev[order], carry[order]
        # counts over ALL rows (carries included) but emitted only for
        # the band's own rows; a carried ts equals its original, so the
        # multiset seen by searchsorted matches the full history within
        # the window span
        n = (np.searchsorted(us, us, side="right")
             - np.searchsorted(us, us - window_us, side="left"))
        own = ~carry
        return pa.table({
            "event_id": pa.array(ev[own], pa.int64()),
            "user_id": g.column("user_id").take(
                pa.array(order[own])),
            "ts_us": pa.array(us[own], pa.int64()),
            "n_window": pa.array(n[own].astype(np.int64), pa.int64()),
        })

    return (ds.map_batches(prep, batch_format="pyarrow")
              .groupby(["user_id", "band"])
              .map_groups(per_group, batch_format="pyarrow"))
