"""Relational demo operators over the TPC-H-ish tables: pre-aggregated
grouped aggregate, equi-joins (inner / semi / anti, all through
``join.gated_join``), hopping-window event aggregates (tumbling is the
size = hop case), and the asof and range joins and the conversion
funnel, each one kernel over the per-user band plan of bands.py.

Money/values are emitted as integer cents/micros so the DuckDB oracle hash
is exact (float summation order differs between engines).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
from ray.data.aggregate import Count, Max, Min, Sum

from ..pipelines.datasets import read_table
from ..state.segments import ragged_arange
from .bands import Carry, banded, col
from .join import BROADCAST_GATE, gated_join


def _cents(x: np.ndarray) -> np.ndarray:
    """Deterministic double→cents: floor(x*100 + 0.5) identically in DuckDB
    and numpy (both IEEE doubles)."""
    return np.floor(x * 100.0 + 0.5).astype(np.int64)


def _dim_order(keys: np.ndarray, name: str) -> np.ndarray:
    """argsort of a small dim's key column for a searchsorted lookup,
    which finds ONE match per key where SQL emits every match, so a
    duplicate key raises instead of silently dropping rows."""
    order = np.argsort(keys)
    if (np.diff(keys[order]) == 0).any():
        raise ValueError(f"{name} has duplicate keys; a searchsorted "
                         "lookup needs a unique dim key")
    return order


def _gsum(t: pa.Table, keys: list[str], cols: list[str]) -> pa.Table:
    """Arrow-native per-batch combiner: group_by + integer sums, output
    columns renamed back to their pre-aggregation names."""
    g = t.group_by(keys).aggregate([(c, "sum") for c in cols])
    return g.select(keys + [f"{c}_sum" for c in cols]).rename_columns(
        keys + cols)


_Q1_CUTOFF = pa.scalar(np.datetime64("1998-09-02", "us"),
                       pa.timestamp("us"))


# ---------------------------------------------------------------------------
def q1_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped aggregate with partial (per-batch) pre-aggregation:
    the groupby shuffles one row per (flag,status) per batch, not 600k rows."""
    ds = read_table(sf_dir, "lineitem",
                    columns=["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice", "l_discount", "l_shipdate"])

    def partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less_equal(b.column("l_shipdate"), _Q1_CUTOFF))
        ep = b.column("l_extendedprice").to_numpy(zero_copy_only=False)
        disc = b.column("l_discount").to_numpy(zero_copy_only=False)
        qty = b.column("l_quantity").to_numpy(zero_copy_only=False)
        t = pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "l_linestatus": b.column("l_linestatus"),
            "sum_qty": pa.array(qty.astype(np.int64), pa.int64()),
            "sum_base_cents": pa.array(_cents(ep), pa.int64()),
            "sum_disc_cents": pa.array(_cents(ep * (1.0 - disc)),
                                       pa.int64()),
            "n_rows": pa.array(np.ones(len(b), np.int64), pa.int64()),
        })
        return _gsum(t, ["l_returnflag", "l_linestatus"],
                     ["sum_qty", "sum_base_cents", "sum_disc_cents",
                      "n_rows"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("sum_base_cents", alias_name="sum_base_cents"),
        Sum("sum_disc_cents", alias_name="sum_disc_cents"),
        Sum("n_rows", alias_name="n_rows"))


SQL_Q1 = """
SELECT l_returnflag, l_linestatus,
       CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT) AS sum_qty,
       CAST(SUM(CAST(floor(l_extendedprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_cents,
       CAST(SUM(CAST(floor(l_extendedprice * (1.0 - l_discount) * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_cents,
       COUNT(*) AS n_rows
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '1998-09-02'
GROUP BY l_returnflag, l_linestatus
ORDER BY l_returnflag, l_linestatus
"""


# ---------------------------------------------------------------------------
def _orders_per_customer_attr(sf_dir: str, attr: str,
                              num_partitions: int = 8,
                              broadcast_gate: int = BROADCAST_GATE):
    """(``attr``, n_orders, total_cents): orders ⋈ customer on custkey,
    summed per customer ``attr``. The fact side is pre-aggregated per
    batch FIRST (one row per distinct o_custkey per batch), so what
    ``gated_join`` moves is order partials, not order rows."""
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_totalprice"])

    def order_partial(b: pa.Table) -> pa.Table:
        t = pa.table({
            "o_custkey": b.column("o_custkey"),
            "n_orders": pa.array(np.ones(len(b), np.int64)),
            "total_cents": pa.array(_cents(b.column(
                "o_totalprice").to_numpy(zero_copy_only=False))),
        })
        return _gsum(t, ["o_custkey"], ["n_orders", "total_cents"])

    cust = read_table(sf_dir, "customer", columns=["c_custkey", attr])
    joined = gated_join(
        orders.map_batches(order_partial, batch_format="pyarrow"), cust,
        ["o_custkey"], ["c_custkey"], num_partitions=num_partitions,
        broadcast_gate=broadcast_gate)
    return joined.map_batches(
        lambda b: _gsum(b, [attr], ["n_orders", "total_cents"]),
        batch_format="pyarrow").groupby(attr).aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("total_cents", alias_name="total_cents"))


def orders_by_segment(sf_dir: str):
    """Order count and revenue per customer market segment: the
    customer dim (small) is broadcast by ``gated_join`` — no shuffle
    join at this corpus's scale."""
    return _orders_per_customer_attr(sf_dir, "c_mktsegment")


SQL_ORDERS_BY_SEGMENT = """
SELECT c_mktsegment,
       COUNT(*) AS n_orders,
       CAST(SUM(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders JOIN customer ON o_custkey = c_custkey
GROUP BY c_mktsegment ORDER BY c_mktsegment
"""


# ---------------------------------------------------------------------------
def events_tumbling_window(sf_dir: str):
    """Tumbling 1-minute window per event_type (streaming-shaped
    aggregate): the hopping window whose size equals its hop, so each
    event lands in exactly one window. Window key is integer µs."""
    return events_hopping_window(sf_dir, size_min=1, hop_min=1)


SQL_EVENTS_WINDOW = """
SELECT event_type,
       (epoch_us(ts) // 60000000) * 60000000 AS window_us,
       COUNT(*) AS n_events,
       CAST(SUM(CAST(floor(value * 1e6) AS BIGINT)) AS BIGINT) AS sum_value_micros
FROM events
GROUP BY event_type, window_us
ORDER BY event_type, window_us
"""


# ---------------------------------------------------------------------------
def orders_by_month(sf_dir: str):
    """Orders per calendar month: year/month extracted vectorized."""
    ds = read_table(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(b: pa.Table) -> pa.Table:
        dates = b.column("o_orderdate")
        t = pa.table({
            "year": pc.year(dates).cast(pa.int64()),
            "month": pc.month(dates).cast(pa.int64()),
            "n_orders": pa.array(np.ones(len(b), np.int64)),
            "total_cents": pa.array(_cents(
                b.column("o_totalprice").to_numpy(
                    zero_copy_only=False))),
        })
        return _gsum(t, ["year", "month"], ["n_orders", "total_cents"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["year", "month"]).aggregate(
        Sum("n_orders", alias_name="n_orders"),
        Sum("total_cents", alias_name="total_cents"))


SQL_ORDERS_BY_MONTH = """
SELECT CAST(year(o_orderdate) AS BIGINT) AS year,
       CAST(month(o_orderdate) AS BIGINT) AS month,
       COUNT(*) AS n_orders,
       CAST(SUM(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT)) AS BIGINT) AS total_cents
FROM orders GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
def top_parts_by_price(sf_dir: str, k: int = 20):
    """Global top-k by retail price (sort + limit; cents + key tiebreak)."""
    ds = read_table(sf_dir, "part", columns=["p_partkey", "p_retailprice"])

    def prep(b: pa.Table) -> pa.Table:
        return pa.table({
            "p_partkey": b.column("p_partkey").cast(pa.int64()),
            "price_cents": pa.array(_cents(
                b.column("p_retailprice").to_numpy(
                    zero_copy_only=False))),
        })

    top = (ds.map_batches(prep, batch_format="pyarrow")
           .sort(["price_cents", "p_partkey"], descending=[True, False])
           .limit(k).to_pandas())
    top["rank"] = np.arange(1, len(top) + 1, dtype=np.int64)
    return top[["rank", "p_partkey", "price_cents"]]


SQL_TOP_PARTS = """
SELECT CAST(row_number() OVER (
         ORDER BY CAST(floor(p_retailprice * 100.0 + 0.5) AS BIGINT) DESC,
                  p_partkey) AS BIGINT) AS rank,
       p_partkey,
       CAST(floor(p_retailprice * 100.0 + 0.5) AS BIGINT) AS price_cents
FROM part ORDER BY rank LIMIT 20
"""


# ---------------------------------------------------------------------------
def suppliers_per_region(sf_dir: str):
    """Three-table broadcast join: supplier → nation → region."""
    nation = read_table(sf_dir, "nation",
                        columns=["n_nationkey", "n_regionkey"]).to_pandas()
    region = read_table(sf_dir, "region",
                        columns=["r_regionkey", "r_name"]).to_pandas()
    # pre-compose nation→region-name as sorted parallel arrays: the
    # broadcast lookup is one searchsorted per batch
    r2name = dict(zip(region["r_regionkey"], region["r_name"]))
    nk = nation["n_nationkey"].to_numpy(dtype=np.int64)
    order = _dim_order(nk, "nation.n_nationkey")
    names = np.asarray([r2name[rk] for rk in
                        nation["n_regionkey"].to_numpy()[order]],
                       dtype=object)
    lookup_ref = ray.put((nk[order], names))

    ds = read_table(sf_dir, "supplier", columns=["s_nationkey"])

    def partial(b: pa.Table) -> pa.Table:
        keys, names_ = ray.get(lookup_ref)
        snk = b.column("s_nationkey").to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(keys, snk), 0, len(keys) - 1)
        hit = keys[pos] == snk  # inner join: a key absent from the dim drops
        rn = names_[pos[hit]]
        t = pa.table({"r_name": pa.array(rn, pa.string()),
                      "n_suppliers": pa.array(
                          np.ones(int(hit.sum()), np.int64))})
        return _gsum(t, ["r_name"], ["n_suppliers"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby("r_name").aggregate(
        Sum("n_suppliers", alias_name="n_suppliers"))


SQL_SUPPLIERS_PER_REGION = """
SELECT r_name, COUNT(*) AS n_suppliers
FROM supplier
JOIN nation ON s_nationkey = n_nationkey
JOIN region ON n_regionkey = r_regionkey
GROUP BY r_name ORDER BY r_name
"""


# ---------------------------------------------------------------------------
def source_stats(sf_dir: str):
    """Documents per source with char totals."""
    ds = read_table(sf_dir, "documents", columns=["source", "n_chars"])
    return ds.groupby("source").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"),
        Min("n_chars", alias_name="min_chars"),
        Max("n_chars", alias_name="max_chars"))


SQL_SOURCE_STATS = """
SELECT source, COUNT(*) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS total_chars,
       MIN(n_chars) AS min_chars, MAX(n_chars) AS max_chars
FROM documents GROUP BY source ORDER BY source
"""


# ---------------------------------------------------------------------------
def events_hopping_window(sf_dir: str, size_min: int = 5, hop_min: int = 1):
    """Hopping (sliding) window aggregate: each event lands in
    size/hop overlapping windows — the flat_map + pre-aggregated groupby
    pattern (window key is the window START in integer µs). With
    size == hop it is the tumbling window."""
    ds = read_table(sf_dir, "events", columns=["ts", "event_type", "value"])
    size_us = size_min * 60_000_000
    hop_us = hop_min * 60_000_000
    n_hops = size_us // hop_us

    def partial(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        vmic = np.floor(b.column("value").to_numpy(
            zero_copy_only=False) * 1e6).astype(np.int64)
        et = b.column("event_type").to_numpy(zero_copy_only=False)
        # window starts covering ts: last hop boundary ≤ ts, going back
        last = (us // hop_us) * hop_us
        starts = last[:, None] - np.arange(n_hops, dtype=np.int64) * hop_us
        keep = (us[:, None] < starts + size_us).reshape(-1)
        t = pa.table({
            "event_type": pa.array(np.repeat(et, n_hops)[keep],
                                   pa.string()),
            "window_us": pa.array(starts.reshape(-1)[keep], pa.int64()),
            "n_events": pa.array(np.ones(int(keep.sum()), np.int64)),
            "sum_value_micros": pa.array(np.repeat(vmic, n_hops)[keep],
                                         pa.int64()),
        })
        return _gsum(t, ["event_type", "window_us"],
                     ["n_events", "sum_value_micros"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["event_type", "window_us"]).aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("sum_value_micros", alias_name="sum_value_micros"))


SQL_EVENTS_HOPPING = """
WITH e AS (
  SELECT event_type, epoch_us(ts) AS us,
         CAST(floor(value * 1e6) AS BIGINT) AS vmic
  FROM events
), x AS (
  SELECT event_type, vmic,
         (us // 60000000) * 60000000 - h.i * 60000000 AS window_us
  FROM e, (SELECT unnest(generate_series(0, 4)) AS i) h
)
SELECT event_type, window_us,
       COUNT(*) AS n_events,
       CAST(SUM(vmic) AS BIGINT) AS sum_value_micros
FROM x
GROUP BY event_type, window_us
ORDER BY event_type, window_us
"""


# ---------------------------------------------------------------------------
def _two_types(sf_dir: str, kinds: tuple[str, str], flag: str):
    """The events of the two ``kinds``, their event_type replaced by
    the bool column ``flag``: True for the second kind."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id", "event_type"])
    ds = ds.filter(expr=f"event_type == '{kinds[0]}' or "
                        f"event_type == '{kinds[1]}'")
    return ds.map_batches(
        lambda b: b.drop_columns(["event_type"]).append_column(
            flag, pc.equal(b.column("event_type"), kinds[1])),
        batch_format="pyarrow")


_ASOF_BAND_US = 86_400_000_000  # 1 day


def _asof(g: pa.Table) -> pa.Table:
    ids, ts = col(g, "event_id"), col(g, "ts_us")
    click = col(g, "is_click")
    # visitors are carried clicks, so every purchase is the band's own
    c, p = np.flatnonzero(click), np.flatnonzero(~click)
    # the group's (ts, event_id) order breaks ties among equal click
    # timestamps to the LARGEST event_id
    pos = np.searchsorted(ts[c], ts[p], side="right") - 1
    miss = pos < 0
    m = c[np.maximum(pos, 0)] if len(c) else p  # masked where missed
    return pa.table({
        "purchase_id": pa.array(ids[p], pa.int64()),
        "user_id": pa.array(col(g, "user_id")[p], pa.int64()),
        "purchase_ts": pa.array(ts[p], pa.timestamp("us")),
        "click_id": pa.array(ids[m], pa.int64(), mask=miss),
        "click_ts": pa.array(ts[m], pa.timestamp("us"), mask=miss),
        "lag_us": pa.array(ts[p] - ts[m], pa.int64(), mask=miss),
    })


def events_asof_join(sf_dir: str, left_type: str = "purchase",
                     right_type: str = "click",
                     band_us: int = _ASOF_BAND_US):
    """As-of join — the custom operator Ray Data lacks natively: for
    every ``left_type`` event, the most recent ``right_type`` event of
    the SAME user at-or-before its timestamp (classic attribution /
    state-lookup shape). Ties among equal right-side timestamps break
    deterministically to the LARGEST event_id (mirrored in the oracle).

    One kernel over the banded per-user plan (bands.py): events group
    by (user_id, time-band), so a hot single-user firehose never
    creates an unbounded group, and each band's carry row is its
    user's latest click of an earlier band, so a match crosses band
    edges. In-group probe: one searchsorted of purchase timestamps into
    the band's clicks. DuckDB twin: native ASOF LEFT JOIN over per-(user,
    ts) max-event_id-deduped clicks (hash-exact, incl. null rows)."""
    ds = _two_types(sf_dir, (left_type, right_type), "is_click")
    return banded(ds, _asof, band_us, carry=Carry(eligible="is_click"))


SQL_EVENTS_ASOF = """
WITH p AS (SELECT * FROM events WHERE event_type = 'purchase'),
c AS (SELECT user_id, ts, MAX(event_id) AS event_id
      FROM events WHERE event_type = 'click' GROUP BY user_id, ts)
SELECT p.event_id AS purchase_id, p.user_id, p.ts AS purchase_ts,
       c.event_id AS click_id, c.ts AS click_ts,
       CAST(epoch_us(p.ts) - epoch_us(c.ts) AS BIGINT) AS lag_us
FROM p ASOF LEFT JOIN c
  ON p.user_id = c.user_id AND p.ts >= c.ts
ORDER BY purchase_id
"""


# ---------------------------------------------------------------------------
_RANGE_W_US = 7_200_000_000  # ±2 h (the sf events are hours apart)


def _range_pairs(g: pa.Table, window_us: int) -> pa.Table:
    ids, ts = col(g, "event_id"), col(g, "ts_us")
    err = col(g, "is_err")
    # visitors are copied purchases, so every error is the band's own;
    # the group's ts order keeps the purchases sorted for searchsorted
    e, p = np.flatnonzero(err), np.flatnonzero(~err)
    lo = np.searchsorted(ts[p], ts[e] - window_us, side="left")
    n = np.searchsorted(ts[p], ts[e] + window_us, side="right") - lo
    pi, ei = p[ragged_arange(lo, n)], np.repeat(e, n)
    return pa.table({
        "error_id": pa.array(ids[ei], pa.int64()),
        "purchase_id": pa.array(ids[pi], pa.int64()),
        "delta_us": pa.array(ts[pi] - ts[ei], pa.int64()),
    })


def events_range_join(sf_dir: str, window_us: int = _RANGE_W_US):
    """Range (interval) join — the other custom join the brief names:
    every error event paired with the SAME user's purchase events
    within ±window. One kernel over the banded per-user plan (bands.py)
    with window-sized bands: each purchase also visits its band ±1, so
    every qualifying pair co-locates in exactly one group (the error's
    band), where two searchsorteds per error bound |Δts| ≤ window.
    Shuffle volume = 3× the purchase rows — never a cross product,
    never a global sort. DuckDB twin: plain predicate join
    (hash-exact)."""
    ds = _two_types(sf_dir, ("purchase", "error"), "is_err")

    def purchases(t: pa.Table) -> list:
        buy = ~col(t, "is_err")
        return [(buy, -1), (buy, 1)]

    return banded(ds, lambda g: _range_pairs(g, window_us), window_us,
                  halo=purchases)


SQL_EVENTS_RANGE_JOIN = f"""
SELECT e.event_id AS error_id, p.event_id AS purchase_id,
       CAST(epoch_us(p.ts) - epoch_us(e.ts) AS BIGINT) AS delta_us
FROM (SELECT * FROM events WHERE event_type = 'error') e
JOIN (SELECT * FROM events WHERE event_type = 'purchase') p
  ON e.user_id = p.user_id
 AND ABS(epoch_us(p.ts) - epoch_us(e.ts)) <= {_RANGE_W_US}
ORDER BY error_id, purchase_id
"""


# ---------------------------------------------------------------------------
def revenue_by_nation(sf_dir: str, num_partitions: int = 8,
                      broadcast_gate: int = BROADCAST_GATE):
    """Order revenue per nation: a size-gated DISTRIBUTED EQUI-JOIN
    (customer ⋈ orders on custkey) through ``gated_join``: customer is
    broadcast at or under ``broadcast_gate`` rows, and above it both
    sides go through Ray Data's native partitioned hash join. The
    25-row nation dim is applied as a searchsorted lookup after the
    post-join re-aggregation. Both paths are pinned equal by
    tests/test_sampling.py.
    """
    per_nation = _orders_per_customer_attr(sf_dir, "c_nationkey",
                                           num_partitions, broadcast_gate)

    # 25-row dim: sorted-key lookup inside the final (tiny) stream
    import pyarrow.parquet as pq
    import os as _os
    nat = pq.read_table(_os.path.join(sf_dir, "nation.parquet"),
                        columns=["n_nationkey", "n_name"])
    nkeys = nat.column("n_nationkey").to_numpy(zero_copy_only=False)
    order = _dim_order(nkeys, "nation.n_nationkey")
    nkeys = nkeys[order]
    nnames = nat.column("n_name").to_numpy(zero_copy_only=False)[order]

    def add_name(b: pa.Table) -> pa.Table:
        k = b.column("c_nationkey").to_numpy(zero_copy_only=False)
        pos = np.clip(np.searchsorted(nkeys, k), 0, len(nkeys) - 1)
        hit = nkeys[pos] == k
        return pa.table({
            "n_name": pa.array(nnames[pos[hit]], pa.string()),
            "n_orders": b.column("n_orders").filter(pa.array(hit)),
            "total_cents": b.column("total_cents").filter(pa.array(hit)),
        })

    return per_nation.map_batches(add_name, batch_format="pyarrow")


SQL_REVENUE_BY_NATION = """
SELECT n_name, COUNT(*) AS n_orders,
       CAST(SUM(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT))
            AS BIGINT) AS total_cents
FROM orders
JOIN customer ON o_custkey = c_custkey
JOIN nation ON c_nationkey = n_nationkey
GROUP BY n_name ORDER BY n_name
"""


# ---------------------------------------------------------------------------
_FUNNEL_STEPS = ("view", "click", "purchase")


def events_funnel(sf_dir: str, steps: tuple[str, ...] = _FUNNEL_STEPS):
    """Ordered conversion funnel: users whose first step-i event happens
    STRICTLY AFTER their effective first step-(i-1) event.

    Per-user semantics (exact, matches the SQL twin): t1 = min ts of
    step 1; t2 = min ts of step 2 events with ts > t1; t3 = min ts of
    step 3 events with ts > t2; a user counts for step i iff t_i exists.

    Scale shape: events are filtered to the step types at the read
    (column- and row-pruned), and one kernel over the per-user plan of
    bands.py (a group is one user's step events, never the table) emits
    three 0/1 flags; flags fold through a per-batch integer partial
    sum, so the driver sees one 3-int row. Returns (step, n_users) with
    steps labeled '1_view', '2_click', ...
    """
    step_arr = pa.array(list(steps))
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "user_id", "event_type", "ts"])

    def prune(b: pa.Table) -> pa.Table:
        b = b.filter(pc.is_in(b.column("event_type"), value_set=step_arr))
        return b.drop_columns(["event_type"]).append_column(
            "step", pc.index_in(b.column("event_type"),
                                value_set=step_arr).cast(pa.int64()))

    def per_user(g: pa.Table) -> pa.Table:
        st, ts = col(g, "step"), col(g, "ts_us")
        flags = np.zeros(len(steps), dtype=np.int64)
        prev = -(1 << 62)
        for i in range(len(steps)):
            cand = ts[(st == i) & (ts > prev)]
            if len(cand) == 0:
                break
            prev = cand.min()
            flags[i] = 1
        return pa.table({f"s{i}": pa.array([int(flags[i])], pa.int64())
                         for i in range(len(steps))})

    flags = banded(ds.map_batches(prune, batch_format="pyarrow"), per_user)

    def partial_sum(b: pa.Table) -> pa.Table:
        return pa.table({c: pa.array([pc.sum(b.column(c)).as_py() or 0],
                                     pa.int64())
                         for c in b.column_names})

    totals = flags.map_batches(partial_sum, batch_format="pyarrow") \
                  .to_pandas().sum()
    return pa.table({
        "step": pa.array([f"{i + 1}_{s}" for i, s in enumerate(steps)]),
        "n_users": pa.array([int(totals[f"s{i}"])
                             for i in range(len(steps))], pa.int64()),
    })


SQL_EVENTS_FUNNEL = """
WITH v AS (SELECT user_id, MIN(ts) AS t1 FROM events
           WHERE event_type = 'view' GROUP BY user_id),
c AS (SELECT e.user_id, MIN(e.ts) AS t2 FROM events e
      JOIN v ON e.user_id = v.user_id AND e.ts > v.t1
      WHERE e.event_type = 'click' GROUP BY e.user_id),
p AS (SELECT e.user_id, MIN(e.ts) AS t3 FROM events e
      JOIN c ON e.user_id = c.user_id AND e.ts > c.t2
      WHERE e.event_type = 'purchase' GROUP BY e.user_id)
SELECT t.step, t.n_users FROM (VALUES
  ('1_view', (SELECT COUNT(*) FROM v)),
  ('2_click', (SELECT COUNT(*) FROM c)),
  ('3_purchase', (SELECT COUNT(*) FROM p))) t(step, n_users)
ORDER BY t.step
"""


# ---------------------------------------------------------------------------
def customers_without_orders(sf_dir: str, priority: str = "1-URGENT",
                             num_partitions: int = 8,
                             broadcast_gate: int = BROADCAST_GATE):
    """ANTI-JOIN: customers with no order of the given priority — the
    NOT EXISTS shape (degenerately empty for the unfiltered "no order
    at all" question on the TPC-H-ish corpus, where every customer
    orders).

    The order side first collapses to its DISTINCT custkeys with a
    per-batch filter + ``np.unique`` partial + one groupby, so whatever
    plan follows never moves order-sized data.  Then one ``left_anti``
    ``gated_join``: the distinct keys are broadcast at or under
    ``broadcast_gate`` of them, and hash-joined natively above.  Both
    paths pinned equal by tests/test_distinct.py.
    """
    orders = read_table(sf_dir, "orders",
                        columns=["o_custkey", "o_orderpriority"])

    def key_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.equal(b.column("o_orderpriority"), priority))
        k = np.unique(b.column("o_custkey").to_numpy(zero_copy_only=False))
        return pa.table({"o_custkey": pa.array(k, pa.int64())})

    keys = (orders.map_batches(key_partial, batch_format="pyarrow")
                  .groupby("o_custkey")
                  .aggregate(Sum("o_custkey", alias_name="_one")))

    cust_cols = ["c_custkey", "c_name", "c_mktsegment", "c_acctbal"]
    cust = read_table(sf_dir, "customer", columns=cust_cols)

    def project(b: pa.Table) -> pa.Table:
        return pa.table({
            "c_custkey": b.column("c_custkey"),
            "c_name": b.column("c_name"),
            "c_mktsegment": b.column("c_mktsegment"),
            "acctbal_cents": pa.array(_cents(b.column("c_acctbal")
                .to_numpy(zero_copy_only=False))),
        })

    return gated_join(cust, keys, ["c_custkey"], ["o_custkey"],
                      how="left_anti", num_partitions=num_partitions,
                      broadcast_gate=broadcast_gate).map_batches(
        project, batch_format="pyarrow")


SQL_CUSTOMERS_WITHOUT_ORDERS = """
SELECT c_custkey, c_name, c_mktsegment,
       CAST(floor(c_acctbal * 100.0 + 0.5) AS BIGINT) AS acctbal_cents
FROM customer
WHERE NOT EXISTS (SELECT 1 FROM orders
                  WHERE o_custkey = c_custkey
                    AND o_orderpriority = '1-URGENT')
ORDER BY c_custkey
"""


# ---------------------------------------------------------------------------
def orders_rollup(sf_dir: str):
    """GROUPING-SETS rollup of order revenue: (year, month) → (year) →
    grand total, sentinel -1 for rolled-up levels.

    The distributed part is exactly ``orders_by_month`` (per-batch
    partials, one small groupby); the coarser levels are derived from
    that ≤ years×12-row result on the driver — re-aggregating a
    bounded table instead of re-shuffling the fact table twice more.
    """
    fine = orders_by_month(sf_dir).to_pandas()
    yr = (fine.groupby("year", as_index=False)[["n_orders", "total_cents"]]
              .sum())
    yr["month"] = -1
    total = pd.DataFrame({
        "year": [-1], "month": [-1],
        "n_orders": [fine["n_orders"].sum()],
        "total_cents": [fine["total_cents"].sum()],
    })
    out = pd.concat([fine, yr, total], ignore_index=True)[
        ["year", "month", "n_orders", "total_cents"]]
    out = out.astype({"year": "int64", "month": "int64",
                      "n_orders": "int64", "total_cents": "int64"})
    return out.sort_values(["year", "month"]).reset_index(drop=True)


SQL_ORDERS_ROLLUP = """
SELECT CAST(COALESCE(year(o_orderdate), -1) AS BIGINT) AS year,
       CAST(COALESCE(month(o_orderdate), -1) AS BIGINT) AS month,
       COUNT(*) AS n_orders,
       CAST(SUM(CAST(floor(o_totalprice * 100.0 + 0.5) AS BIGINT))
            AS BIGINT) AS total_cents
FROM orders
GROUP BY ROLLUP(year(o_orderdate), month(o_orderdate))
ORDER BY year, month
"""


# ---------------------------------------------------------------------------
def parts_shipped(sf_dir: str, min_qty: float = 50.0,
                  num_partitions: int = 8,
                  broadcast_gate: int = BROADCAST_GATE):
    """SEMI-JOIN: parts with at least one BULK lineitem shipment
    (quantity ≥ ``min_qty``) — the EXISTS shape, completing the join
    family (inner = ``revenue_by_nation``, anti =
    ``customers_without_orders``, as-of / range = the events joins).
    The quantity filter keeps the fixture non-degenerate (~half the
    parts qualify; unfiltered, every part ships).

    Same plan skeleton as the anti-join: the lineitem side collapses to
    DISTINCT partkeys first (per-batch ``np.unique`` + one groupby),
    then one ``left_semi`` ``gated_join`` (broadcast at or under
    ``broadcast_gate`` keys, native hash join above).  Paths pinned
    equal by tests/test_distinct.py.
    """
    li = read_table(sf_dir, "lineitem",
                    columns=["l_partkey", "l_quantity"])

    def key_partial(b: pa.Table) -> pa.Table:
        b = b.filter(pc.greater_equal(b.column("l_quantity"), min_qty))
        k = np.unique(b.column("l_partkey").to_numpy(zero_copy_only=False))
        return pa.table({"l_partkey": pa.array(k, pa.int64())})

    keys = (li.map_batches(key_partial, batch_format="pyarrow")
              .groupby("l_partkey")
              .aggregate(Sum("l_partkey", alias_name="_one")))

    part = read_table(sf_dir, "part",
                      columns=["p_partkey", "p_name", "p_brand"])
    return gated_join(part, keys, ["p_partkey"], ["l_partkey"],
                      how="left_semi", num_partitions=num_partitions,
                      broadcast_gate=broadcast_gate)


SQL_PARTS_SHIPPED = """
SELECT p_partkey, p_name, p_brand
FROM part
WHERE EXISTS (SELECT 1 FROM lineitem
              WHERE l_partkey = p_partkey AND l_quantity >= 50.0)
ORDER BY p_partkey
"""
