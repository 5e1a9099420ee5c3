"""Relational demo operators over the TPC-H-ish tables: pre-aggregated
grouped aggregate, equi-joins (inner / semi / anti, all through
``join.gated_join``), tumbling-window event aggregate.

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
    """Tumbling 1-minute window per event_type (streaming-shaped aggregate;
    ray_guide 'Streaming-shaped workloads'). Window key is integer µs."""
    ds = read_table(sf_dir, "events",
                    columns=["ts", "event_type", "value"])

    def partial(b: pa.Table) -> pa.Table:
        us = b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)  # epoch µs
        t = pa.table({
            "event_type": b.column("event_type"),
            "window_us": pa.array((us // 60_000_000) * 60_000_000,
                                  pa.int64()),
            "n_events": pa.array(np.ones(len(b), np.int64)),
            "sum_value_micros": pa.array(np.floor(
                b.column("value").to_numpy(zero_copy_only=False)
                * 1e6).astype(np.int64)),
        })
        return _gsum(t, ["event_type", "window_us"],
                     ["n_events", "sum_value_micros"])

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return partials.groupby(["event_type", "window_us"]).aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("sum_value_micros", alias_name="sum_value_micros"))


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
    pattern (window key is the window START in integer µs)."""
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
_ASOF_BAND_US = 86_400_000_000  # 1 day


def events_asof_join(sf_dir: str, left_type: str = "purchase",
                     right_type: str = "click",
                     band_us: int = _ASOF_BAND_US):
    """As-of join — the custom operator Ray Data lacks natively: for
    every ``left_type`` event, the most recent ``right_type`` event of
    the SAME user at-or-before its timestamp (classic attribution /
    state-lookup shape). Ties among equal right-side timestamps break
    deterministically to the LARGEST event_id (mirrored in the oracle).

    Distributed like the range join next door: events key on the
    (user_id, time-band) PAIR so a hot single-user firehose never
    creates an unbounded group. Cross-band matches are handled by a
    CARRY-IN row: a small per-(user, band) summary pass computes each
    band's latest click, a per-user prefix-max over those summaries
    (group size = #bands per user, not #events) yields "latest click
    strictly before this band", and that one row is unioned into every
    band that has purchases. In-group probe: one vectorized
    searchsorted of purchase timestamps into the (ts, event_id)-sorted
    click stream. Shuffle volume: 2× the event rows + the tiny summary/
    carry tables. DuckDB twin: native ASOF LEFT JOIN over per-(user,
    ts) max-event_id-deduped clicks (hash-exact, incl. null rows)."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id", "event_type"])
    ds = ds.filter(
        expr=f"event_type == '{left_type}' or "
             f"event_type == '{right_type}'")

    def banded(b: pa.Table) -> pa.Table:
        ts_us = b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({
            "user_id": b.column("user_id").cast(pa.int64()),
            "band": pa.array(ts_us // band_us, pa.int64()),
            "event_id": b.column("event_id").cast(pa.int64()),
            "ts_us": pa.array(ts_us, pa.int64()),
            "is_left": pc.equal(b.column("event_type"), left_type),
        })

    # materialize: the banded stream feeds BOTH the summary chain and
    # the final union — without this the full events read + band map
    # would re-execute for each consumer (object-store-resident blocks,
    # spillable, never on the driver)
    stream = ds.map_batches(banded, batch_format="pyarrow").materialize()

    _SUM_SCHEMA = {
        "user_id": pa.int64(), "band": pa.int64(),
        "best_ts": pa.int64(), "best_id": pa.int64(),
        "has_left": pa.bool_(),
    }

    def summarize(b: pa.Table) -> pa.Table:
        """Per-batch partial: one row per (user, band) with the latest
        (ts, event_id) click and a purchases-present flag."""
        users = b.column("user_id").to_numpy(zero_copy_only=False)
        bands = b.column("band").to_numpy(zero_copy_only=False)
        ids = b.column("event_id").to_numpy(zero_copy_only=False)
        ts = b.column("ts_us").to_numpy(zero_copy_only=False)
        is_l = b.column("is_left").to_numpy(zero_copy_only=False)
        if not len(users):
            return pa.table({k: pa.array([], t)
                             for k, t in _SUM_SCHEMA.items()})
        # lexsort: within (user, band), clicks before purchases isn't
        # needed — rank clicks by (ts, id) and take the segment's last
        order = np.lexsort((ids, ts, bands, users))
        u, bd = users[order], bands[order]
        new = np.empty(len(u), dtype=bool)
        new[0] = True
        new[1:] = (u[1:] != u[:-1]) | (bd[1:] != bd[:-1])
        seg = np.cumsum(new) - 1
        n_seg = int(seg[-1]) + 1
        has_left = np.zeros(n_seg, dtype=bool)
        np.logical_or.at(has_left, seg, is_l[order])
        # last click per segment: positions of clicks, keep the max
        # (ts, id) — lexsort already ordered them, so the last click
        # index within each segment wins
        click_pos = np.flatnonzero(~is_l[order])
        best = np.full(n_seg, -1, dtype=np.int64)
        # max position per segment = the segment's max (ts, id) click
        np.maximum.at(best, seg[click_pos], click_pos)
        out_u = u[new]
        out_b = bd[new]
        hit = best >= 0
        safe = np.clip(best, 0, None)
        return pa.table({
            "user_id": pa.array(out_u, pa.int64()),
            "band": pa.array(out_b, pa.int64()),
            "best_ts": pa.array(
                np.where(hit, ts[order][safe], 0), pa.int64(),
                mask=~hit),
            "best_id": pa.array(
                np.where(hit, ids[order][safe], 0), pa.int64(),
                mask=~hit),
            "has_left": pa.array(has_left),
        })

    def combine(g: pa.Table) -> pa.Table:
        """Merge per-batch summaries of one (user, band)."""
        mask = g.column("best_ts").is_valid().to_numpy(
            zero_copy_only=False)
        # fill_null keeps the arrays int64 (nulls → float64+NaN would
        # corrupt >2^53 timestamps / event ids)
        bt = pc.fill_null(g.column("best_ts"), 0).to_numpy(
            zero_copy_only=False)
        bi = pc.fill_null(g.column("best_id"), 0).to_numpy(
            zero_copy_only=False)
        has = bool(pc.any(g.column("has_left")).as_py())
        if mask.any():
            vi = np.flatnonzero(mask)
            k = vi[np.lexsort((bi[vi], bt[vi]))[-1]]
            row = {"best_ts": pa.array([int(bt[k])], pa.int64()),
                   "best_id": pa.array([int(bi[k])], pa.int64())}
        else:
            row = {"best_ts": pa.array([None], pa.int64()),
                   "best_id": pa.array([None], pa.int64())}
        return pa.table({
            "user_id": g.column("user_id")[:1],
            "band": g.column("band")[:1],
            **row,
            "has_left": pa.array([has]),
        })

    summary = (stream.map_batches(summarize, batch_format="pyarrow")
                     .groupby(["user_id", "band"])
                     .map_groups(combine, batch_format="pyarrow"))

    def carries(g: pa.Table) -> pa.Table:
        """Per user: for each band with purchases, the latest click of
        any STRICTLY EARLIER band (prefix max over band order)."""
        bands = g.column("band").to_numpy(zero_copy_only=False)
        order = np.argsort(bands, kind="stable")
        bands_s = bands[order]
        bt = pc.fill_null(g.column("best_ts"), 0).to_numpy(
            zero_copy_only=False)[order]
        bi = pc.fill_null(g.column("best_id"), 0).to_numpy(
            zero_copy_only=False)[order]
        mask = g.column("best_ts").is_valid().to_numpy(
            zero_copy_only=False)[order]
        has_l = g.column("has_left").to_numpy(
            zero_copy_only=False)[order]
        user = int(g.column("user_id")[0].as_py())
        out_b, out_ts, out_id = [], [], []
        cur_ts = cur_id = None
        for j in range(len(bands_s)):
            if has_l[j] and cur_ts is not None:
                out_b.append(int(bands_s[j]))
                out_ts.append(cur_ts)
                out_id.append(cur_id)
            if mask[j]:
                # within-user bands are disjoint time ranges, so a
                # later band's best always supersedes (ts strictly
                # greater) — simple assignment, no (ts, id) compare
                cur_ts, cur_id = int(bt[j]), int(bi[j])
        return pa.table({
            "user_id": pa.array([user] * len(out_b), pa.int64()),
            "band": pa.array(out_b, pa.int64()),
            "event_id": pa.array(out_id, pa.int64()),
            "ts_us": pa.array(out_ts, pa.int64()),
            "is_left": pa.array([False] * len(out_b), pa.bool_()),
        })

    carry = summary.groupby("user_id").map_groups(
        carries, batch_format="pyarrow")

    def per_group(g: pa.Table) -> pa.Table:
        ts = g.column("ts_us").to_numpy(zero_copy_only=False)
        ids = g.column("event_id").to_numpy(zero_copy_only=False)
        users = g.column("user_id").to_numpy(zero_copy_only=False)
        is_l = g.column("is_left").to_numpy(zero_copy_only=False)
        l_idx = np.flatnonzero(is_l)
        if not len(l_idx):
            return pa.table({
                "purchase_id": pa.array([], pa.int64()),
                "user_id": pa.array([], pa.int64()),
                "purchase_ts": pa.array([], pa.timestamp("us")),
                "click_id": pa.array([], pa.int64()),
                "click_ts": pa.array([], pa.timestamp("us")),
                "lag_us": pa.array([], pa.int64()),
            })
        r_idx = np.flatnonzero(~is_l)
        # deterministic tie-break: sort clicks by (ts, event_id) so the
        # searchsorted pick among equal timestamps is the max event_id
        r_idx = r_idx[np.lexsort((ids[r_idx], ts[r_idx]))]
        l_ts = ts[l_idx]
        if len(r_idx):
            pos = np.searchsorted(ts[r_idx], l_ts, side="right") - 1
            hit = pos >= 0
            safe = np.clip(pos, 0, None)
            m_ids = np.where(hit, ids[r_idx][safe], -1)
            m_ts = np.where(hit, ts[r_idx][safe], 0)
        else:
            hit = np.zeros(len(l_idx), dtype=bool)
            m_ids = np.full(len(l_idx), -1, dtype=np.int64)
            m_ts = np.zeros(len(l_idx), dtype=np.int64)
        return pa.table({
            "purchase_id": pa.array(ids[l_idx], pa.int64()),
            "user_id": pa.array(users[l_idx], pa.int64()),
            "purchase_ts": pa.array(l_ts, pa.timestamp("us")),
            "click_id": pa.array(
                np.where(hit, m_ids, 0), pa.int64(), mask=~hit),
            "click_ts": pa.array(m_ts, pa.timestamp("us"), mask=~hit),
            "lag_us": pa.array(
                np.where(hit, l_ts - m_ts, 0), pa.int64(), mask=~hit),
        })

    return (stream.union(carry)
                  .groupby(["user_id", "band"])
                  .map_groups(per_group, batch_format="pyarrow"))


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


def events_range_join(sf_dir: str, window_us: int = _RANGE_W_US):
    """Range (interval) join — the other custom join the brief names:
    every error event paired with the SAME user's purchase events
    within ±window. Distributed via BANDING: time is bucketed into
    window-sized bands keyed (user, band); the purchase side replicates
    into its band ±1 so every qualifying pair co-locates in exactly one
    group (the error's band), then a vectorized in-group filter keeps
    |Δts| ≤ window. Shuffle volume = 3× the purchase rows — never a
    cross product, never a global sort. DuckDB twin: plain predicate
    join (hash-exact)."""
    ds = read_table(sf_dir, "events",
                    columns=["event_id", "ts", "user_id", "event_type"])
    ds = ds.filter(expr="event_type == 'error' or "
                        "event_type == 'purchase'")

    def band(b: pa.Table) -> pa.Table:
        ts_us = b.column("ts").cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        ids = b.column("event_id").to_numpy(zero_copy_only=False)
        users = b.column("user_id").to_numpy(zero_copy_only=False)
        is_err = pc.equal(b.column("event_type"), "error").to_numpy(
            zero_copy_only=False).astype(bool)
        bands = ts_us // window_us
        reps = []
        # errors live in their own band; purchases replicate to band±1.
        # The group key is the (user_id, band) PAIR — a packed
        # user*C+band single key silently collides for band >= C (e.g.
        # second-granularity windows over epoch-µs timestamps), pairing
        # events of different users.
        for shift in (-1, 0, 1):
            sel = ~is_err if shift else np.ones(len(ids), dtype=bool)
            reps.append(pa.table({
                "user_id": pa.array(users[sel], pa.int64()),
                "band": pa.array(bands[sel] + shift, pa.int64()),
                "event_id": pa.array(ids[sel], pa.int64()),
                "ts_us": pa.array(ts_us[sel], pa.int64()),
                "is_err": pa.array(is_err[sel] & (shift == 0),
                                   pa.bool_()),
            }))
        return pa.concat_tables(reps)

    def per_group(g: pa.Table) -> pa.Table:
        is_err = g.column("is_err").to_numpy(zero_copy_only=False)
        ids = g.column("event_id").to_numpy(zero_copy_only=False)
        ts = g.column("ts_us").to_numpy(zero_copy_only=False)
        e_ids, e_ts = ids[is_err], ts[is_err]
        p_o = np.argsort(ts[~is_err], kind="stable")
        p_ids, p_ts = ids[~is_err][p_o], ts[~is_err][p_o]
        out_e, out_p, out_d = [], [], []
        if len(e_ids) and len(p_ids):
            lo = np.searchsorted(p_ts, e_ts - window_us, side="left")
            hi = np.searchsorted(p_ts, e_ts + window_us, side="right")
            cnt = hi - lo
            tot = int(cnt.sum())
            if tot:
                ends = np.cumsum(cnt)
                fi = (np.arange(tot, dtype=np.int64)
                      - np.repeat(ends - cnt, cnt) + np.repeat(lo, cnt))
                out_e = np.repeat(e_ids, cnt)
                out_p = p_ids[fi]
                out_d = p_ts[fi] - np.repeat(e_ts, cnt)
        return pa.table({
            "error_id": pa.array(np.asarray(out_e, dtype=np.int64),
                                 pa.int64()),
            "purchase_id": pa.array(np.asarray(out_p, dtype=np.int64),
                                    pa.int64()),
            "delta_us": pa.array(np.asarray(out_d, dtype=np.int64),
                                 pa.int64()),
        })

    return (ds.map_batches(band, batch_format="pyarrow")
              .groupby(["user_id", "band"])
              .map_groups(per_group, batch_format="pyarrow"))


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
    (column- and row-pruned), grouped per user (the same per-user-group
    contract as sessionize — a group is one user's step events, never
    the table), and each group emits three 0/1 flags; flags fold through
    a per-batch integer partial sum, so the driver sees one 3-int row.
    Returns (step, n_users) with steps labeled '1_view', '2_click', ...
    """
    step_arr = pa.array(list(steps))
    ds = read_table(sf_dir, "events",
                    columns=["user_id", "event_type", "ts"])

    def prune(b: pa.Table) -> pa.Table:
        m = pc.is_in(b.column("event_type"), value_set=step_arr)
        b = b.filter(m)
        return pa.table({
            "user_id": b.column("user_id"),
            "step": pc.fill_null(pc.index_in(
                b.column("event_type"), value_set=step_arr), -1)
                .cast(pa.int64()),
            "ts_us": b.column("ts").cast(pa.timestamp("us"))
                .cast(pa.int64()),
        })

    def per_user(b: pa.Table) -> pa.Table:
        st = b.column("step").to_numpy(zero_copy_only=False)
        ts = b.column("ts_us").to_numpy(zero_copy_only=False)
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

    flags = (ds.map_batches(prune, batch_format="pyarrow")
               .groupby("user_id")
               .map_groups(per_user, batch_format="pyarrow"))

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
