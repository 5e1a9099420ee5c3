"""Gap-based sessionization over the events table — the classic
streaming/window operator Ray Data lacks natively (SURVEY.md §2.10
family; brief: "windowed aggregate" custom operator).

A session is a maximal run of one user's events where consecutive gaps
are ≤ ``gap_us``. Partitioning assumption: one groupby(user_id) shuffle;
session detection cannot pre-aggregate (gaps cross batch boundaries), so
the per-user event history must co-locate — skew is bounded by the
per-user event count. A pathological hot user would be split on
(user_id, time band) by the per-user plan of bands.py, which the window
functions and the asof and range joins share: a carry row holding the
user's last event of an earlier band would start each band's gap chain,
and a session crossing a band edge would need a merge (not built here,
as this corpus's per-user cardinality does not need it).

Within a group everything is vectorized: one sort by timestamp, one diff
for gaps, cumsum for session ids, reduceat for per-session aggregates.
Values are integer µs / micros so the DuckDB oracle hashes exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ..pipelines.datasets import read_table

GAP_US = 30 * 60 * 1_000_000  # 30 min


def _sessionize_group(grp: pd.DataFrame, gap_us: int) -> pd.DataFrame:
    us = grp["ts"].astype("int64").to_numpy()
    order = np.argsort(us, kind="stable")
    us = us[order]
    val = np.floor(grp["value"].to_numpy()[order] * 1e6).astype(np.int64)
    new = np.ones(len(us), dtype=np.int64)
    new[1:] = (np.diff(us) > gap_us).astype(np.int64)
    seq = np.cumsum(new)  # 1-based session sequence per user
    starts = np.nonzero(new)[0]
    counts = np.diff(np.append(starts, len(us)))
    return pd.DataFrame({
        "user_id": pd.Series(
            np.full(len(starts), int(grp["user_id"].iloc[0]),
                    dtype=np.int64)),
        "session_seq": pd.Series(seq[starts], dtype=np.int64),
        "n_events": pd.Series(counts, dtype=np.int64),
        "start_us": pd.Series(us[starts], dtype=np.int64),
        "end_us": pd.Series(us[np.append(starts[1:], len(us)) - 1],
                            dtype=np.int64),
        "sum_value_micros": pd.Series(
            np.add.reduceat(val, starts), dtype=np.int64),
    })


def sessionize(sf_dir: str, gap_us: int = GAP_US):
    """(user_id, session_seq, n_events, start_us, end_us,
    sum_value_micros), one row per session."""
    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "value"])
    return (ds.groupby("user_id")
            .map_groups(lambda g: _sessionize_group(g, gap_us),
                        batch_format="pandas"))


SQL_SESSIONIZE = """
WITH e AS (
  SELECT user_id, epoch_us(ts) AS us,
         CAST(floor(value * 1e6) AS BIGINT) AS vmicros
  FROM events
), x AS (
  SELECT user_id, us, vmicros,
         CASE WHEN us - LAG(us) OVER w > 1800000000
                   OR LAG(us) OVER w IS NULL
              THEN 1 ELSE 0 END AS is_new
  FROM e
  WINDOW w AS (PARTITION BY user_id ORDER BY us)
), s AS (
  SELECT user_id, us, vmicros,
         SUM(is_new) OVER (PARTITION BY user_id ORDER BY us
                           ROWS UNBOUNDED PRECEDING) AS session_seq
  FROM x
)
SELECT user_id,
       CAST(session_seq AS BIGINT) AS session_seq,
       COUNT(*) AS n_events,
       MIN(us) AS start_us,
       MAX(us) AS end_us,
       CAST(SUM(vmicros) AS BIGINT) AS sum_value_micros
FROM s
GROUP BY user_id, session_seq
ORDER BY user_id, session_seq
"""
