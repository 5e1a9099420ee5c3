"""Gap-based sessionization over the events table — the classic
streaming/window operator Ray Data lacks natively (SURVEY.md §2.10
family; brief: "windowed aggregate" custom operator).

A session is a maximal run of one user's events where consecutive gaps
are ≤ ``gap_us``. Session detection cannot pre-aggregate (gaps cross
batch boundaries), so it is one kernel over the plain per-user plan of
bands.py, which the window functions and the asof and range joins
share: a group is one user's whole history, sorted once by (ts,
event_id), and skew is bounded by the per-user event count. Ties on ts
never split a session (their gap is 0), so their order cannot change a
row. A banded (hot-user) form would start each band's gap chain from a
carry row and merge the sessions that cross a band edge; it is not
built.

Within a group everything is vectorized: one diff for gaps, the
session starts from it, reduceat for the per-session sums. ``value``
is read as int64 micros through windows.py's null guard, so the DuckDB
oracle hashes exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .bands import banded, col
from .windows import _valued

GAP_US = 30 * 60 * 1_000_000  # 30 min


def _sessions(g: pa.Table, gap_us: int) -> pa.Table:
    us = col(g, "ts_us")
    new = np.ones(len(us), dtype=bool)
    new[1:] = np.diff(us) > gap_us
    last = np.ones(len(us), dtype=bool)
    last[:-1] = new[1:]
    starts, ends = np.flatnonzero(new), np.flatnonzero(last)
    return pa.table({
        "user_id": pa.array(col(g, "user_id")[starts], pa.int64()),
        "session_seq": pa.array(np.arange(1, len(starts) + 1), pa.int64()),
        "n_events": pa.array(ends - starts + 1, pa.int64()),
        "start_us": pa.array(us[starts], pa.int64()),
        "end_us": pa.array(us[ends], pa.int64()),
        "sum_value_micros": pa.array(
            np.add.reduceat(col(g, "vmicros"), starts), pa.int64()),
    })


def sessionize(sf_dir: str, gap_us: int = GAP_US):
    """(user_id, session_seq, n_events, start_us, end_us,
    sum_value_micros), one row per session."""
    return banded(_valued(sf_dir), lambda g: _sessions(g, gap_us))


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
