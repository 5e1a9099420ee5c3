"""Per-event window functions over the events table: LAG (gap to the
previous event of the same user), a time-RANGE rolling count and a
running total — the row-preserving window shapes (SQL ``OVER
(PARTITION BY … ORDER BY …)``) that Ray Data has no native operator
for. Each is one vectorized kernel (a diff, two searchsorteds, a
cumsum) over the per-user plan of bands.py, which sorts each group
once by (ts, event_id): ties on ts break by event_id on BOTH engines
(ADVICE r4: never leave a tie engine-defined).

The plain form groups a user's whole history; the ``*_banded`` form
runs the same kernel over (user, time-band) groups, so a hot user's
groups stay bounded. A band reads the rest of the history from visitor
rows: for LAG a carry row holding the user's latest earlier event, for
the running total one whose value is the earlier bands' sum, for the
rolling count a halo copy of the previous band's window tail. Both
forms are pinned row-identical, on an 83%-hot-user fixture too, in
tests/test_distinct.py. All outputs are integer µs so the DuckDB
window-function oracles hash exactly; nullable ints are Arrow int64 +
mask (→ float64/NaN in pandas, same as DuckDB's fetchdf).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..pipelines.datasets import read_table
from .bands import Carry, banded, col

ROLL_WINDOW_US = 10 * 60 * 1_000_000  # 10 min
BAND_US = 6 * 60 * 60 * 1_000_000  # 6 h


def _events(sf_dir: str, *extra: str):
    return read_table(sf_dir, "events",
                      columns=["event_id", "user_id", "ts", *extra])


def _own(g: pa.Table, name: str, values: pa.Array) -> pa.Table:
    """(event_id, user_id, ts_us, ``name``) of the group's own rows."""
    return pa.table({"event_id": g.column("event_id"),
                     "user_id": g.column("user_id"),
                     "ts_us": g.column("ts_us"),
                     name: values}).filter(pc.invert(g.column("visitor")))


def _lag(g: pa.Table) -> pa.Table:
    us = col(g, "ts_us")
    gap = np.zeros(len(us), dtype=np.int64)
    gap[1:] = np.diff(us)
    first = np.zeros(len(us), dtype=bool)
    first[:1] = True  # nothing earlier, not even a carry row: NULL
    return _own(g, "gap_us", pa.array(gap, pa.int64(), mask=first))


def events_user_lag(sf_dir: str):
    """(event_id, user_id, ts_us, gap_us): per event, the µs elapsed
    since the same user's previous event (NULL for the first)."""
    return banded(_events(sf_dir), _lag)


def events_user_lag_banded(sf_dir: str, band_us: int = BAND_US):
    """``events_user_lag`` over (user, time-band) groups; a band's
    carry row is its user's latest event of an earlier band."""
    return banded(_events(sf_dir), _lag, band_us, carry=Carry())


SQL_EVENTS_USER_LAG = """
WITH e AS (SELECT event_id, user_id, epoch_us(ts) AS ts_us FROM events)
SELECT event_id, user_id, ts_us,
       ts_us - LAG(ts_us) OVER (PARTITION BY user_id
                                ORDER BY ts_us, event_id) AS gap_us
FROM e ORDER BY event_id
"""


def _rolling(g: pa.Table, window_us: int) -> pa.Table:
    us = col(g, "ts_us")
    # SQL RANGE frame: peers with equal ts are all included, so the
    # count is a pure function of the ts multiset — side='right' at ts,
    # side='left' at ts - window reproduce it exactly
    n = (np.searchsorted(us, us, side="right")
         - np.searchsorted(us, us - window_us, side="left"))
    return _own(g, "n_window", pa.array(n, pa.int64()))


def events_rolling_count(sf_dir: str, window_us: int = ROLL_WINDOW_US):
    """(event_id, user_id, ts_us, n_window): per event, how many of the
    same user's events fall in [ts - window, ts] (RANGE-frame
    semantics — equal-ts peers counted)."""
    return banded(_events(sf_dir), lambda g: _rolling(g, window_us))


def events_rolling_count_banded(sf_dir: str,
                                window_us: int = ROLL_WINDOW_US,
                                band_us: int = BAND_US):
    """``events_rolling_count`` over (user, time-band) groups: every
    event in a band's last ``window_us`` also visits the NEXT band (a
    halo copy keeps its ts, so the counted multiset is the full history
    within the window). Requires ``window_us <= band_us``, so events
    two bands back are never inside the window."""
    if window_us > band_us:
        raise ValueError("banded rolling count needs window <= band")

    def tail(t: pa.Table) -> list:
        edge = (col(t, "band") + 1) * band_us - window_us
        return [(col(t, "ts_us") >= edge, 1)]

    return banded(_events(sf_dir), lambda g: _rolling(g, window_us),
                  band_us, halo=tail)


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


def _valued(sf_dir: str):
    """The events with ``value`` as int64 µ-units ``vmicros``."""
    return _events(sf_dir, "value").map_batches(
        lambda b: b.drop_columns(["value"]).append_column(
            "vmicros", pa.array(_value_micros(b.column("value")))),
        batch_format="pyarrow")


def _running(g: pa.Table) -> pa.Table:
    # a carry row sorts first and holds the earlier bands' sum
    return _own(g, "running_micros",
                pa.array(np.cumsum(col(g, "vmicros")), pa.int64()))


def events_running_total(sf_dir: str):
    """(event_id, user_id, ts_us, running_micros): per event, the
    cumulative value (integer µ-units) of the same user's events so
    far — the ROWS UNBOUNDED PRECEDING window shape, completing the
    family (LAG, RANGE rolling count, running sum)."""
    return banded(_valued(sf_dir), _running)


def events_running_total_banded(sf_dir: str, band_us: int = BAND_US):
    """``events_running_total`` over (user, time-band) groups; a band's
    carry row holds the sum of its user's earlier bands."""
    return banded(_valued(sf_dir), _running, band_us,
                  carry=Carry(total="vmicros"))


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
