"""Distinct-count operators over the events table: exact per-group
COUNT(DISTINCT) via the two-level pair-dedup combiner, and a
HyperLogLog register sketch whose register table is DETERMINISTIC
(splitmix64 of user_id) and therefore hash-exact against a pure-integer
DuckDB twin — the "novel sketch with an oracle" pattern the brief asks
for (same recipe as sketches.top_terms_sketch's MG summary).

Scale notes:
- ``events_distinct_users``: the naive plan shuffles every event row to
  a (type) groupby and dedups in one task.  Here each batch first
  reduces to its DISTINCT (event_type, user_id) pairs (np.unique on a
  packed key), so the wide groupby moves at most one row per distinct
  pair per batch; the second stage is a per-batch count partial →
  tiny per-type sum.  Nothing ever materializes per-event rows after
  the first map.
- ``hll_distinct``: constant state — each batch folds into a 256-slot
  register partial; the shuffle carries ≤ 256 rows per batch and the
  final table is exactly 256 rows regardless of corpus size.  The
  register table (not the float estimate) is the query output, so the
  driver check is hash-exact integer comparison; the estimate and its
  error bound are asserted in tests/test_distinct.py.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ray.data.aggregate import Max, Sum

from ..kernels.textutils import avalanche64
from ..pipelines.datasets import read_table

HLL_P = 8                       # 2^8 = 256 registers
HLL_M = 1 << HLL_P
_REST_BITS = 64 - HLL_P         # 56-bit tail under the register index


def events_distinct_users(sf_dir: str):
    """(event_type, n_users): exact distinct users per event type.

    Stage 1 (per batch): np.unique over the packed (type, user) pairs —
    the only stage that sees event-sized data.  Stage 2: global
    (type, user) groupby lands one row per distinct pair.  Stage 3:
    per-batch count partials → per-type sum (≤ #types rows).
    """
    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    def pair_partial(b: pa.Table) -> pa.Table:
        et = b.column("event_type")
        uid = b.column("user_id").to_numpy(zero_copy_only=False)
        code = pc.dictionary_encode(
            et.combine_chunks() if isinstance(et, pa.ChunkedArray) else et)
        idx = code.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        # pack (type_code, user) — loud guard instead of silent key
        # aliasing for ids outside the documented [0, 2^41) range
        if len(uid) and (uid.min() < 0 or uid.max() >= (1 << 41)):
            raise ValueError(
                "events_distinct_users: user_id outside [0, 2^41) — "
                "the packed (type, user) key would alias; widen the "
                "packing or group by both columns directly")
        key = np.unique(idx * (1 << 41) + uid)
        return pa.table({
            "event_type": code.dictionary.take(
                pa.array(key >> 41, pa.int64())),
            "user_id": pa.array(key & ((1 << 41) - 1), pa.int64()),
        })

    pairs = (ds.map_batches(pair_partial, batch_format="pyarrow")
               .groupby(["event_type", "user_id"])
               .aggregate(Sum("user_id", alias_name="_one")))

    def count_partial(b: pa.Table) -> pa.Table:
        t = pa.TableGroupBy(
            pa.table({"event_type": b.column("event_type")}),
            "event_type").aggregate([([], "count_all")])
        return pa.table({"event_type": t.column("event_type"),
                         "n_users": t.column("count_all").cast(pa.int64())})

    return (pairs.map_batches(count_partial, batch_format="pyarrow")
                 .groupby("event_type")
                 .aggregate(Sum("n_users", alias_name="n_users")))


SQL_EVENTS_DISTINCT_USERS = """
SELECT event_type, COUNT(DISTINCT user_id) AS n_users
FROM events GROUP BY event_type ORDER BY event_type
"""


def _hll_partial(uid: np.ndarray) -> np.ndarray:
    """256-slot max-rho register array for one batch of user ids."""
    h = avalanche64(uid.astype(np.uint64))
    reg = (h >> np.uint64(_REST_BITS)).astype(np.int64)
    rest = h & np.uint64((1 << _REST_BITS) - 1)
    # rho = 1-based position of the first set bit in the 56-bit tail
    # (= 57 when the tail is all zeros); bit_length via log2 is unsafe
    # for ints near 2^53, so compute it with a descending bit scan.
    bl = np.zeros(len(rest), dtype=np.int64)
    rem = rest.copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = rem >= (np.uint64(1) << np.uint64(shift))
        bl[big] += shift
        rem[big] >>= np.uint64(shift)
    bl += (rem > 0).astype(np.int64)   # bit length; 0 for rest == 0
    rho = _REST_BITS + 1 - bl
    regs = np.zeros(HLL_M, dtype=np.int64)
    np.maximum.at(regs, reg, rho)
    return regs


def hll_distinct(sf_dir: str):
    """(register, max_rho): the full 256-row HyperLogLog register table
    over events.user_id (p=8, splitmix64 hash).  Deterministic, so the
    DuckDB twin is hash-exact; ``hll_estimate`` turns it into the
    cardinality estimate."""
    ds = read_table(sf_dir, "events", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        regs = _hll_partial(b.column("user_id").to_numpy(
            zero_copy_only=False))
        nz = np.flatnonzero(regs)
        return pa.table({"register": pa.array(nz, pa.int64()),
                         "max_rho": pa.array(regs[nz], pa.int64())})

    got = (ds.map_batches(partial, batch_format="pyarrow")
             .groupby("register")
             .aggregate(Max("max_rho", alias_name="max_rho"))).to_pandas()
    # fill absent registers with 0 — output is always exactly 256 rows
    regs = np.zeros(HLL_M, dtype=np.int64)
    regs[got["register"].to_numpy(dtype=np.int64)] = \
        got["max_rho"].to_numpy(dtype=np.int64)
    return pa.table({"register": pa.array(np.arange(HLL_M), pa.int64()),
                     "max_rho": pa.array(regs, pa.int64())})


def hll_estimate(regs: np.ndarray) -> float:
    """Standard HLL estimator (Flajolet et al. 2007) with the small-range
    linear-counting correction; regs is the 256-slot max-rho array."""
    m = float(HLL_M)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.sum(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)
    return float(est)


def _hll_sql() -> str:
    """Pure-integer DuckDB twin of the register table: splitmix64 via
    the shared mulmod64 HUGEINT helpers, bit length via length(bin())
    (exact for any integer — no float log2)."""
    from .sql_hash import TWO64, mulmod64
    k1, k2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    half = (1 << _REST_BITS) - 1
    return f"""
WITH u AS (SELECT DISTINCT (user_id::HUGEINT % {TWO64}) AS mx FROM events),
a1 AS (SELECT xor(mx, mx // 1073741824::HUGEINT) AS x FROM u),
a2 AS (SELECT {mulmod64('x', k1)} AS x FROM a1),
a3 AS (SELECT xor(x, x // 134217728::HUGEINT) AS x FROM a2),
a4 AS (SELECT {mulmod64('x', k2)} AS x FROM a3),
h AS (SELECT xor(x, x // 2147483648::HUGEINT) AS h FROM a4),
rr AS (SELECT CAST(h // {1 << _REST_BITS}::HUGEINT AS BIGINT) AS register,
              CAST(h % {1 << _REST_BITS + 0}::HUGEINT AS BIGINT)
                & {half} AS rest
       FROM h),
rho AS (SELECT register,
               CASE WHEN rest = 0 THEN {_REST_BITS + 1}
                    ELSE {_REST_BITS + 1} - length(bin(rest)) END AS rho
        FROM rr),
mx AS (SELECT register, MAX(rho) AS max_rho FROM rho GROUP BY register)
SELECT g.register, COALESCE(mx.max_rho, 0) AS max_rho
FROM (SELECT unnest(range(0, {HLL_M})) AS register) g
LEFT JOIN mx ON g.register = mx.register
ORDER BY g.register
"""


SQL_HLL_DISTINCT = _hll_sql()
