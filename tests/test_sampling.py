"""Edge-case tests for the corpus-curation operators (sampling.py) and
the relational additions (hash join, funnel) — the oracle parity runs in
test_oracles.py; these pin semantics the oracle data can't reach."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def tiny_dir(tmp_path_factory, ray_session):
    d = tmp_path_factory.mktemp("tiny_sf")
    pq.write_table(pa.table({
        "doc_id": pa.array([0, 1, 2, 3, 4], pa.int64()),
        "text": ["a b c", "a a", "x y z w", "", "a b"],
        "lang": ["en", "en", "zz", "fr", "en"],
        "source": ["s"] * 5,
        "n_chars": pa.array([5, 3, 7, 0, 3], pa.int64()),
    }), d / "documents.parquet")
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2, 3], pa.int64()),
        "o_custkey": pa.array([10, 10, 999], pa.int64()),  # 999 dangles
        "o_totalprice": pa.array([10.0, 5.5, 7.0], pa.float64()),
    }), d / "orders.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([10, 11], pa.int64()),
        "c_nationkey": pa.array([0, 1], pa.int64()),
    }), d / "customer.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": ["ALPHA", "BETA"],
    }), d / "nation.parquet")
    us = lambda s: np.datetime64("2024-01-01T00:00:00", "us") + s * 1000000
    # user 1: view@10 click@20 purchase@30 (full funnel)
    # user 2: click@5 view@10 (click BEFORE first view → step2 no)
    # user 3: view@10 click@20 purchase@15 (purchase before click → no)
    # user 4: purchase only → counts nowhere
    # user 5: errors only (no funnel step): a ts tie @100, then gaps of
    # exactly 10 s and of 11 s for the sessionize edges
    rows = [(1, "view", 10), (1, "click", 20), (1, "purchase", 30),
            (2, "click", 5), (2, "view", 10),
            (3, "view", 10), (3, "click", 20), (3, "purchase", 15),
            (4, "purchase", 10),
            (5, "error", 100), (5, "error", 100), (5, "error", 110),
            (5, "error", 121)]
    pq.write_table(pa.table({
        "event_id": pa.array(range(len(rows)), pa.int64()),
        "ts": pa.array([us(s) for _, _, s in rows], pa.timestamp("us")),
        "user_id": pa.array([u for u, _, _ in rows], pa.int64()),
        "event_type": [t for _, t, _ in rows],
        # binary fractions: floor(value * 1e6) is exact
        "value": pa.array([0.5 * (i + 1) for i in range(len(rows))],
                          pa.float64()),
    }), d / "events.parquet")
    return str(d)


def test_stratified_sample_deterministic_and_stratified(tiny_dir):
    from search_engine_ray.functions.sampling import (_keep_hash,
                                                      stratified_sample)
    a = stratified_sample(tiny_dir, {"en": 10000, "*": 0}).to_pandas()
    # en kept fully, fr/zz (fallback rate 0) dropped entirely
    assert sorted(a["doc_id"]) == [0, 1, 4]
    b = stratified_sample(tiny_dir, {"en": 10000, "*": 0}).to_pandas()
    assert sorted(a["doc_id"]) == sorted(b["doc_id"])  # re-run identical
    # the keep decision is the documented pure function of doc_id
    assert (np.sort(a["bucket"].to_numpy())
            == np.sort(_keep_hash(np.array([0, 1, 4])))).all()


def test_keep_hash_rejects_negative_doc_ids():
    from search_engine_ray.functions.sampling import _keep_hash
    # np.mod and SQL % disagree below zero: -1 mod 2^31 is 2^31-1 in
    # numpy but -1 in DuckDB, so the twins would keep different rows
    with pytest.raises(ValueError, match="negative doc_id"):
        _keep_hash(np.array([3, -1, 7], dtype=np.int64))
    assert len(_keep_hash(np.array([], dtype=np.int64))) == 0


def test_length_quantiles_exact_definition(tiny_dir):
    from search_engine_ray.functions.sampling import length_quantiles
    # token counts: [3, 2, 4, 0, 2] → sorted [0,2,2,3,4], N=5
    t = length_quantiles(tiny_dir, qs_bp=(2000, 5000, 10000)).to_pandas()
    got = dict(zip(t["q_bp"], t["n_tokens"]))
    # ceil(.2*5)=1 → 0; ceil(.5*5)=3 → 2; ceil(1*5)=5 → 4
    assert got == {2000: 0, 5000: 2, 10000: 4}
    # per language, the same rule over that language's docs alone:
    # en [2, 2, 3] (N=3: ranks 1, 2, 3), fr [0], zz [4] (N=1: rank 1)
    from search_engine_ray.functions.sampling import \
        length_quantiles_by_lang
    t = length_quantiles_by_lang(tiny_dir,
                                 qs_bp=(2000, 5000, 10000)).to_pandas()
    got = {(l, q): v for l, q, v in zip(t["lang"], t["q_bp"],
                                        t["n_tokens"])}
    assert got == {("en", 2000): 2, ("en", 5000): 2, ("en", 10000): 3,
                   ("fr", 2000): 0, ("fr", 5000): 0, ("fr", 10000): 0,
                   ("zz", 2000): 4, ("zz", 5000): 4, ("zz", 10000): 4}


def test_top_terms_tiebreak(tiny_dir):
    from search_engine_ray.functions.sampling import top_terms_per_lang
    t = top_terms_per_lang(tiny_dir, k=2).to_pandas()
    en = t[t["lang"] == "en"].sort_values("rank")
    # en cf: a=4, b=2, c=1 → top2 = a, b
    assert list(en["term"]) == ["a", "b"]
    assert list(en["cf"]) == [4, 2]
    zz = t[t["lang"] == "zz"].sort_values("rank")
    # all cf=1 → tie broken by term ascending
    assert list(zz["term"]) == ["w", "x"]


def test_revenue_by_nation_inner_join_drops_dangling(tiny_dir):
    from search_engine_ray.functions.relational import revenue_by_nation
    # default gate → broadcast path; gate=0 → partitioned hash join.
    # Both must agree (and both drop the dangling keys): custkey 999
    # has no customer row; customer 11 has no orders.
    for gate in (4_000_000, 0):
        t = revenue_by_nation(tiny_dir, num_partitions=2,
                              broadcast_gate=gate).to_pandas()
        assert list(t["n_name"]) == ["ALPHA"], gate
        assert int(t["n_orders"].iloc[0]) == 2, gate
        assert int(t["total_cents"].iloc[0]) == 1550, gate


def test_events_funnel_strict_ordering(tiny_dir):
    from search_engine_ray.functions.relational import events_funnel
    t = events_funnel(tiny_dir).to_pandas().set_index("step")["n_users"]
    assert int(t["1_view"]) == 3      # users 1, 2, 3
    assert int(t["2_click"]) == 2     # user 2's click precedes its view
    assert int(t["3_purchase"]) == 1  # only user 1 in order


def test_sessionize_tie_and_exact_gap(tiny_dir):
    """Two events of one user at the same ts share a session, and a gap
    of exactly ``gap_us`` does not split one (only > gap_us does)."""
    from search_engine_ray.functions.sessions import sessionize
    t = sessionize(tiny_dir, gap_us=10_000_000).to_pandas()
    t0 = int(np.datetime64("2024-01-01T00:00:00", "us").astype(np.int64))
    got = sorted((int(r.user_id), int(r.session_seq), int(r.n_events),
                  int(r.start_us) - t0, int(r.end_us) - t0,
                  int(r.sum_value_micros)) for r in t.itertuples())
    # 1 s in µs; event i's value is (i + 1) / 2, so (i + 1) * s // 2
    # µ-units
    s = 1_000_000
    assert got == [
        (1, 1, 3, 10 * s, 30 * s, 3 * s),          # gaps of exactly 10 s
        (2, 1, 2, 5 * s, 10 * s, 9 * s // 2),
        (3, 1, 3, 10 * s, 20 * s, 21 * s // 2),
        (4, 1, 1, 10 * s, 10 * s, 9 * s // 2),
        (5, 1, 3, 100 * s, 110 * s, 33 * s // 2),  # tie @100, then 10 s
        (5, 2, 1, 121 * s, 121 * s, 13 * s // 2),  # 11 s > gap: new
    ]


def test_feature_hash_sign_cancellation(tiny_dir):
    """doc 1 = 'a a': both tokens hash to the same (bucket, sign), so its
    single feature has |weight| = 2; every weight is a signed count."""
    from search_engine_ray.functions.features import feature_hash_bow
    t = feature_hash_bow(tiny_dir, dim=8).to_pandas()
    d1 = t[t["doc_id"] == 1]
    assert len(d1) == 1 and abs(int(d1["weight"].iloc[0])) == 2
    d3 = t[t["doc_id"] == 3]          # empty doc → no features
    assert len(d3) == 0
    assert (t["bucket"] < 8).all() and (t["bucket"] >= 0).all()


def test_events_json_stats_drops_missing_field(tmp_path, ray_session):
    import pyarrow as pa, pyarrow.parquet as pq
    import numpy as np
    from search_engine_ray.functions.features import events_json_stats
    ts = pa.array([np.datetime64("2024-01-01", "us")] * 3,
                  pa.timestamp("us"))
    pq.write_table(pa.table({
        "event_id": pa.array([0, 1, 2], pa.int64()),
        "ts": ts,
        "user_id": pa.array([1, 1, 1], pa.int64()),
        "event_type": ["click", "click", "click"],
        "props": ['{"k": 7}', '{"other": 1}', '{"k": 3}'],
    }), tmp_path / "events.parquet")
    t = events_json_stats(str(tmp_path)).to_pandas()
    assert len(t) == 1
    r = t.iloc[0]
    assert (int(r["n_events"]), int(r["sum_k"]),
            int(r["min_k"]), int(r["max_k"])) == (2, 10, 3, 7)


def test_revenue_by_nation_rejects_duplicate_dim_keys(tmp_path, ray_session):
    """A duplicate c_custkey joins every match, as SQL does, on both
    halves of the gated join: the broadcast half (default gate) and the
    native hash join (gate 0) each emit both customers' nations."""
    from search_engine_ray.functions.relational import revenue_by_nation
    pq.write_table(pa.table({
        "o_orderkey": pa.array([1, 2], pa.int64()),
        "o_custkey": pa.array([10, 10], pa.int64()),
        "o_totalprice": pa.array([10.0, 5.5], pa.float64()),
    }), tmp_path / "orders.parquet")
    pq.write_table(pa.table({
        "c_custkey": pa.array([10, 10], pa.int64()),  # duplicate key
        "c_nationkey": pa.array([0, 1], pa.int64()),
    }), tmp_path / "customer.parquet")
    pq.write_table(pa.table({
        "n_nationkey": pa.array([0, 1], pa.int64()),
        "n_name": ["ALPHA", "BETA"],
    }), tmp_path / "nation.parquet")
    for gate in (4_000_000, 0):
        t = revenue_by_nation(str(tmp_path), num_partitions=2,
                              broadcast_gate=gate).to_pandas()
        assert sorted(zip(t["n_name"], t["n_orders"])) == [
            ("ALPHA", 2), ("BETA", 2)], gate
