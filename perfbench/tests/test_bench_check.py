"""The correctness checks trip on tampered and malformed results."""

import pyarrow as pa

import check


def table(rows):
    return pa.table({"doc_id": pa.array([d for d, _ in rows], pa.int64()),
                     "score": pa.array([s for _, s in rows], pa.float64())})


GOOD = [(7, 3.5), (3, 2.25), (9, 2.25)]


def test_identical_results_agree():
    led = check.Ledger({3, 7, 9})
    assert led.result("a", "q", table(GOOD))
    assert led.result("b", "q", table(GOOD))
    assert led.total_failed == 0 and led.total_attempted == 2


def test_tampered_score_bit_is_a_failure():
    import math
    led = check.Ledger({3, 7, 9})
    led.result("a", "q", table(GOOD))
    tampered = [(7, math.nextafter(3.5, 4.0))] + GOOD[1:]
    assert not led.result("b", "q", table(tampered))
    assert led.failed == {"b": 1}


def test_tampered_doc_id_is_a_failure():
    led = check.Ledger({3, 7, 9, 11})
    led.result("a", "q", table(GOOD))
    assert not led.result("b", "q", table([(11, 3.5)] + GOOD[1:]))


def test_malformed_results_fail_on_first_sight():
    led = check.Ledger({3, 7, 9})
    assert not led.result("a", "q1", table([(3, 1.0), (7, 2.0)]))
    assert not led.result("a", "q2", table([(3, 2.0), (3, 1.0)]))
    assert not led.result("a", "q3", table([(4, 2.0)]))
    assert led.failed == {"a": 3}
    # a malformed answer never becomes the reference
    assert "q1" not in led.reference


def test_digest_depends_on_every_bit():
    k1 = check.topk_key(table(GOOD))
    k2 = check.topk_key(table([(7, 3.5), (3, 2.25), (9, 2.2500000000000004)]))
    assert check.digest(["q"], [k1]) == check.digest(["q"], [k1])
    assert check.digest(["q"], [k1]) != check.digest(["q"], [k2])
