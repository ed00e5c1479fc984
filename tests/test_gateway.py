"""Gateway: filtering, statistics oracle, rollover protocol, epoch verification."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from tcgw import (
    EpochSummary,
    MetricStats,
    PublicChain,
    PublicClient,
    SensorReading,
    ValidityRange,
    filter_out_of_scale,
    head,
    ledger_size_bytes,
    rollover_epoch,
    summarize,
    summary_digest,
    verify_pruned_epoch,
)
from tcgw.canon import from_json_value, to_json_value
from tcgw.errors import DuplicateRange, InvalidArgument, NonEmptyMempool, PublishFailed

from helpers import node_with_readings, reading_tx, tamper_ledger

TEMP_RANGE = ValidityRange("temperature_c", "-20", "60")


def _reading(value: str, ts: int = 0, metric: str = "temperature_c") -> SensorReading:
    return SensorReading("s-0", metric, value, ts)


def _pub(gateways=("gw-fieldA",), confirmations=2) -> PublicChain:
    return PublicChain([f"val-{i}" for i in range(3)], gateways,
                       confirmations_required=confirmations)


def test_validity_range_rejects_inversion():
    with pytest.raises(InvalidArgument):
        ValidityRange("temperature_c", "10", "-10")


def test_filter_excludes_out_of_range():
    kept, excluded = filter_out_of_scale([_reading("999")], [TEMP_RANGE])
    assert kept == [] and len(excluded) == 1


def test_filter_bounds_are_inclusive():
    kept, excluded = filter_out_of_scale([_reading("60"), _reading("-20")], [TEMP_RANGE])
    assert len(kept) == 2 and excluded == []


def test_filter_unranged_metric_is_kept():
    kept, excluded = filter_out_of_scale([_reading("9999", metric="wind_speed_ms")], [TEMP_RANGE])
    assert len(kept) == 1 and excluded == []


def test_filter_rejects_duplicate_ranges():
    with pytest.raises(DuplicateRange):
        filter_out_of_scale([], [TEMP_RANGE, TEMP_RANGE])


def test_filter_partition_matches_predicate_scan():
    rng = random.Random(5)
    readings = [_reading(f"{rng.uniform(-60, 120):.3f}", ts=i) for i in range(1000)]
    kept, excluded = filter_out_of_scale(readings, [TEMP_RANGE])
    assert len(kept) + len(excluded) == len(readings)
    for reading in readings:
        inside = -20 <= float(reading.value) <= 60
        assert (reading in kept) == inside
        assert (reading in excluded) == (not inside)
    # order preserved within each part
    assert [r.timestamp for r in kept] == sorted(r.timestamp for r in kept)


def test_summarize_hand_computed_example():
    stats, = summarize([_reading("10"), _reading("20", 1), _reading("30", 2)])
    assert stats.count == 3
    assert math.isclose(float(stats.mean), 20.0, rel_tol=1e-12)
    # population deviation: sqrt(((10)^2 + 0 + (10)^2) / 3) = sqrt(200/3)
    assert math.isclose(float(stats.std_dev), 8.16496580927726, rel_tol=1e-12)
    assert stats.min == "10" and stats.max == "30"


def test_summarize_std_dev_is_correctly_rounded():
    values = ["27.176", "9.368", "20.236", "14.606"]
    stats, = summarize([_reading(v, i) for i, v in enumerate(values)])
    # squaring with `** 2` goes through libm pow, which gives ...942 on some hosts
    assert stats.std_dev == "6.616930613962941"


def test_summarize_single_value():
    stats, = summarize([_reading("7.5")])
    assert stats.count == 1
    assert float(stats.mean) == 7.5
    assert float(stats.std_dev) == 0.0


def test_summarize_empty_and_grouping():
    assert summarize([]) == []
    stats = summarize([_reading("10"), _reading("50", 1, metric="humidity_pct")])
    assert [s.metric for s in stats] == ["humidity_pct", "temperature_c"]


def _two_pass(values):
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    acc = 0.0
    for v in values:
        acc += (v - mean) ** 2
    return mean, math.sqrt(acc / n), min(values), max(values)


def test_summarize_matches_two_pass_reference_on_large_workload():
    rng = random.Random(11)
    readings = [_reading(f"{rng.uniform(-5, 45):.4f}", ts=i) for i in range(10_000)]
    stats, = summarize(readings)
    mean, std, lo, hi = _two_pass([float(r.value) for r in readings])
    assert math.isclose(float(stats.mean), mean, rel_tol=1e-9)
    assert math.isclose(float(stats.std_dev), std, rel_tol=1e-9)
    assert float(stats.min) == lo and float(stats.max) == hi


def test_metric_stats_invariants_hold():
    rng = random.Random(3)
    readings = [_reading(f"{rng.uniform(0, 30):.3f}", ts=i) for i in range(500)]
    for stats in summarize(readings):
        assert stats.count >= 1
        assert float(stats.min) <= float(stats.mean) <= float(stats.max)
        assert float(stats.std_dev) >= 0.0


def test_summary_json_roundtrip():
    summary = EpochSummary("fieldA", 0, 0, 100,
                           (MetricStats("temperature_c", 2, "20.0", "1.0", "19", "21"),),
                           3, bytes(32), 4, bytes(32))
    again = from_json_value(EpochSummary, to_json_value(summary))
    assert again == summary
    assert summary_digest(again) == summary_digest(summary)
    value = to_json_value(summary)
    assert value["ledger_head_hash"] == "00" * 32 and isinstance(value["stats"], list)
    malformed = [
        [value],                                                   # not an object
        {k: v for k, v in value.items() if k != "ledger_height"},  # a required key missing
        {**value, "stats": value["stats"][0]},                     # object for a tuple
        {**value, "state_digest": "zz" * 32},                      # digest that is not hex
        {**value, "epoch_index": "0"},                             # string for an int
    ]
    for bad in malformed:
        with pytest.raises(InvalidArgument):
            from_json_value(EpochSummary, bad)


def _rollover(node, pub, start, end, ranges=(TEMP_RANGE,), trace=None):
    client = PublicClient(pub, "gw-fieldA")
    return rollover_epoch(node, ranges, start, end, client, trace=trace)


def test_rollover_end_to_end():
    node = node_with_readings(n=300, spacing=10)  # readings in [0, 3000)
    pub = _pub()
    trace: list = []
    summary, record, fresh = _rollover(node, pub, 0, 3000, trace=trace)
    assert sum(s.count for s in summary.stats) + summary.excluded_count == 300
    assert summary.epoch_index == 0
    assert (summary.ledger_height, summary.ledger_head_hash) == head(node.ledger)
    assert pub.is_confirmed(record)
    assert len(fresh.ledger.blocks) == 1
    assert fresh.ledger.genesis_anchor == record.summary_digest
    assert [e["event"] for e in trace] == ["anchor_submitted", "anchor_confirmed", "ledger_reset"]
    # dimension reduction: archived ledger outweighs the fresh one
    assert ledger_size_bytes(fresh.ledger) < ledger_size_bytes(node.ledger)


def test_rollover_requires_empty_mempool():
    node = node_with_readings(n=5, spacing=1)
    node.submit(reading_tx("fieldA", 99, timestamp=99))
    with pytest.raises(NonEmptyMempool):
        _rollover(node, _pub(), 0, 1000)


def test_rollover_rejection_leaves_ledger_untouched():
    node = node_with_readings(n=50, spacing=10)
    pub = _pub(gateways=())  # gateway not registered -> submission rejected
    before = head(node.ledger)
    with pytest.raises(PublishFailed):
        _rollover(node, pub, 0, 500)
    assert head(node.ledger) == before
    assert node.commit_batch() is None  # nothing pending, nothing reset


def test_consecutive_rollovers_are_contiguous():
    node = node_with_readings(n=30, spacing=10)  # [0, 300)
    pub = _pub()
    s0, _, node2 = _rollover(node, pub, 0, 300)
    node2.clock = 300
    for i in range(30):
        node2.submit(reading_tx("fieldA", 1000 + i, timestamp=300 + i * 10))
        node2.clock = 300 + i * 10
    while node2.mempool:
        node2.commit_batch()
    s1, _, _ = _rollover(node2, pub, 300, 600)
    assert (s0.epoch_index, s1.epoch_index) == (0, 1)
    assert s1.window_start == s0.window_end


def test_rollover_rejects_window_not_covering_ledger():
    from tcgw.errors import InvalidWindow
    node = node_with_readings(n=50, spacing=10)  # readings up to ts 490
    with pytest.raises(InvalidWindow):
        _rollover(node, _pub(), 0, 100)


def _honest_epoch():
    node = node_with_readings(n=120, spacing=10)
    pub = _pub()
    summary, record, _ = _rollover(node, pub, 0, 1200)
    return node.ledger, summary, pub


def test_verify_pruned_epoch_honest_run():
    archived, summary, pub = _honest_epoch()
    outcome = verify_pruned_epoch(archived, summary, pub, [TEMP_RANGE])
    assert outcome.ok and outcome.failures == ()


def test_verify_pruned_epoch_detects_archive_tamper():
    archived, summary, pub = _honest_epoch()
    tampered = tamper_ledger(archived, height=1, target="payload", byte_index=5)
    outcome = verify_pruned_epoch(tampered, summary, pub, [TEMP_RANGE])
    assert not outcome.ok
    assert {"chain", "stats"} & set(outcome.failures)


def test_verify_pruned_epoch_detects_altered_stat():
    archived, summary, pub = _honest_epoch()
    doctored_stats = tuple(dataclasses.replace(s, mean=repr(float(s.mean) + 1.0))
                           for s in summary.stats)
    doctored = dataclasses.replace(summary, stats=doctored_stats)
    outcome = verify_pruned_epoch(archived, doctored, pub, [TEMP_RANGE])
    assert not outcome.ok
    assert "stats" in outcome.failures and "anchor" in outcome.failures
    # one ulp is enough: the stats are compared exactly, not within a tolerance
    nudged_stats = tuple(
        dataclasses.replace(s, std_dev=repr(math.nextafter(float(s.std_dev), math.inf)))
        for s in summary.stats)
    nudged = dataclasses.replace(summary, stats=nudged_stats)
    outcome = verify_pruned_epoch(archived, nudged, pub, [TEMP_RANGE])
    assert outcome.failures == ("stats", "anchor")


def test_verify_pruned_epoch_detects_missing_anchor():
    archived, summary, _ = _honest_epoch()
    empty_pub = _pub()
    outcome = verify_pruned_epoch(archived, summary, empty_pub, [TEMP_RANGE])
    assert not outcome.ok
    assert outcome.failures == ("anchor",)
