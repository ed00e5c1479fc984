"""Gateway: filtering, statistics oracle, rollover protocol, epoch verification."""

from __future__ import annotations

import dataclasses
import math
import random
import tracemalloc
from decimal import Decimal, localcontext

import pytest
from hypothesis import example, given, settings, strategies as st

from tcgw import (
    EMPTY_STATE,
    ContextOp,
    PrivateNode,
    PublicChain,
    PublicClient,
    TxKind,
    ValidityRange,
    apply_ops,
    head,
    ledger_size_bytes,
    make_transaction,
    op_payload,
    rollover_epoch,
    state_digest,
    verify_pruned_epoch,
)
from tcgw.canon import from_json_value, to_json_value
from tcgw.errors import DuplicateRange, InvalidArgument, NonEmptyMempool, PublishFailed
from tcgw.gateway import (EpochSummary, close_epoch, filter_out_of_scale, publish_epoch,
                          summarize, summary_digest, verify_archive)
from tcgw.ledger import iter_transactions, make_block, save_ledger
from tcgw.private_chain import (BATCH_SIZE, METRICS, MetricStats, _EpochStats, range_bounds,
                                reading_fields)
from tcgw.worldstate import CONTEXT_KINDS, parse_op

from helpers import (NeverConfirms, Reading, ledger_readings, node_with_readings,
                     reading_transaction, reading_tx, reference_payload, tamper_ledger)

TEMP_RANGE = ValidityRange("temperature_c", "-20", "60")


def _reading(value: str, ts: int = 0, metric: str = "temperature_c") -> Reading:
    return Reading("s-0", metric, value, ts)


def _pub(gateways=("gw-fieldA",), confirmations=2, ranges=(TEMP_RANGE,)) -> PublicChain:
    """A chain whose genesis commits to `ranges`, those of the nodes it audits."""
    return PublicChain([f"val-{i}" for i in range(3)], gateways,
                       confirmations_required=confirmations, ranges=ranges)


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


HUMIDITY_RANGE = ValidityRange("humidity_pct", "0", "100")
_T = "temperature_c"


def _epoch_stats_three_ways(pairs, ranges):
    """(stats, excluded_count) of `pairs` of (metric, value) by filter_out_of_scale
    and summarize, by a rollover and by the audit of that rollover."""
    readings = [_reading(value, i, metric) for i, (metric, value) in enumerate(pairs)]
    kept, excluded = filter_out_of_scale(readings, ranges)
    direct = (tuple(summarize(kept)), len(excluded))
    node = PrivateNode("fieldA", {"s-0"}, ranges=ranges)
    for reading in readings:
        node.submit(reading_transaction("fieldA", reading))
    while node.mempool:
        node.commit_batch()
    pub = _pub(ranges=ranges)
    summary, _, _ = _rollover(node, pub, 0, max(len(readings), 1))
    assert verify_pruned_epoch(node.ledger, summary, pub).ok
    return direct, (summary.stats, summary.excluded_count)


@pytest.mark.parametrize("pairs, ranges, stats, excluded", [
    ([(_T, "20.50"), (_T, "20.5"), (_T, "2.05E+1")], (),
     [(_T, 3, "20.5", "0.0", "20.50", "20.50")], 0),
    ([(_T, "-0"), (_T, "0"), (_T, "0.0")], (), [(_T, 3, "0.0", "0.0", "-0", "-0")], 0),
    ([(_T, "0"), (_T, "-0")], (), [(_T, 2, "0.0", "0.0", "0", "0")], 0),
    ([(_T, "21"), (_T, "20.5"), (_T, "21.0"), (_T, "20.50")], (),
     [(_T, 4, "20.75", "0.25", "20.5", "21")], 0),
    ([(_T, "60"), (_T, "-20"), (_T, "60.000"), (_T, "60.001"), (_T, "-20.0001"), (_T, "-2E+1")],
     (TEMP_RANGE,), [(_T, 4, "20.0", "40.0", "-20", "60")], 2),
    ([("wind_speed_ms", "9999"), (_T, "999")], (TEMP_RANGE,),
     [("wind_speed_ms", 1, "9999.0", "0.0", "9999", "9999")], 1),
    ([("humidity_pct", "101"), ("humidity_pct", "-1"), (_T, "7")], (TEMP_RANGE, HUMIDITY_RANGE),
     [(_T, 1, "7.0", "0.0", "7", "7")], 2),
    ([], (TEMP_RANGE,), [], 0),
    ([(_T, "0.1"), (_T, "0.1000000000000000000001"), (_T, "0.10")], (),
     [(_T, 3, "0.10000000000000002", "1.3877787807814457e-17", "0.1",
       "0.1000000000000000000001")], 0),
    ([(_T, "60.00000000000000000001"), (_T, "60.000"), (_T, "59.99999999999999999999")],
     (TEMP_RANGE,), [(_T, 2, "60.0", "0.0", "59.99999999999999999999", "60.000")], 1),
    ([("rain_pct", "1E-400"), ("rain_pct", "0"), ("rain_pct", "-1E-400")],
     (ValidityRange("rain_pct", "0", "100"),), [("rain_pct", 2, "0.0", "0.0", "0", "1E-400")], 1),
], ids=["tied-decimals", "negative-zero-first", "zero-first", "tied-ends", "on-the-bounds",
        "unranged-metric", "emptied-group", "no-readings", "tied-doubles",
        "max-by-a-tied-double", "min-by-a-tied-double"])
def test_min_and_max_are_the_first_least_and_greatest_reading(pairs, ranges, stats, excluded):
    """Readings that tie as decimals keep the first one's string; a bound is
    inside its range; a metric with no range keeps everything; a metric
    whose readings are all excluded has no stats. Decimals whose doubles
    tie are still ordered exactly, against each other and against a bound.
    Rollover and audit agree."""
    direct, rolled = _epoch_stats_three_ways(pairs, ranges)
    assert direct == rolled == (tuple(MetricStats(*row) for row in stats), excluded)


_values = st.one_of(
    st.sampled_from(["20.5", "20.50", "2.05E+1", "-0", "0", "0.0", "60", "60.0", "-20",
                     "100", "1E+2", "-20.001", "100.0001"]),
    st.decimals(min_value=-100, max_value=200, places=3).map(str))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(st.sampled_from(METRICS), _values), max_size=40),
       ranges=st.lists(st.sampled_from([TEMP_RANGE, HUMIDITY_RANGE,
                                        ValidityRange("rain_pct", "0", "0")]),
                       unique=True))
def test_rollover_and_audit_stats_equal_summarize_of_the_filtered_readings(pairs, ranges):
    direct, rolled = _epoch_stats_three_ways(pairs, tuple(ranges))
    assert direct == rolled


def _reference_fold(pairs, ranges):
    """(stats, kept indices, excluded indices) of (metric, text) pairs, all in
    Decimals: the bound test, and min and max as the first reading that holds
    the least and the greatest value (min and max return the first)."""
    bounds = {r.metric: (Decimal(r.min_valid), Decimal(r.max_valid)) for r in ranges}
    groups: dict[str, list[str]] = {}
    kept, excluded = [], []
    for i, (metric, text) in enumerate(pairs):
        low, high = bounds.get(metric, (Decimal("-Infinity"), Decimal("Infinity")))
        if low <= Decimal(text) <= high:
            groups.setdefault(metric, []).append(text)
            kept.append(i)
        else:
            excluded.append(i)
    stats = []
    for metric in sorted(groups):
        texts = groups[metric]
        values = [float(Decimal(text)) for text in texts]
        mean = math.fsum(values) / len(values)
        deviation = math.sqrt(math.fsum((v - mean) * (v - mean) for v in values) / len(values))
        stats.append(MetricStats(metric, len(texts), repr(mean), repr(deviation),
                                 min(texts, key=Decimal), max(texts, key=Decimal)))
    return tuple(stats), kept, excluded


# Decimals near each other, and forms of one decimal, whose doubles tie:
# each base plus a step far below its double's ulp, in three spellings.
_TIE_BASES = ("0.1", "60", "-20", "0", "-0", "20.5", "100")
_TIE_STEPS = ("0", "-0", "1E-21", "-1E-21", "3E-30", "-7E-25", "1E-400", "-1E-400")


@st.composite
def _tie_texts(draw) -> str:
    base, step = draw(st.sampled_from(_TIE_BASES)), draw(st.sampled_from(_TIE_STEPS))
    with localcontext() as ctx:
        ctx.prec = 1000  # exact: the sum keeps every digit of the step
        value = Decimal(base) + Decimal(step)
    return format(value, draw(st.sampled_from(["", "E", "f"])))


@st.composite
def _tie_ranges(draw) -> tuple[ValidityRange, ...]:
    ranges = []
    for metric in draw(st.lists(st.sampled_from(METRICS[:2]), unique=True)):
        low, high = sorted((draw(_tie_texts()), draw(_tie_texts())), key=Decimal)
        ranges.append(ValidityRange(metric, low, high))
    return tuple(ranges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(st.sampled_from(METRICS[:2]), _tie_texts()), max_size=12),
       ranges=_tie_ranges())
@example(pairs=[(_T, "0.1"), (_T, "0.1000000000000000000001")], ranges=())
@example(pairs=[(_T, "0.1000000000000000000001"), (_T, "0.1")], ranges=())
@example(pairs=[(_T, "60.00000000000000000001"), (_T, "60")], ranges=(TEMP_RANGE,))
@example(pairs=[(_T, "-0"), (_T, "0")], ranges=())
@example(pairs=[(_T, "0"), (_T, "-0")], ranges=())
@example(pairs=[(_T, "1E-400"), (_T, "0"), (_T, "-1E-400")],
         ranges=(ValidityRange(_T, "0", "60"),))
def test_epoch_stats_equal_a_decimal_fold_where_doubles_tie(pairs, ranges):
    """The double fold with its exact fallback, _EpochStats under
    range_bounds, and filter_out_of_scale then summarize, equal a fold done
    in Decimals throughout, over texts whose doubles tie with each other or
    with a bound: the same stats, min and max strings and excluded readings."""
    stats, kept, excluded = _reference_fold(pairs, ranges)
    fold = _EpochStats(range_bounds(ranges))
    assert [fold.add(metric, text) for metric, text in pairs] == [
        i in kept for i in range(len(pairs))]
    assert fold.result() == (stats, len(excluded))
    readings = [_reading(text, i, metric) for i, (metric, text) in enumerate(pairs)]
    direct_kept, direct_excluded = filter_out_of_scale(readings, ranges)
    assert direct_kept == [readings[i] for i in kept]
    assert direct_excluded == [readings[i] for i in excluded]
    assert tuple(summarize(direct_kept)) == stats


_extreme_values = st.one_of(
    st.sampled_from(["9.999999999999999999999E+99", "-9.999999999999999999999E+99",
                     "9E+99", "-9E+99", "1E-400", "-0E-500", "1E+100", "1.7E+308", "1E+400"]),
    st.decimals(allow_nan=False, allow_infinity=False).map(str),
    st.builds("{}E{:+d}".format, st.integers(-10**25, 10**25), st.integers(-420, 420)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(st.sampled_from(METRICS), _extreme_values), max_size=30))
def test_epoch_stats_of_admitted_values_are_finite(pairs):
    """Whatever values reading_fields admits, summarize neither raises nor
    publishes inf or nan."""
    readings = []
    for ts, (metric, value) in enumerate(pairs):
        reading = _reading(value, ts, metric)
        try:
            reading_fields(reading._asdict())
        except InvalidArgument:
            continue
        readings.append(reading)
    stats = summarize(readings)
    assert sum(s.count for s in stats) == len(readings)
    for s in stats:
        assert math.isfinite(float(s.mean)) and math.isfinite(float(s.std_dev)), s


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


def _rollover(node, pub, start, end):
    client = PublicClient(pub, "gw-fieldA")
    return rollover_epoch(node, start, end, client, [])


def test_rollover_end_to_end():
    node = node_with_readings(ranges=(TEMP_RANGE,), n=300, spacing=10)  # readings in [0, 3000)
    pub = _pub()
    events: list = []
    summary, record, fresh = rollover_epoch(node, 0, 3000, PublicClient(pub, "gw-fieldA"), events)
    assert sum(s.count for s in summary.stats) + summary.excluded_count == 300
    assert summary.epoch_index == 0
    assert (summary.ledger_height, summary.ledger_head_hash) == head(node.ledger)
    assert pub.is_confirmed(record)
    assert len(fresh.ledger) == 1
    assert [e["event"] for e in events] == ["anchor_submitted", "anchor_confirmed", "ledger_reset"]
    # dimension reduction: archived ledger outweighs the fresh one
    assert ledger_size_bytes(fresh.ledger) < ledger_size_bytes(node.ledger)


@pytest.mark.parametrize("gateways, client_type, steps", [
    (("gw-fieldA",), PublicClient, ["anchor_submitted", "anchor_confirmed", "ledger_reset"]),
    (("gw-fieldA",), NeverConfirms, ["anchor_submitted"]),
    ((), PublicClient, []),
], ids=["published", "unconfirmed", "rejected"])
def test_rollover_appends_each_event_as_its_step_happens(gateways, client_type, steps):
    node = node_with_readings(ranges=(TEMP_RANGE,), n=20, spacing=10)
    client = client_type(_pub(gateways=gateways), "gw-fieldA")
    events: list = [{"event": "earlier"}]
    if steps[-1:] == ["ledger_reset"]:
        rollover_epoch(node, 0, 200, client, events)
    else:
        with pytest.raises(PublishFailed):
            rollover_epoch(node, 0, 200, client, events)
    assert events == [{"event": "earlier"}] + [
        {"event": step, "channel": "fieldA", "epoch": 0} for step in steps]


def test_rollover_requires_empty_mempool():
    node = node_with_readings(ranges=(TEMP_RANGE,), n=5, spacing=1)
    node.submit(reading_tx("fieldA", 99, timestamp=99))
    with pytest.raises(NonEmptyMempool):
        _rollover(node, _pub(), 0, 1000)


def test_rollover_rejection_leaves_ledger_untouched():
    node = node_with_readings(ranges=(TEMP_RANGE,), n=50, spacing=10)
    pub = _pub(gateways=())  # gateway not registered -> submission rejected
    before = head(node.ledger)
    with pytest.raises(PublishFailed):
        _rollover(node, pub, 0, 500)
    assert head(node.ledger) == before
    assert node.commit_batch() is None  # nothing pending, nothing reset


def test_consecutive_rollovers_are_contiguous():
    node = node_with_readings(ranges=(TEMP_RANGE,), n=30, spacing=10)  # [0, 300)
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


def test_close_before_confirmation_raises_and_leaves_the_node_intact():
    """publish_epoch produces the anchor's own block and leaves the node as
    it was; close_epoch refuses to reset it until that block has
    confirmations_required blocks after it."""
    node = node_with_readings(ranges=(TEMP_RANGE,), n=30, spacing=10)
    pub = _pub()
    client = PublicClient(pub, "gw-fieldA")
    before = head(node.ledger)
    events: list = []
    summary, record = publish_epoch(node, 0, 300, client, events)
    assert pub.included[record.channel_id, record.epoch_index] == head(pub.ledger)[0] == 1
    with pytest.raises(PublishFailed, match="anchor was not confirmed"):
        close_epoch(node, record, pub, events)
    assert head(node.ledger) == before and node.commit_batch() is None
    assert [e["event"] for e in events] == ["anchor_submitted"]
    pub.tick()
    pub.tick()
    fresh = close_epoch(node, record, pub, events)
    assert [e["event"] for e in events] == ["anchor_submitted", "anchor_confirmed",
                                            "ledger_reset"]
    assert fresh.ledger[0].previous_hash == record.summary_digest == summary_digest(summary)


def _second_epoch(link=None):
    """An honest epoch 0 of fieldA, then epoch 1 on a node reset with `link`
    (the confirmed anchor's summary_digest when None), anchored honestly;
    returns (epoch-1 ledger, its summary, the chain)."""
    node = node_with_readings(ranges=(TEMP_RANGE,), n=30, spacing=10)  # [0, 300)
    pub = _pub()
    client = PublicClient(pub, "gw-fieldA")
    _, record = publish_epoch(node, 0, 300, client, [])
    assert client.confirm(record)
    node = node.reset(record.summary_digest if link is None else link)
    for i in range(30):
        node.clock = 300 + i * 10
        node.submit(reading_tx("fieldA", 1000 + i, timestamp=node.clock))
    while node.mempool:
        node.commit_batch()
    summary, _, _ = rollover_epoch(node, 300, 600, client, [])
    return node.ledger, summary, pub


@pytest.mark.parametrize("link, failures", [
    (None, ()),
    (bytes(32), ("link",)),
    (bytes(range(32)), ("link",)),
], ids=["honest", "unlinked", "wrong-anchor"])
def test_an_archive_links_to_the_previous_epochs_anchor(tmp_path, link, failures):
    """A gateway that resets with the wrong anchor, then anchors epoch 1
    honestly, fails `link` alone: head, stats, state and anchor pass."""
    ledger, summary, pub = _second_epoch(link)
    assert summary.epoch_index == 1
    assert _audit_both(tmp_path, ledger, summary, pub) == failures


def test_an_archive_whose_previous_anchor_is_gone_fails_link(tmp_path):
    """Epoch k's link is the summary_digest on the chain for epoch k - 1:
    with no such anchor, epoch k fails `link`."""
    ledger, summary, pub = _second_epoch()
    del pub.anchors["fieldA", 0]
    assert _audit_both(tmp_path, ledger, summary, pub) == ("link",)


def test_rollover_rejects_window_not_covering_ledger():
    from tcgw.errors import InvalidWindow
    node = node_with_readings(ranges=(TEMP_RANGE,), n=50, spacing=10)  # readings up to ts 490
    with pytest.raises(InvalidWindow):
        _rollover(node, _pub(), 0, 100)


def _honest_epoch():
    node = node_with_readings(ranges=(TEMP_RANGE,), n=120, spacing=10)
    pub = _pub()
    summary, record, _ = _rollover(node, pub, 0, 1200)
    return node.ledger, summary, pub


def test_verify_pruned_epoch_honest_run():
    archived, summary, pub = _honest_epoch()
    outcome = verify_pruned_epoch(archived, summary, pub)
    assert outcome.ok and outcome.failures == ()


def _audit_peak(n: int) -> int:
    """Bytes the traced heap peaks above its level before verify_pruned_epoch
    audits an honest epoch of n readings."""
    node = node_with_readings(ranges=(TEMP_RANGE,), n=n, spacing=10)
    pub = _pub()
    summary, _, _ = _rollover(node, pub, 0, n * 10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert verify_pruned_epoch(node.ledger, summary, pub).ok
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_verify_pruned_epoch_holds_no_reading_per_reading():
    """The audit streams each reading into the stats: its peak grows by one
    8-byte double per kept reading (9 bytes here), not by a float object and
    a list slot (32 bytes when the fold kept those) nor by a SensorReading
    and its strings (about 300 bytes)."""
    n = 1000
    assert (_audit_peak(2 * n) - _audit_peak(n)) / n < 16


def _node_heap(n: int) -> int:
    """Bytes of traced heap a node holds after submitting and committing n
    readings, beyond the transactions it was given."""
    rng = random.Random(7)
    txs = [reading_tx("fieldA", i, value=f"{rng.uniform(5, 35):.3f}", timestamp=10 * i)
           for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        node = PrivateNode("fieldA", {"s-0"}, ranges=(TEMP_RANGE,))
        for tx in txs:
            node.clock = tx.timestamp
            node.submit(tx)
            if len(node.mempool) >= BATCH_SIZE:
                node.commit_batch()
        while node.mempool:
            node.commit_batch()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_node_holds_no_value_text_per_committed_reading():
    """Each committed reading adds one 8-byte double to the node's fold (22
    bytes with its share of the block and the known-id set), not its value
    text and a list slot (78 bytes when the node held those texts for
    rollover to fold) nor a SensorReading (166 bytes before that)."""
    n = 2000
    assert (_node_heap(2 * n) - _node_heap(n)) / n < 40


def test_submit_and_audit_build_no_reading():
    """Submit, commit, rollover and verify_pruned_epoch over readings of two
    sensors and four metrics: the honest archive passes, and one with a
    flipped payload byte fails chain and stats."""
    n = 250
    txs = [reading_tx("fieldA", i, sensor=f"s-{i % 2}", metric=METRICS[i % 4]) for i in range(n)]
    node = PrivateNode("fieldA", {"s-0", "s-1"}, ranges=(TEMP_RANGE,))
    for tx in txs:
        node.clock = tx.timestamp
        node.submit(tx)
    while node.mempool:
        node.commit_batch()
    pub = _pub()
    summary, _, _ = _rollover(node, pub, 0, n)
    assert verify_pruned_epoch(node.ledger, summary, pub).ok
    tampered = tamper_ledger(node.ledger, height=1, target="payload", byte_index=5)
    assert verify_pruned_epoch(tampered, summary, pub).failures == ("chain", "stats")


def test_verify_pruned_epoch_detects_archive_tamper():
    archived, summary, pub = _honest_epoch()
    tampered = tamper_ledger(archived, height=1, target="payload", byte_index=5)
    outcome = verify_pruned_epoch(tampered, summary, pub)
    assert not outcome.ok
    assert {"chain", "stats"} & set(outcome.failures)


def test_verify_pruned_epoch_detects_altered_stat():
    archived, summary, pub = _honest_epoch()
    doctored_stats = tuple(dataclasses.replace(s, mean=repr(float(s.mean) + 1.0))
                           for s in summary.stats)
    doctored = dataclasses.replace(summary, stats=doctored_stats)
    outcome = verify_pruned_epoch(archived, doctored, pub)
    assert not outcome.ok
    assert "stats" in outcome.failures and "anchor" in outcome.failures
    # one ulp is enough: the stats are compared exactly, not within a tolerance
    nudged_stats = tuple(
        dataclasses.replace(s, std_dev=repr(math.nextafter(float(s.std_dev), math.inf)))
        for s in summary.stats)
    nudged = dataclasses.replace(summary, stats=nudged_stats)
    outcome = verify_pruned_epoch(archived, nudged, pub)
    assert outcome.failures == ("stats", "anchor")


def test_verify_pruned_epoch_detects_missing_anchor():
    archived, summary, _ = _honest_epoch()
    empty_pub = _pub()
    outcome = verify_pruned_epoch(archived, summary, empty_pub)
    assert not outcome.ok
    assert outcome.failures == ("anchor",)


def _epoch_with_ops():
    """Honest epoch of 60 readings in [0, 600) plus two updates and two
    appends to one document, over several blocks."""
    node = PrivateNode("fieldA", {"s-0", "op-author"}, ranges=(TEMP_RANGE,))

    def submit(tx):
        node.submit(tx)
        if len(node.mempool) == 7:
            node.commit_batch()

    ops = {5: ContextOp(TxKind.UPDATE_FIELD, "lot1", ("Plant density",), "4.2"),
           12: ContextOp(TxKind.APPEND_TO_ARRAY, "lot1", ("Cultural Operations",), {"op": "irrigation"}),
           30: ContextOp(TxKind.UPDATE_FIELD, "lot1", ("origin", "parcel"), "It-BA-07"),
           41: ContextOp(TxKind.APPEND_TO_ARRAY, "lot1", ("Cultural Operations",), {"op": "pruning"})}
    for i in range(60):
        node.clock = i * 10
        submit(reading_tx("fieldA", i, timestamp=i * 10))
        if i in ops:
            submit(make_transaction("fieldA", i * 10, ops[i].op, op_payload(ops[i]), "op-author"))
    while node.mempool:
        node.commit_batch()
    pub = _pub()
    summary, _, _ = _rollover(node, pub, 0, 600)
    return node.ledger, summary, pub


def _first_tx(ledger, kind):
    return next((height, index) for height, index, tx in iter_transactions(ledger)
                if tx.kind is kind)


def _relink(ledger, height, tx_index, kind, payload):
    """Copy of `ledger` whose transaction (height, tx_index) carries `kind` and
    `payload`, with its tx_id, Merkle root and all later block hashes re-derived."""
    blocks = list(ledger[:height])
    old = ledger[height].transactions
    tx = old[tx_index]
    new_tx = make_transaction(tx.channel_id, tx.timestamp, kind, payload, tx.author_id)
    txs = old[:tx_index] + (new_tx,) + old[tx_index + 1:]
    for i, block in enumerate(ledger[height:]):
        blocks.append(make_block(block.height, blocks[-1].block_hash, block.timestamp,
                                 txs if i == 0 else block.transactions))
    return tuple(blocks)


def _tamper_case(name, ledger):
    """The named tamper of `ledger`. The tx_id, previous_hash and op payload
    flips break block 3 of _epoch_with_ops, its first AppendToArray and six
    readings: the audit must still fold each in-window reading exactly once."""
    last = len(ledger) - 1
    last_tx = len(ledger[3].transactions) - 1
    reading_at = _first_tx(ledger, TxKind.RAW_READING)
    append_at = _first_tx(ledger, TxKind.APPEND_TO_ARRAY)
    onto_scalar = ContextOp(TxKind.APPEND_TO_ARRAY, "lot1", ("Plant density",), "x")
    return {
        "honest": lambda: ledger,
        "tx_root": lambda: tamper_ledger(ledger, height=3, target="tx_root", byte_index=2),
        "last_block_hash": lambda: tamper_ledger(ledger, height=last, target="block_hash"),
        "payload_flip": lambda: tamper_ledger(ledger, height=2, target="payload", byte_index=5),
        "op_payload_flip": lambda: tamper_ledger(ledger, height=3, target="payload", tx_index=0,
                                                 byte_index=5),
        "tx_id_first": lambda: tamper_ledger(ledger, height=3, target="tx_id"),
        "tx_id_middle": lambda: tamper_ledger(ledger, height=3, target="tx_id", tx_index=last_tx // 2),
        "tx_id_last": lambda: tamper_ledger(ledger, height=3, target="tx_id", tx_index=last_tx),
        "previous_hash": lambda: tamper_ledger(ledger, height=3, target="previous_hash"),
        "not_a_reading": lambda: _relink(ledger, *reading_at, TxKind.RAW_READING,
                                         b'{"sensor_id":"s-0"}'),
        "append_onto_scalar": lambda: _relink(ledger, *append_at, TxKind.APPEND_TO_ARRAY,
                                              op_payload(onto_scalar)),
        "unparseable": lambda: _relink(ledger, *reading_at, TxKind.RAW_READING, b"not json"),
        "unencodable_doc_id": lambda: _relink(
            ledger, *append_at, TxKind.APPEND_TO_ARRAY,
            b'{"doc_id":"\\ud800","op":"AppendToArray","path":["log"],"value":1}'),
    }[name]()


@pytest.mark.parametrize("case,failures", [
    ("honest", ()),
    ("tx_root", ("chain",)),
    ("last_block_hash", ("chain", "head")),
    ("payload_flip", ("chain", "stats")),
    ("not_a_reading", ("head", "stats")),
    ("append_onto_scalar", ("head", "state")),
    ("unparseable", ("chain", "head", "stats")),
    ("unencodable_doc_id", ("head", "state")),
    ("tx_id_first", ("chain",)),
    ("tx_id_middle", ("chain",)),
    ("tx_id_last", ("chain",)),
    ("previous_hash", ("chain",)),
    ("op_payload_flip", ("chain",)),
])
def test_verify_pruned_epoch_failure_table(case, failures):
    archived, summary, pub = _epoch_with_ops()
    tampered = _tamper_case(case, archived)
    assert verify_pruned_epoch(tampered, summary, pub).failures == failures


def _anchor(ledger, summary, **changes):
    """`summary` with `changes` and the head of `ledger`, anchored and
    confirmed on a fresh chain; returns (summary, chain)."""
    height, head_hash = head(ledger)
    summary = dataclasses.replace(summary, ledger_height=height, ledger_head_hash=head_hash,
                                  **changes)
    pub = _pub()
    client = PublicClient(pub, "gw-fieldA")
    assert client.confirm(client.submit_anchor(summary))
    return summary, pub


def _audit_both(tmp_path, ledger, summary, pub):
    """The failure codes of verify_pruned_epoch(ledger) and of verify_archive
    of its saved file, which must agree."""
    in_memory = verify_pruned_epoch(ledger, summary, pub).failures
    path = save_ledger(ledger, tmp_path / "fieldA.epoch0.tcgw")
    assert verify_archive(path, summary, pub).failures == in_memory
    return in_memory


def test_audit_fails_stats_on_an_in_window_reading_that_fails_check_reading(tmp_path):
    """A reading whose payload parses but names no metric ("x") folds
    nothing and breaks no tx_id. Anchored with the stats of the other
    readings, the archive fails `stats`, and nothing else."""
    archived, summary, _ = _epoch_with_ops()
    height, index = _first_tx(archived, TxKind.RAW_READING)
    timestamp = archived[height].transactions[index].timestamp
    ledger = _relink(archived, height, index, TxKind.RAW_READING,
                     reference_payload(Reading("s-0", "x", "20.5", timestamp)))
    kept, excluded = filter_out_of_scale(ledger_readings(archived, 0, 600)[1:], [TEMP_RANGE])
    summary, pub = _anchor(ledger, summary, stats=tuple(summarize(kept)),
                           excluded_count=len(excluded))
    assert _audit_both(tmp_path, ledger, summary, pub) == ("stats",)


def test_audit_fails_chain_at_a_context_op_whose_payload_is_not_json(tmp_path):
    """An UpdateField transaction re-sealed over b"not json" has the tx_id
    of its bytes, so only the audit's parse of its payload can fail it: a
    TxId fault at its block, through both streams, and nothing else (the
    head is anchored, and every reading still folds)."""
    archived, summary, _ = _epoch_with_ops()
    height, index = _first_tx(archived, TxKind.UPDATE_FIELD)
    ledger = _relink(archived, height, index, TxKind.UPDATE_FIELD, b"not json")
    summary, pub = _anchor(ledger, summary)
    path = save_ledger(ledger, tmp_path / "fieldA.epoch0.tcgw")
    for outcome in (verify_pruned_epoch(ledger, summary, pub),
                    verify_archive(path, summary, pub)):
        assert outcome.failures == ("chain",)
        assert str(outcome.chain) == f"TxId at block {height}"
    assert 0 < height < len(ledger) - 1


def test_audit_fails_state_on_an_op_that_conflicts(tmp_path):
    """An AppendToArray onto a scalar raises PathTypeConflict. Anchored with
    the state digest of the other ops, the archive fails `state`, and
    nothing else."""
    archived, summary, _ = _epoch_with_ops()
    append_at = _first_tx(archived, TxKind.APPEND_TO_ARRAY)
    onto_scalar = ContextOp(TxKind.APPEND_TO_ARRAY, "lot1", ("Plant density",), "x")
    ledger = _relink(archived, *append_at, TxKind.APPEND_TO_ARRAY, op_payload(onto_scalar))
    others = [parse_op(tx.payload) for height, index, tx in iter_transactions(archived)
              if tx.kind in CONTEXT_KINDS and (height, index) != append_at]
    summary, pub = _anchor(ledger, summary,
                           state_digest=state_digest(apply_ops(EMPTY_STATE, others)))
    assert _audit_both(tmp_path, ledger, summary, pub) == ("state",)
