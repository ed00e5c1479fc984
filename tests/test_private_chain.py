"""Private node: authorization, batching, reset, window queries."""

from __future__ import annotations

import copy
import dataclasses
import json
import pickle
import random
from array import array
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from tcgw import (
    ContextOp,
    PrivateNode,
    PublicChain,
    PublicClient,
    TxKind,
    head,
    make_transaction,
    op_payload,
    reading_payload,
    replay,
    rollover_epoch,
    state_digest,
    verify_chain,
)
from tcgw.canon import canonical_json, canonical_loads
from tcgw.gateway import ValidityRange, filter_out_of_scale, summarize
from tcgw import ledger as ledger_module, private_chain
from tcgw.ledger import (Transaction, genesis, iter_transactions, load_ledger, save_ledger,
                         sealed)
from tcgw.private_chain import (METRICS, MetricStats, decimal_value, read_reading,
                                reading_fields, reading_head)
from tcgw.workload import FieldConfig, SensorSpec, generate_readings
from tcgw.worldstate import op_from_value
from tcgw.errors import (
    DuplicateTransaction,
    InvalidArgument,
    InvalidTransaction,
    InvalidWindow,
    NonEmptyMempool,
    PathTypeConflict,
    UnauthorizedAuthor,
    WrongChannel,
)

from helpers import (Reading, ledger_readings, make_reading, node_with_readings,
                     reading_transaction, reading_tx, reference_payload, tx_readings)


def _node(channel="fieldA", authors=("s-0",), **kwargs) -> PrivateNode:
    return PrivateNode(channel, set(authors), **kwargs)


def _held(node: PrivateNode) -> tuple:
    """What the node holds of its committed readings: its fold's (stats,
    excluded count), and the (lowest, highest) timestamp or None."""
    return node.fold.result(), node.time_span


def _derived(ledger, ranges=()) -> tuple:
    """What a node over `ledger` under `ranges` must hold, derived from a
    parse of all of it by the reference filter_out_of_scale and summarize."""
    readings = ledger_readings(ledger, 0, 1 << 64)
    kept, excluded = filter_out_of_scale(readings, ranges)
    times = [r.timestamp for r in readings]
    return ((tuple(summarize(kept)), len(excluded)),
            (min(times), max(times)) if times else None)


def test_node_refuses_an_empty_channel_id():
    with pytest.raises(InvalidArgument, match="channel_id must be non-empty"):
        PrivateNode("", {"s-0"})


def test_submit_accepts_authorized_reading():
    node = _node()
    assert node.submit(reading_tx("fieldA", 0)) is True
    assert len(node.mempool) == 1


def test_submit_rejects_duplicate_tx():
    node = _node()
    tx = reading_tx("fieldA", 0)
    node.submit(tx)
    with pytest.raises(DuplicateTransaction):
        node.submit(tx)
    assert len(node.mempool) == 1


def test_submit_rejects_unknown_author():
    node = _node()
    with pytest.raises(UnauthorizedAuthor):
        node.submit(reading_tx("fieldA", 0, sensor="intruder"))


def test_submit_rejects_wrong_channel():
    node = _node()
    with pytest.raises(WrongChannel):
        node.submit(reading_tx("fieldB", 0))


def _counting_bodies(monkeypatch) -> list:
    """Count ledger.transaction_body calls from here on, the body builds
    that transaction_valid makes."""
    builds: list = []
    build = ledger_module.transaction_body
    monkeypatch.setattr(ledger_module, "transaction_body",
                        lambda *args: builds.append(1) or build(*args))
    return builds


def test_submit_admits_a_made_transaction_without_rebuilding_its_body(monkeypatch):
    """make_transaction seals the tx_id it computed, so submit does not
    hash the same fields again."""
    made = reading_tx("fieldA", 0)
    assert sealed(made)
    builds = _counting_bodies(monkeypatch)
    node = _node()
    node.submit(made)
    assert builds == []
    node.commit_batch()
    assert verify_chain(node.ledger).ok
    assert len(builds) == 1  # verification re-derives the id of a sealed transaction too


def _flipped_value_digit(made, tmp_path):
    """`made`, committed, saved and loaded back from a file in which one
    digit of its reading's value was flipped (20.5 to 21.5)."""
    node = _node()
    node.submit(made)
    node.commit_batch()
    path = save_ledger(node.ledger, tmp_path / "fieldA.epoch0.tcgw")
    data = bytearray(path.read_bytes())
    data[data.index(b'"value":"20.5"') + 10] ^= 0x01
    path.write_bytes(bytes(data))
    return load_ledger(path)[1].transactions[0]


@pytest.mark.parametrize("forge", [
    lambda made, _: dataclasses.replace(made, payload=made.payload.replace(b"20.5", b"21.5")),
    lambda made, _: Transaction(made.tx_id, made.channel_id, made.timestamp, made.kind,
                                made.payload.replace(b"20.5", b"21.5"), made.author_id),
    _flipped_value_digit,
], ids=["replace", "constructor", "load_ledger"])
def test_submit_rehashes_an_unsealed_transaction_and_rejects_a_forged_id(forge, tmp_path,
                                                                         monkeypatch):
    """A transaction that keeps a made tx_id but carries another value is
    unsealed, whichever way it was built, so submit re-derives its id and
    rejects it. Its payload is a well-formed reading of the same sensor and
    time, so the id check alone stands between it and the mempool."""
    made = reading_tx("fieldA", 0, value="20.5")
    forged = forge(made, tmp_path)
    assert forged.tx_id == made.tx_id and forged.payload != made.payload
    assert read_reading(forged.payload)[:4] == ("s-0", "temperature_c", "21.5", 0)
    assert not sealed(forged)
    builds = _counting_bodies(monkeypatch)
    node = _node()
    with pytest.raises(InvalidTransaction, match="tx_id does not match payload"):
        node.submit(forged)
    assert node.mempool == [] and len(builds) == 1


def test_init_called_again_on_a_made_transaction_clears_its_seal():
    """Calling Transaction.__init__ again on a made transaction, a
    deliberate bypass of the frozen record, rewrites its fields and clears
    its seal, so submit re-derives the id and rejects the other payload."""
    made = reading_tx("fieldA", 0, value="20.5")
    tx_id = made.tx_id
    Transaction.__init__(made, made.tx_id, made.channel_id, made.timestamp, made.kind,
                         made.payload.replace(b"20.5", b"21.5"), made.author_id)
    assert made.tx_id == tx_id and read_reading(made.payload)[2] == "21.5"
    assert not sealed(made)
    node = _node()
    with pytest.raises(InvalidTransaction, match="tx_id does not match payload"):
        node.submit(made)
    assert node.mempool == []


@pytest.mark.parametrize("twin", [copy.copy, copy.deepcopy,
                                  lambda tx: pickle.loads(pickle.dumps(tx))],
                         ids=["copy", "deepcopy", "pickle"])
def test_submit_admits_a_twin_of_a_made_transaction_after_one_body_build(twin, monkeypatch):
    """A copy or unpickled twin is equal to the made transaction but
    unsealed, so submit checks its id with one body build and admits it."""
    made = reading_tx("fieldA", 0)
    other = twin(made)
    assert other == made and not sealed(other)
    builds = _counting_bodies(monkeypatch)
    node = _node()
    node.submit(other)
    assert node.mempool == [other] and len(builds) == 1


def test_a_seal_cannot_be_set_or_deleted():
    """The seal is not a field, so replace cannot pass it on; and, as with
    the fields, assignment and deletion raise (FrozenInstanceError, or a
    TypeError from the frozen __setattr__ of a slots dataclass, depending
    on the Python release)."""
    made = reading_tx("fieldA", 0)
    unsealed = Transaction(*(getattr(made, f.name) for f in dataclasses.fields(made)))
    assert "_sealed" not in {f.name for f in dataclasses.fields(made)}
    for tx in (made, unsealed):
        with pytest.raises((AttributeError, TypeError)):
            tx._sealed = True
        with pytest.raises((AttributeError, TypeError)):
            del tx._sealed
    assert sealed(made) and not sealed(unsealed)


_READING = {"metric": "temperature_c", "sensor_id": "s-0", "timestamp": 0, "value": "20.5"}
_OP = {"doc_id": "d", "op": "UpdateField", "path": ["k"], "value": 1}


@pytest.mark.parametrize("kind, payload", [
    (TxKind.RAW_READING, {**_READING, "metric": "pressure"}),
    (TxKind.RAW_READING, {**_READING, "value": [1, 2]}),
    (TxKind.RAW_READING, {**_READING, "value": 20}),
    (TxKind.RAW_READING, ["temperature_c", "20.5"]),
    (TxKind.RAW_READING, "20.5"),
    (TxKind.UPDATE_FIELD, {}),
    (TxKind.APPEND_TO_ARRAY, {"doc_id": 7, "op": "AppendToArray", "path": ["k"], "value": 1}),
    (TxKind.RAW_READING, {**_READING, "sensor_id": "s-9"}),
    (TxKind.RAW_READING, {**_READING, "timestamp": 99}),
    (TxKind.UPDATE_FIELD, {"doc_id": "d", "op": "AppendToArray", "path": ["k"], "value": 1}),
    (TxKind.RAW_READING, {**_READING, "timestamp": False}),
    (TxKind.RAW_READING, {**_READING, "value": " 9 "}),
    (TxKind.RAW_READING, {**_READING, "value": "1_0"}),
    (TxKind.RAW_READING, {**_READING, "value": "12.5\n"}),
    (TxKind.RAW_READING, {**_READING, "value": "\u0661\u0661"}),
    (TxKind.UPDATE_FIELD, {**_OP, "path": "abc"}),
    (TxKind.UPDATE_FIELD, {**_OP, "path": {"k": 1}}),
    (TxKind.UPDATE_FIELD, {**_OP, "extra": 0}),
    (TxKind.RAW_READING, {**_READING, "extra": 0}),
    (TxKind.RAW_READING, {**_READING, "value": "1E+100"}),
], ids=["unknown-metric", "list-value", "number-value", "array-payload", "string-payload",
        "empty-op", "number-doc-id", "other-sensor", "other-timestamp", "op-kind-mismatch",
        "bool-timestamp", "padded-value", "underscore-value", "newline-value",
        "arabic-indic-value", "string-path", "object-path", "op-fifth-key",
        "reading-fifth-key", "value-1E+100"])
def test_submit_rejects_payload_later_stages_cannot_read(kind, payload):
    node = _node(authors=("s-0",))
    tx = make_transaction("fieldA", 0, kind, canonical_json(payload), "s-0")
    with pytest.raises(InvalidTransaction):
        node.submit(tx)
    assert node.mempool == []
    # the channel stays usable: a good reading still commits and reads back
    node.submit(reading_tx("fieldA", 0))
    node.commit_batch()
    one = MetricStats("temperature_c", 1, "20.5", "0.0", "20.5", "20.5")
    assert _held(node) == (((one,), 0), (0, 0)) == _derived(node.ledger)


@pytest.mark.parametrize("kind, payload", [
    (TxKind.RAW_READING,
     b'{"metric":"temperature_c","sensor_id":"s-0","timestamp":0,"value":20.5}'),
    (TxKind.ANCHOR, b'{"summary_digest":"00","weight":1.5}'),
    (TxKind.ANCHOR, b"{not json"),
    (TxKind.RAW_READING, b"[" * 100_000),
    (TxKind.ANCHOR, b'{"tick":1}'),  # well-formed, but a private chain holds no anchor
], ids=["reading-fraction", "anchor-fraction", "anchor-not-json", "too-deep", "anchor"])
def test_submit_rejects_payload_that_is_not_canonical_json(kind, payload):
    node = _node(authors=("s-0",))
    tx = make_transaction("fieldA", 0, kind, payload, "s-0")
    with pytest.raises(InvalidTransaction) as info:
        node.submit(tx)
    assert node.mempool == []
    assert "payload" in str(info.value)
    assert "tx_id" not in str(info.value)


@pytest.mark.parametrize("sensor_id", [None, ["x"], {"a": 1}, 7],
                         ids=["null", "array", "object", "number"])
def test_reading_from_value_refuses_a_sensor_id_that_is_not_a_string(sensor_id):
    """reading_fields, the one reader of a parsed reading payload (it
    replaced reading_from_value), refuses it."""
    with pytest.raises(InvalidArgument):
        reading_fields({**_READING, "sensor_id": sensor_id})


def test_parsed_readings_share_their_name_strings(tmp_path):
    """A node, built by submits or over a reloaded ledger, folds its readings
    under the METRICS strings, not the parse's own copies, holding each kept
    value as a double and no value text beyond each metric's least and
    greatest, equal to a fold of a parse of the ledger."""
    node = _node(authors=("s-0", "s-1"))
    for i in range(40):
        node.submit(reading_tx("fieldA", i, sensor=f"s-{i % 2}", metric=METRICS[i % 4]))
    while node.mempool:
        node.commit_batch()
    assert _held(node) == _derived(node.ledger)
    path = save_ledger(node.ledger, tmp_path / "fieldA.tcgw")
    reloaded = PrivateNode("fieldA", {"s-0", "s-1"}, ledger=load_ledger(path))
    assert _held(reloaded) == _held(node)
    for held in (node, reloaded):
        assert sorted(map(id, held.fold.groups)) == sorted(map(id, METRICS))
        assert {(type(group.values), group.values.typecode)
                for group in held.fold.groups.values()} == {(array, "d")}


@pytest.mark.parametrize("read, value", [
    (op_from_value, {**_OP, "path": "abc"}),
    (op_from_value, {**_OP, "path": {"k": 1}}),
    (op_from_value, {**_OP, "extra": 0}),
    (reading_fields, {**_READING, "extra": 0}),
], ids=["string-path", "object-path", "op-fifth-key", "reading-fifth-key"])
def test_payload_readers_take_exactly_the_shape_their_writers_make(read, value):
    """A string path would be split into one key per character, and an extra
    key ignored, so two payloads would apply or count as one."""
    with pytest.raises(InvalidArgument):
        read(value)
    good = {**value, "path": ["k"]} if read is op_from_value else _READING
    read({k: v for k, v in good.items() if k != "extra"})


def _nested(depth: int):
    """A value whose innermost scalar sits `depth` arrays down."""
    value = 1
    for _ in range(depth):
        value = [value]
    return value


def _op_tx(i: int, payload: bytes, kind=TxKind.UPDATE_FIELD):
    return make_transaction("fieldA", i, kind, payload, "op-a")


@pytest.mark.parametrize("kind, payload", [
    (TxKind.UPDATE_FIELD, b'{"doc_id":"d","op":"UpdateField","path":["k"],"value":'
     + b"[" * 70 + b"1" + b"]" * 70 + b"}"),
    (TxKind.UPDATE_FIELD, b'{"doc_id":"\\ud800","op":"UpdateField","path":["k"],"value":1}'),
    (TxKind.APPEND_TO_ARRAY, b'{"doc_id":"d","op":"AppendToArray","path":["\\udfff"],"value":1}'),
    (TxKind.UPDATE_FIELD, b'{"doc_id":"d","op":"UpdateField","path":["k"],"value":{"a":["\\ud83d"]}}'),
], ids=["nested-70", "surrogate-doc-id", "surrogate-path-key", "surrogate-value"])
def test_submit_rejects_op_whose_state_cannot_be_digested(kind, payload):
    node = _node(authors=("op-a",))
    with pytest.raises(InvalidTransaction):
        node.submit(_op_tx(0, payload, kind))
    assert node.mempool == []


@pytest.mark.parametrize("kind, arrays", [
    (TxKind.UPDATE_FIELD, 62),      # 2 path keys + 62 arrays: the scalar sits 64 deep
    (TxKind.APPEND_TO_ARRAY, 61),   # 2 path keys + the array appended to + 61
])
def test_op_at_the_nesting_limit_is_admitted_and_rolls_over(kind, arrays):
    node = _node(authors=("op-a",))
    over = ContextOp(kind, "d", ("a", "b"), _nested(arrays + 1))
    with pytest.raises(InvalidTransaction):
        node.submit(_op_tx(0, op_payload(over), kind))
    assert node.mempool == []
    at_limit = ContextOp(kind, "d", ("a", "b"), _nested(arrays))
    node.submit(_op_tx(0, op_payload(at_limit), kind))
    node.commit_batch()
    pub = PublicChain(["val-0"], ["gw-fieldA"], confirmations_required=1)
    summary, _, _ = rollover_epoch(node, 0, 10, PublicClient(pub, "gw-fieldA"), [])
    assert summary.state_digest == state_digest(replay(node.ledger))


def test_commit_batches_fifo_100_100_50():
    node = _node()
    for i in range(250):
        node.clock = i
        node.submit(reading_tx("fieldA", i))
    sizes = []
    while node.mempool:
        sizes.append(len(node.commit_batch().transactions))
    assert sizes == [100, 100, 50]
    first_block_ids = [tx.timestamp for tx in node.ledger[1].transactions]
    assert first_block_ids == list(range(100))


def test_commit_keeps_state_equal_to_replay():
    node = _node(authors=("s-0", "op-a"))
    for i in range(30):
        node.clock = i
        if i % 3 == 0:
            op = ContextOp(TxKind.APPEND_TO_ARRAY, "fieldA", ("log",), i)
            node.submit(make_transaction("fieldA", i, op.op, op_payload(op), "op-a"))
        else:
            node.submit(reading_tx("fieldA", i))
        if len(node.mempool) >= 10:
            node.commit_batch()
            assert state_digest(node.state) == state_digest(replay(node.ledger))
    while node.mempool:
        node.commit_batch()
    assert state_digest(node.state) == state_digest(replay(node.ledger))


def test_commit_empty_mempool_returns_none():
    node = _node()
    before = head(node.ledger)
    assert node.commit_batch() is None
    assert head(node.ledger) == before


def test_commit_rejects_conflicting_op_without_side_effects():
    node = _node(authors=("op-a",))
    scalar = ContextOp(TxKind.UPDATE_FIELD, "d", ("k",), "scalar")
    bad = ContextOp(TxKind.APPEND_TO_ARRAY, "d", ("k",), 1)
    node.clock = 0
    node.submit(make_transaction("fieldA", 0, scalar.op, op_payload(scalar), "op-a"))
    node.commit_batch()
    node.submit(make_transaction("fieldA", 1, bad.op, op_payload(bad), "op-a"))
    node.clock = 1
    before_head = head(node.ledger)
    before_digest = state_digest(node.state)
    with pytest.raises(PathTypeConflict):
        node.commit_batch()
    assert head(node.ledger) == before_head
    assert state_digest(node.state) == before_digest


def test_copy_is_an_equal_independent_node():
    """Committing into a copy leaves the original's fold, known ids and
    ledger as they were; the copy's fold is its own."""
    ranges = (ValidityRange("temperature_c", "21", "30"),)  # excludes 20.5
    node = _node(authors=("s-0", "op-a"), ranges=ranges)
    op = ContextOp(TxKind.UPDATE_FIELD, "d", ("k",), 1)
    node.submit(make_transaction("fieldA", 0, op.op, op_payload(op), "op-a"))
    node.submit(reading_tx("fieldA", 0))
    node.commit_batch()
    node.submit(reading_tx("fieldA", 1))  # still pending

    def view(n: PrivateNode) -> tuple:
        return (n.ledger, n.state, list(n.mempool), n.clock, copy.deepcopy(_held(n)))

    before = view(node)
    twin = copy.copy(node)
    assert view(twin) == before
    twin.submit(reading_tx("fieldA", 2))
    twin.clock = 2
    twin.commit_batch()
    assert twin.fold.result() == (
        (MetricStats("temperature_c", 2, "22.0", "0.5", "21.5", "22.5"),), 1)
    assert twin.time_span == (0, 2)
    assert view(node) == before
    assert node.submit(reading_tx("fieldA", 2))  # the twin's ids are its own
    with pytest.raises(DuplicateTransaction):
        twin.submit(reading_tx("fieldA", 2))
    node.commit_batch()
    assert _held(node) == _held(twin) == _derived(node.ledger, ranges)
    assert state_digest(node.state) == state_digest(replay(node.ledger))


def test_reset_with_anchor_starts_fresh():
    node = node_with_readings(n=30)
    archived = node.ledger
    link = bytes(range(32))  # the confirmed anchor's summary_digest
    fresh = node.reset(link)
    assert len(fresh.ledger) == 1
    assert fresh.ledger == genesis(link)
    assert fresh.state == {}
    assert fresh.channel_id == node.channel_id
    assert fresh.authorized_authors == node.authorized_authors
    # archive still intact and verifiable
    assert archived is node.ledger
    assert verify_chain(archived).ok
    # a fresh authorized submit is accepted
    fresh.clock = node.clock + 1
    assert fresh.submit(reading_tx("fieldA", 10_000, timestamp=node.clock + 1))


def test_reset_refuses_pending_transactions():
    node = _node()
    node.submit(reading_tx("fieldA", 0))
    with pytest.raises(NonEmptyMempool):
        node.reset(bytes(32))


def _rollover(node: PrivateNode, start: int, end: int):
    pub = PublicChain(["val-0"], [f"gw-{node.channel_id}"], confirmations_required=1)
    return rollover_epoch(node, start, end, PublicClient(pub, f"gw-{node.channel_id}"), [])


def test_readings_window_is_half_open():
    node = _node()
    for ts in (100, 200):
        node.clock = ts
        node.submit(reading_tx("fieldA", ts, timestamp=ts))
    node.commit_batch()
    assert node.time_span == (100, 200)
    for start, end in [(100, 200), (101, 201)]:
        with pytest.raises(InvalidWindow):
            _rollover(node, start, end)
    summary, _, _ = _rollover(node, 100, 201)
    assert summary.stats[0].count == 2


def test_readings_window_rejects_inverted():
    for start, end in [(10, 10), (10, 9)]:
        with pytest.raises(InvalidWindow, match="empty or inverted"):
            _rollover(_node(), start, end)


def test_readings_window_empty_ledger():
    node = _node()
    assert _held(node) == (((), 0), None) == _derived(node.ledger)
    summary, _, _ = _rollover(node, 0, 100)
    assert (summary.stats, summary.excluded_count) == ((), 0)


def test_readings_window_matches_linear_scan():
    node = node_with_readings(n=120, spacing=7)
    scanned = [canonical_loads(tx.payload) for _, _, tx in iter_transactions(node.ledger)
               if tx.kind is TxKind.RAW_READING]
    assert list(node.fold.groups["temperature_c"].values) == [float(value["value"])
                                                              for value in scanned]
    assert node.time_span == (0, 119 * 7)
    assert _held(node) == _derived(node.ledger)


def test_no_committed_block_contains_unauthorized_author():
    rng = random.Random(99)
    node = _node(authors=("s-0", "s-1"))
    accepted = 0
    for i in range(300):
        sensor = rng.choice(["s-0", "s-1", "rogue", "other"])
        node.clock = i
        try:
            node.submit(reading_tx("fieldA", i, sensor=sensor))
            accepted += 1
        except UnauthorizedAuthor:
            pass
        if rng.random() < 0.2:
            node.commit_batch()
    while node.mempool:
        node.commit_batch()
    committed = [tx for _, _, tx in iter_transactions(node.ledger)]
    assert len(committed) == accepted
    assert all(tx.author_id in node.authorized_authors for tx in committed)


def test_save_load_roundtrip(tmp_path):
    node = node_with_readings(n=35)
    path = save_ledger(node.ledger, tmp_path / "fieldA.epoch0.tcgw")
    loaded = PrivateNode("fieldA", node.authorized_authors, clock=node.clock,
                         ledger=load_ledger(path))
    assert loaded.channel_id == "fieldA"
    assert loaded.ledger == node.ledger
    assert state_digest(loaded.state) == state_digest(node.state)
    # duplicate detection survives the reload
    dup = node.ledger[1].transactions[0]
    with pytest.raises(DuplicateTransaction):
        loaded.submit(dup)


@pytest.mark.parametrize("text", ["-20", "20.50", "2.05E+1", "+1", ".5", "5.", "1e3", "-0", "0E-7",
                                  "9.999999999999999999999E+99", "-9E+99", "1E-400"])
def test_decimal_value_reads_plain_literals(text):
    assert decimal_value(text) == Decimal(text)


@pytest.mark.parametrize("text, message", [
    (" 9 ", "value ' 9 ' is not a plain decimal literal"),
    ("1_0", "value '1_0' is not a plain decimal literal"),
    ("12.5\n", "value '12.5\\n' is not a plain decimal literal"),
    ("\t1", "value '\\t1' is not a plain decimal literal"),
    ("\u0661\u0661", "value '\u0661\u0661' is not a plain decimal literal"),
    ("\uff11", "value '\uff11' is not a plain decimal literal"),
    ("1\u2003", "value '1\\u2003' is not a plain decimal literal"),  # an em space
    ("NaN", "value 'NaN' is not finite"),
    (" Infinity", "value ' Infinity' is not finite"),
    ("abc", "value 'abc' is not a decimal"),
    ("", "value '' is not a decimal"),
    (5, "value 5 is not a decimal string"),
    # plain, but of 1E+100 or more: the stats fold overflowed or published inf or nan
    ("1E+100", "value '1E+100' is not below 1E+100 in magnitude"),
    ("0E+100", "value '0E+100' is not below 1E+100 in magnitude"),
    ("-1E+200", "value '-1E+200' is not below 1E+100 in magnitude"),
    ("1.7E+308", "value '1.7E+308' is not below 1E+100 in magnitude"),
    ("1E+400", "value '1E+400' is not below 1E+100 in magnitude"),
])
def test_decimal_value_rejects_what_is_not_a_plain_literal(text, message):
    with pytest.raises(InvalidArgument) as info:
        decimal_value(text)
    assert str(info.value) == message
    with pytest.raises(InvalidArgument) as info:
        decimal_value(text, "low")
    assert str(info.value) == "low" + message[len("value"):]
    if isinstance(text, str):
        with pytest.raises(InvalidArgument) as info:
            reading_fields(make_reading(0, value=text)._asdict())
        assert str(info.value) == message


_ID_CHARS = '"\\/\x00\x08\x1f\x7f\x85\u2028\u2029\ufeff\u00e9\u4e2d\U0001f600\U0010ffff'
_sensor_ids = st.text(st.one_of(st.sampled_from(_ID_CHARS),
                                st.characters(blacklist_categories=("Cs",))), max_size=12)
_value_texts = st.one_of(
    st.sampled_from(["-0.000", "1.0E+3", "20.50", "+1", ".5", "5.", "1e3", "-9E+99", "1E-400"]),
    st.from_regex(r"[+-]?([0-9]{1,20}(\.[0-9]{0,6})?|\.[0-9]{1,6})([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True).filter(lambda text: Decimal(text).adjusted() < 100),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(metric=st.sampled_from(METRICS), sensor_id=_sensor_ids,
       timestamp=st.integers(0, 2**63), value=_value_texts)
def test_reading_payload_is_canonical_json_of_its_four_keys(metric, sensor_id, timestamp, value):
    """The template reading_payload writes from is byte-identical to
    canonical_json of the four keys, for every id escape and value form."""
    payload = reading_payload(reading_head(sensor_id, metric), timestamp, value)
    assert payload == reference_payload(Reading(sensor_id, metric, value, timestamp))
    assert reading_fields(canonical_loads(payload))[:4] == (sensor_id, metric, value, timestamp)


_KEYS = ("metric", "sensor_id", "timestamp", "value")
_unescaped_ids = st.text(st.characters(blacklist_categories=("Cs",), min_codepoint=0x20,
                                       blacklist_characters='"\\'), max_size=12)
# Value texts decimal_value accepts, and some it refuses with each of its messages.
_payload_values = st.one_of(_value_texts, st.sampled_from(
    ["NaN", "-Infinity", "1E+100", "0E+100", " 9", "1_0", "\u0661", "\uff11", "", "abc", "0x1F"]))


@st.composite
def _reading_payloads(draw) -> bytes:
    """Payloads reading_payload writes (the value unchecked), and mutations of them."""
    fields = {"metric": draw(st.sampled_from(METRICS)),
              "sensor_id": draw(st.one_of(_sensor_ids, _unescaped_ids)),
              "timestamp": draw(st.integers(0, 2**64)), "value": draw(_payload_values)}
    text = reading_payload(reading_head(fields["sensor_id"], fields["metric"]),
                           fields["timestamp"], fields["value"]).decode()
    mutation = draw(st.sampled_from([None, None, None, "flip", "reorder", "repeat", "space",
                                     "escape", "fifth", "long_time"]))
    if mutation == "flip":
        data = bytearray(text.encode())
        data[draw(st.integers(0, len(data) - 1))] ^= 1 << draw(st.integers(0, 7))
        return bytes(data)
    if mutation == "reorder":
        text = "{" + ",".join(f"{json.dumps(key)}:{json.dumps(fields[key], ensure_ascii=False)}"
                              for key in draw(st.permutations(_KEYS))) + "}"
    elif mutation == "repeat":  # JSON keeps a repeated key's last value
        key, value = draw(st.sampled_from(_KEYS)), draw(st.sampled_from(["0", '""']))
        extra = f'"{key}":{value}'
        text = f"{{{extra},{text[1:]}" if draw(st.booleans()) else f"{text[:-1]},{extra}}}"
    elif mutation == "space":
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from([" ", "\n", "\t", "\r"])) + text[i:]
    elif mutation == "escape":  # one character as \u escapes, in a key, a value or the syntax
        i = draw(st.integers(0, len(text) - 1))
        units = text[i].encode("utf-16-be")  # a non-BMP character is two escapes
        text = text[:i] + "".join(f"\\u{units[j]:02x}{units[j + 1]:02x}"
                                  for j in range(0, len(units), 2)) + text[i + 1:]
    elif mutation == "fifth":
        text = f'{text[:-1]},"{draw(st.sampled_from(["x", "valuE", ""]))}":0}}'
    elif mutation == "long_time":
        text = text.replace(f'"timestamp":{fields["timestamp"]},',
                            f'"timestamp":{draw(st.integers(10**20, 10**21 - 1))},')
    return text.encode()


def _read_outcome(read, payload: bytes):
    try:
        result = read(payload)
    except Exception as exc:
        return type(exc), str(exc)
    return [(type(item), repr(item)) for item in result]


def _check_read(payload: bytes) -> None:
    """read_reading(payload) returns what the reference returns, the metric
    as the METRICS constant, or raises the same exception type and message."""
    outcome = _read_outcome(read_reading, payload)
    assert outcome == _read_outcome(lambda data: reading_fields(canonical_loads(data)), payload)
    if isinstance(outcome, list):
        metric = read_reading(payload)[1]
        assert metric is METRICS[METRICS.index(metric)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(payload=_reading_payloads())
def test_read_reading_is_reading_fields_of_canonical_loads(payload):
    _check_read(payload)


@pytest.mark.parametrize("value, matched", [
    ("-0.000", True), ("20.500", True), ("9" * 99, True), ("-" + "9" * 99 + ".5", True),
    ("0" * 99, True), ("0." + "0" * 400 + "1", True),
    ("+1", False), ("1E+2", False), (".5", False), ("5.", False), ("-.5", False),
    ("9" * 100, False), ("1" + "0" * 99, False), ("0" * 100 + "1", False),
    ("0" * 120 + "7.25", False), ("1E+100", False), ("NaN", False), (" 1", False),
])
def test_read_reading_takes_the_template_only_for_a_plain_literal(value, matched):
    """Both sides of the strict value pattern: a plain literal of at most 99
    integer digits matches it; any other form, an exponent or sign, 100 or
    more integer digits (leading zeros too), falls back to the reference
    reader, which admits some and refuses others, as read_reading does."""
    payload = reading_payload(reading_head("s-0", "temperature_c"), 0, value)
    assert (private_chain._TEMPLATE_MATCH(payload.decode()) is not None) is matched
    _check_read(payload)


@pytest.mark.parametrize("sensor_id", ["s\ud800", "\udfff", "a\ud83db"])
def test_reading_payload_refuses_a_lone_surrogate_as_canonical_json_does(sensor_id):
    with pytest.raises(UnicodeEncodeError):
        reading_payload(reading_head(sensor_id, "temperature_c"), 0, "20.5")
    with pytest.raises(UnicodeEncodeError):
        reference_payload(Reading(sensor_id, "temperature_c", "20.5", 0))


def test_generated_transactions_are_those_of_their_readings():
    """generate_readings writes each payload from its sensor's template; the
    transactions equal those the reference writer builds from the readings
    they carry, and each payload is canonical JSON, spikes and sampled
    values alike."""
    sensors = (SensorSpec("s-t", "temperature_c", 600, "-5", "35"),
               SensorSpec('s "h"\u2028\U0001f600', "humidity_pct", 900, "20", "90"),
               SensorSpec("s-r", "rain_pct", 3600, "0", "100"))
    field = FieldConfig("fieldA", "tomato", sensors, "0.5", seed=9)
    txs = generate_readings(field, 86_400, 2 * 86_400)
    assert txs == [reading_transaction("fieldA", reading) for reading in tx_readings(txs)]
    assert all(tx.payload == canonical_json(canonical_loads(tx.payload)) for tx in txs)
    assert [(tx.author_id, tx.timestamp) for tx in txs] == [
        (s.sensor_id, t) for s in sensors for t in range(86_400, 2 * 86_400, s.interval)]
    values = [canonical_loads(tx.payload)["value"] for tx in txs]
    spikes = {"600", "1000"}  # ten times max_valid, for the default ranges
    assert 0.4 < sum(value in spikes for value in values) / len(values) < 0.6


def test_reading_validation():
    node = _node()
    with pytest.raises(InvalidTransaction, match="unknown metric 'pressure'"):
        node.submit(reading_tx("fieldA", 0, metric="pressure"))
    with pytest.raises(InvalidTransaction, match="value 'not-a-number' is not a decimal"):
        node.submit(reading_tx("fieldA", 0, value="not-a-number"))
    assert node.mempool == []


_steps = st.lists(st.tuples(
    st.sampled_from(["reading", "reading", "reading", "update", "append", "bad-payload",
                     "commit", "commit", "reload"]),
    st.sampled_from(["s-0", "s-1", "rogue"]),
    st.integers(0, 40),
), max_size=30)
_windows = st.lists(st.tuples(st.integers(0, 45), st.integers(1, 20)), min_size=1, max_size=3)
# the readings' values run from 20.5 to 29.5: each range excludes some
_HELD_RANGES = (ValidityRange("temperature_c", "21", "27"), ValidityRange("humidity_pct", "0", "25"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(steps=_steps, windows=_windows)
def test_held_readings_equal_ledger_readings(tmp_path_factory, steps, windows):
    """Across valid and rejected submits, commits (conflicting ones too) and
    nodes built over a saved and reloaded ledger, the node's fold and time
    span equal those of a parse of the ledger under the node's ranges. At
    the end, rollover takes a window exactly when a linear scan finds every
    reading inside it, and then publishes the stats of that scan, which a
    node built over the archived ledger folds to as well."""
    authors = {"s-0", "s-1", "op-a"}
    node = PrivateNode("fieldA", authors, ranges=_HELD_RANGES)
    path = tmp_path_factory.mktemp("held") / "fieldA.tcgw"

    for n, (action, sensor, ts) in enumerate(steps):
        if action == "reading":
            node.clock = max(node.clock, ts)
            tx = reading_transaction("fieldA", make_reading(ts, sensor=sensor, timestamp=ts,
                                                            metric=METRICS[n % 4]))
            try:
                node.submit(tx)
            except UnauthorizedAuthor:
                assert sensor == "rogue"
            except DuplicateTransaction:  # same reading as an earlier step
                pass
        elif action in ("update", "append"):
            # an update then an append is a PathTypeConflict at commit
            op = ContextOp(TxKind.UPDATE_FIELD if action == "update" else TxKind.APPEND_TO_ARRAY,
                           "doc", ("k",), n)
            node.submit(make_transaction("fieldA", node.clock, op.op, op_payload(op), "op-a"))
        elif action == "bad-payload":
            with pytest.raises(InvalidTransaction):
                node.submit(make_transaction("fieldA", ts, TxKind.RAW_READING,
                                             b'{"value":"1"}', "s-0"))
        elif action == "commit":
            before = (head(node.ledger), copy.deepcopy(_held(node)))
            try:
                node.commit_batch()
            except PathTypeConflict:
                assert (head(node.ledger), _held(node)) == before
                # the conflicting op blocks the mempool: restart over the ledger
                node = PrivateNode("fieldA", authors, clock=node.clock, ledger=node.ledger,
                                   ranges=_HELD_RANGES)
        else:
            while node.mempool:
                try:
                    node.commit_batch()
                except PathTypeConflict:
                    break
            save_ledger(node.ledger, path)
            node = PrivateNode("fieldA", authors, clock=node.clock,
                               ledger=load_ledger(path), ranges=_HELD_RANGES)

        assert _held(node) == _derived(node.ledger, _HELD_RANGES)
        assert state_digest(node.state) == state_digest(replay(node.ledger))

    node = PrivateNode("fieldA", authors, clock=node.clock, ledger=node.ledger,
                       ranges=_HELD_RANGES)  # no mempool
    readings = ledger_readings(node.ledger, 0, 1 << 64)
    for start, length in [(0, 41), *windows]:
        inside = ledger_readings(node.ledger, start, start + length)
        if len(inside) < len(readings):
            with pytest.raises(InvalidWindow):
                _rollover(node, start, start + length)
            continue
        summary, _, _ = _rollover(node, start, start + length)
        kept, excluded = filter_out_of_scale(inside, _HELD_RANGES)
        assert (summary.stats, summary.excluded_count) == (tuple(summarize(kept)), len(excluded))
        archived = PrivateNode("fieldA", authors, ledger=node.ledger, ranges=_HELD_RANGES)
        assert archived.fold.result() == (summary.stats, summary.excluded_count)
