"""Private node: authorization, batching, reset, window queries."""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings, strategies as st

from tcgw import (
    ContextOp,
    PrivateNode,
    PublicChain,
    PublicClient,
    TxKind,
    head,
    iter_transactions,
    ledger_readings,
    load_ledger,
    make_transaction,
    op_payload,
    reading_transaction,
    replay,
    rollover_epoch,
    save_ledger,
    state_digest,
    verify_chain,
)
from tcgw.canon import canonical_json
from tcgw.errors import (
    DuplicateTransaction,
    InvalidTransaction,
    InvalidWindow,
    NonEmptyMempool,
    PathTypeConflict,
    UnauthorizedAuthor,
    WrongChannel,
)

from helpers import make_reading, node_with_readings, reading_tx


def _node(channel="fieldA", authors=("s-0",), **kwargs) -> PrivateNode:
    return PrivateNode(channel, set(authors), **kwargs)


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


_READING = {"metric": "temperature_c", "sensor_id": "s-0", "timestamp": 0, "value": "20.5"}


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
], ids=["unknown-metric", "list-value", "number-value", "array-payload", "string-payload",
        "empty-op", "number-doc-id", "other-sensor", "other-timestamp", "op-kind-mismatch",
        "bool-timestamp"])
def test_submit_rejects_payload_later_stages_cannot_read(kind, payload):
    node = _node(authors=("s-0",))
    tx = make_transaction("fieldA", 0, kind, canonical_json(payload), "s-0")
    with pytest.raises(InvalidTransaction):
        node.submit(tx)
    assert node.mempool == []
    # the channel stays usable: a good reading still commits and reads back
    node.submit(reading_tx("fieldA", 0))
    node.commit_batch()
    assert [r.value for r in node.readings_in_window(0, 10)] == ["20.5"]


@pytest.mark.parametrize("kind, payload", [
    (TxKind.RAW_READING,
     b'{"metric":"temperature_c","sensor_id":"s-0","timestamp":0,"value":20.5}'),
    (TxKind.ANCHOR, b'{"summary_digest":"00","weight":1.5}'),
    (TxKind.ANCHOR, b"{not json"),
    (TxKind.RAW_READING, b"[" * 100_000),
], ids=["reading-fraction", "anchor-fraction", "anchor-not-json", "too-deep"])
def test_submit_rejects_payload_that_is_not_canonical_json(kind, payload):
    node = _node(authors=("s-0",))
    tx = make_transaction("fieldA", 0, kind, payload, "s-0")
    with pytest.raises(InvalidTransaction) as info:
        node.submit(tx)
    assert node.mempool == []
    assert "payload" in str(info.value)
    assert "tx_id" not in str(info.value)


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
    summary, _, _ = rollover_epoch(node, (), 0, 10, PublicClient(pub, "gw-fieldA"))
    assert summary.state_digest == state_digest(replay(node.ledger))


def test_commit_batches_fifo_100_100_50():
    node = _node(batch_size=100)
    for i in range(250):
        node.clock = i
        node.submit(reading_tx("fieldA", i))
    sizes = []
    while node.mempool:
        sizes.append(len(node.commit_batch().transactions))
    assert sizes == [100, 100, 50]
    first_block_ids = [tx.timestamp for tx in node.ledger.blocks[1].transactions]
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
    node = _node(authors=("s-0", "op-a"))
    op = ContextOp(TxKind.UPDATE_FIELD, "d", ("k",), 1)
    node.submit(make_transaction("fieldA", 0, op.op, op_payload(op), "op-a"))
    node.submit(reading_tx("fieldA", 0))
    node.commit_batch()
    node.submit(reading_tx("fieldA", 1))  # still pending

    def view(n: PrivateNode) -> tuple:
        return (n.ledger, n.state, list(n.mempool), n.clock,
                n.readings_in_window(0, 1 << 64), n.raw_reading_count())

    before = view(node)
    twin = copy.copy(node)
    assert view(twin) == before
    twin.submit(reading_tx("fieldA", 2))
    twin.clock = 2
    twin.commit_batch()
    assert twin.raw_reading_count() == 3
    assert view(node) == before
    assert node.submit(reading_tx("fieldA", 2))  # the twin's ids are its own
    with pytest.raises(DuplicateTransaction):
        twin.submit(reading_tx("fieldA", 2))
    node.commit_batch()
    assert node.readings_in_window(0, 1 << 64) == twin.readings_in_window(0, 1 << 64)
    assert state_digest(node.state) == state_digest(replay(node.ledger))


def test_reset_with_anchor_starts_fresh():
    node = node_with_readings(n=30)
    anchor = bytes(range(32))
    archived = node.ledger
    fresh = node.reset_with_anchor(anchor)
    assert len(fresh.ledger.blocks) == 1
    assert fresh.ledger.genesis_anchor == anchor
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
        node.reset_with_anchor(bytes(32))


def test_readings_window_is_half_open():
    node = _node()
    for ts in (100, 200):
        node.clock = ts
        node.submit(reading_tx("fieldA", ts, timestamp=ts))
    node.commit_batch()
    got = node.readings_in_window(100, 200)
    assert [r.timestamp for r in got] == [100]


def test_readings_window_rejects_inverted():
    with pytest.raises(InvalidWindow):
        _node().readings_in_window(10, 10)


def test_readings_window_empty_ledger():
    assert _node().readings_in_window(0, 100) == []


def test_readings_window_matches_linear_scan():
    node = node_with_readings(n=120, spacing=7)
    start, end = 100, 500
    got = node.readings_in_window(start, end)
    expected = [tx for _, _, tx in iter_transactions(node.ledger)
                if tx.kind is TxKind.RAW_READING and start <= tx.timestamp < end]
    assert len(got) == len(expected)
    assert [r.timestamp for r in got] == [tx.timestamp for tx in expected]


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
                         ledger=load_ledger(path, chain_id="fieldA"))
    assert loaded.channel_id == "fieldA"
    assert loaded.ledger.blocks == node.ledger.blocks
    assert state_digest(loaded.state) == state_digest(node.state)
    # duplicate detection survives the reload
    dup = node.ledger.blocks[1].transactions[0]
    with pytest.raises(DuplicateTransaction):
        loaded.submit(dup)


def test_reading_validation():
    with pytest.raises(Exception):
        make_reading(0, metric="pressure")
    with pytest.raises(Exception):
        make_reading(0, value="not-a-number")


_steps = st.lists(st.tuples(
    st.sampled_from(["reading", "reading", "reading", "update", "append", "bad-payload",
                     "commit", "commit", "reload"]),
    st.sampled_from(["s-0", "s-1", "rogue"]),
    st.integers(0, 40),
), max_size=30)
_windows = st.lists(st.tuples(st.integers(0, 45), st.integers(1, 20)), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(steps=_steps, windows=_windows)
def test_held_readings_equal_ledger_readings(tmp_path_factory, steps, windows):
    """Across valid and rejected submits, commits (conflicting ones too) and
    nodes built over a saved and reloaded ledger, the held readings equal a
    parse of the ledger and every window equals a linear scan of it."""
    authors = {"s-0", "s-1", "op-a"}
    node = PrivateNode("fieldA", authors)
    path = tmp_path_factory.mktemp("held") / "fieldA.tcgw"

    for n, (action, sensor, ts) in enumerate(steps):
        if action == "reading":
            node.clock = max(node.clock, ts)
            tx = reading_transaction("fieldA", make_reading(ts, sensor=sensor, timestamp=ts))
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
            before = (head(node.ledger), node.readings_in_window(0, 1 << 64))
            try:
                node.commit_batch()
            except PathTypeConflict:
                assert (head(node.ledger), node.readings_in_window(0, 1 << 64)) == before
                # the conflicting op blocks the mempool: restart over the ledger
                node = PrivateNode("fieldA", authors, clock=node.clock, ledger=node.ledger)
        else:
            while node.mempool:
                try:
                    node.commit_batch()
                except PathTypeConflict:
                    break
            save_ledger(node.ledger, path)
            node = PrivateNode("fieldA", authors, clock=node.clock,
                               ledger=load_ledger(path, chain_id="fieldA"))

        held = node.readings_in_window(0, 1 << 64)
        assert held == ledger_readings(node.ledger, 0, 1 << 64)
        assert node.raw_reading_count() == len(held)
        for start, length in windows:
            assert (node.readings_in_window(start, start + length)
                    == ledger_readings(node.ledger, start, start + length))
        assert state_digest(node.state) == state_digest(replay(node.ledger))
