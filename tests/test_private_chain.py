"""Private node: authorization, batching, reset, window queries."""

from __future__ import annotations

import random

import pytest

from tcgw import (
    ContextOp,
    PrivateNode,
    TxKind,
    head,
    iter_transactions,
    make_transaction,
    op_payload,
    replay,
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
], ids=["unknown-metric", "list-value", "number-value", "array-payload", "string-payload",
        "empty-op", "number-doc-id"])
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


def test_reset_with_anchor_starts_fresh():
    node = node_with_readings(n=30)
    anchor = bytes(range(32))
    archived = node.ledger
    fresh = node.reset_with_anchor(anchor)
    assert len(fresh.ledger.blocks) == 1
    assert fresh.ledger.genesis_anchor == anchor
    assert fresh.state.docs == {}
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
    path = node.save(tmp_path)
    assert path.name == "fieldA.tcgw"
    loaded = PrivateNode.load(path, node.authorized_authors, clock=node.clock)
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
