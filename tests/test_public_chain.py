"""Public chain: anchors, confirmation depth, rotation, save and load, traces."""

from __future__ import annotations

import random

import pytest

from tcgw import (
    AnchorRecord,
    Document,
    EpochSummary,
    TxKind,
    MetricStats,
    PublicChain,
    head,
    save_ledger,
    summary_digest,
    verify_chain,
)
from tcgw.canon import canonical_json, canonical_loads
from tcgw.errors import DuplicateEpoch, InvalidChain, UnknownGateway

from helpers import tamper_ledger
from test_gateway import _relink


def _summary(channel: str, epoch: int) -> EpochSummary:
    stats = (MetricStats("temperature_c", 3, "20.0", "8.16", "10", "30"),)
    return EpochSummary(channel, epoch, epoch * 100, (epoch + 1) * 100,
                        stats, 1, bytes(32), 2, bytes(32))


def _chain(gateways=("gw-a", "gw-b"), validators=3, confirmations=2) -> PublicChain:
    return PublicChain([f"val-{i}" for i in range(validators)], gateways,
                       confirmations_required=confirmations)


def test_submit_anchor_enters_pending():
    chain = _chain()
    record = chain.submit_anchor(_summary("fieldA", 0), "gw-a")
    assert record.included_height is None and not chain.is_confirmed(record)
    assert len(chain.pending) == 1
    assert record.summary_digest == summary_digest(_summary("fieldA", 0))


def test_submit_anchor_rejects_duplicate_epoch():
    chain = _chain()
    chain.submit_anchor(_summary("fieldA", 0), "gw-a")
    with pytest.raises(DuplicateEpoch):
        chain.submit_anchor(_summary("fieldA", 0), "gw-b")
    chain.produce_block()
    with pytest.raises(DuplicateEpoch):
        chain.submit_anchor(_summary("fieldA", 0), "gw-a")


def test_submit_anchor_rejects_unknown_gateway():
    with pytest.raises(UnknownGateway):
        _chain().submit_anchor(_summary("fieldA", 0), "nobody")


def test_confirmation_after_required_plus_one_blocks():
    chain = _chain(confirmations=2)
    record = chain.submit_anchor(_summary("fieldA", 0), "gw-a")
    chain.produce_block()          # inclusion
    assert not chain.is_confirmed(record)
    chain.tick()
    assert not chain.is_confirmed(record)
    chain.tick()                   # confirmations_required + 1 blocks total
    assert chain.is_confirmed(record)
    assert record.included_height == 1


def test_produce_block_empty_pending_is_absent():
    chain = _chain()
    before = head(chain.ledger)
    assert chain.produce_block() is None
    assert head(chain.ledger) == before


def test_validator_rotation_is_round_robin():
    chain = _chain(validators=3)
    for epoch in range(7):
        chain.submit_anchor(_summary("fieldA", epoch), "gw-a")
        chain.produce_block()
    expected = [f"val-{(h - 1) % 3}" for h in range(1, 8)]
    assert chain.producers == expected


def test_next_epoch_index_counts_pending_and_included():
    chain = _chain()
    assert chain.next_epoch_index("fieldA") == 0
    chain.submit_anchor(_summary("fieldA", 0), "gw-a")
    assert chain.next_epoch_index("fieldA") == 1
    chain.produce_block()
    assert chain.next_epoch_index("fieldA") == 1
    assert chain.next_epoch_index("other") == 0


def _confirmed_chain(epochs=3) -> PublicChain:
    chain = _chain()
    for epoch in range(epochs):
        chain.submit_anchor(_summary("fieldA", epoch), "gw-a")
        chain.produce_block()
    for _ in range(chain.confirmations_required):
        chain.tick()
    return chain


def test_query_channel_returns_confirmed_in_epoch_order():
    chain = _confirmed_chain(3)
    records = chain.query_channel("fieldA")
    assert [r.epoch_index for r in records] == [0, 1, 2]
    assert chain.query_channel("unknown") == []


def test_query_channel_hides_unconfirmed():
    chain = _chain()
    chain.submit_anchor(_summary("fieldA", 0), "gw-a")
    chain.produce_block()
    assert chain.query_channel("fieldA") == []


def test_at_most_one_confirmed_anchor_per_epoch():
    chain = _confirmed_chain(4)
    seen = set()
    for record in chain.query_channel("fieldA"):
        key = (record.channel_id, record.epoch_index)
        assert key not in seen
        seen.add(key)


def _assert_reloads_equal(chain: PublicChain, path) -> PublicChain:
    loaded = PublicChain.load(chain.save(path))
    assert loaded.ledger == chain.ledger and loaded.registry == chain.registry
    assert (loaded.clock, loaded._tick_seq) == (chain.clock, chain._tick_seq)
    return loaded


def test_save_load_equals_the_live_chain_after_every_block(tmp_path):
    rng = random.Random(21)
    chain = _chain()
    epochs = {"fieldA": 0, "fieldB": 0}
    for step in range(30):
        chain.clock += rng.randrange(3)
        channel = rng.choice(["fieldA", "fieldB"])
        gateway = "gw-a" if channel == "fieldA" else "gw-b"
        chain.submit_anchor(_summary(channel, epochs[channel]), gateway)
        epochs[channel] += 1
        if rng.random() < 0.7:
            chain.produce_block()
        else:
            chain.tick()
        _assert_reloads_equal(chain, tmp_path / "public.tcgw")
    assert verify_chain(chain.ledger).ok


def test_reloaded_chain_ticks_like_the_live_chain(tmp_path):
    chain = _confirmed_chain(2)
    chain.clock = 500
    chain.tick()
    loaded = _assert_reloads_equal(chain, tmp_path / "public.tcgw")
    assert loaded.tick() == chain.tick()
    assert loaded.ledger == chain.ledger


def _forge(chain: PublicChain, ledger, tmp_path, gateways=None):
    """Save `chain` with `ledger` in place of its own, and optionally other gateways."""
    path = chain.save(tmp_path / "public.tcgw")
    save_ledger(ledger, path)
    if gateways is not None:
        meta = canonical_loads((tmp_path / "public.tcgw.meta.json").read_bytes())
        meta["gateways"] = gateways
        (tmp_path / "public.tcgw.meta.json").write_bytes(canonical_json(meta))
    return path


def test_load_names_the_block_that_fails_verification(tmp_path):
    chain = _confirmed_chain(3)
    path = _forge(chain, tamper_ledger(chain.ledger, height=2, target="payload", byte_index=9),
                  tmp_path)
    with pytest.raises(InvalidChain, match=r"^TxId at block 2$"):
        PublicChain.load(path)


def test_load_applies_the_admission_rule(tmp_path):
    chain = _confirmed_chain(2)
    path = _forge(chain, chain.ledger, tmp_path, gateways=["gw-b", "gw-x"])
    with pytest.raises(InvalidChain, match=r"^anchor at block 1 tx 0: unknown gateway 'gw-a'$"):
        PublicChain.load(path)


@pytest.mark.parametrize("key, value, reason", [
    ("epoch_index", 0, r"already included"),
    ("epoch_index", True, r"epoch_index must be int"),
    ("channel_id", "fieldB", r"disagrees with its transaction"),
    ("submitted_by", "gw-b", r"disagrees with its transaction"),
])
def test_load_rejects_a_relinked_anchor_the_chain_could_not_write(tmp_path, key, value,
                                                                  reason):
    chain = _confirmed_chain(2)
    payload = canonical_loads(chain.ledger.blocks[2].transactions[0].payload)
    payload[key] = value
    if key == "epoch_index" and value == 0:
        payload["summary"]["epoch_index"] = 0
    forged = _relink(chain.ledger, 2, 0, TxKind.ANCHOR, canonical_json(payload))
    with pytest.raises(InvalidChain, match=rf"^anchor at block 2 tx 0: .*({reason})"):
        PublicChain.load(_forge(chain, forged, tmp_path))


@pytest.mark.parametrize("kind, payload", [
    (TxKind.ANCHOR, b'{"tick":2}'),     # block 3 holds the first heartbeat, tick 1
    (TxKind.ANCHOR, b'{"tick":true}'),
    (TxKind.RAW_READING, b'{"tick":1}'),
])
def test_load_accepts_only_the_heartbeats_tick_writes(tmp_path, kind, payload):
    chain = _confirmed_chain(2)
    forged = _relink(chain.ledger, 3, 0, kind, payload)
    with pytest.raises(InvalidChain, match=r"^heartbeat at block 3 tx 0: not tick 1$"):
        PublicChain.load(_forge(chain, forged, tmp_path))


def test_interleaved_submissions_keep_chain_verifiable():
    rng = random.Random(8)
    chain = _chain()
    for epoch in range(10):
        for channel, gateway in rng.sample([("fieldA", "gw-a"), ("fieldB", "gw-b")], 2):
            chain.submit_anchor(_summary(channel, epoch), gateway)
            if rng.random() < 0.5:
                chain.produce_block()
    chain.produce_block()
    assert verify_chain(chain.ledger).ok


def test_trace_product_contains_stats():
    chain = _confirmed_chain(1)
    trace = chain.trace_product("fieldA")
    assert len(trace["summaries"]) == 1
    metrics = [s["metric"] for s in trace["summaries"][0]["stats"]]
    assert "temperature_c" in metrics
    assert "cultural_operations_count" not in trace


def test_trace_product_empty_chain():
    trace = _chain().trace_product("fieldA")
    assert trace == {"channel_id": "fieldA", "summaries": []}


def test_trace_product_reports_cultural_operation_count():
    doc = Document("fieldA", {"Cultural Operations": [1, 2, 3, 4], "Plant density": "4.5"})
    trace = _chain().trace_product("fieldA", doc)
    assert trace["cultural_operations_count"] == 4
    assert trace["current_values"]["Plant density"] == "4.5"


def test_save_load_roundtrip(tmp_path):
    chain = _confirmed_chain(2)
    path = chain.save(tmp_path / "public.tcgw")
    loaded = PublicChain.load(path)
    assert loaded.validators == chain.validators
    assert loaded.gateways == chain.gateways
    assert loaded.confirmations_required == chain.confirmations_required
    assert loaded.ledger.blocks == chain.ledger.blocks
    assert loaded.registry == chain.registry
    assert loaded.producers == chain.producers
    assert [r.epoch_index for r in loaded.query_channel("fieldA")] == [0, 1]


def test_loaded_records_are_anchor_records(tmp_path):
    chain = _confirmed_chain(1)
    loaded = PublicChain.load(chain.save(tmp_path / "public.tcgw"))
    record = loaded.find_anchor("fieldA", 0)
    assert isinstance(record, AnchorRecord)
    assert loaded.is_confirmed(record)
    assert record.summary == _summary("fieldA", 0)
