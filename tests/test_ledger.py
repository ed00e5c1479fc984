"""Ledger core: linking, verification, Merkle oracle, serialization, sizes."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from tcgw import (
    ChainFault,
    Ledger,
    PrivateNode,
    TxKind,
    append_block,
    genesis,
    head,
    ledger_size_bytes,
    load_ledger,
    merkle_root,
    save_ledger,
    serialize_block,
    verify_chain,
)
from tcgw.canon import sha256
from tcgw.errors import (
    ClockSkew,
    EmptyBatch,
    InvalidArgument,
    InvalidTransaction,
    LedgerFormatError,
)
from tcgw.ledger import ZERO_HASH, make_block, make_transaction

from helpers import build_ledger, flip_byte, reading_tx, tamper_ledger


def test_genesis_shape():
    ledger = genesis("fieldA")
    assert len(ledger.blocks) == 1
    assert head(ledger)[0] == 0
    assert ledger.blocks[0].previous_hash == ZERO_HASH
    assert ledger.blocks[0].transactions == ()
    assert ledger.blocks[0].tx_root == sha256(b"")


def test_genesis_anchor_passthrough():
    anchor = bytes(range(32))
    assert genesis("fieldA", anchor).genesis_anchor == anchor


def test_genesis_rejects_empty_chain_id():
    with pytest.raises(InvalidArgument):
        genesis("")


def test_append_links_to_previous_hash():
    ledger = genesis("fieldA")
    grown, block = append_block(ledger, [reading_tx("fieldA", 0)], 0)
    assert block.height == 1
    assert block.previous_hash == ledger.blocks[0].block_hash
    assert len(grown.blocks) == 2
    assert len(ledger.blocks) == 1  # input untouched


def test_hundred_appends_verify():
    ledger = build_ledger(n_txs=100, per_block=1)
    assert len(ledger.blocks) == 101
    assert verify_chain(ledger).ok


def test_append_rejects_empty_batch():
    with pytest.raises(EmptyBatch):
        append_block(genesis("fieldA"), [], 0)


def test_submit_rejects_bad_tx_id():
    tx = reading_tx("fieldA", 0)
    bad = dataclasses.replace(tx, payload=flip_byte(tx.payload, 3))
    node = PrivateNode("fieldA", {"s-0"})
    node.submit(reading_tx("fieldA", 1))
    with pytest.raises(InvalidTransaction) as info:
        node.submit(bad)
    assert info.value.index == 1
    assert node.mempool == [reading_tx("fieldA", 1)]
    node.commit_batch()
    assert node.submit(tx)  # the rejected id was not recorded as seen


def test_append_rejects_clock_regression():
    ledger, _ = append_block(genesis("fieldA"), [reading_tx("fieldA", 0, timestamp=50)], 50)
    with pytest.raises(ClockSkew):
        append_block(ledger, [reading_tx("fieldA", 1, timestamp=10)], 10)


def test_head_reporting_and_purity():
    ledger = genesis("fieldA")
    assert head(ledger) == (0, ledger.blocks[0].block_hash)
    grown, block = append_block(ledger, [reading_tx("fieldA", 0)], 0)
    assert head(grown) == (1, block.block_hash)
    assert head(grown) == head(grown)


def _reference_merkle(leaves: list[bytes]) -> bytes:
    """Independent recursive implementation used as the oracle."""
    if not leaves:
        return sha256(b"")
    if len(leaves) == 1:
        return leaves[0]
    if len(leaves) % 2 == 1:
        leaves = leaves + [leaves[-1]]
    parents = [sha256(leaves[i] + leaves[i + 1]) for i in range(0, len(leaves), 2)]
    return _reference_merkle(parents)


def test_merkle_matches_reference_for_1_to_16_leaves():
    rng = random.Random(17)
    for k in range(1, 17):
        leaves = [sha256(rng.randbytes(8)) for _ in range(k)]
        assert merkle_root(leaves) == _reference_merkle(leaves), f"k={k}"
    assert merkle_root([]) == sha256(b"")


def test_verify_untampered_50_block_ledger():
    assert verify_chain(build_ledger(n_txs=50)).ok


def test_verify_genesis_only():
    assert verify_chain(genesis("fieldA")).ok


def test_verify_flags_payload_flip_at_its_block():
    ledger = build_ledger(n_txs=50)
    report = verify_chain(tamper_ledger(ledger, height=7, target="payload", byte_index=4))
    assert not report.ok
    assert report.first_bad_height == 7
    assert report.reason in (ChainFault.TX_ID, ChainFault.TX_ROOT)
    # append_block links what it is given; a forged transaction shows up on read-back.
    tx = reading_tx("fieldA", 50)
    forged = dataclasses.replace(tx, payload=flip_byte(tx.payload, 4))
    ledger, _ = append_block(ledger, [reading_tx("fieldA", 51), forged], 51)
    ledger, _ = append_block(ledger, [reading_tx("fieldA", 52)], 52)
    report = verify_chain(ledger)
    assert (report.ok, report.first_bad_height, report.reason) == (False, 51, ChainFault.TX_ID)


def test_verify_flags_unparseable_payload_with_a_correct_tx_id():
    ledger = build_ledger(n_txs=3)
    not_json = make_transaction("fieldA", 3, TxKind.RAW_READING, b"not json", "s-0")
    ledger, _ = append_block(ledger, [reading_tx("fieldA", 3), not_json], 3)
    ledger, _ = append_block(ledger, [reading_tx("fieldA", 4)], 4)
    report = verify_chain(ledger)
    assert (report.ok, report.first_bad_height, report.reason) == (False, 4, ChainFault.TX_ID)


@pytest.mark.parametrize("target,expected", [
    ("tx_id", ChainFault.TX_ID),
    ("tx_root", ChainFault.TX_ROOT),
    ("previous_hash", ChainFault.HASH_LINK),
    ("block_hash", ChainFault.HASH_LINK),
])
def test_verify_flags_each_field_mutation(target, expected):
    ledger = build_ledger(n_txs=20)
    report = verify_chain(tamper_ledger(ledger, height=5, target=target, byte_index=2))
    assert not report.ok
    assert report.reason is expected
    assert abs(report.first_bad_height - 5) <= 1


def test_determinism_identical_builds_identical_bytes():
    a = build_ledger(n_txs=30, per_block=10)
    b = build_ledger(n_txs=30, per_block=10)
    assert [serialize_block(x) for x in a.blocks] == [serialize_block(y) for y in b.blocks]
    assert head(a) == head(b)


def test_size_positive_and_monotone():
    ledger = genesis("fieldA")
    size = ledger_size_bytes(ledger)
    assert size > 0
    for i in range(5):
        ledger, _ = append_block(ledger, [reading_tx("fieldA", i)], i)
        grown = ledger_size_bytes(ledger)
        assert grown > size
        size = grown


def test_size_scales_roughly_linearly():
    small = ledger_size_bytes(build_ledger(n_txs=1000, per_block=100))
    large = ledger_size_bytes(build_ledger(n_txs=10000, per_block=100))
    assert 8.5 <= large / small <= 11.5


def test_save_load_roundtrip(tmp_path):
    ledger = build_ledger(n_txs=25, per_block=5)
    path = save_ledger(ledger, tmp_path / "fieldA.tcgw")
    assert path.read_bytes()[:5] == b"TCGW\x01"
    loaded = load_ledger(path)
    assert loaded.chain_id == "fieldA"
    assert loaded.blocks == ledger.blocks
    assert verify_chain(loaded).ok
    assert ledger_size_bytes(loaded) == ledger_size_bytes(ledger)


U64 = st.integers(min_value=0, max_value=2**64 - 1)
transactions = st.builds(make_transaction, st.text(), U64, st.sampled_from(TxKind),
                         st.binary(), st.text())
block_contents = st.lists(st.tuples(U64, st.lists(transactions, max_size=4)),
                          min_size=1, max_size=5)


def _linked_blocks(contents) -> list:
    blocks, previous = [], ZERO_HASH
    for height, (timestamp, txs) in enumerate(contents):
        blocks.append(make_block(height, previous, timestamp, txs))
        previous = blocks[-1].block_hash
    return blocks


@settings(max_examples=60, deadline=None)
@given(chain_id=st.text(min_size=1), contents=block_contents)
def test_save_load_preserves_arbitrary_blocks(tmp_path_factory, chain_id, contents):
    blocks = _linked_blocks(contents)
    ledger = Ledger(chain_id, tuple(blocks))
    path = save_ledger(ledger, tmp_path_factory.mktemp("wire") / "ledger.tcgw")
    assert load_ledger(path, chain_id=chain_id) == ledger
    assert path.stat().st_size == 5 + sum(len(serialize_block(b)) for b in blocks)


@settings(max_examples=60, deadline=None)
@given(contents=block_contents)
def test_size_counts_the_serialized_bytes(contents):
    ledger = Ledger("fieldA", tuple(_linked_blocks(contents)))
    assert ledger_size_bytes(ledger) == sum(len(serialize_block(b)) for b in ledger.blocks)


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.tcgw"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(LedgerFormatError, match="bad magic at byte 0"):
        load_ledger(path)


def test_load_rejects_unsupported_version(tmp_path):
    path = save_ledger(build_ledger(n_txs=2), tmp_path / "fieldA.tcgw")
    data = path.read_bytes()
    path.write_bytes(data[:4] + b"\x02" + data[5:])
    with pytest.raises(LedgerFormatError, match="unsupported ledger version 2 at byte 4"):
        load_ledger(path)


def test_load_rejects_truncation(tmp_path):
    ledger = build_ledger(n_txs=5)
    path = save_ledger(ledger, tmp_path / "fieldA.tcgw")
    data = path.read_bytes()
    path.write_bytes(data[:-7])
    # the last block hash starts 32 bytes before the end; 25 of them are left
    with pytest.raises(LedgerFormatError,
                       match=f"truncated at byte {len(data) - 32}: need 32 bytes, 25 left"):
        load_ledger(path)


def test_load_rejects_unknown_kind_code_at_its_byte(tmp_path):
    path = save_ledger(build_ledger(n_txs=2), tmp_path / "fieldA.tcgw")
    data = path.read_bytes()
    # file header 5, genesis block 116, block 1 header 84, tx_id 32,
    # channel_id length 4 and "fieldA" 6, timestamp 8: the kind code
    code_at = 5 + 116 + 84 + 32 + 4 + len("fieldA") + 8
    assert data[code_at] == TxKind.RAW_READING.value
    path.write_bytes(data[:code_at] + b"\x09" + data[code_at + 1:])
    with pytest.raises(LedgerFormatError,
                       match=f"unknown transaction kind code 9 at byte {code_at}"):
        load_ledger(path)
