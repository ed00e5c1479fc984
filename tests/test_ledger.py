"""Ledger core: linking, verification, Merkle oracle, serialization, sizes."""

from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from tcgw import (
    PrivateNode,
    TxKind,
    append_block,
    genesis,
    head,
    ledger_size_bytes,
    verify_chain,
)
from tcgw.canon import sha256
from tcgw.errors import (
    ClockSkew,
    EmptyBatch,
    InvalidArgument,
    InvalidTransaction,
    LedgerFormatError,
    UnsupportedValue,
)
from tcgw import ledger as ledger_module
from tcgw.ledger import (ZERO_HASH, ChainFault, Ledger, VerificationReport, iter_transactions,
                         ledger_blocks, load_ledger, make_block, make_transaction, merkle_root,
                         read_blocks, read_payloads, save_ledger, serialize_block, verify_blocks)

from helpers import build_ledger, flip_byte, reading_tx, tamper_ledger


def test_genesis_shape():
    ledger = genesis()
    assert len(ledger) == 1
    assert head(ledger)[0] == 0
    assert ledger[0].previous_hash == ZERO_HASH
    assert ledger[0].transactions == ()
    assert ledger[0].tx_root == sha256(b"")


def test_genesis_links_to_the_digest_it_is_given():
    """Block 0's previous_hash is its caller's link, hashed into its
    block_hash; verify_blocks takes it as given and checks every later link."""
    link = sha256(b"the previous epoch's anchor")
    ledger = genesis(link)
    assert ledger[0].previous_hash == link and ledger[0] != genesis()[0]
    grown, _ = append_block(ledger, [reading_tx("fieldA", 0)], 0)
    assert verify_chain(grown).ok
    forged = (dataclasses.replace(grown[0], previous_hash=ZERO_HASH),) + grown[1:]
    assert verify_chain(forged) == VerificationReport(0, ChainFault.HASH_LINK)


@pytest.mark.parametrize("link", [bytes(31), bytes(33), "00" * 32, bytearray(32)],
                         ids=["31-bytes", "33-bytes", "hex-str", "bytearray"])
def test_genesis_refuses_a_link_that_is_not_a_digest(link):
    with pytest.raises(InvalidArgument, match="is not a 32-byte digest"):
        genesis(link)


def test_append_links_to_previous_hash():
    ledger = genesis()
    grown, block = append_block(ledger, [reading_tx("fieldA", 0)], 0)
    assert block.height == 1
    assert block.previous_hash == ledger[0].block_hash
    assert len(grown) == 2
    assert len(ledger) == 1  # input untouched


def test_hundred_appends_verify():
    ledger = build_ledger(n_txs=100, per_block=1)
    assert len(ledger) == 101
    assert verify_chain(ledger).ok


def test_append_rejects_empty_batch():
    with pytest.raises(EmptyBatch):
        append_block(genesis(), [], 0)


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
    ledger, _ = append_block(genesis(), [reading_tx("fieldA", 0, timestamp=50)], 50)
    with pytest.raises(ClockSkew):
        append_block(ledger, [reading_tx("fieldA", 1, timestamp=10)], 10)


def test_head_reporting_and_purity():
    ledger = genesis()
    assert head(ledger) == (0, ledger[0].block_hash)
    grown, block = append_block(ledger, [reading_tx("fieldA", 0)], 0)
    assert head(grown) == (1, block.block_hash)
    assert head(grown) == head(grown)


def _reference_merkle(leaves: list[bytes]) -> bytes:
    """Independent oracle, top down: n > 1 leaves sit under a root of
    height h, the least with 16**h >= n, whose children are the subtrees
    over consecutive runs of 16**(h - 1) leaves, the last run possibly
    shorter; a node is sha256(0x01 || its children's roots)."""
    if not leaves:
        return sha256(b"")
    if len(leaves) == 1:
        return leaves[0]
    height = 1
    while 16 ** height < len(leaves):
        height += 1
    return _reference_node(leaves, height)


def _reference_node(leaves: list[bytes], height: int) -> bytes:
    if height == 0:
        (leaf,) = leaves
        return leaf
    size = 16 ** (height - 1)
    return sha256(b"\x01" + b"".join(_reference_node(leaves[i:i + size], height - 1)
                                     for i in range(0, len(leaves), size)))


def test_merkle_matches_reference_for_0_to_300_leaves():
    """One, two and three levels, each with full and ragged last runs."""
    rng = random.Random(17)
    leaves = [sha256(rng.randbytes(8)) for _ in range(300)]
    for k in range(301):
        assert merkle_root(leaves[:k]) == _reference_merkle(leaves[:k]), f"k={k}"


def test_merkle_root_hashes_once_per_inner_node(monkeypatch):
    """Work counter: merkle_root makes one ledger.sha256 call per inner
    node, each over 0x01 and at most 16 child digests (513 bytes)."""
    preimages: list[bytes] = []
    monkeypatch.setattr(ledger_module, "sha256", lambda data: preimages.append(data) or sha256(data))
    leaves = [sha256(bytes([i % 256, i // 256])) for i in range(257)]
    calls = {}
    for n in (0, 1, 2, 16, 17, 100, 256, 257):
        preimages.clear()
        merkle_root(leaves[:n])
        calls[n] = len(preimages)
        assert all(data[:1] == b"\x01" and len(data) <= 513 for data in preimages)
    assert calls == {0: 0, 1: 0, 2: 1, 16: 1, 17: 3, 100: 8, 256: 17, 257: 20}


def test_verify_untampered_50_block_ledger():
    assert verify_chain(build_ledger(n_txs=50)).ok


def test_verify_genesis_only():
    assert verify_chain(genesis()).ok


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
    assert [serialize_block(x) for x in a] == [serialize_block(y) for y in b]
    assert head(a) == head(b)


def test_size_positive_and_monotone():
    ledger = genesis()
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
    assert loaded == ledger
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(contents=block_contents)
def test_save_load_preserves_arbitrary_blocks(tmp_path_factory, contents):
    ledger = tuple(_linked_blocks(contents))
    path = save_ledger(ledger, tmp_path_factory.mktemp("wire") / "ledger.tcgw")
    assert load_ledger(path) == ledger
    assert path.stat().st_size == 5 + sum(len(serialize_block(b)) for b in ledger)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(contents=block_contents)
def test_size_counts_the_serialized_bytes(contents):
    ledger = tuple(_linked_blocks(contents))
    assert ledger_size_bytes(ledger) == sum(len(serialize_block(b)) for b in ledger)


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


FEW_CHANNEL, FEW_AUTHOR = "feld-ü", "sënsor-Ω"  # 7 and 10 bytes of UTF-8


def _few_ledger() -> Ledger:
    """Genesis and two blocks of two transactions each, non-ASCII names."""
    ledger = genesis()
    for height in (1, 2):
        txs = [make_transaction(FEW_CHANNEL, 10 * height + i, TxKind.RAW_READING,
                                b'{"i":%d}' % i, FEW_AUTHOR) for i in range(2)]
        ledger, _ = append_block(ledger, txs, 10 * height + 1)
    return ledger


FEW_BYTES = b"TCGW\x01" + b"".join(serialize_block(b) for b in _few_ledger())
C, P, A = 7, 7, 10  # channel_id, payload and author_id lengths
TX_SIZE = 32 + 4 + C + 13 + P + 4 + A
# (field, its first byte, start and size of the read that covers it), relative
# to the record. The reader takes timestamp, kind and payload length in one read.
BLOCK_FIELDS = [("height", 0, 0, 8), ("previous_hash", 8, 8, 32),
                ("timestamp", 40, 40, 8), ("tx_root", 48, 48, 32),
                ("tx_count", 80, 80, 4), ("block_hash", 84 + 2 * TX_SIZE, 84 + 2 * TX_SIZE, 32)]
TX_FIELDS = [("tx_id", 0, 0, 32), ("channel_id length", 32, 32, 4),
             ("channel_id", 36, 36, C), ("timestamp", 36 + C, 36 + C, 13),
             ("kind", 44 + C, 36 + C, 13), ("payload length", 45 + C, 36 + C, 13),
             ("payload", 49 + C, 49 + C, P), ("author_id length", 49 + C + P, 49 + C + P, 4),
             ("author_id", 53 + C + P, 53 + C + P, A)]


def _load_error(tmp_path, data: bytes) -> str:
    path = tmp_path / "few.tcgw"
    path.write_bytes(data)
    with pytest.raises(LedgerFormatError) as info:
        load_ledger(path)
    return str(info.value)


def test_load_error_table(tmp_path):
    assert FEW_BYTES == save_ledger(_few_ledger(), tmp_path / "few.tcgw").read_bytes()
    path = tmp_path / "few.tcgw"
    cases = [(b"", "truncated at byte 0: need 4 bytes, 0 left"),
             (b"TCG", "truncated at byte 0: need 4 bytes, 3 left"),
             (b"TCGW", "truncated at byte 4: need 1 bytes, 0 left"),
             (b"TCGW\x01", f"{path}: no blocks"),
             (b"TCGX\x01" + FEW_BYTES[5:], f"{path}: bad magic at byte 0, not a ledger file"),
             (b"TCGW\x07" + FEW_BYTES[5:], f"{path}: unsupported ledger version 7 at byte 4")]
    block_size = 84 + 2 * TX_SIZE + 32
    for block in (5 + 116, 5 + 116 + block_size):  # blocks 1 and 2, after genesis
        fields = [(block + at, block + start, size) for _, at, start, size in BLOCK_FIELDS]
        for tx in (block + 84, block + 84 + TX_SIZE):
            fields += [(tx + at, tx + start, size) for _, at, start, size in TX_FIELDS]
        for at, start, size in fields:
            # cut right before the field and one byte into it; a cut before
            # a block's height leaves a whole ledger, so it has no error
            for cut in (at, at + 1) if at != block else (at + 1,):
                cases.append((FEW_BYTES[:cut],
                              f"truncated at byte {start}: need {size} bytes, {cut - start} left"))
    tx = 5 + 116 + 84 + TX_SIZE  # block 1, tx 1
    author_at = tx + 53 + C + P
    cases.append((flip_byte(FEW_BYTES, author_at, 0xFF),
                   f"string at byte {author_at} is not valid UTF-8"))
    channel_at = tx + 36
    cases.append((flip_byte(FEW_BYTES, channel_at + 5, 0x40),  # breaks the two bytes of "ü"
                   f"string at byte {channel_at} is not valid UTF-8"))
    kind_at = tx + 44 + C
    assert FEW_BYTES[kind_at] == TxKind.RAW_READING.value
    cases.append((FEW_BYTES[:kind_at] + b"\x00" + FEW_BYTES[kind_at + 1:],
                  f"unknown transaction kind code 0 at byte {kind_at}"))
    assert len(cases) == 6 + 2 * (2 * (len(BLOCK_FIELDS) + 2 * len(TX_FIELDS)) - 1) + 3
    wrong = [(len(data), expected, got) for data, expected in cases
             if (got := _load_error(tmp_path, data)) != expected]
    assert wrong == []


def _flip(data: bytes, at_and_mask: tuple[int, int]) -> bytes:
    at, mask = at_and_mask
    return data[:at] + bytes([data[at] ^ mask]) + data[at + 1:]


malformed_ledgers = st.one_of(
    st.binary(max_size=300).map(lambda tail: b"TCGW\x01" + tail),
    st.integers(0, len(FEW_BYTES)).map(lambda n: FEW_BYTES[:n]),
    st.tuples(st.integers(0, len(FEW_BYTES) - 1), st.integers(1, 255)).map(
        lambda flip: _flip(FEW_BYTES, flip)),
    st.tuples(st.integers(0, len(FEW_BYTES)), st.binary(max_size=60)).map(
        lambda cut: FEW_BYTES[:cut[0]] + cut[1]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=malformed_ledgers)
def test_load_ledger_raises_only_ledger_format_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("malformed") / "x.tcgw"
    path.write_bytes(data)
    try:
        ledger = load_ledger(path)
    except LedgerFormatError:
        return
    assert isinstance(ledger, tuple) and ledger


def test_read_payloads_reads_in_order_before_each_bad_index_and_lowers_it():
    ledger = build_ledger(n_txs=20, per_block=3)  # blocks 1-6 hold 3 txs, block 7 holds 2
    seen: list = []

    def read(height, index, tx):
        seen.append((height, index, tx))

    assert list(read_payloads(ledger_blocks(ledger), read)) == list(ledger_blocks(ledger))
    assert seen == list(iter_transactions(ledger))
    # A read that raises as canonical_loads does on a payload that does not
    # parse lowers its block's bad index to it; the block's later txs are not read.
    for error in (ValueError("broken JSON"), UnsupportedValue("fractional literal")):
        def refuse(height, index, tx, error=error):
            seen.append((height, index, tx))
            if (height, index) == (4, 1):
                raise error

        seen.clear()
        assert [bad for _, bad in read_payloads(ledger_blocks(ledger), refuse)] == [
            -1, -1, -1, -1, 1, -1, -1, -1]
        assert seen == [t for t in iter_transactions(ledger) if t[:2] != (4, 2)]
        assert str(verify_blocks(read_payloads(ledger_blocks(ledger), refuse))) == "TxId at block 4"
    # A block's txs from its bad index on are not read.
    tampered = tamper_ledger(ledger, height=3, target="tx_id", tx_index=1)
    seen.clear()
    assert [bad for _, bad in read_payloads(ledger_blocks(tampered), read)][3] == 1
    assert seen == [t for t in iter_transactions(tampered) if t[:2] not in {(3, 1), (3, 2)}]


def test_verify_blocks_takes_no_block_past_the_first_bad_one():
    ledger = build_ledger(n_txs=20, per_block=3)
    for target in ("previous_hash", "payload", "tx_root", "block_hash"):
        tampered = tamper_ledger(ledger, height=3, target=target, tx_index=1, byte_index=2)
        taken: list = []

        def stream():
            for block, bad in ledger_blocks(tampered):
                taken.append(block.height)
                yield block, bad

        report = verify_blocks(stream())
        assert (report.ok, report.first_bad_height, taken) == (False, 3, [0, 1, 2, 3])


def test_verify_flags_a_height_gap_with_every_hash_rederived(tmp_path):
    """Heights 0, 1, 3, each block linked to the one before and hashed:
    only the height check can catch the gap, in memory and on read-back."""
    first = genesis()[0]
    one = make_block(1, first.block_hash, 1, [reading_tx("fieldA", 1)])
    three = make_block(3, one.block_hash, 3, [reading_tx("fieldA", 3)])
    ledger = (first, one, three)
    assert str(verify_chain(ledger)) == "HeightGap at block 2"
    path = save_ledger(ledger, tmp_path / "gap.tcgw")
    assert str(verify_blocks(read_blocks(path))) == "HeightGap at block 2"
    heights: list = []
    list(read_payloads(read_blocks(path), lambda height, index, tx: heights.append(height)))
    assert heights == [1, 2]  # a read is given the block's place in the stream


@pytest.mark.parametrize("n_txs, repeated", [(3, 1), (6, 2), (5, 1)],
                         ids=["last-of-3", "last-2-of-6", "last-of-5"])
def test_verify_flags_a_block_that_repeats_its_last_transactions(n_txs, repeated):
    """A block with its tail repeated (the CVE-2012-2459 pattern of a tree
    that duplicates an odd level's last node) fails TxRoot: the 16-ary root
    binds the id list, so under the old header the root differs, and with
    tx_root and the later block hashes re-derived the repeated ids are
    refused."""
    ledger = build_ledger(n_txs=n_txs, per_block=n_txs)
    ledger, _ = append_block(ledger, [reading_tx("fieldA", n_txs)], n_txs)
    block = ledger[1]
    forged_txs = block.transactions + block.transactions[-repeated:]
    assert merkle_root([tx.tx_id for tx in forged_txs]) != block.tx_root
    kept = (ledger[0], dataclasses.replace(block, transactions=forged_txs), ledger[2])
    rooted = make_block(1, ledger[0].block_hash, block.timestamp, forged_txs)
    rederived = (ledger[0], rooted,
                 make_block(2, rooted.block_hash, ledger[2].timestamp, ledger[2].transactions))
    for forged in (kept, rederived):
        report = verify_chain(forged)
        assert (report.ok, report.first_bad_height, report.reason) == (False, 1, ChainFault.TX_ROOT)


def test_verify_flags_a_block_whose_timestamp_runs_backwards():
    """append_block refuses a timestamp below the head's (ClockSkew), so
    verify_chain refuses a chain that holds one, at the block that runs
    back, even with every hash re-derived. An equal timestamp is fine."""
    ledger = build_ledger(n_txs=5)  # block k holds reading k - 1 at time k - 1

    def retimed(timestamp: int) -> Ledger:
        blocks = list(ledger[:3])
        for block in ledger[3:]:
            blocks.append(make_block(block.height, blocks[-1].block_hash,
                                     timestamp if block.height == 3 else block.timestamp,
                                     block.transactions))
        return tuple(blocks)

    report = verify_chain(retimed(0))
    assert (report.ok, report.first_bad_height, report.reason) == (False, 3, ChainFault.CLOCK_SKEW)
    assert str(report) == "ClockSkew at block 3"
    assert verify_chain(retimed(1)).ok


def _reference_body(channel_id, timestamp, kind, payload, author_id) -> bytes:
    """The wire body written field by field, as the module docstring spells it."""
    def string(text):
        raw = text.encode("utf-8")
        return len(raw).to_bytes(4, "big") + raw
    return (string(channel_id) + timestamp.to_bytes(8, "big") + bytes([kind.value])
            + len(payload).to_bytes(4, "big") + payload + string(author_id))


@pytest.mark.parametrize("channel_id, author_id", [
    ("fieldA", "s-0"), ("", ""), ("été", "中\U0001f600 "),
    ("c" * 70_000, "a\x00b" * 1_000),
], ids=["ascii", "empty", "non-ascii", "long"])
def test_transaction_body_is_its_fields_framed_one_by_one(channel_id, author_id):
    """transaction_body takes each name's frame from a cache; first build and
    cached build alike equal the field-by-field encoding, as does the tx_id."""
    for timestamp, kind, payload in [(0, TxKind.RAW_READING, b""),
                                     (2**64 - 1, TxKind.ANCHOR, b'{"tick":1}' * 50)]:
        expected = _reference_body(channel_id, timestamp, kind, payload, author_id)
        for _ in range(2):
            assert ledger_module.transaction_body(channel_id, timestamp, kind, payload,
                                                  author_id) == expected
        tx = make_transaction(channel_id, timestamp, kind, payload, author_id)
        assert tx.tx_id == sha256(expected)


def test_name_frame_cache_stays_within_its_bound():
    frame = ledger_module._name_frame
    bound = frame.cache_info().maxsize
    assert bound is not None
    for i in range(bound + 100):
        ledger_module.transaction_body(f"c{i}", i, TxKind.RAW_READING, b"{}", f"a{i}")
    assert frame.cache_info().currsize <= bound
    # a name UTF-8 cannot encode still raises on every build: errors are not cached
    for _ in range(2):
        with pytest.raises(UnicodeEncodeError):
            ledger_module.transaction_body("c", 0, TxKind.RAW_READING, b"{}", "s\ud800")
