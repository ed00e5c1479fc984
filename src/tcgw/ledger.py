"""Append-only hash-linked ledger with tamper-evident verification.

Shared by the private (per-field) and public (anchor) chains. Values are
immutable: appending produces a new Ledger, so readers can hold snapshots
while a single logical writer advances the chain.

Wire format (also the unit of size accounting):

    transaction := tx_id(32) body
    body        := str(channel_id) u64(timestamp) u8(kind)
                   bytes(payload) str(author_id)
    block       := u64(height) previous_hash(32) u64(timestamp)
                   tx_root(32) u32(tx_count) transaction* block_hash(32)
    file        := "TCGW" 0x01 block*

where str/bytes are u32 big-endian length prefixed and u64/u32 are
big-endian. Writer and reader share one struct per fixed-width run of
fields: ``_BLOCK_HEAD`` (height to tx_count), ``_TX_HEAD`` (tx_id, channel_id
length) and ``_TS_KIND_LEN`` (timestamp, kind, payload length).
``tx_id = sha256(body)``, ``block_hash = sha256(u64(height) previous_hash
u64(timestamp) tx_root)``, and ``tx_root`` is the binary Merkle root over the
ordered tx_ids: parents are ``sha256(left || right)``, an odd level duplicates
its last node, a single leaf is its own root, and the empty list hashes to
``sha256(b"")``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator, Sequence

from .canon import canonical_loads, sha256
from .errors import (ClockSkew, EmptyBatch, InvalidArgument, LedgerFormatError,
                     UnsupportedValue)

DIGEST_SIZE = 32
ZERO_HASH = bytes(DIGEST_SIZE)
EMPTY_TX_ROOT = sha256(b"")

LEDGER_MAGIC = b"TCGW"
LEDGER_VERSION = 1


class TxKind(Enum):
    """Transaction kinds; the value is the 1-byte wire code."""

    UPDATE_FIELD = 1
    APPEND_TO_ARRAY = 2
    RAW_READING = 3
    ANCHOR = 4

    @property
    def label(self) -> str:
        """CamelCase name used inside JSON payloads and dumps."""
        return _KIND_LABELS[self]


_KIND_LABELS = {
    TxKind.UPDATE_FIELD: "UpdateField",
    TxKind.APPEND_TO_ARRAY: "AppendToArray",
    TxKind.RAW_READING: "RawReading",
    TxKind.ANCHOR: "Anchor",
}
KIND_BY_LABEL = {label: kind for kind, label in _KIND_LABELS.items()}


@dataclass(frozen=True, slots=True)
class Transaction:
    tx_id: bytes
    channel_id: str
    timestamp: int
    kind: TxKind
    payload: bytes
    author_id: str


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    previous_hash: bytes
    timestamp: int
    tx_root: bytes
    transactions: tuple[Transaction, ...]
    block_hash: bytes


@dataclass(frozen=True)
class Ledger:
    chain_id: str
    blocks: tuple[Block, ...]
    genesis_anchor: bytes | None = None


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_BLOCK_HEAD = struct.Struct(">Q32sQ32sI")  # height, previous_hash, timestamp, tx_root, tx_count
_TX_HEAD = struct.Struct(">32sI")  # tx_id, channel_id length
_TS_KIND_LEN = struct.Struct(">QBI")  # timestamp, kind code, payload length
_BLOCK_FIXED_SIZE = _BLOCK_HEAD.size + DIGEST_SIZE
_TX_FIXED_SIZE = _TX_HEAD.size + _TS_KIND_LEN.size + _U32.size


def transaction_body(channel_id: str, timestamp: int, kind: TxKind,
                     payload: bytes, author_id: str) -> bytes:
    """Canonical preimage of tx_id (the serialized transaction minus the id)."""
    channel = channel_id.encode("utf-8")
    author = author_id.encode("utf-8")
    return b"".join((_U32.pack(len(channel)), channel,
                     _TS_KIND_LEN.pack(timestamp, kind.value, len(payload)), payload,
                     _U32.pack(len(author)), author))


def make_transaction(channel_id: str, timestamp: int, kind: TxKind,
                     payload: bytes, author_id: str) -> Transaction:
    """Build a transaction with its tx_id computed from the other fields."""
    if timestamp < 0:
        raise InvalidArgument("timestamp must be a non-negative unix second")
    body = transaction_body(channel_id, timestamp, kind, payload, author_id)
    return Transaction(sha256(body), channel_id, timestamp, kind, payload, author_id)


def transaction_valid(tx: Transaction) -> bool:
    """True iff tx_id is the SHA-256 of the transaction body. The payload
    is not parsed here: PrivateNode.submit and verify_chain parse it."""
    body = transaction_body(tx.channel_id, tx.timestamp, tx.kind, tx.payload, tx.author_id)
    return sha256(body) == tx.tx_id


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """Binary Merkle root; see the module docstring for the conventions."""
    if not leaves:
        return EMPTY_TX_ROOT
    level = list(leaves)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [sha256(level[i] + level[i + 1]) for i in range(0, len(level), 2)]
    return level[0]


def _block_header(height: int, previous_hash: bytes, timestamp: int, tx_root: bytes) -> bytes:
    return _U64.pack(height) + previous_hash + _U64.pack(timestamp) + tx_root


def make_block(height: int, previous_hash: bytes, timestamp: int,
               transactions: Sequence[Transaction]) -> Block:
    txs = tuple(transactions)
    tx_root = merkle_root([tx.tx_id for tx in txs])
    block_hash = sha256(_block_header(height, previous_hash, timestamp, tx_root))
    return Block(height, previous_hash, timestamp, tx_root, txs, block_hash)


def serialize_transaction(tx: Transaction) -> bytes:
    return tx.tx_id + transaction_body(tx.channel_id, tx.timestamp, tx.kind,
                                       tx.payload, tx.author_id)


def serialize_block(block: Block) -> bytes:
    out = [_BLOCK_HEAD.pack(block.height, block.previous_hash, block.timestamp,
                            block.tx_root, len(block.transactions))]
    out.extend(serialize_transaction(tx) for tx in block.transactions)
    out.append(block.block_hash)
    return b"".join(out)


_KIND_BY_CODE = {kind.value: kind for kind in TxKind}


def _take(data: bytes, offset: int, n: int) -> tuple[bytes, int]:
    left = len(data) - offset
    if n > left:
        raise LedgerFormatError(f"truncated at byte {offset}: need {n} bytes, {left} left")
    return data[offset:offset + n], offset + n


def _string_slowly(data: bytes, offset: int) -> tuple[str, int]:
    raw, end = _take(data, offset + 4, _U32.unpack(_take(data, offset, 4)[0])[0])
    try:
        return raw.decode("utf-8"), end
    except UnicodeDecodeError as exc:
        raise LedgerFormatError(f"string at byte {offset + 4} is not valid UTF-8") from exc


def _transaction_slowly(data: bytes, offset: int) -> tuple[Transaction, int]:
    """Walk one transaction field by field, raising the exact error."""
    tx_id, offset = _take(data, offset, DIGEST_SIZE)
    channel_id, offset = _string_slowly(data, offset)
    timestamp, code, size = _TS_KIND_LEN.unpack(_take(data, offset, _TS_KIND_LEN.size)[0])
    if code not in _KIND_BY_CODE:
        raise LedgerFormatError(f"unknown transaction kind code {code} at byte {offset + 8}")
    payload, offset = _take(data, offset + _TS_KIND_LEN.size, size)
    author_id, offset = _string_slowly(data, offset)
    return Transaction(tx_id, channel_id, timestamp, _KIND_BY_CODE[code], payload, author_id), offset


class _Names(dict):
    """Raw UTF-8 bytes -> str, decoding each distinct string once."""

    def __missing__(self, raw: bytes) -> str:
        name = self[raw] = raw.decode("utf-8")
        return name


def _decode_blocks(data: bytes, offset: int) -> Iterator[Block]:
    """Decode every block from `offset` on in one flat pass. A record that does
    not fit or decode is walked again field by field for its exact error."""
    end, names, kinds = len(data), _Names(), _KIND_BY_CODE
    tx_head, ts_kind_len, u32 = _TX_HEAD.unpack_from, _TS_KIND_LEN.unpack_from, _U32.unpack_from
    head_size, fixed_size = _TX_HEAD.size, _TS_KIND_LEN.size
    while offset < end:
        if end - offset < _BLOCK_HEAD.size:
            for size in (8, DIGEST_SIZE, 8, DIGEST_SIZE, 4):
                _, offset = _take(data, offset, size)
        height, previous_hash, timestamp, tx_root, count = _BLOCK_HEAD.unpack_from(data, offset)
        offset += _BLOCK_HEAD.size
        txs = []
        for _ in range(count):
            start = offset
            try:  # unpack_from raises past the end; a long slice moves the next read there
                tx_id, n = tx_head(data, offset)
                offset += head_size + n
                channel_id = names[data[offset - n:offset]]
                tx_timestamp, code, size = ts_kind_len(data, offset)
                offset += fixed_size + size
                payload = data[offset - size:offset]
                (n,) = u32(data, offset)
                offset += 4 + n
                tx = Transaction(tx_id, channel_id, tx_timestamp, kinds[code], payload,
                                 names[data[offset - n:offset]])
            except (struct.error, KeyError, UnicodeDecodeError):
                offset = end + 1
            if offset > end:  # also an author_id cut short
                tx, offset = _transaction_slowly(data, start)
            txs.append(tx)
        block_hash, offset = _take(data, offset, DIGEST_SIZE)
        yield Block(height, previous_hash, timestamp, tx_root, tuple(txs), block_hash)


def genesis(chain_id: str, genesis_anchor: bytes | None = None) -> Ledger:
    """One-block ledger: height 0, all-zero previous hash, no transactions."""
    if not chain_id:
        raise InvalidArgument("chain_id must be non-empty")
    if genesis_anchor is not None and len(genesis_anchor) != DIGEST_SIZE:
        raise InvalidArgument("genesis_anchor must be a 32-byte digest")
    block = make_block(0, ZERO_HASH, 0, ())
    return Ledger(chain_id, (block,), genesis_anchor)


def head(ledger: Ledger) -> tuple[int, bytes]:
    """(height, block_hash) of the last block."""
    last = ledger.blocks[-1]
    return last.height, last.block_hash


def append_block(ledger: Ledger, txs: Sequence[Transaction], timestamp: int) -> tuple[Ledger, Block]:
    """Append one block holding `txs`; returns the grown ledger and the block.

    Callers pass transactions they built or admitted (PrivateNode.submit);
    ledgers read from disk are checked by verify_chain. The batch must be
    non-empty and the timestamp must not run backwards.
    """
    if not txs:
        raise EmptyBatch("cannot append a block with no transactions")
    last = ledger.blocks[-1]
    if timestamp < last.timestamp:
        raise ClockSkew(f"timestamp {timestamp} precedes head timestamp {last.timestamp}")
    block = make_block(last.height + 1, last.block_hash, timestamp, txs)
    return Ledger(ledger.chain_id, ledger.blocks + (block,), ledger.genesis_anchor), block


class ChainFault(Enum):
    HASH_LINK = "HashLink"
    TX_ROOT = "TxRoot"
    TX_ID = "TxId"
    HEIGHT_GAP = "HeightGap"


@dataclass(frozen=True)
class VerificationReport:
    first_bad_height: int | None = None
    reason: ChainFault | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None


def verify_chain(ledger: Ledger,
                 visit: Callable[..., None] | None = None) -> VerificationReport:
    """Re-derive every hash and link; report the lowest offending height.

    Per block, checks run in this order: height continuity, previous-hash
    link, per-transaction ids (transaction_valid) and payload parseability
    (canonical_loads; a payload that does not parse is also a TX_ID fault),
    Merkle root, own block hash. A single flipped byte anywhere in the data
    surfaces at the mutated block or the one after it.

    `visit(height, index, tx, value)` is called in chain order with the
    parsed payload of each transaction that passes its own checks, so a
    caller can audit contents in the same walk. A block's transactions are
    visited before its Merkle root and hash are checked; none past a bad block.
    """
    prev_hash = ZERO_HASH
    for index, block in enumerate(ledger.blocks):
        if block.height != index:
            return VerificationReport(index, ChainFault.HEIGHT_GAP)
        if block.previous_hash != prev_hash:
            return VerificationReport(index, ChainFault.HASH_LINK)
        for i, tx in enumerate(block.transactions):
            if not transaction_valid(tx):
                return VerificationReport(index, ChainFault.TX_ID)
            try:
                value = canonical_loads(tx.payload)
            except (ValueError, UnsupportedValue):
                return VerificationReport(index, ChainFault.TX_ID)
            if visit is not None:
                visit(index, i, tx, value)
        if merkle_root([tx.tx_id for tx in block.transactions]) != block.tx_root:
            return VerificationReport(index, ChainFault.TX_ROOT)
        if sha256(_block_header(block.height, block.previous_hash,
                                block.timestamp, block.tx_root)) != block.block_hash:
            return VerificationReport(index, ChainFault.HASH_LINK)
        prev_hash = block.block_hash
    return VerificationReport()


def ledger_size_bytes(ledger: Ledger) -> int:
    """Total serialized size of all blocks (the persisted payload), without
    serializing: a block's fixed fields plus, per transaction, its fixed
    fields and the lengths of its two strings (as UTF-8) and its payload."""
    total = _BLOCK_FIXED_SIZE * len(ledger.blocks)
    for block in ledger.blocks:
        for tx in block.transactions:
            total += (_TX_FIXED_SIZE + len(tx.channel_id.encode("utf-8"))
                      + len(tx.payload) + len(tx.author_id.encode("utf-8")))
    return total


def iter_transactions(ledger: Ledger) -> Iterator[tuple[int, int, Transaction]]:
    """Yield (height, index_in_block, transaction) in chain order."""
    for block in ledger.blocks:
        for i, tx in enumerate(block.transactions):
            yield block.height, i, tx


def save_ledger(ledger: Ledger, path: str | Path) -> Path:
    """Write magic, version byte, then blocks back-to-back."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(LEDGER_MAGIC)
        fh.write(bytes([LEDGER_VERSION]))
        for block in ledger.blocks:
            fh.write(serialize_block(block))
    return path


def load_ledger(path: str | Path, chain_id: str | None = None) -> Ledger:
    """Read a ledger file back.

    The file carries only blocks; chain_id defaults to the file stem and
    the genesis anchor, which is not persisted, is None.
    """
    path = Path(path)
    data = path.read_bytes()
    if _take(data, 0, 4)[0] != LEDGER_MAGIC:
        raise LedgerFormatError(f"{path}: bad magic at byte 0, not a ledger file")
    version = _take(data, 4, 1)[0][0]
    if version != LEDGER_VERSION:
        raise LedgerFormatError(f"{path}: unsupported ledger version {version} at byte 4")
    blocks = tuple(_decode_blocks(data, 5))
    if not blocks:
        raise LedgerFormatError(f"{path}: no blocks")
    return Ledger(chain_id or path.stem, blocks)
