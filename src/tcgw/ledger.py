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
big-endian. ``tx_id = sha256(body)`` and
``block_hash = sha256(u64(height) previous_hash u64(timestamp) tx_root)``.
``tx_root`` is the binary Merkle root over the ordered tx_ids: parents are
``sha256(left || right)``, an odd level duplicates its last node, a single
leaf is its own root, and the empty list hashes to ``sha256(b"")``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator, Sequence

from .canon import canonical_loads, sha256
from .errors import ClockSkew, EmptyBatch, InvalidArgument, LedgerFormatError

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


@dataclass(frozen=True)
class Transaction:
    tx_id: bytes
    channel_id: str
    timestamp: int
    kind: TxKind
    payload: bytes
    author_id: str


@dataclass(frozen=True)
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


def _encode_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack(">I", len(raw)) + raw


def _encode_bytes(b: bytes) -> bytes:
    return struct.pack(">I", len(b)) + b


def transaction_body(channel_id: str, timestamp: int, kind: TxKind,
                     payload: bytes, author_id: str) -> bytes:
    """Canonical preimage of tx_id (the serialized transaction minus the id)."""
    return (
        _encode_str(channel_id)
        + struct.pack(">Q", timestamp)
        + struct.pack(">B", kind.value)
        + _encode_bytes(payload)
        + _encode_str(author_id)
    )


def make_transaction(channel_id: str, timestamp: int, kind: TxKind,
                     payload: bytes, author_id: str) -> Transaction:
    """Build a transaction with its tx_id computed from the other fields."""
    if timestamp < 0:
        raise InvalidArgument("timestamp must be a non-negative unix second")
    body = transaction_body(channel_id, timestamp, kind, payload, author_id)
    return Transaction(sha256(body), channel_id, timestamp, kind, payload, author_id)


def transaction_valid(tx: Transaction) -> bool:
    """True iff tx_id matches its preimage and the payload parses canonically."""
    body = transaction_body(tx.channel_id, tx.timestamp, tx.kind, tx.payload, tx.author_id)
    if sha256(body) != tx.tx_id:
        return False
    try:
        canonical_loads(tx.payload)
    except Exception:
        return False
    return True


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
    return struct.pack(">Q", height) + previous_hash + struct.pack(">Q", timestamp) + tx_root


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
    out = [
        struct.pack(">Q", block.height),
        block.previous_hash,
        struct.pack(">Q", block.timestamp),
        block.tx_root,
        struct.pack(">I", len(block.transactions)),
    ]
    out.extend(serialize_transaction(tx) for tx in block.transactions)
    out.append(block.block_hash)
    return b"".join(out)


class _Reader:
    """Cursor over serialized bytes; raises LedgerFormatError on truncation
    and on strings that are not valid UTF-8."""

    def __init__(self, data: bytes, offset: int = 0):
        self.data = data
        self.offset = offset

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise LedgerFormatError("truncated ledger data")
        chunk = self.data[self.offset:self.offset + n]
        self.offset += n
        return chunk

    def u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def u8(self) -> int:
        return self.take(1)[0]

    def string(self) -> str:
        raw = self.take(self.u32())
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LedgerFormatError(
                f"string at byte {self.offset - len(raw)} is not valid UTF-8") from exc

    def blob(self) -> bytes:
        return self.take(self.u32())

    @property
    def exhausted(self) -> bool:
        return self.offset >= len(self.data)


def _read_transaction(r: _Reader) -> Transaction:
    tx_id = r.take(DIGEST_SIZE)
    channel_id = r.string()
    timestamp = r.u64()
    code = r.u8()
    try:
        kind = TxKind(code)
    except ValueError as exc:
        raise LedgerFormatError(f"unknown transaction kind code {code}") from exc
    payload = r.blob()
    author_id = r.string()
    return Transaction(tx_id, channel_id, timestamp, kind, payload, author_id)


def _read_block(r: _Reader) -> Block:
    height = r.u64()
    previous_hash = r.take(DIGEST_SIZE)
    timestamp = r.u64()
    tx_root = r.take(DIGEST_SIZE)
    count = r.u32()
    txs = tuple(_read_transaction(r) for _ in range(count))
    block_hash = r.take(DIGEST_SIZE)
    return Block(height, previous_hash, timestamp, tx_root, txs, block_hash)


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
    ok: bool
    first_bad_height: int | None = None
    reason: ChainFault | None = None


def verify_chain(ledger: Ledger) -> VerificationReport:
    """Re-derive every hash and link; report the lowest offending height.

    Per block, checks run in this order: height continuity, previous-hash
    link, per-transaction ids and payload parseability, Merkle root, own
    block hash. A single flipped byte anywhere in the data surfaces at the
    mutated block or the one after it.
    """

    def bad(height: int, reason: ChainFault) -> VerificationReport:
        return VerificationReport(False, height, reason)

    prev: Block | None = None
    for index, block in enumerate(ledger.blocks):
        if block.height != index:
            return bad(index, ChainFault.HEIGHT_GAP)
        expected_prev = ZERO_HASH if prev is None else prev.block_hash
        if block.previous_hash != expected_prev:
            return bad(index, ChainFault.HASH_LINK)
        for tx in block.transactions:
            if not transaction_valid(tx):
                return bad(index, ChainFault.TX_ID)
        if merkle_root([tx.tx_id for tx in block.transactions]) != block.tx_root:
            return bad(index, ChainFault.TX_ROOT)
        if sha256(_block_header(block.height, block.previous_hash,
                                block.timestamp, block.tx_root)) != block.block_hash:
            return bad(index, ChainFault.HASH_LINK)
        prev = block
    return VerificationReport(True)


def ledger_size_bytes(ledger: Ledger) -> int:
    """Total canonical serialized size of all blocks (the persisted payload)."""
    return sum(len(serialize_block(b)) for b in ledger.blocks)


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


def load_ledger(path: str | Path, chain_id: str | None = None,
                genesis_anchor: bytes | None = None) -> Ledger:
    """Read a ledger file back.

    The file carries only blocks; chain_id defaults to the file stem and
    genesis_anchor is not persisted (pass it explicitly when known).
    """
    path = Path(path)
    data = path.read_bytes()
    r = _Reader(data)
    if r.take(4) != LEDGER_MAGIC:
        raise LedgerFormatError(f"{path}: bad magic, not a ledger file")
    version = r.u8()
    if version != LEDGER_VERSION:
        raise LedgerFormatError(f"{path}: unsupported ledger version {version}")
    blocks = []
    while not r.exhausted:
        blocks.append(_read_block(r))
    if not blocks:
        raise LedgerFormatError(f"{path}: no blocks")
    return Ledger(chain_id or path.stem, tuple(blocks), genesis_anchor)
