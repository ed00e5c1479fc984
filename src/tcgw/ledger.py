"""Append-only hash-linked ledger with tamper-evident verification.

Shared by the private (per-field) and public (anchor) chains. A Ledger is
the tuple of its blocks, all that its file holds: appending makes a new
tuple, so readers can hold snapshots while a single writer advances it.

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
u64(timestamp) tx_root)``, and ``tx_root`` is the 16-ary Merkle root over
the ordered tx_ids: the empty list hashes to ``sha256(b"")``, a single leaf
is its own root, and otherwise each level's runs of up to MERKLE_FANOUT
consecutive nodes become ``sha256(0x01 || run)`` until one node is left. The
last run may be shorter, even one node; no node is ever duplicated. A node
preimage starts with 0x01, while a body starting with 0x01 declares a
channel id of at least 16 MiB, so no tx_id equals an inner node without a
SHA-256 collision, and the root binds the exact ordered id list.

One layout, _block_parts, gives a block's bytes to serialize_block,
save_ledger, ledger_size_bytes and ledger_blocks. One walk, verify_blocks,
checks every chain. ledger_blocks feeds it a ledger in memory, each tx_id
checked by transaction_valid against the SHA-256 of the body it encodes,
the bytes the stream can hand a writer; read_blocks feeds it a file's
blocks as decoded, each tx_id checked against the SHA-256 of the body
bytes read. Each payload is parsed once, in the block stream its caller
hands the walk: read_payloads reads each for verify_chain and
PublicChain.load, and the epoch audit reads every kind in its own stream.

A transaction that make_transaction built is sealed: a slot outside its
fields records that its tx_id is the SHA-256 of the body it was computed
from, and the fields are frozen (only a deliberate bypass, such as
object.__setattr__, changes them). make_transaction is the only code
that sets the seal, after Transaction.__init__, which clears it: a direct
Transaction(...) call, __init__ called again on a sealed transaction,
dataclasses.replace, copy, pickle and the decoders all give an unsealed
transaction. PrivateNode.submit alone reads the seal, to skip re-hashing
what was just hashed; every verification (transaction_valid,
ledger_blocks, read_blocks, verify_chain, verify_blocks) re-derives every
tx_id and never reads it.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from .canon import canonical_loads, sha256
from .errors import (ClockSkew, EmptyBatch, InvalidArgument, LedgerFormatError,
                     UnsupportedValue)

DIGEST_SIZE = 32
ZERO_HASH = bytes(DIGEST_SIZE)
EMPTY_TX_ROOT = sha256(b"")
MERKLE_FANOUT = 16  # nodes per inner Merkle node
MERKLE_NODE = b"\x01"  # an inner Merkle node's prefix

LEDGER_MAGIC = b"TCGW"
LEDGER_VERSION = 1
LEDGER_HEADER = LEDGER_MAGIC + bytes([LEDGER_VERSION])  # a ledger file's first 5 bytes


class TxKind(Enum):
    """Transaction kinds. Each member holds two plain attributes: `_value_`,
    the 1-byte wire code (also `.value`), and `label`, the CamelCase name
    used inside JSON payloads and dumps."""

    UPDATE_FIELD = 1, "UpdateField"
    APPEND_TO_ARRAY = 2, "AppendToArray"
    RAW_READING = 3, "RawReading"
    ANCHOR = 4, "Anchor"

    def __new__(cls, code: int, label: str) -> "TxKind":
        member = object.__new__(cls)
        member._value_ = code
        member.label = label
        return member


KIND_BY_LABEL = {kind.label: kind for kind in TxKind}
_KIND_BY_CODE = {kind._value_: kind for kind in TxKind}


def slot_setters(cls: type) -> tuple:
    """The `__set__` of each field's slot descriptor, in field order.

    A frozen slots record's own __init__ sets its fields through these, one
    C call a field, where the generated __init__ makes an object.__setattr__
    call a field. Setting and deleting from outside still raise
    FrozenInstanceError, and replace, copy and pickle are unchanged.
    """
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


class _Sealable:
    """The seal's slot (see the module docstring). It is not a Transaction
    field, so equality, hashing, repr, replace, copy and pickle ignore it."""

    __slots__ = ("_sealed",)


@dataclass(frozen=True, slots=True, init=False)
class Transaction(_Sealable):
    tx_id: bytes
    channel_id: str
    timestamp: int
    kind: TxKind
    payload: bytes
    author_id: str

    def __init__(self, tx_id: bytes, channel_id: str, timestamp: int, kind: TxKind,
                 payload: bytes, author_id: str):
        set_tx_id, set_channel_id, set_timestamp, set_kind, set_payload, set_author_id = _TX_SLOTS
        set_tx_id(self, tx_id)
        set_channel_id(self, channel_id)
        set_timestamp(self, timestamp)
        set_kind(self, kind)
        set_payload(self, payload)
        set_author_id(self, author_id)
        _SEAL(self, False)


_TX_SLOTS = slot_setters(Transaction)
_SEAL = _Sealable._sealed.__set__


@dataclass(frozen=True, slots=True)
class Block:
    height: int
    previous_hash: bytes
    timestamp: int
    tx_root: bytes
    transactions: tuple[Transaction, ...]
    block_hash: bytes


Ledger = tuple[Block, ...]


_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_BLOCK_HEAD = struct.Struct(">Q32sQ32sI")  # height, previous_hash, timestamp, tx_root, tx_count
_TX_HEAD = struct.Struct(">32sI")  # tx_id, channel_id length
_TS_KIND_LEN = struct.Struct(">QBI")  # timestamp, kind code, payload length
MAX_TIMESTAMP = (1 << 64) - 1  # the wire writes timestamps as u64


@functools.lru_cache(maxsize=1024)
def _name_frame(name: str) -> bytes:
    """A str field as the wire writes it: the u32 length of its UTF-8, then
    the UTF-8. Cached, since a run's channel and author names repeat."""
    raw = name.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def transaction_body(channel_id: str, timestamp: int, kind: TxKind,
                     payload: bytes, author_id: str) -> bytes:
    """Canonical preimage of tx_id (the serialized transaction minus the id)."""
    return b"".join((_name_frame(channel_id),
                     _TS_KIND_LEN.pack(timestamp, kind._value_, len(payload)), payload,
                     _name_frame(author_id)))


def make_transaction(channel_id: str, timestamp: int, kind: TxKind,
                     payload: bytes, author_id: str) -> Transaction:
    """Build a transaction with its tx_id computed from the other fields,
    and seal it: the one place a seal is set. The timestamp must fit the
    wire's u64."""
    if not 0 <= timestamp <= MAX_TIMESTAMP:
        raise InvalidArgument(f"timestamp {timestamp} is not a unix second in [0, 2**64)")
    body = transaction_body(channel_id, timestamp, kind, payload, author_id)
    tx = Transaction(sha256(body), channel_id, timestamp, kind, payload, author_id)
    _SEAL(tx, True)
    return tx


def sealed(tx: Transaction) -> bool:
    """True iff make_transaction built `tx`, so its tx_id is the SHA-256 of
    its body. Only PrivateNode.submit asks; see the module docstring."""
    return getattr(tx, "_sealed", False)


def transaction_valid(tx: Transaction) -> bytes | None:
    """The body rebuilt from the fields if tx_id is its SHA-256, sealed or
    not, else None: the check PrivateNode.submit makes of a transaction
    that is not sealed, and ledger_blocks of each transaction, keeping the
    bytes it hashed for a writer. The payload is not parsed here."""
    body = transaction_body(tx.channel_id, tx.timestamp, tx.kind, tx.payload, tx.author_id)
    return body if sha256(body) == tx.tx_id else None


def merkle_root(leaves: Sequence[bytes]) -> bytes:
    """16-ary Merkle root; see the module docstring for the conventions.
    One hash per inner node: 8 for 100 leaves, 20 for 257."""
    if not leaves:
        return EMPTY_TX_ROOT
    level = leaves
    while len(level) > 1:
        level = [sha256(MERKLE_NODE + b"".join(level[i:i + MERKLE_FANOUT]))
                 for i in range(0, len(level), MERKLE_FANOUT)]
    return level[0]


def _block_header(height: int, previous_hash: bytes, timestamp: int, tx_root: bytes) -> bytes:
    return _U64.pack(height) + previous_hash + _U64.pack(timestamp) + tx_root


def make_block(height: int, previous_hash: bytes, timestamp: int,
               transactions: Sequence[Transaction]) -> Block:
    txs = tuple(transactions)
    tx_root = merkle_root([tx.tx_id for tx in txs])
    block_hash = sha256(_block_header(height, previous_hash, timestamp, tx_root))
    return Block(height, previous_hash, timestamp, tx_root, txs, block_hash)


def _block_parts(block: Block, bodies: Iterable[bytes]) -> list[bytes]:
    """A block's wire bytes as parts: its head, each transaction's tx_id
    and body (from `bodies`), then its block_hash. The one layout of a block."""
    parts = [_BLOCK_HEAD.pack(block.height, block.previous_hash, block.timestamp,
                              block.tx_root, len(block.transactions))]
    for tx, body in zip(block.transactions, bodies):
        parts += (tx.tx_id, body)
    parts.append(block.block_hash)
    return parts


def serialize_block(block: Block) -> bytes:
    return b"".join(_block_parts(block, [
        transaction_body(tx.channel_id, tx.timestamp, tx.kind, tx.payload, tx.author_id)
        for tx in block.transactions]))


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


def _transaction_slowly(data: bytes, start: int) -> NoReturn:
    """Walk one transaction field by field and raise its exact
    LedgerFormatError. It is called only where the flat decoder failed on
    the transaction at `start`, and each way that decoder fails is a step
    here that raises: a field cut short by the end of the data (its tx_id,
    a length, the timestamp, kind and payload length, or the bytes of a
    name or the payload), an unknown kind code, or a name that is not
    UTF-8. So the walk never gets past its last field, and it builds no
    transaction; the closing raise keeps a disagreement between the two
    decoders from passing as a transaction."""
    _, offset = _take(data, start, DIGEST_SIZE)
    _, offset = _string_slowly(data, offset)
    _, code, size = _TS_KIND_LEN.unpack(_take(data, offset, _TS_KIND_LEN.size)[0])
    if code not in _KIND_BY_CODE:
        raise LedgerFormatError(f"unknown transaction kind code {code} at byte {offset + 8}")
    _, offset = _take(data, offset + _TS_KIND_LEN.size, size)
    _string_slowly(data, offset)
    raise LedgerFormatError(f"transaction at byte {start} does not decode")


class _Names(dict):
    """Raw UTF-8 bytes -> str, decoding each distinct string once."""

    def __missing__(self, raw: bytes) -> str:
        name = self[raw] = raw.decode("utf-8")
        return name


def _decode_blocks(data: bytes, offset: int) -> Iterator[tuple[Block, int]]:
    """Decode every block from `offset` on in one flat pass, yielding each
    with the index of its first transaction whose tx_id is not the SHA-256
    of the body bytes it was read from (-1 if none). That is the
    transaction_valid check: a strict UTF-8 decode encodes back to the same
    bytes and kind codes map one to one, so the body read is the body
    transaction_body would build. A record that does not fit or decode is
    walked again field by field for its exact error."""
    end, names, kinds = len(data), _Names(), _KIND_BY_CODE
    tx_head, ts_kind_len, u32 = _TX_HEAD.unpack_from, _TS_KIND_LEN.unpack_from, _U32.unpack_from
    head_size, fixed_size = _TX_HEAD.size, _TS_KIND_LEN.size
    while offset < end:
        if end - offset < _BLOCK_HEAD.size:
            for size in (8, DIGEST_SIZE, 8, DIGEST_SIZE, 4):
                _, offset = _take(data, offset, size)
        height, previous_hash, timestamp, tx_root, count = _BLOCK_HEAD.unpack_from(data, offset)
        offset += _BLOCK_HEAD.size
        txs, bad = [], -1
        for i in range(count):
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
                _transaction_slowly(data, start)
            if bad < 0 and sha256(data[start + DIGEST_SIZE:offset]) != tx.tx_id:
                bad = i
            txs.append(tx)
        block_hash, offset = _take(data, offset, DIGEST_SIZE)
        yield Block(height, previous_hash, timestamp, tx_root, tuple(txs), block_hash), bad


def genesis(previous_hash: bytes = ZERO_HASH) -> Ledger:
    """One-block ledger: height 0, no transactions, and `previous_hash` as
    its link to what came before it: a private epoch's to the previous
    epoch's anchor, the public chain's to its ChainParams (verify_blocks
    takes it as given; those callers check it)."""
    if type(previous_hash) is not bytes or len(previous_hash) != DIGEST_SIZE:
        raise InvalidArgument(f"previous_hash {previous_hash!r} is not a {DIGEST_SIZE}-byte digest")
    return (make_block(0, previous_hash, 0, ()),)


def head(ledger: Ledger) -> tuple[int, bytes]:
    """(height, block_hash) of the last block."""
    last = ledger[-1]
    return last.height, last.block_hash


def append_block(ledger: Ledger, txs: Sequence[Transaction], timestamp: int) -> tuple[Ledger, Block]:
    """Append one block holding `txs`; returns the grown ledger and the block.

    Callers pass transactions they built or admitted (PrivateNode.submit);
    ledgers read from disk are checked by verify_blocks. The batch must be
    non-empty and the timestamp must not run backwards.
    """
    if not txs:
        raise EmptyBatch("cannot append a block with no transactions")
    last = ledger[-1]
    if timestamp < last.timestamp:
        raise ClockSkew(f"timestamp {timestamp} precedes head timestamp {last.timestamp}")
    block = make_block(last.height + 1, last.block_hash, timestamp, txs)
    return ledger + (block,), block


class ChainFault(Enum):
    HASH_LINK = "HashLink"
    TX_ROOT = "TxRoot"
    TX_ID = "TxId"
    HEIGHT_GAP = "HeightGap"
    CLOCK_SKEW = "ClockSkew"


@dataclass(frozen=True)
class VerificationReport:
    first_bad_height: int | None = None
    reason: ChainFault | None = None

    @property
    def ok(self) -> bool:
        return self.reason is None

    def __str__(self) -> str:
        """Where the chain broke, as in "TxId at block 37"; "ok" if it did not."""
        return "ok" if self.ok else f"{self.reason.value} at block {self.first_bad_height}"


def verify_chain(ledger: Ledger) -> VerificationReport:
    """Re-derive every hash and link and parse every payload (canonical_loads,
    in read_payloads); report the lowest offending height.
    """
    return verify_blocks(read_payloads(ledger_blocks(ledger),
                                       lambda height, index, tx: canonical_loads(tx.payload)))


def ledger_blocks(ledger: Ledger,
                  write: Callable[[bytes], object] | None = None) -> Iterator[tuple[Block, int]]:
    """Each block of a ledger in memory with the index of its first
    transaction that fails transaction_valid (-1 if none), for
    verify_blocks; each block's bytes, laid out from the bodies
    transaction_valid hashed, go to write(bytes), if given, before the
    block is yielded (a block with a bad tx_id is serialized again)."""
    for block in ledger:
        bodies = [transaction_valid(tx) for tx in block.transactions]
        bad = bodies.index(None) if None in bodies else -1
        if write is not None:
            write(serialize_block(block) if bad >= 0 else b"".join(_block_parts(block, bodies)))
        yield block, bad


def read_payloads(blocks: Iterable[tuple[Block, int]],
                  read: Callable[[int, int, Transaction], object]) -> Iterator[tuple[Block, int]]:
    """`blocks`, read(height, index, tx) called as each block is taken on
    its transactions before its bad index, `height` the block's position in
    the stream, and the index lowered to the first read that raises
    ValueError or UnsupportedValue (as canonical_loads does on a payload
    that does not parse)."""
    for height, (block, bad) in enumerate(blocks):
        for i, tx in enumerate(block.transactions[:bad] if bad >= 0 else block.transactions):
            try:
                read(height, i, tx)
            except (ValueError, UnsupportedValue):
                bad = i
                break
        yield block, bad


def verify_blocks(blocks: Iterable[tuple[Block, int]]) -> VerificationReport:
    """The one per-block walk behind verify_chain and every audit.

    `blocks` gives each block with the index of its first transaction whose
    tx_id is not the SHA-256 of its body (-1 if none): transaction_valid in
    memory, the hash of the bytes read for read_blocks; a stream may lower
    that index to a transaction whose payload it read and found broken
    (read_payloads). Returns the report. The walk takes no block past the
    first bad one, so a stream reads no payload past it.

    Per block, checks run in this order: height continuity, previous-hash
    link (block 0's previous_hash is taken as given), the bad index (a
    TX_ID fault), Merkle root, own block hash, and a timestamp no earlier
    than the previous block's (the CLOCK_SKEW that append_block refuses).
    A block that holds one tx id twice is a TX_ROOT fault, even with its
    root re-derived: the node never commits one (PrivateNode.submit refuses
    a known id), and the public chain's anchors and heartbeats are unique.
    The root itself binds the ordered id list: a repeated tail changes it.
    A single flipped byte anywhere in the data surfaces at the mutated
    block or the one after it.
    """
    prev_time = 0
    for index, (block, bad) in enumerate(blocks):
        if index == 0:  # block 0's link is its caller's to check
            prev_hash = block.previous_hash
        fault = _block_fault(index, block, bad, prev_hash, prev_time)
        if fault is not None:
            return VerificationReport(index, fault)
        prev_hash, prev_time = block.block_hash, block.timestamp
    return VerificationReport()


def _block_fault(index: int, block: Block, bad: int, prev_hash: bytes,
                 prev_time: int) -> ChainFault | None:
    """The first check block `index` fails, in verify_blocks' order, or None.
    Repeated ids fail TX_ROOT whatever the root: no writer commits them."""
    if block.height != index:
        return ChainFault.HEIGHT_GAP
    if block.previous_hash != prev_hash:
        return ChainFault.HASH_LINK
    if bad >= 0:
        return ChainFault.TX_ID
    ids = [tx.tx_id for tx in block.transactions]
    if len(set(ids)) != len(ids) or merkle_root(ids) != block.tx_root:
        return ChainFault.TX_ROOT
    if sha256(_block_header(block.height, block.previous_hash,
                            block.timestamp, block.tx_root)) != block.block_hash:
        return ChainFault.HASH_LINK
    if block.timestamp < prev_time:
        return ChainFault.CLOCK_SKEW
    return None


def ledger_size_bytes(ledger: Ledger) -> int:
    """Total serialized size of all blocks (the persisted payload, a file's
    size less LEDGER_HEADER): each block encoded by serialize_block, one at
    a time."""
    return sum(len(serialize_block(block)) for block in ledger)


def iter_transactions(ledger: Ledger) -> Iterator[tuple[int, int, Transaction]]:
    """Yield (height, index_in_block, transaction) in chain order."""
    for block in ledger:
        for i, tx in enumerate(block.transactions):
            yield block.height, i, tx


def save_ledger(ledger: Ledger, path: str | Path) -> Path:
    """Write LEDGER_HEADER (magic, version byte), then each block's
    serialize_block bytes back-to-back."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(LEDGER_HEADER)
        for block in ledger:
            fh.write(serialize_block(block))
    return path


def read_blocks(path: str | Path) -> Iterator[tuple[Block, int]]:
    """Each block of a ledger file with the index of its first transaction
    whose tx_id is not the SHA-256 of the body bytes read (-1 if none), for
    verify_blocks. The file is read whole, its blocks decoded one at a time
    as they are taken. Raises LedgerFormatError where the bytes are not a
    ledger or hold no block.

    The read is one unbuffered open and readall: no BufferedReader copies
    the bytes, and the OSError of a file that cannot be read (a directory
    too) names the path. A Path is used as given: building it again costs
    about what the unbuffered read saves. The file is read whole, not
    block by block: that would add system calls per archive, and the
    largest archive's audit peaks below the `tcgw run` that wrote it."""
    if not isinstance(path, Path):
        path = Path(path)
    with open(path, "rb", buffering=0) as fh:
        data = fh.readall()
    if _take(data, 0, 4)[0] != LEDGER_MAGIC:
        raise LedgerFormatError(f"{path}: bad magic at byte 0, not a ledger file")
    version = _take(data, 4, 1)[0][0]
    if version != LEDGER_VERSION:
        raise LedgerFormatError(f"{path}: unsupported ledger version {version} at byte 4")
    if len(data) == 5:
        raise LedgerFormatError(f"{path}: no blocks")
    yield from _decode_blocks(data, 5)


def load_ledger(path: str | Path) -> Ledger:
    """Read a ledger file back: load_ledger(save_ledger(ledger, path)) == ledger."""
    return tuple(block for block, _ in read_blocks(path))
