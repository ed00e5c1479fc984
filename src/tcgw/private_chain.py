"""Permissioned single-orderer chain for one field/container.

A PrivateNode accepts sensor readings and context operations from a fixed
set of authorized authors, batches them FIFO into blocks, and keeps its
world state and its committed readings equal to a replay of its ledger
after every commit. Resetting with an anchor starts a fresh one-block
ledger whose genesis records the commitment to the published epoch
summary; the old ledger value stays alive for archival.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Any

from .canon import canonical_json, canonical_loads
from .errors import (
    DuplicateTransaction,
    InvalidArgument,
    InvalidTransaction,
    InvalidWindow,
    NonEmptyMempool,
    UnauthorizedAuthor,
    UnsupportedValue,
    WrongChannel,
)
from .ledger import (
    Block,
    Ledger,
    Transaction,
    TxKind,
    append_block,
    genesis,
    iter_transactions,
    make_transaction,
    transaction_valid,
)
from .worldstate import (CONTEXT_KINDS, ContextOp, WorldState, apply_ops, check_digestible,
                         parse_op, replay)

METRICS = ("temperature_c", "humidity_pct", "rain_pct", "wind_speed_ms")

DEFAULT_BATCH_SIZE = 100


@dataclass(frozen=True, slots=True)
class SensorReading:
    """One sampled value; `value` is a decimal string, never a float."""

    sensor_id: str
    metric: str
    value: str
    timestamp: int

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidArgument(f"unknown metric {self.metric!r}")
        if not isinstance(self.value, str):
            raise InvalidArgument(f"value {self.value!r} is not a decimal string")
        if type(self.timestamp) is not int:
            raise InvalidArgument(f"timestamp {self.timestamp!r} is not an integer")
        try:
            dec = Decimal(self.value)
        except InvalidOperation as exc:
            raise InvalidArgument(f"value {self.value!r} is not a decimal") from exc
        if not dec.is_finite():
            raise InvalidArgument(f"value {self.value!r} is not finite")

    def decimal(self) -> Decimal:
        return Decimal(self.value)


def reading_payload(reading: SensorReading) -> bytes:
    return canonical_json({
        "metric": reading.metric,
        "sensor_id": reading.sensor_id,
        "timestamp": reading.timestamp,
        "value": reading.value,
    })


def parse_reading(payload: bytes) -> SensorReading:
    return reading_from_value(canonical_loads(payload))


def reading_from_value(value: Any) -> SensorReading:
    """The SensorReading in a parsed payload; raises InvalidArgument if malformed."""
    try:
        return SensorReading(value["sensor_id"], value["metric"],
                             value["value"], value["timestamp"])
    except (KeyError, TypeError) as exc:
        raise InvalidArgument(f"malformed reading payload: {exc}") from exc


def reading_transaction(channel_id: str, reading: SensorReading) -> Transaction:
    """RawReading transaction authored by the sensor at the reading's time."""
    return make_transaction(channel_id, reading.timestamp, TxKind.RAW_READING,
                            reading_payload(reading), reading.sensor_id)


def ledger_readings(ledger: Ledger, start: int, end: int) -> list[SensorReading]:
    """RawReading payloads with start <= timestamp < end, in commit order."""
    return [parse_reading(tx.payload) for _, _, tx in iter_transactions(ledger)
            if tx.kind is TxKind.RAW_READING and start <= tx.timestamp < end]


class PrivateNode:
    """Single-writer node: submit fills the mempool, commit_batch drains it.

    submit parses each payload once and keeps the SensorReading or ContextOp
    beside the mempool; commit and rollover use that, not the bytes. Two
    invariants hold after every call: state == replay(ledger), and the
    held readings == ledger_readings(ledger, 0, 1 << 64). Only the node
    sets either. A node built over an existing `ledger` derives its state,
    known tx ids and readings in one walk of it.
    """

    def __init__(self, channel_id: str, authorized_authors, batch_size: int = DEFAULT_BATCH_SIZE,
                 clock: int = 0, genesis_anchor: bytes | None = None,
                 ledger: Ledger | None = None):
        if batch_size < 1:
            raise InvalidArgument("batch_size must be positive")
        self.channel_id = channel_id
        self.authorized_authors = frozenset(authorized_authors)
        self.batch_size = batch_size
        self.clock = clock
        self.ledger = ledger if ledger is not None else genesis(channel_id, genesis_anchor)
        self.mempool: list[Transaction] = []
        self._parsed: list[SensorReading | ContextOp | None] = []  # one per mempool tx
        self._known_ids: set[bytes] = set()
        self._readings: list[SensorReading] = []

        def visit(tx: Transaction) -> None:
            self._known_ids.add(tx.tx_id)
            if tx.kind is TxKind.RAW_READING:
                self._readings.append(parse_reading(tx.payload))

        self.state: WorldState = replay(self.ledger, visit)

    def __copy__(self) -> "PrivateNode":
        """An equal, independent node; only the immutable ledger and state are shared."""
        twin = object.__new__(type(self))
        twin.__dict__ = {**self.__dict__, "mempool": self.mempool[:], "_parsed": self._parsed[:],
                         "_known_ids": set(self._known_ids), "_readings": self._readings[:]}
        return twin

    def submit(self, tx: Transaction) -> bool:
        """Queue a transaction; raises on wrong channel, author, duplicate,
        bad tx_id, a payload that commit or rollover could not read, or one
        that disagrees with the header: a reading's sensor and time must be
        the tx author and timestamp, a context op's kind the tx kind. A
        context op must also be one state_digest can encode once applied
        (see check_digestible). The payload is parsed once, by the reader of
        its kind, and the result is kept for commit_batch."""
        if tx.channel_id != self.channel_id:
            raise WrongChannel(f"tx for {tx.channel_id!r} sent to {self.channel_id!r}")
        if tx.author_id not in self.authorized_authors:
            raise UnauthorizedAuthor(f"{tx.author_id!r} may not write to {self.channel_id!r}")
        if tx.tx_id in self._known_ids:
            raise DuplicateTransaction(tx.tx_id.hex())
        if not transaction_valid(tx):
            raise InvalidTransaction(len(self.mempool), "tx_id does not match payload")
        try:
            parsed: SensorReading | ContextOp | None = None
            if tx.kind is TxKind.RAW_READING:
                parsed = parse_reading(tx.payload)
                if (parsed.sensor_id, parsed.timestamp) != (tx.author_id, tx.timestamp):
                    raise InvalidArgument("reading's sensor or time differs from its header")
            elif tx.kind in CONTEXT_KINDS:
                parsed = parse_op(tx.payload)
                if parsed.op is not tx.kind:
                    raise InvalidArgument(f"payload op {parsed.op.label} in a {tx.kind.label} tx")
                check_digestible(parsed)
            else:
                canonical_loads(tx.payload)
        except (ValueError, UnsupportedValue) as exc:  # UnicodeEncodeError is a ValueError
            raise InvalidTransaction(len(self.mempool), f"bad payload: {exc}") from exc
        self.mempool.append(tx)
        self._parsed.append(parsed)
        self._known_ids.add(tx.tx_id)
        return True

    def commit_batch(self) -> Block | None:
        """Drain up to batch_size mempool transactions into one block.

        The context ops submit kept are applied to a trial state before the
        ledger advances, and the block's kept readings join the held ones
        only once it is appended. So a commit that raises (PathTypeConflict)
        changes nothing, and both node invariants hold afterwards. Returns
        None when the mempool is empty.
        """
        if not self.mempool:
            return None
        batch = self.mempool[:self.batch_size]
        parsed = self._parsed[:len(batch)]
        trial = apply_ops(self.state, (p for p in parsed if type(p) is ContextOp))
        new_ledger, block = append_block(self.ledger, batch, self.clock)
        self.ledger = new_ledger
        self.state = trial
        self._readings += [p for p in parsed if type(p) is SensorReading]
        del self.mempool[:len(batch)]
        del self._parsed[:len(batch)]
        return block

    def reset_with_anchor(self, anchor: bytes) -> "PrivateNode":
        """Fresh node for the next epoch; genesis commits to `anchor`.

        The receiver is left untouched (its ledger is the archive); pending
        transactions must be committed or dropped first.
        """
        if self.mempool:
            raise NonEmptyMempool(f"{len(self.mempool)} transactions still pending")
        return PrivateNode(self.channel_id, self.authorized_authors,
                           batch_size=self.batch_size, clock=self.clock,
                           genesis_anchor=anchor)

    def readings_in_window(self, start: int, end: int) -> list[SensorReading]:
        """Committed RawReadings with start <= timestamp < end, in commit
        order: a filter of the held readings, with no ledger walk or parse."""
        if start >= end:
            raise InvalidWindow(f"[{start}, {end}) is empty or inverted")
        return [r for r in self._readings if start <= r.timestamp < end]

    def raw_reading_count(self) -> int:
        """Number of committed RawReadings."""
        return len(self._readings)
