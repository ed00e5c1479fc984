"""Permissioned single-orderer chain for one field/container.

A PrivateNode accepts sensor readings and context operations from a fixed
set of authorized authors, batches them FIFO into blocks, and keeps its
world state equal to a replay of its ledger after every commit. Resetting
with an anchor starts a fresh one-block ledger whose genesis records the
commitment to the published epoch summary; the old ledger value stays
alive for archival.
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
from .worldstate import CONTEXT_KINDS, WorldState, apply_ops, parse_op, replay

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
    """Single-writer node: submit fills the mempool, commit_batch drains it."""

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
        self.state: WorldState = replay(self.ledger)
        self.mempool: list[Transaction] = []
        self._known_ids = {tx.tx_id for _, _, tx in iter_transactions(self.ledger)}

    def submit(self, tx: Transaction) -> bool:
        """Queue a transaction; raises on wrong channel, author, duplicate,
        bad tx_id, a payload that commit or rollover could not read, or one
        that disagrees with the header: a reading's sensor and time must be
        the tx author and timestamp, a context op's kind the tx kind. The
        payload is parsed once, by the reader of its kind."""
        if tx.channel_id != self.channel_id:
            raise WrongChannel(f"tx for {tx.channel_id!r} sent to {self.channel_id!r}")
        if tx.author_id not in self.authorized_authors:
            raise UnauthorizedAuthor(f"{tx.author_id!r} may not write to {self.channel_id!r}")
        if tx.tx_id in self._known_ids:
            raise DuplicateTransaction(tx.tx_id.hex())
        if not transaction_valid(tx):
            raise InvalidTransaction(len(self.mempool), "tx_id does not match payload")
        try:
            if tx.kind is TxKind.RAW_READING:
                reading = parse_reading(tx.payload)
                if (reading.sensor_id, reading.timestamp) != (tx.author_id, tx.timestamp):
                    raise InvalidArgument("reading's sensor or time differs from its header")
            elif tx.kind in CONTEXT_KINDS:
                op = parse_op(tx.payload)
                if op.op is not tx.kind:
                    raise InvalidArgument(f"payload op {op.op.label} in a {tx.kind.label} tx")
            else:
                canonical_loads(tx.payload)
        except (ValueError, UnsupportedValue) as exc:
            raise InvalidTransaction(len(self.mempool), f"bad payload: {exc}") from exc
        self.mempool.append(tx)
        self._known_ids.add(tx.tx_id)
        return True

    def commit_batch(self) -> Block | None:
        """Drain up to batch_size mempool transactions into one block.

        Context operations are validated against a trial state before the
        ledger advances, so state always equals replay(ledger) afterwards.
        Returns None when the mempool is empty.
        """
        if not self.mempool:
            return None
        batch = self.mempool[:self.batch_size]
        trial = apply_ops(self.state, (parse_op(tx.payload) for tx in batch
                                       if tx.kind in CONTEXT_KINDS))
        new_ledger, block = append_block(self.ledger, batch, self.clock)
        self.ledger = new_ledger
        self.state = trial
        del self.mempool[:len(batch)]
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
        """Committed RawReadings with start <= timestamp < end, in commit order."""
        if start >= end:
            raise InvalidWindow(f"[{start}, {end}) is empty or inverted")
        return ledger_readings(self.ledger, start, end)

    def raw_reading_count(self) -> int:
        return sum(1 for _, _, tx in iter_transactions(self.ledger)
                   if tx.kind is TxKind.RAW_READING)
