"""Permissioned single-orderer chain for one field/container.

A PrivateNode accepts sensor readings and context operations from a fixed
set of authorized authors, batches them FIFO into blocks, and keeps its
world state, the statistics fold of its committed readings and their time
span equal to those of its ledger after every commit. Once an epoch's
anchor is confirmed, reset starts a fresh one-block ledger whose genesis
block's previous_hash is that anchor's summary_digest, so each archive
after the first links to the anchor of the epoch before it (the first
epoch's genesis links to ZERO_HASH); the old ledger value stays alive for
archival.

A reading is its payload; no record type holds one. reading_payload is its
one writer. read_reading reads one with an unescaped id and a plain literal
value by one pattern match, and any other by the reference
reading_fields(canonical_loads()), with the same result or error.

_EpochStats is the one statistics fold: the node folds each reading as it
commits it, the audit as it reads it, and summarize over its records, each
value as its double; a Decimal is built only where two doubles tie.
"""

from __future__ import annotations

import copy
import math
import re
from array import array
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from typing import Any, Iterable

from .canon import canonical_loads, encode_string
from .errors import (
    DuplicateRange,
    DuplicateTransaction,
    InvalidArgument,
    InvalidTransaction,
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
    sealed,
    transaction_valid,
)
from .worldstate import (CONTEXT_KINDS, ContextOp, WorldState, apply_ops, check_digestible,
                         parse_op, replay)

METRICS = ("temperature_c", "humidity_pct", "rain_pct", "wind_speed_ms")
_METRIC_NAMES = {metric: metric for metric in METRICS}  # a parsed name -> the constant

BATCH_SIZE = 100  # transactions per block at most
_RAW_READING = TxKind.RAW_READING  # bound once: an enum member lookup is slow on 3.11


def decimal_value(text: str, name: str = "value") -> Decimal:
    """The finite Decimal that `text` spells as a plain decimal literal of
    magnitude below 1E+100, which keeps every float step of the stats fold finite.

    A plain literal is ASCII with nothing around it: an optional sign,
    digits with an optional point, and an optional exponent, as in "-20",
    "20.50" or "2.05E+1". Decimal() also reads surrounding whitespace, `_`
    between digits and non-ASCII digits; those raise InvalidArgument here,
    as does anything Decimal() cannot read, that is not finite, or whose
    adjusted exponent is 100 or more ("0E+100" too). `name` labels the
    error message.
    """
    if not isinstance(text, str):
        raise InvalidArgument(f"{name} {text!r} is not a decimal string")
    try:
        dec = Decimal(text)
    except InvalidOperation as exc:
        raise InvalidArgument(f"{name} {text!r} is not a decimal") from exc
    if not dec.is_finite():
        raise InvalidArgument(f"{name} {text!r} is not finite")
    if not text.isascii() or "_" in text or text.strip() != text:
        raise InvalidArgument(f"{name} {text!r} is not a plain decimal literal")
    if dec.adjusted() >= 100:
        raise InvalidArgument(f"{name} {text!r} is not below 1E+100 in magnitude")
    return dec


def check_reading(sensor_id, metric, value, timestamp) -> None:
    """Every check a reading's four fields pass."""
    if not isinstance(sensor_id, str):
        raise InvalidArgument(f"sensor_id {sensor_id!r} is not a string")
    if metric not in METRICS:
        raise InvalidArgument(f"unknown metric {metric!r}")
    if not isinstance(value, str):
        raise InvalidArgument(f"value {value!r} is not a decimal string")
    if type(timestamp) is not int:
        raise InvalidArgument(f"timestamp {timestamp!r} is not an integer")
    decimal_value(value)


def reading_fields(value: Any) -> tuple[str, str, str, int]:
    """(sensor_id, metric, value, timestamp) of a parsed payload: an object
    with exactly the four keys reading_payload writes, whose fields pass
    check_reading. No object is built, and `metric` is the METRICS string.
    Raises InvalidArgument if malformed."""
    try:
        if len(value) != 4:
            raise InvalidArgument(f"reading payload has {len(value)} keys, not 4")
        metric, sensor_id, text, timestamp = (value["metric"], value["sensor_id"],
                                              value["value"], value["timestamp"])
    except (KeyError, TypeError) as exc:
        raise InvalidArgument(f"malformed reading payload: {exc}") from exc
    check_reading(sensor_id, metric, text, timestamp)
    return sensor_id, _METRIC_NAMES[metric], text, timestamp


# A reading payload as reading_payload writes it when the id needs no
# escaping and the value is a plain literal of at most 99 integer digits:
# each JSON string then decodes to itself, the timestamp is JSON's plain
# base-10 int, and the value passes every check of decimal_value.
_TEMPLATE_MATCH = re.compile(
    '{"metric":"(' + "|".join(map(re.escape, METRICS)) + r')","sensor_id":"([^"\\\x00-\x1f]*)'
    + r'","timestamp":(0|[1-9][0-9]{0,19}),"value":"(-?[0-9]{1,99}(?:\.[0-9]+)?)"}').fullmatch


def read_reading(payload: bytes) -> tuple[str, str, str, int]:
    """reading_fields(canonical_loads(payload)), result and error alike.

    A payload in reading_payload's template, its id unescaped and its value
    a plain literal such as "-20.500", is read by one match of a pattern
    built from METRICS that checks all decimal_value checks: no JSON is
    parsed, no Decimal built. Any other payload takes the reference call."""
    try:
        match = _TEMPLATE_MATCH(payload.decode("utf-8"))
    except UnicodeDecodeError:
        match = None
    if match is None:
        return reading_fields(canonical_loads(payload))
    metric, sensor_id, timestamp, text = match.groups()
    return sensor_id, _METRIC_NAMES[metric], text, int(timestamp)


def reading_head(sensor_id: str, metric: str) -> str:
    """A reading payload's text up to its timestamp, built once per sensor
    and completed by reading_payload. For any fields reading_fields admits,
    the payload is canonical_json of the four keys it reads: the metric,
    the int and the plain decimal literal need no escaping, and the id is
    escaped as canonical_json escapes it."""
    return f'{{"metric":"{metric}","sensor_id":{encode_string(sensor_id)},"timestamp":'


def reading_payload(head: str, timestamp: int, value: str) -> bytes:
    """The one writer of a reading payload: reading_head's `head`, the timestamp, the value."""
    return f'{head}{timestamp},"value":"{value}"}}'.encode()


@dataclass(frozen=True)
class MetricStats:
    metric: str
    count: int
    mean: str
    std_dev: str
    min: str
    max: str


def range_bounds(ranges: Iterable) -> dict[str, tuple[float, float, str, str]]:
    """(min, max) per metric of gateway.ValidityRange records, as doubles then
    as texts; two for one metric raise DuplicateRange, a NaN bound InvalidArgument."""
    out: dict[str, tuple[float, float, str, str]] = {}
    for r in ranges:
        if r.metric in out:
            raise DuplicateRange(f"two ranges configured for {r.metric}")
        low, high = Decimal(r.min_valid), Decimal(r.max_valid)
        if low.is_nan() or high.is_nan():
            raise InvalidArgument(f"range of {r.metric} has a NaN bound")
        out[r.metric] = (float(low), float(high), r.min_valid, r.max_valid)
    return out


class _Group:
    """Running state of one metric: its values as doubles, and the double
    and text of the first reading with the least and the greatest value."""

    __slots__ = ("values", "least", "least_text", "greatest", "greatest_text")

    def __init__(self, value: float, text: str):
        self.values = array("d", (value,))
        self.least = self.greatest = value
        self.least_text = self.greatest_text = text


class _EpochStats:
    """The one fold behind the node, the audit and summarize: `add` filters
    and folds in one reading's (metric, value text) and says whether it was
    kept, and `result` renders (stats, excluded count). Each metric's
    readings must come in commit order; how metrics interleave does not
    matter. It keeps each kept value as an 8-byte double, for the two-pass
    variance, and no reading.

    Each value is compared as its double: float() rounds correctly, so it
    is monotone, and of two decimals whose doubles differ, the lesser double
    is the lesser decimal. Only two equal doubles (a value and a bound, the
    least or the greatest so far) are decided by building their Decimals.
    float() of a plain literal below 1E+100 is finite and equals float() of
    its Decimal, so for readings checked as check_reading checks them,
    result() is (summarize(kept), len(excluded)) for (kept, excluded) =
    filter_out_of_scale(readings, ranges) under the same bounds."""

    __slots__ = ("bounds", "groups", "excluded")

    def __init__(self, bounds: dict[str, tuple[float, float, str, str]]):
        self.bounds = bounds
        self.groups: dict[str, _Group] = {}
        self.excluded = 0

    def add(self, metric: str, text: str) -> bool:
        value = float(text)
        limits = self.bounds.get(metric)
        if limits is not None and not limits[0] < value < limits[1] and not (
                limits[0] <= value <= limits[1]
                and Decimal(limits[2]) <= Decimal(text) <= Decimal(limits[3])):
            self.excluded += 1
            return False
        group = self.groups.get(metric)
        if group is None:
            self.groups[metric] = _Group(value, text)
            return True
        group.values.append(value)
        if value <= group.least and (
                value < group.least or Decimal(text) < Decimal(group.least_text)):
            group.least, group.least_text = value, text
        elif value >= group.greatest and (
                value > group.greatest or Decimal(text) > Decimal(group.greatest_text)):
            group.greatest, group.greatest_text = value, text
        return True

    def result(self) -> tuple[tuple[MetricStats, ...], int]:
        stats = []
        for metric in sorted(self.groups):
            group = self.groups[metric]
            values = group.values
            n = len(values)
            mean = math.fsum(values) / n
            variance = math.fsum((v - mean) * (v - mean) for v in values) / n
            stats.append(MetricStats(metric, n, repr(mean), repr(math.sqrt(variance)),
                                     group.least_text, group.greatest_text))
        return tuple(stats), self.excluded


class PrivateNode:
    """Single-writer node: submit fills the mempool, commit_batch drains it.

    submit re-derives the tx_id of each transaction that make_transaction
    did not seal (see tcgw.ledger), and trusts the seal of one it did: the
    seal is proof that the id was computed from the same frozen fields.
    submit parses each payload once, a reading with read_reading, and keeps
    beside the mempool what commit uses in place of the bytes: a ContextOp,
    or read_reading's result. Each committed reading is folded into `fold`,
    the node's _EpochStats under range_bounds(ranges), and `time_span`, the
    (lowest, highest) committed reading timestamp or None: each value is
    held as its double, of the texts only each metric's least and greatest,
    and rollover_epoch publishes fold.result(). Invariants after every call:
    state == replay(ledger), and `fold` and `time_span` equal those of the
    ledger's RawReading payloads as reading_fields(canonical_loads()) reads
    them, folded in commit order under the same bounds. Only the node sets
    them. A node built over an existing `ledger` derives its known tx ids
    and folds its readings in one walk of it, and its state by replay.
    """

    def __init__(self, channel_id: str, authorized_authors, clock: int = 0,
                 ledger: Ledger | None = None, ranges: Iterable = ()):
        if not channel_id:
            raise InvalidArgument("channel_id must be non-empty")
        self.channel_id = channel_id
        self.authorized_authors = frozenset(authorized_authors)
        self.clock = clock
        self.ledger = ledger if ledger is not None else genesis()
        self.mempool: list[Transaction] = []
        self._parsed: list[tuple[str, str, str, int] | ContextOp] = []  # per mempool tx
        self._known_ids: set[bytes] = set()
        self.fold = _EpochStats(range_bounds(ranges))
        self.time_span: tuple[int, int] | None = None

        def readings():  # one walk: every tx id, and each reading as it is read
            for _, _, tx in iter_transactions(self.ledger):
                self._known_ids.add(tx.tx_id)
                if tx.kind is _RAW_READING:
                    yield read_reading(tx.payload)

        self._fold_in(readings())
        self.state: WorldState = replay(self.ledger)

    def __copy__(self) -> "PrivateNode":
        """An equal, independent node; only the immutable ledger and state are shared."""
        twin = object.__new__(type(self))
        twin.__dict__ = {**self.__dict__, "mempool": self.mempool[:], "_parsed": self._parsed[:],
                         "_known_ids": set(self._known_ids), "fold": copy.deepcopy(self.fold)}
        return twin

    def _fold_in(self, readings: Iterable[tuple[str, str, str, int]]) -> None:
        """Fold committed readings, read_reading's results in commit order,
        into `fold` and `time_span`."""
        add = self.fold.add
        low, high = self.time_span or (math.inf, -math.inf)
        for _, metric, text, timestamp in readings:
            add(metric, text)
            if timestamp < low:
                low = timestamp
            if timestamp > high:
                high = timestamp
        if low <= high:
            self.time_span = (low, high)

    def submit(self, tx: Transaction) -> bool:
        """Queue a transaction; raises on wrong channel, author, duplicate,
        bad tx_id (checked by transaction_valid unless the transaction is
        sealed, as one from make_transaction is), an Anchor kind (a private
        chain holds none), a payload that commit could not read,
        or one that disagrees with the header: a reading's sensor and time
        must be the tx author and timestamp, a context op's kind the tx
        kind. A context op must also be one state_digest can encode once
        applied (see check_digestible). The payload is parsed once, by the
        reader of its kind, and the result is kept for commit_batch."""
        if tx.channel_id != self.channel_id:
            raise WrongChannel(f"tx for {tx.channel_id!r} sent to {self.channel_id!r}")
        if tx.author_id not in self.authorized_authors:
            raise UnauthorizedAuthor(f"{tx.author_id!r} may not write to {self.channel_id!r}")
        if tx.tx_id in self._known_ids:
            raise DuplicateTransaction(tx.tx_id.hex())
        if not sealed(tx) and not transaction_valid(tx):
            raise InvalidTransaction(len(self.mempool), "tx_id does not match payload")
        try:
            parsed: tuple[str, str, str, int] | ContextOp
            if tx.kind is _RAW_READING:
                sensor_id, _, _, timestamp = parsed = read_reading(tx.payload)
                if sensor_id != tx.author_id or timestamp != tx.timestamp:
                    raise InvalidArgument("reading's sensor or time differs from its header")
            elif tx.kind in CONTEXT_KINDS:
                parsed = parse_op(tx.payload)
                if parsed.op is not tx.kind:
                    raise InvalidArgument(f"payload op {parsed.op.label} in a {tx.kind.label} tx")
                check_digestible(parsed)
            else:
                raise InvalidArgument(f"a private chain holds no {tx.kind.label} transaction")
        except (ValueError, UnsupportedValue) as exc:  # UnicodeEncodeError is a ValueError
            raise InvalidTransaction(len(self.mempool), f"bad payload: {exc}") from exc
        self.mempool.append(tx)
        self._parsed.append(parsed)
        self._known_ids.add(tx.tx_id)
        return True

    def commit_batch(self) -> Block | None:
        """Drain up to BATCH_SIZE mempool transactions into one block.

        The context ops submit kept are applied to a trial state before the
        ledger advances, and the block's readings, as submit read them, are
        folded only once it is appended. So a commit that raises
        (PathTypeConflict) changes nothing, and the node invariants hold
        afterwards. Returns None when the mempool is empty.
        """
        if not self.mempool:
            return None
        batch = self.mempool[:BATCH_SIZE]
        parsed = self._parsed[:len(batch)]
        trial = apply_ops(self.state, (p for p in parsed if type(p) is ContextOp))
        new_ledger, block = append_block(self.ledger, batch, self.clock)
        self.ledger = new_ledger
        self.state = trial
        self._fold_in(p for p in parsed if type(p) is tuple)
        del self.mempool[:len(batch)]
        del self._parsed[:len(batch)]
        return block

    def reset(self, link: bytes) -> "PrivateNode":
        """Fresh node for the next epoch: same channel, authors and clock, a
        genesis-only ledger whose previous_hash is `link`, and an empty fold
        under the same bounds, which are not parsed again. close_epoch calls
        it once the anchor is confirmed, with its summary_digest.

        The receiver is left untouched (its ledger is the archive); pending
        transactions must be committed or dropped first.
        """
        if self.mempool:
            raise NonEmptyMempool(f"{len(self.mempool)} transactions still pending")
        fresh = PrivateNode(self.channel_id, self.authorized_authors, clock=self.clock,
                            ledger=genesis(link))
        fresh.fold = _EpochStats(self.fold.bounds)
        return fresh
