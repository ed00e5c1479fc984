"""Edge gateway: filter, summarize, anchor, then prune.

The gateway turns an epoch of raw readings into a small set of per-metric
statistics, binds them to the private ledger's head and state digest in an
EpochSummary, publishes that summary to the public chain, and only after
the anchor is confirmed resets the private ledger. Losing unpublished data
is unrecoverable, so the order is strict: publish before prune.

verify_pruned_epoch is the consumer-side counterpart: given an archived
ledger and a summary, it re-derives everything and checks the public chain
holds a confirmed anchor committing to exactly these bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from typing import Iterable, Sequence

from .canon import digest_json, to_json_value
from .errors import (
    DuplicateEpoch,
    DuplicateRange,
    InvalidArgument,
    InvalidWindow,
    NonEmptyMempool,
    PathTypeConflict,
    PublishFailed,
    UnknownGateway,
)
from .ledger import Ledger, Transaction, TxKind, head, verify_chain
from .private_chain import (METRICS, PrivateNode, SensorReading, ledger_readings,
                            reading_from_value)
from .worldstate import CONTEXT_KINDS, EMPTY_STATE, OpBatch, op_from_value, state_digest


@dataclass(frozen=True)
class ValidityRange:
    """Inclusive plausibility bounds for one metric, as decimal strings."""

    metric: str
    min_valid: str
    max_valid: str

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidArgument(f"unknown metric {self.metric!r}")
        if Decimal(self.min_valid) > Decimal(self.max_valid):
            raise InvalidArgument(f"empty validity range for {self.metric}")


@dataclass(frozen=True)
class MetricStats:
    metric: str
    count: int
    mean: str
    std_dev: str
    min: str
    max: str


@dataclass(frozen=True)
class EpochSummary:
    """Per-epoch statistics plus the ledger anchor they were derived from."""

    channel_id: str
    epoch_index: int
    window_start: int
    window_end: int
    stats: tuple[MetricStats, ...]
    excluded_count: int
    ledger_head_hash: bytes
    ledger_height: int
    state_digest: bytes


def summary_digest(summary: EpochSummary) -> bytes:
    """Digest of the summary's canonical JSON; anchors commit to these bytes."""
    return digest_json(to_json_value(summary))


def _range_map(ranges: Iterable[ValidityRange]) -> dict[str, tuple[Decimal, Decimal]]:
    out: dict[str, tuple[Decimal, Decimal]] = {}
    for r in ranges:
        if r.metric in out:
            raise DuplicateRange(f"two ranges configured for {r.metric}")
        out[r.metric] = (Decimal(r.min_valid), Decimal(r.max_valid))
    return out


def filter_out_of_scale(readings: Sequence[SensorReading],
                        ranges: Iterable[ValidityRange]) -> tuple[list[SensorReading], list[SensorReading]]:
    """Partition readings into (kept, excluded), preserving order.

    A reading is kept when its metric has no configured range or its value
    lies inside the inclusive bounds; everything else is treated as sensor
    malfunction or tampering and excluded from analysis.
    """
    bounds = _range_map(ranges)
    kept: list[SensorReading] = []
    excluded: list[SensorReading] = []
    for reading in readings:
        limits = bounds.get(reading.metric)
        if limits is None or limits[0] <= reading.decimal() <= limits[1]:
            kept.append(reading)
        else:
            excluded.append(reading)
    return kept, excluded


def summarize(readings: Sequence[SensorReading]) -> list[MetricStats]:
    """Per-metric count, mean, population standard deviation, min, max.

    Values are parsed as exact decimals; mean and deviation are evaluated
    in binary floating point and rendered back as shortest-repr strings. Min
    and max keep the exact input strings. Metrics with no readings are
    omitted; output is sorted by metric name.

    Every float step is exact or correctly rounded by IEEE 754: float(Decimal),
    math.fsum, -, *, /, math.sqrt and repr. So any IEEE-754 host produces the
    same strings, and verify_pruned_epoch compares them with ==. Square with
    `d * d`, never `** 2`: that calls libm pow, which may misround.
    """
    groups: dict[str, list[SensorReading]] = {}
    for reading in readings:
        groups.setdefault(reading.metric, []).append(reading)
    out: list[MetricStats] = []
    for metric in sorted(groups):
        group = groups[metric]
        decimals = [r.decimal() for r in group]
        values = [float(d) for d in decimals]
        n = len(values)
        mean = math.fsum(values) / n
        variance = math.fsum((v - mean) * (v - mean) for v in values) / n
        std_dev = math.sqrt(variance)
        lo = min(range(n), key=decimals.__getitem__)
        hi = max(range(n), key=decimals.__getitem__)
        out.append(MetricStats(metric, n, repr(mean), repr(std_dev),
                               group[lo].value, group[hi].value))
    return out


def rollover_epoch(node: PrivateNode, ranges: Iterable[ValidityRange],
                   window_start: int, window_end: int, pub,
                   trace: list | None = None) -> tuple[EpochSummary, object, PrivateNode]:
    """Close an epoch: collect, filter, summarize, anchor, then reset.

    The readings come from the node's held list, parsed once at submit; the
    ledger is not walked. A reading outside [window_start, window_end)
    raises InvalidWindow before anything is published.

    `pub` is the gateway's public-chain client (see public_chain.PublicClient).
    On any publication failure the private ledger is untouched and
    PublishFailed is raised; the reset happens strictly after the anchor is
    confirmed. Returns (summary, anchor record, fresh node); the old node
    keeps the archived ledger.
    """
    if node.mempool:
        raise NonEmptyMempool("commit or drop pending transactions before rollover")
    readings = node.readings_in_window(window_start, window_end)
    if node.raw_reading_count() != len(readings):
        raise InvalidWindow("ledger holds readings outside the epoch window")
    kept, excluded = filter_out_of_scale(readings, ranges)
    stats = summarize(kept)
    height, head_hash = head(node.ledger)
    summary = EpochSummary(
        channel_id=node.channel_id,
        epoch_index=pub.next_epoch_index(node.channel_id),
        window_start=window_start,
        window_end=window_end,
        stats=tuple(stats),
        excluded_count=len(excluded),
        ledger_head_hash=head_hash,
        ledger_height=height,
        state_digest=state_digest(node.state),
    )
    try:
        record = pub.submit_anchor(summary)
    except (DuplicateEpoch, UnknownGateway) as exc:
        raise PublishFailed(f"anchor rejected: {exc}") from exc
    if trace is not None:
        trace.append({"event": "anchor_submitted", "channel": node.channel_id,
                      "epoch": summary.epoch_index})
    if not pub.confirm(record):
        raise PublishFailed("anchor was not confirmed; private ledger left intact")
    if trace is not None:
        trace.append({"event": "anchor_confirmed", "channel": node.channel_id,
                      "epoch": summary.epoch_index})
    new_node = node.reset_with_anchor(record.summary_digest)
    if trace is not None:
        trace.append({"event": "ledger_reset", "channel": node.channel_id,
                      "epoch": summary.epoch_index})
    return summary, record, new_node


@dataclass(frozen=True)
class EpochVerification:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_pruned_epoch(archived: Ledger, summary: EpochSummary, pub,
                        ranges: Iterable[ValidityRange]) -> EpochVerification:
    """Check that a pruned epoch is still fully accounted for.

    Failure codes:
      chain  - archived ledger does not pass verify_chain
      head   - archived head hash/height differ from the summary's
      state  - replayed state digest differs from the summary's
      stats  - re-running filter+summarize does not reproduce the summary's
               stats and excluded count exactly (summarize is bit-reproducible)
      anchor - no confirmed public anchor commits to these summary bytes

    One walk: verify_chain hands each parsed payload to a visitor that keeps
    the in-window readings and feeds context ops to one OpBatch. On a broken
    chain `state` is unchecked and the readings are read from the whole archive.

    `pub` is the PublicChain (or anything with find_anchor and is_confirmed).
    """
    start, end = summary.window_start, summary.window_end
    readings: list[SensorReading] = []
    batch = OpBatch(EMPTY_STATE)
    found: set[str] = set()  # codes of payloads that do not decode or apply

    def visit(height: int, index: int, tx: Transaction, value) -> None:
        try:
            if tx.kind is TxKind.RAW_READING and start <= tx.timestamp < end:
                readings.append(reading_from_value(value))
            elif tx.kind in CONTEXT_KINDS and "state" not in found:
                batch.apply(op_from_value(value))
        except (InvalidArgument, PathTypeConflict):
            found.add("stats" if tx.kind is TxKind.RAW_READING else "state")

    failures: list[str] = []
    chain_ok = verify_chain(archived, visit).ok
    if not chain_ok:
        failures.append("chain")
    if head(archived) != (summary.ledger_height, summary.ledger_head_hash):
        failures.append("head")
    if chain_ok:
        try:
            if "state" in found or state_digest(batch.state()) != summary.state_digest:
                failures.append("state")
        except Exception:
            failures.append("state")
    try:
        if not chain_ok:
            readings = ledger_readings(archived, start, end)
        kept, excluded = filter_out_of_scale(readings, ranges)
        if "stats" in found or ((tuple(summarize(kept)), len(excluded))
                                != (summary.stats, summary.excluded_count)):
            failures.append("stats")
    except Exception:
        failures.append("stats")
    record = pub.find_anchor(summary.channel_id, summary.epoch_index)
    if (record is None or not pub.is_confirmed(record)
            or record.summary_digest != summary_digest(summary)):
        failures.append("anchor")
    return EpochVerification(tuple(failures))
