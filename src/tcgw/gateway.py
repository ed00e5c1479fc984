"""Edge gateway: filter, summarize, anchor, then prune.

The gateway turns an epoch of raw readings into a small set of per-metric
statistics, binds them to the private ledger's head and state digest in an
EpochSummary, publishes that summary to the public chain, and only after
the anchor is confirmed resets the private ledger, the fresh genesis block
linked to the anchor's summary_digest. Losing unpublished data is
unrecoverable, so the order is strict: publish before prune. The
statistics are the node's own fold (private_chain._EpochStats), which it
extends with each reading as it commits it, so rollover reads no payload.

Rollover is two steps with the wait for confirmation between them:
publish_epoch submits the anchor, and close_epoch resets the node once the
anchor is confirmed. rollover_epoch runs both around PublicClient.confirm;
run_scenario runs them apart, so that the anchors of the gateways that
publish after one are its confirmations, and uses rollover_epoch only for
an epoch's last gateway, which no later anchor confirms.

verify_pruned_epoch is the consumer-side counterpart: given an archived
ledger and a summary, it re-derives everything and checks the public chain
holds a confirmed anchor committing to exactly these bytes; it can write
the archive as it encodes it. verify_archive runs the same checks over an
archive file's blocks as they are decoded.
Both are one walk of one block stream, broken chain included: every
payload is read in that stream as the walk takes its block, and the audit
relies only on the walk taking no block past the first bad one.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .canon import canonical_loads, digest_json, to_json_value
from .errors import (
    DuplicateEpoch,
    InvalidArgument,
    InvalidWindow,
    NonEmptyMempool,
    PathTypeConflict,
    PublishFailed,
    UnknownGateway,
    UnsupportedValue,
)
from .ledger import (ZERO_HASH, Block, Ledger, TxKind, VerificationReport, head,
                     ledger_blocks, read_blocks, verify_blocks)
from .private_chain import (METRICS, MetricStats, PrivateNode, _EpochStats, check_reading,
                            decimal_value, range_bounds, read_reading)
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
        if (decimal_value(self.min_valid, "min_valid")
                > decimal_value(self.max_valid, "max_valid")):
            raise InvalidArgument(f"empty validity range for {self.metric}")


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


def filter_out_of_scale(readings: Iterable, ranges: Iterable[ValidityRange]) -> tuple[list, list]:
    """Partition readings into (kept, excluded), preserving order.

    A reading is any record with `sensor_id`, `metric`, `value` and
    `timestamp`; check_reading checks each (InvalidArgument), as the
    payload readers do. A reading is kept when its metric has no configured
    range or its value lies inside the inclusive bounds; everything else is
    treated as sensor malfunction or tampering and excluded from analysis.
    The bound test is the one the node and the audit fold with.
    """
    add = _EpochStats(range_bounds(ranges)).add
    kept: list = []
    excluded: list = []
    for r in readings:
        check_reading(r.sensor_id, r.metric, r.value, r.timestamp)
        (kept if add(r.metric, r.value) else excluded).append(r)
    return kept, excluded


def summarize(readings: Iterable) -> list[MetricStats]:
    """Per-metric count, mean, population standard deviation, min, max.

    Values are ordered exactly, as decimals; mean and deviation are evaluated
    in binary floating point and rendered back as shortest-repr strings. Min
    and max keep the exact input strings: min is the first reading with the
    least decimal value and max the first with the greatest, so of "20.5"
    and "20.50", or of "0" and "-0", whichever came first is published.
    Metrics with no readings are omitted; output is sorted by metric name.

    Every float step is exact or correctly rounded by IEEE 754: float(),
    math.fsum, -, *, /, math.sqrt and repr. So any IEEE-754 host produces the
    same strings, and verify_pruned_epoch compares them with ==. Square with
    `d * d`, never `** 2`: that calls libm pow, which may misround.

    Each reading is checked as filter_out_of_scale checks it. The node (at
    commit) and the audit run the same fold (_EpochStats) under their
    ranges, over texts checked once at submit or read, filtering and
    summarizing in one pass.
    """
    stats = _EpochStats({})
    for r in readings:
        check_reading(r.sensor_id, r.metric, r.value, r.timestamp)
        stats.add(r.metric, r.value)
    return list(stats.result()[0])


def publish_epoch(node: PrivateNode, window_start: int, window_end: int, pub,
                  events: list) -> tuple[EpochSummary, object]:
    """Publish an epoch's summary: rollover's first step. Returns (summary,
    anchor record); the node is left as it was.

    The stats are node.fold.result(): the node folded each reading, checked
    at submit, as it committed it, under the ranges it was built with, so
    neither the ledger nor any payload is read here. An empty or inverted
    window, or a held time span outside [window_start, window_end), raises
    InvalidWindow before anything is published.

    `pub` is the gateway's public-chain client (see public_chain.PublicClient),
    whose submit_anchor produces the block that includes the anchor. A
    rejected anchor raises PublishFailed. Appends anchor_submitted to
    `events` once the anchor is submitted.
    """
    if node.mempool:
        raise NonEmptyMempool("commit or drop pending transactions before rollover")
    if window_start >= window_end:
        raise InvalidWindow(f"[{window_start}, {window_end}) is empty or inverted")
    span = node.time_span
    if span is not None and not window_start <= span[0] <= span[1] < window_end:
        raise InvalidWindow("ledger holds readings outside the epoch window")
    stats, excluded = node.fold.result()
    height, head_hash = head(node.ledger)
    summary = EpochSummary(
        channel_id=node.channel_id,
        epoch_index=pub.next_epoch_index(node.channel_id),
        window_start=window_start,
        window_end=window_end,
        stats=stats,
        excluded_count=excluded,
        ledger_head_hash=head_hash,
        ledger_height=height,
        state_digest=state_digest(node.state),
    )
    try:
        record = pub.submit_anchor(summary)
    except (DuplicateEpoch, UnknownGateway) as exc:
        raise PublishFailed(f"anchor rejected: {exc}") from exc
    events.append({"event": "anchor_submitted", "channel": node.channel_id,
                   "epoch": summary.epoch_index})
    return summary, record


def close_epoch(node: PrivateNode, record, chain, events: list) -> PrivateNode:
    """Reset the node whose epoch `record` anchors: rollover's second step.
    Returns the fresh node, its genesis linked to record.summary_digest;
    the old node keeps the archived ledger.

    Unless chain.is_confirmed(record), PublishFailed is raised and the node
    is untouched: the reset happens strictly after the anchor is confirmed.
    Appends anchor_confirmed, then ledger_reset, to `events`.
    """
    if not chain.is_confirmed(record):
        raise PublishFailed("anchor was not confirmed; private ledger left intact")
    where = {"channel": record.channel_id, "epoch": record.epoch_index}
    events.append({"event": "anchor_confirmed", **where})
    new_node = node.reset(record.summary_digest)
    events.append({"event": "ledger_reset", **where})
    return new_node


def rollover_epoch(node: PrivateNode, window_start: int, window_end: int, pub,
                   events: list) -> tuple[EpochSummary, object, PrivateNode]:
    """Close an epoch on its own: publish_epoch, pub.confirm (the anchor's
    block is followed by heartbeats until it is confirmed), then
    close_epoch. Returns (summary, anchor record, fresh node); the old node
    keeps the archived ledger.

    On any publication failure the private ledger is untouched and
    PublishFailed is raised. Each step appends its event to `events` as it
    happens: anchor_submitted, anchor_confirmed, then ledger_reset. A failed
    publish leaves only those before it.
    """
    summary, record = publish_epoch(node, window_start, window_end, pub, events)
    pub.confirm(record)
    return summary, record, close_epoch(node, record, pub.chain, events)


@dataclass(frozen=True)
class EpochVerification:
    """The failure codes of one audit, and where verify_chain found the
    archive broken (`chain.ok` when it was not)."""

    failures: tuple[str, ...]
    chain: VerificationReport

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_pruned_epoch(archived: Ledger, summary: EpochSummary, pub,
                        write: Callable[[bytes], object] | None = None) -> EpochVerification:
    """Check that a pruned epoch is still fully accounted for.

    Failure codes:
      chain  - archived ledger does not pass verify_chain
      head   - archived head hash/height differ from the summary's
      state  - replayed state digest differs from the summary's
      stats  - re-folding every in-window reading (_EpochStats) under
               pub.bounds does not reproduce the summary's stats and
               excluded count exactly (they are bit-reproducible), or such
               a reading does not decode
      anchor - no confirmed public anchor commits to these summary bytes
      link   - the archive's genesis previous_hash is not the summary_digest
               published for the channel's previous epoch (ZERO_HASH for
               epoch 0)

    One walk of ledger_blocks(archived, write), each payload parsed once,
    in the stream handed to verify_blocks, as the walk takes its block:
    readings with read_reading, the in-window ones folded (no list, no
    record), and the others with canonical_loads, context ops fed to one
    OpBatch; a payload that does not parse is a TxId fault. Each tx_id is
    checked (transaction_valid) against the SHA-256 of the body it encodes,
    the bytes each block hands `write` as the walk takes it. On a broken
    chain `state` is unchecked, and the rest of the stream is drained,
    folding its readings and writing its blocks.

    `pub` is the PublicChain (or anything with bounds, find_anchor and is_confirmed).
    """
    return _verify_epoch(ledger_blocks(archived, write), summary, pub)


def verify_archive(path: Path, summary: EpochSummary, pub) -> EpochVerification:
    """verify_pruned_epoch(load_ledger(path), summary, pub), from the
    file's bytes in one streaming walk of read_blocks(path): each
    transaction's tx_id is checked against the SHA-256 of the body bytes
    read and its payload read as the walk takes its block, and only the
    last block is kept, for `head`. No Ledger is built, and the file is
    read once, broken chain included.

    Raises LedgerFormatError if the file does not decode, even where the
    walk found a chain fault first: the drain decodes the rest of the file.
    """
    return _verify_epoch(read_blocks(path), summary, pub)


def _verify_epoch(blocks: Iterator[tuple[Block, int]], summary: EpochSummary,
                  pub) -> EpochVerification:
    """verify_pruned_epoch's checks over one iterator of (block, first bad
    tx index) pairs, as verify_blocks takes them; draining it after a
    chain fault folds the readings the walk did not reach."""
    start, end = summary.window_start, summary.window_end
    batch = OpBatch(EMPTY_STATE)
    found: set[str] = set()  # codes of payloads that do not decode or apply
    stats = _EpochStats(pub.bounds)
    add_reading = stats.add
    taken: list[Block | None] = [None, None]  # the first and the last block taken
    raw = TxKind.RAW_READING  # bound once: an enum member lookup is slow on 3.11

    def audit_blocks() -> Iterator[tuple[Block, int]]:
        """`blocks`, each block's payloads read as it is taken: every reading
        by read_reading, the in-window ones folded; every other payload
        before the bad index parsed, a context op applied; `bad` lowered to
        the first payload that does not parse."""
        for block, bad in blocks:
            for i, tx in enumerate(block.transactions):
                if tx.kind is raw:
                    try:
                        _, metric, text, _ = read_reading(tx.payload)
                        if start <= tx.timestamp < end:
                            add_reading(metric, text)
                    except (ValueError, UnsupportedValue) as exc:
                        if start <= tx.timestamp < end:  # an in-window reading that does not read
                            found.add("stats")
                        if not isinstance(exc, InvalidArgument):
                            bad = i if bad < 0 else min(bad, i)
                elif not 0 <= bad <= i:
                    try:
                        value = canonical_loads(tx.payload)
                        if tx.kind in CONTEXT_KINDS and "state" not in found:
                            batch.apply(op_from_value(value))
                    except (InvalidArgument, PathTypeConflict, ArithmeticError):
                        found.add("state")
                    except (ValueError, UnsupportedValue):  # no JSON: a TX_ID fault
                        bad = i
            if taken[0] is None:
                taken[0] = block
            taken[1] = block
            yield block, bad

    failures: list[str] = []
    walk = audit_blocks()
    chain = verify_blocks(walk)
    if not chain.ok:  # drain the walk: a format error wins, and the readings not reached fold
        for _ in walk:
            pass
        failures.append("chain")
    if (taken[1].height, taken[1].block_hash) != (summary.ledger_height, summary.ledger_head_hash):
        failures.append("head")
    if chain.ok:
        try:
            if "state" in found or state_digest(batch.state()) != summary.state_digest:
                failures.append("state")
        except Exception:
            failures.append("state")
    try:
        if "stats" in found or stats.result() != (summary.stats, summary.excluded_count):
            failures.append("stats")
    except Exception:
        failures.append("stats")
    record = pub.find_anchor(summary.channel_id, summary.epoch_index)
    if (record is None or not pub.is_confirmed(record)
            or record.summary_digest != summary_digest(summary)):
        failures.append("anchor")
    link = ZERO_HASH
    if summary.epoch_index != 0:
        previous = pub.find_anchor(summary.channel_id, summary.epoch_index - 1)
        link = None if previous is None else previous.summary_digest
    if taken[0].previous_hash != link:
        failures.append("link")
    return EpochVerification(tuple(failures), chain)
