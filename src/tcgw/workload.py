"""Deterministic sensor workload and end-to-end scenario runner.

Five fields (one per crop), each with its own private chain, a gateway,
and a seeded sensor set. A scenario iterates epochs: generate readings
and cultural operations, commit them in batches, publish the epoch's
summary, then, once the anchors after it confirm it, reset the node and
verify the pruned epoch against the public chain. Everything derives from
the per-field seeds, so two runs of the same config produce identical
reports, ledgers, and anchor digests.
"""

from __future__ import annotations

import dataclasses
import re
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from decimal import Decimal
from pathlib import Path

from .canon import canonical_loads, from_json_value, to_json_value
from .errors import InvalidArgument, InvalidWindow
from .gateway import (EpochSummary, ValidityRange, close_epoch, publish_epoch,
                      rollover_epoch, verify_pruned_epoch)
from .ledger import (LEDGER_HEADER, MAX_TIMESTAMP, Ledger, Transaction, TxKind, head,
                     ledger_size_bytes, make_transaction)
from .private_chain import (BATCH_SIZE, METRICS, PrivateNode, decimal_value, range_bounds,
                            reading_head, reading_payload)
from .public_chain import (DEFAULT_CONFIRMATIONS, OPERATIONS_ARRAY, AnchorRecord, PublicChain,
                           PublicClient)
from .rng import SplitMix64, derive_seed
from .worldstate import ContextOp, op_payload

PRODUCTS = ("asparagus", "pomegranate", "almond", "tomato", "durum_wheat")

CULTURAL_OPERATIONS = ("irrigation", "fertilization", "pruning", "weeding", "pest_control")
DENSITY_FIELD = "Plant density"

DAY = 86_400
DEFAULT_EPOCH_LENGTH = 30 * DAY
DEFAULT_OPS_INTERVAL = 3 * DAY

# Simulation defaults; plausible ranges, not agronomic models.
DEFAULT_DISTRIBUTIONS = {
    "temperature_c": ("5", "35", 3_600),
    "humidity_pct": ("20", "90", 3_600),
    "rain_pct": ("0", "100", DAY),
    "wind_speed_ms": ("0", "20", 3_600),
}

ARCHIVE_NAME = re.compile(r"^(?P<channel>.+)\.epoch(?P<epoch>0|[1-9]\d*)\.tcgw$")


def archive_name(channel_id: str, epoch: int) -> str:
    """File name of one archived epoch, which ARCHIVE_NAME parses back."""
    return f"{channel_id}.epoch{epoch}.tcgw"


DEFAULT_VALIDITY_RANGES = (
    ValidityRange("temperature_c", "-20", "60"),
    ValidityRange("humidity_pct", "0", "100"),
    ValidityRange("rain_pct", "0", "100"),
    ValidityRange("wind_speed_ms", "0", "40"),
)


def _check_id(text, name: str) -> None:
    """Raise InvalidArgument unless `text` is a str that UTF-8 can encode,
    as every seed label, payload and file name made from it must be."""
    if not isinstance(text, str):
        raise InvalidArgument(f"{name} {text!r} is not a string")
    try:
        text.encode()
    except UnicodeEncodeError as exc:
        raise InvalidArgument(f"{name} {text!r} is not UTF-8 encodable: {exc.reason}") from exc


@dataclass(frozen=True)
class SensorSpec:
    sensor_id: str
    metric: str
    interval: int
    low: str
    high: str

    def __post_init__(self):
        _check_id(self.sensor_id, "sensor_id")
        if self.metric not in METRICS:
            raise InvalidArgument(f"unknown metric {self.metric!r}")
        if self.interval <= 0:
            raise InvalidArgument("sampling interval must be positive")
        if decimal_value(self.low, "low") > decimal_value(self.high, "high"):
            raise InvalidArgument(f"empty distribution for {self.sensor_id}")
        # generate_readings writes floats sampled in [low, high]; below 1E+99
        # they stay below the 1E+100 that decimal_value admits
        if max(abs(float(self.low)), abs(float(self.high))) >= 1e99:
            raise InvalidArgument(f"distribution of {self.sensor_id} reaches 1E+99")


@dataclass(frozen=True)
class FieldConfig:
    channel_id: str
    product: str
    sensors: tuple[SensorSpec, ...]
    fault_rate: str
    seed: int
    ops_interval: int = DEFAULT_OPS_INTERVAL

    def __post_init__(self):
        _check_id(self.channel_id, "channel_id")
        match = ARCHIVE_NAME.match(archive_name(self.channel_id, 0))
        if (not match or match["channel"] != self.channel_id or self.channel_id in (".", "..")
                or any(c in self.channel_id for c in "/\\\0")):
            raise InvalidArgument(f"channel_id {self.channel_id!r} cannot name a file")
        if self.product not in PRODUCTS:
            raise InvalidArgument(f"unknown product {self.product!r}")
        if not self.sensors:
            raise InvalidArgument(f"field {self.channel_id} has no sensors")
        seen: set[str] = set()
        for sensor in self.sensors:  # one id, one RNG stream: equal specs repeat every tx
            if sensor.sensor_id in seen:
                raise InvalidArgument(
                    f"field {self.channel_id} repeats sensor_id {sensor.sensor_id!r}")
            seen.add(sensor.sensor_id)
        if not (0 <= decimal_value(self.fault_rate, "fault_rate") <= 1):
            raise InvalidArgument("fault_rate must lie in [0, 1]")
        if self.ops_interval <= 0:
            raise InvalidArgument("ops_interval must be positive")

    @property
    def ops_author(self) -> str:
        return f"op-{self.channel_id}"

    @property
    def gateway_id(self) -> str:
        return f"gw-{self.channel_id}"


@dataclass(frozen=True)
class ScenarioConfig:
    fields: tuple[FieldConfig, ...]
    epoch_length: int = DEFAULT_EPOCH_LENGTH
    epochs: int = 1
    ranges: tuple[ValidityRange, ...] = DEFAULT_VALIDITY_RANGES
    validators: int = 4
    confirmations_required: int = DEFAULT_CONFIRMATIONS

    def __post_init__(self):
        if not self.fields:
            raise InvalidArgument("scenario needs at least one field")
        if self.epochs < 1:
            raise InvalidArgument("epochs must be >= 1")
        if self.epoch_length <= 0:
            raise InvalidArgument("epoch_length must be positive")
        if self.epochs * self.epoch_length > MAX_TIMESTAMP:  # the last anchor's timestamp
            raise InvalidArgument(f"{self.epochs} epochs of {self.epoch_length} s end past "
                                  f"the last u64 timestamp")
        channels = [f.channel_id for f in self.fields]
        if len(set(channels)) != len(channels):
            raise InvalidArgument("channel ids must be unique")
        range_bounds(self.ranges)  # two ranges for one metric raise DuplicateRange
        for r in self.ranges:  # generate_readings writes this spike for a faulty reading
            decimal_value(_spike_value(r.metric, self.ranges), f"{r.metric} fault spike")
        if self.validators < 1:
            raise InvalidArgument("need at least one validator")
        if self.confirmations_required < 1:
            raise InvalidArgument("confirmations_required must be positive")


def default_scenario(epochs: int = 2) -> ScenarioConfig:
    """Bundled five-field deployment, one channel per crop."""
    fields = []
    for i, product in enumerate(PRODUCTS):
        sensors = []
        for metric in ("temperature_c", "humidity_pct", "rain_pct"):
            low, high, interval = DEFAULT_DISTRIBUTIONS[metric]
            short = metric.split("_")[0]
            sensors.append(SensorSpec(f"{product}-{short}", metric, interval, low, high))
        fields.append(FieldConfig(
            channel_id=product,
            product=product,
            sensors=tuple(sensors),
            fault_rate="0.05",
            seed=1001 + i,
        ))
    return ScenarioConfig(fields=tuple(fields), epochs=epochs)


def load_scenario_config(path: str | Path) -> ScenarioConfig:
    """Read a ScenarioConfig from canonical JSON; `"ranges": []` means the defaults."""
    try:
        value = canonical_loads(Path(path).read_bytes())
    except Exception as exc:
        raise InvalidArgument(f"cannot parse {path}: {exc}") from exc
    cfg = from_json_value(ScenarioConfig, value)
    return cfg if cfg.ranges else dataclasses.replace(cfg, ranges=DEFAULT_VALIDITY_RANGES)


def apply_seed_override(cfg: ScenarioConfig, base_seed: int) -> ScenarioConfig:
    """Rederive every field seed from `base_seed` (TCGW_SEED support)."""
    fields = tuple(
        dataclasses.replace(f, seed=derive_seed(base_seed, f.channel_id))
        for f in cfg.fields
    )
    return dataclasses.replace(cfg, fields=fields)


def _spike_value(metric: str, ranges) -> str:
    for r in ranges:
        if r.metric == metric:
            return str(Decimal(r.max_valid) * 10)
    return str(Decimal("1000"))


def generate_readings(cfg: FieldConfig, window_start: int, window_end: int,
                      ranges=DEFAULT_VALIDITY_RANGES) -> list[Transaction]:
    """One RawReading transaction per sensor per sampling interval, sensor by
    sensor and time-ascending, deterministic in (seed, window).

    With probability fault_rate a reading is replaced by an out-of-scale
    spike (ten times the metric's max_valid), simulating malfunction. Each
    payload is reading_payload of its sensor's reading_head; the spike is
    checked once per sensor, and a sampled value is a plain literal inside
    the SensorSpec's bounds, so no reading is checked here (submit checks each).
    Sensors on one sampling interval share one list of the window's
    timestamps, so their transactions share each timestamp's int.
    """
    if window_start >= window_end:
        raise InvalidWindow(f"[{window_start}, {window_end}) is empty or inverted")
    fault_rate = float(Decimal(cfg.fault_rate))
    channel_id, kind = cfg.channel_id, TxKind.RAW_READING
    txs: list[Transaction] = []
    times: dict[int, list[int]] = {}  # sampling interval -> the window's timestamps
    for sensor in cfg.sensors:
        rng = SplitMix64(derive_seed(
            cfg.seed, f"readings/{channel_id}/{sensor.sensor_id}/{window_start}:{window_end}"))
        low, high = float(Decimal(sensor.low)), float(Decimal(sensor.high))
        spike = _spike_value(sensor.metric, ranges)
        decimal_value(spike, f"{sensor.metric} fault spike")
        head, author = reading_head(sensor.sensor_id, sensor.metric), sensor.sensor_id
        uniform, draw = rng.uniform, rng.random
        if sensor.interval not in times:
            times[sensor.interval] = list(range(window_start, window_end, sensor.interval))
        for t in times[sensor.interval]:
            sampled = uniform(low, high)
            value = spike if draw() < fault_rate else f"{sampled:.3f}"
            txs.append(make_transaction(channel_id, t, kind, reading_payload(head, t, value),
                                        author))
    return txs


def generate_context_ops(cfg: FieldConfig, window_start: int,
                         window_end: int) -> list[tuple[int, ContextOp]]:
    """Cultural-operation appends plus one plant-density update per epoch."""
    if window_start >= window_end:
        raise InvalidWindow(f"[{window_start}, {window_end}) is empty or inverted")
    rng = SplitMix64(derive_seed(cfg.seed, f"ops/{cfg.channel_id}/{window_start}:{window_end}"))
    ops: list[tuple[int, ContextOp]] = []
    t = window_start + cfg.ops_interval
    while t < window_end:
        kind = rng.choice(CULTURAL_OPERATIONS)
        ops.append((t, ContextOp(TxKind.APPEND_TO_ARRAY, cfg.channel_id,
                                 (OPERATIONS_ARRAY,), {"at": t, "operation": kind})))
        t += cfg.ops_interval
    mid = window_start + (window_end - window_start) // 2
    density = f"{rng.uniform(2.0, 8.0):.2f}"
    ops.append((mid, ContextOp(TxKind.UPDATE_FIELD, cfg.channel_id,
                               (DENSITY_FIELD,), density)))
    ops.sort(key=lambda pair: pair[0])
    return ops


@dataclass
class ScenarioResult:
    """Run outcome: the JSON report plus the live artifacts behind it;
    `archives` is empty when run_scenario wrote each ledger to a directory."""

    report: dict
    public_chain: PublicChain
    archives: dict[tuple[str, int], Ledger]
    final_docs: dict[str, dict | None]


def run_scenario(cfg: ScenarioConfig, archive_dir: str | Path | None = None) -> ScenarioResult:
    """Drive every field through every epoch; see the module docstring.

    Fields are processed per epoch in channel order, which fixes the public
    submission interleaving and hence the whole run. Each field's gateway
    publishes its summary (publish_epoch), which produces the anchor's own
    block; then every earlier field whose anchor that block confirmed is
    closed, oldest first. No later anchor confirms the epoch's last field,
    so it rolls over alone (rollover_epoch): PublicClient.confirm ticks
    until its anchor is confirmed (confirmations_required times), which
    confirms every waiting one, included before it; it closes, then the
    waiting fields close, oldest first. If confirmations_required + 2
    ticks do not confirm it, PublishFailed is raised with no waiting node
    reset. So a run holds at most confirmations_required + 1 epoch
    ledgers, and the public chain grows by one block per anchor and
    confirmations_required per epoch.

    Closing a field resets its node (close_epoch), then audits, writes and
    sizes the archived ledger in one walk (verify_pruned_epoch's `write`),
    each block encoded once: `pre_reset_size` counts the bytes written.
    With `archive_dir` they go to its archive_name(channel_id, epoch) file,
    a block at a time, and the ledger is dropped; without,
    ScenarioResult.archives keeps the ledgers.
    """
    fields = sorted(cfg.fields, key=lambda f: f.channel_id)
    pub = PublicChain(
        validators=[f"val-{i}" for i in range(cfg.validators)],
        gateways=[f.gateway_id for f in fields],
        confirmations_required=cfg.confirmations_required,
        ranges=cfg.ranges,
    )
    nodes: dict[str, PrivateNode] = {}
    clients: dict[str, PublicClient] = {}
    for f in fields:
        authors = {s.sensor_id for s in f.sensors} | {f.ops_author}
        nodes[f.channel_id] = PrivateNode(f.channel_id, authors, ranges=cfg.ranges)
        clients[f.channel_id] = PublicClient(pub, f.gateway_id)

    events: list[dict] = []
    archives: dict[tuple[str, int], Ledger] = {}
    final_docs: dict[str, dict | None] = {}
    rows: dict[str, list[dict]] = {f.channel_id: [] for f in fields}
    # Published fields whose nodes are not yet reset, in publication order:
    # (channel, epoch, summary, anchor record, report row so far).
    waiting: deque[tuple[str, int, EpochSummary, AnchorRecord, dict]] = deque()

    def archive(channel: str, epoch: int, summary: EpochSummary, row: dict,
                fresh: PrivateNode) -> None:
        """Put a closed field's fresh node in place of the archived one, then
        audit, write and size the archived ledger and add the report row."""
        node = nodes[channel]
        nodes[channel] = fresh
        if epoch == cfg.epochs - 1:
            final_docs[channel] = node.state.get(channel)
        ledger = node.ledger
        # Dropping the archived node drops its fold's doubles and known
        # ids before the audit walks the archive.
        del node
        sizes: list[int] = []  # the byte count of each block written
        if archive_dir is None:
            archives[channel, epoch] = ledger
        with (nullcontext() if archive_dir is None
              else open(Path(archive_dir, archive_name(channel, epoch)), "wb")) as fh:
            write = len if fh is None else fh.write
            write(LEDGER_HEADER)
            verification = verify_pruned_epoch(ledger, summary, pub,
                                               lambda data: sizes.append(write(data)))
        del ledger
        rows[channel].append({
            **row,
            "anchor_included_height": pub.included[channel, summary.epoch_index],
            "post_reset_size": ledger_size_bytes(fresh.ledger),
            "pre_reset_size": sum(sizes),
            "verification": {"failures": list(verification.failures),
                             "ok": verification.ok},
        })

    def close_confirmed() -> None:
        """Close every waiting field whose anchor is confirmed, oldest first."""
        while waiting and pub.is_confirmed(waiting[0][3]):
            channel, epoch, summary, record, row = waiting.popleft()
            archive(channel, epoch, summary, row,
                    close_epoch(nodes[channel], record, pub, events))

    for epoch in range(cfg.epochs):
        window_start = epoch * cfg.epoch_length
        window_end = (epoch + 1) * cfg.epoch_length
        pub.clock = window_end
        for f in fields:
            node = nodes[f.channel_id]
            txs = generate_readings(f, window_start, window_end, cfg.ranges)
            generated = len(txs)
            ops = generate_context_ops(f, window_start, window_end)
            author = f.ops_author  # one str for every op: the property builds a new one
            txs += [make_transaction(f.channel_id, t, op.op, op_payload(op), author)
                    for t, op in ops]
            cultural = sum(1 for _, op in ops if op.op is TxKind.APPEND_TO_ARRAY)
            del ops  # the transactions carry them; submit parses its own copies
            txs.sort(key=lambda tx: (tx.timestamp, tx.author_id, tx.tx_id))
            for tx in txs:
                node.clock = max(node.clock, tx.timestamp)
                node.submit(tx)
                if len(node.mempool) >= BATCH_SIZE:
                    node.commit_batch()
            del txs
            while node.mempool:
                node.commit_batch()

            last = f is fields[-1]  # no later anchor confirms it: it rolls over alone
            if last:
                summary, record, fresh = rollover_epoch(
                    node, window_start, window_end, clients[f.channel_id], events)
            else:
                summary, record = publish_epoch(
                    node, window_start, window_end, clients[f.channel_id], events)
            del node  # `nodes` alone holds the archived node, so `archive` drops it
            row = {
                "archive_file": archive_name(f.channel_id, epoch),
                "cultural_operations": cultural,
                "epoch_index": summary.epoch_index,
                "excluded": summary.excluded_count,
                "generated": generated,
                "kept": generated - summary.excluded_count,
                "summary": to_json_value(summary),
                "window_end": window_end,
                "window_start": window_start,
            }
            if last:
                # Its heartbeats confirmed every waiting anchor, included before it.
                close_confirmed()
                archive(f.channel_id, epoch, summary, row, fresh)
            else:
                waiting.append((f.channel_id, epoch, summary, record, row))
                close_confirmed()

    all_ok = all(row["verification"]["ok"] for rs in rows.values() for row in rs)
    confirmed = sum(1 for record in pub.anchors.values() if pub.is_confirmed(record))
    report = {
        "channels": {ch: rs for ch, rs in sorted(rows.items())},
        "config": to_json_value(cfg),
        "confirmed_anchors": confirmed,
        "events": events,
        "ok": all_ok,
        "public_head_height": head(pub.ledger)[0],
    }
    return ScenarioResult(report, pub, archives, final_docs)
