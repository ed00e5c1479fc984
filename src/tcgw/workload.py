"""Deterministic sensor workload and end-to-end scenario runner.

Five fields (one per crop), each with its own private chain, a gateway,
and a seeded sensor set. A scenario iterates epochs: generate readings
and cultural operations, commit them in batches, roll the epoch over
(summarize + anchor + reset), and verify the pruned epoch against the
public chain. Everything derives from the per-field seeds, so two runs of
the same config produce identical reports, ledgers, and anchor digests.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from pathlib import Path

from .canon import canonical_loads, from_json_value, to_json_value
from .errors import InvalidArgument, InvalidWindow
from .gateway import ValidityRange, rollover_epoch, verify_pruned_epoch
from .ledger import Ledger, TxKind, head, ledger_size_bytes, make_transaction
from .private_chain import (
    METRICS,
    PrivateNode,
    SensorReading,
    reading_transaction,
)
from .public_chain import PublicChain, PublicClient
from .rng import SplitMix64, derive_seed
from .worldstate import ContextOp, op_payload, read_document

PRODUCTS = ("asparagus", "pomegranate", "almond", "tomato", "durum_wheat")

CULTURAL_OPERATIONS = ("irrigation", "fertilization", "pruning", "weeding", "pest_control")
OPERATIONS_ARRAY = "Cultural Operations"
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

DEFAULT_VALIDITY_RANGES = (
    ValidityRange("temperature_c", "-20", "60"),
    ValidityRange("humidity_pct", "0", "100"),
    ValidityRange("rain_pct", "0", "100"),
    ValidityRange("wind_speed_ms", "0", "40"),
)


@dataclass(frozen=True)
class SensorSpec:
    sensor_id: str
    metric: str
    interval: int
    low: str
    high: str

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidArgument(f"unknown metric {self.metric!r}")
        if self.interval <= 0:
            raise InvalidArgument("sampling interval must be positive")
        if Decimal(self.low) > Decimal(self.high):
            raise InvalidArgument(f"empty distribution for {self.sensor_id}")


@dataclass(frozen=True)
class FieldConfig:
    channel_id: str
    product: str
    sensors: tuple[SensorSpec, ...]
    fault_rate: str
    seed: int
    ops_interval: int = DEFAULT_OPS_INTERVAL

    def __post_init__(self):
        if not self.channel_id:
            raise InvalidArgument("channel_id must be non-empty")
        if self.product not in PRODUCTS:
            raise InvalidArgument(f"unknown product {self.product!r}")
        if not self.sensors:
            raise InvalidArgument(f"field {self.channel_id} has no sensors")
        try:
            rate = Decimal(self.fault_rate)
        except InvalidOperation as exc:
            raise InvalidArgument(f"fault_rate {self.fault_rate!r} is not a decimal") from exc
        if not (0 <= rate <= 1):
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
    confirmations_required: int = 2

    def __post_init__(self):
        if not self.fields:
            raise InvalidArgument("scenario needs at least one field")
        if self.epochs < 1:
            raise InvalidArgument("epochs must be >= 1")
        if self.epoch_length <= 0:
            raise InvalidArgument("epoch_length must be positive")
        channels = [f.channel_id for f in self.fields]
        if len(set(channels)) != len(channels):
            raise InvalidArgument("channel ids must be unique")
        if self.validators < 1:
            raise InvalidArgument("need at least one validator")


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
                      ranges=DEFAULT_VALIDITY_RANGES) -> list[SensorReading]:
    """One reading per sensor per sampling interval, deterministic in (seed, window).

    With probability fault_rate a reading is replaced by an out-of-scale
    spike (ten times the metric's max_valid), simulating malfunction.
    """
    if window_start >= window_end:
        raise InvalidWindow(f"[{window_start}, {window_end}) is empty or inverted")
    fault_rate = float(Decimal(cfg.fault_rate))
    readings: list[SensorReading] = []
    for sensor in cfg.sensors:
        rng = SplitMix64(derive_seed(
            cfg.seed, f"readings/{cfg.channel_id}/{sensor.sensor_id}/{window_start}:{window_end}"))
        low, high = float(Decimal(sensor.low)), float(Decimal(sensor.high))
        spike = _spike_value(sensor.metric, ranges)
        t = window_start
        while t < window_end:
            sampled = rng.uniform(low, high)
            faulty = rng.random() < fault_rate
            value = spike if faulty else f"{sampled:.3f}"
            readings.append(SensorReading(sensor.sensor_id, sensor.metric, value, t))
            t += sensor.interval
    return readings


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
    """Run outcome: the JSON report plus the live artifacts behind it."""

    report: dict
    public_chain: PublicChain
    archives: dict[tuple[str, int], Ledger]
    final_docs: dict[str, dict | None]
    events: list[dict]


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    """Drive every field through every epoch; see the module docstring.

    Fields are processed per epoch in channel order, which fixes the public
    submission interleaving and hence the whole run.
    """
    fields = sorted(cfg.fields, key=lambda f: f.channel_id)
    pub = PublicChain(
        validators=[f"val-{i}" for i in range(cfg.validators)],
        gateways=[f.gateway_id for f in fields],
        confirmations_required=cfg.confirmations_required,
    )
    nodes: dict[str, PrivateNode] = {}
    clients: dict[str, PublicClient] = {}
    for f in fields:
        authors = {s.sensor_id for s in f.sensors} | {f.ops_author}
        nodes[f.channel_id] = PrivateNode(f.channel_id, authors)
        clients[f.channel_id] = PublicClient(pub, f.gateway_id)

    events: list[dict] = []
    archives: dict[tuple[str, int], Ledger] = {}
    final_docs: dict[str, dict | None] = {}
    rows: dict[str, list[dict]] = {f.channel_id: [] for f in fields}

    for epoch in range(cfg.epochs):
        window_start = epoch * cfg.epoch_length
        window_end = (epoch + 1) * cfg.epoch_length
        for f in fields:
            node = nodes[f.channel_id]
            readings = generate_readings(f, window_start, window_end, cfg.ranges)
            ops = generate_context_ops(f, window_start, window_end)
            txs = [reading_transaction(f.channel_id, r) for r in readings]
            txs += [make_transaction(f.channel_id, t, op.op, op_payload(op), f.ops_author)
                    for t, op in ops]
            txs.sort(key=lambda tx: (tx.timestamp, tx.author_id, tx.tx_id))
            for tx in txs:
                node.clock = max(node.clock, tx.timestamp)
                node.submit(tx)
                if len(node.mempool) >= node.batch_size:
                    node.commit_batch()
            while node.mempool:
                node.commit_batch()

            doc = read_document(node.state, f.channel_id)
            doc_body = doc.body if doc else None
            pre_size = ledger_size_bytes(node.ledger)
            pub.clock = window_end
            summary, record, new_node = rollover_epoch(
                node, cfg.ranges, window_start, window_end,
                clients[f.channel_id], trace=events)
            archive = archives[(f.channel_id, epoch)] = node.ledger
            # Rebinding drops the archived node, and its held readings with
            # it, before the audit builds its own.
            nodes[f.channel_id] = node = new_node
            verification = verify_pruned_epoch(archive, summary, pub, cfg.ranges)
            if epoch == cfg.epochs - 1:
                final_docs[f.channel_id] = doc_body

            cultural = sum(1 for _, op in ops if op.op is TxKind.APPEND_TO_ARRAY)
            rows[f.channel_id].append({
                "anchor_included_height": record.included_height,
                "archive_file": f"{f.channel_id}.epoch{epoch}.tcgw",
                "cultural_operations": cultural,
                "epoch_index": summary.epoch_index,
                "excluded": summary.excluded_count,
                "generated": len(readings),
                "kept": len(readings) - summary.excluded_count,
                "post_reset_size": ledger_size_bytes(node.ledger),
                "pre_reset_size": pre_size,
                "summary": to_json_value(summary),
                "verification": {"failures": list(verification.failures),
                                 "ok": verification.ok},
                "window_end": window_end,
                "window_start": window_start,
            })

    all_ok = all(row["verification"]["ok"] for rs in rows.values() for row in rs)
    confirmed = sum(len(pub.query_channel(f.channel_id)) for f in fields)
    report = {
        "channels": {ch: rs for ch, rs in sorted(rows.items())},
        "config": to_json_value(cfg),
        "confirmed_anchors": confirmed,
        "events": events,
        "ok": all_ok,
        "public_head_height": head(pub.ledger)[0],
    }
    return ScenarioResult(report, pub, archives, final_docs, events)
