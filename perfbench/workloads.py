"""Scenario configs for the benchmark workloads, generated from a seed.

Only the stdlib is used here: a config is plain JSON that `tcgw run
--config` reads, and the transaction counts a config implies are worked
out arithmetically, apart from the program, so the output checks can
compare against them.
"""

from __future__ import annotations

import hashlib
import math

DAY = 86_400
HOUR = 3_600

PRODUCTS = ("asparagus", "pomegranate", "almond", "tomato", "durum_wheat")
METRICS = ("temperature_c", "humidity_pct", "rain_pct", "wind_speed_ms")

# Sampling distributions and validity ranges of the bundled scenario.
DISTRIBUTIONS = {
    "temperature_c": ("5", "35"),
    "humidity_pct": ("20", "90"),
    "rain_pct": ("0", "100"),
    "wind_speed_ms": ("0", "20"),
}
RANGES = (
    {"metric": "temperature_c", "min_valid": "-20", "max_valid": "60"},
    {"metric": "humidity_pct", "min_valid": "0", "max_valid": "100"},
    {"metric": "rain_pct", "min_valid": "0", "max_valid": "100"},
    {"metric": "wind_speed_ms", "min_valid": "0", "max_valid": "40"},
)
FAULT_RATE = "0.05"
CONFIRMATIONS = 2


def field_seed(seed: int, label: str) -> int:
    """64-bit field seed derived from the benchmark seed and a field label."""
    digest = hashlib.sha256(f"perfbench/{seed}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def _sensor(sensor_id: str, metric: str, interval: int) -> dict:
    low, high = DISTRIBUTIONS[metric]
    return {"high": high, "interval": interval, "low": low,
            "metric": metric, "sensor_id": sensor_id}


def _scenario(fields: list[dict], epoch_length: int, epochs: int) -> dict:
    return {
        "confirmations_required": CONFIRMATIONS,
        "epoch_length": epoch_length,
        "epochs": epochs,
        "fields": fields,
        "ranges": [dict(r) for r in RANGES],
        "validators": 4,
    }


def bundled(seed: int) -> dict:
    """The bundled deployment (default_scenario's shape), field seeds from `seed`.

    Five fields, one per crop, each with an hourly temperature and humidity
    sensor and a daily rain sensor; operations every 3 days; two 30-day epochs.
    """
    fields = []
    for product in PRODUCTS:
        sensors = [_sensor(f"{product}-{metric.split('_')[0]}", metric, interval)
                   for metric, interval in (("temperature_c", HOUR),
                                            ("humidity_pct", HOUR),
                                            ("rain_pct", DAY))]
        fields.append({"channel_id": product, "fault_rate": FAULT_RATE,
                       "ops_interval": 3 * DAY, "product": product,
                       "seed": field_seed(seed, product), "sensors": sensors})
    return _scenario(fields, 30 * DAY, 2)


def dense(seed: int) -> dict:
    """One field, four sensors every minute, an operation every two minutes.

    One week-long epoch of 45,360 transactions: one device's ledger is as
    large as it gets before pruning. A second epoch would double the time
    of a round and leave fewer rounds to take medians over.
    """
    channel = "tomato-dense"
    sensors = [_sensor(f"{channel}-{metric.split('_')[0]}", metric, 60) for metric in METRICS]
    fields = [{"channel_id": channel, "fault_rate": FAULT_RATE, "ops_interval": 120,
               "product": "tomato", "seed": field_seed(seed, channel), "sensors": sensors}]
    return _scenario(fields, 7 * DAY, 1)


def fleet(seed: int) -> dict:
    """50 fields over 20 one-day epochs, one sensor every 6 h, operations every 12 h.

    Six transactions per field and epoch and 1,000 anchors: fixed costs per
    epoch and the public chain dominate. 100 fields (2,000 anchors) fit
    only five rounds in a 30-second run, too few for a steady median.
    """
    fields = []
    for i in range(50):
        product = PRODUCTS[i % len(PRODUCTS)]
        metric = METRICS[i % len(METRICS)]
        channel = f"{product}-{i:03d}"
        fields.append({"channel_id": channel, "fault_rate": FAULT_RATE,
                       "ops_interval": 12 * HOUR, "product": product,
                       "seed": field_seed(seed, channel),
                       "sensors": [_sensor(f"{channel}-s", metric, 6 * HOUR)]})
    return _scenario(fields, DAY, 20)


WORKLOADS = {"bundled": bundled, "dense": dense, "fleet": fleet}


def expected_epoch(field: dict, epoch_length: int) -> dict:
    """Transaction counts one epoch of `field` must produce.

    Each sensor samples at window_start, window_start + interval, ... while
    inside the window; operations append at every ops_interval strictly
    after window_start, plus one plant-density update per epoch.
    """
    readings = sum(math.ceil(epoch_length / s["interval"]) for s in field["sensors"])
    appends = math.ceil(epoch_length / field["ops_interval"]) - 1
    return {"readings": readings, "appends": appends,
            "transactions": readings + appends + 1}


def expected_totals(cfg: dict) -> dict:
    """Whole-scenario counts: transactions, readings, epochs (channel-epochs)."""
    per_field = [expected_epoch(f, cfg["epoch_length"]) for f in cfg["fields"]]
    epochs = cfg["epochs"]
    return {
        "transactions": epochs * sum(e["transactions"] for e in per_field),
        "readings": epochs * sum(e["readings"] for e in per_field),
        "epochs": epochs * len(cfg["fields"]),
    }
