"""Benchmark harness: storage growth and batch-commit latency.

For each level N the harness builds a ledger of N single-reading
transactions (blocks of 100, fixed seed), records its canonical size, and
times committing one batch of 100 fresh transactions onto it. Timings are
the median of three repetitions on a monotonic clock. With verify_mode on
the timed region includes a full chain verification, the regime where cost
grows with N; with it off, only the incremental submit+commit is timed.

Absolute numbers are machine- and serialization-specific and are not
comparison targets; the reproducible claims are the growth laws (see
NOTE), which the CSV and fit report make checkable.
"""

from __future__ import annotations

import copy
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .canon import canonical_json
from .errors import InvalidArgument
from .ledger import Ledger, append_block, genesis, ledger_size_bytes, verify_chain
from .private_chain import PrivateNode, SensorReading, reading_transaction
from .rng import SplitMix64, derive_seed

DEFAULT_LEVELS = (0, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000, 500000)
DEFAULT_MAX_LEVEL = 100_000

BENCH_CHANNEL = "bench"
BENCH_SENSOR = "bench-probe"
BENCH_SEED = 0x7C6877
BATCH = 100
REPETITIONS = 3

NOTE = (
    "Storage and timing magnitudes depend on this host and serialization and are "
    "not comparison targets; the reproducible claims are monotone storage growth, "
    "near-linear in transaction count, and verify-mode batch time growing with "
    "chain length. batch_seconds at n_existing=0 is a real measurement here; "
    "external baselines printing 0 there mean 'not measured'."
)


@dataclass(frozen=True)
class BenchPoint:
    n_existing: int
    occupied_bytes: int
    batch_seconds: float


def _check_levels(levels: Sequence[int]) -> None:
    if not levels:
        raise InvalidArgument("need at least one level")
    if any(n < 0 for n in levels):
        raise InvalidArgument("levels must be non-negative")
    if list(levels) != sorted(set(levels)):
        raise InvalidArgument("levels must be strictly ascending")


def _readings(count: int, first_timestamp: int, stream: str) -> list[SensorReading]:
    rng = SplitMix64(derive_seed(BENCH_SEED, stream))
    return [
        SensorReading(BENCH_SENSOR, "temperature_c",
                      f"{rng.uniform(5.0, 35.0):.3f}", first_timestamp + i)
        for i in range(count)
    ]


def build_reading_ledger(n: int) -> Ledger:
    """Ledger holding n deterministic single-reading transactions."""
    ledger = genesis(BENCH_CHANNEL)
    readings = _readings(n, 0, "base")
    for start in range(0, n, BATCH):
        chunk = readings[start:start + BATCH]
        txs = [reading_transaction(BENCH_CHANNEL, r) for r in chunk]
        ledger, _ = append_block(ledger, txs, chunk[-1].timestamp)
    return ledger


def _time_batch(base_node: PrivateNode, level: int, rep: int, verify_mode: bool) -> float:
    node = copy.copy(base_node)
    readings = _readings(BATCH, level + 1 + rep * BATCH, f"batch/{level}/{rep}")
    txs = [reading_transaction(BENCH_CHANNEL, r) for r in readings]
    started = time.perf_counter()
    for tx in txs:
        node.submit(tx)
    node.clock = txs[-1].timestamp
    node.commit_batch()
    if verify_mode:
        report = verify_chain(node.ledger)
        assert report.ok
    return time.perf_counter() - started


def bench_memory(levels: Sequence[int] = DEFAULT_LEVELS) -> list[BenchPoint]:
    """Occupied bytes per level; deterministic for a fixed seed."""
    _check_levels(levels)
    return [BenchPoint(n, ledger_size_bytes(build_reading_ledger(n)), 0.0)
            for n in levels]


def bench_batch_time(levels: Sequence[int] = DEFAULT_LEVELS,
                     verify_mode: bool = True) -> list[BenchPoint]:
    """Median batch-commit seconds (and occupied bytes) per level."""
    _check_levels(levels)
    points = []
    for n in levels:
        base = build_reading_ledger(n)
        node = PrivateNode(BENCH_CHANNEL, {BENCH_SENSOR}, ledger=base,
                           clock=base.blocks[-1].timestamp)
        times = [_time_batch(node, n, rep, verify_mode) for rep in range(REPETITIONS)]
        points.append(BenchPoint(n, ledger_size_bytes(base), statistics.median(times)))
    return points


def emit_csv(points: Sequence[BenchPoint], path: str | Path) -> Path:
    """Write `transactions,occupied_mb,batch_seconds`, one row per point."""
    path = Path(path)
    lines = ["transactions,occupied_mb,batch_seconds"]
    for p in points:
        mb = p.occupied_bytes / 1_000_000
        lines.append(f"{p.n_existing},{mb:.3f},{p.batch_seconds:.6f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r_squared: float


def fit_storage(points: Sequence[BenchPoint], min_level: int = 100) -> LinearFit:
    """Least-squares fit of occupied_bytes against n_existing, levels >= min_level."""
    xs = [p.n_existing for p in points if p.n_existing >= min_level]
    ys = [p.occupied_bytes for p in points if p.n_existing >= min_level]
    if len(xs) < 2:
        raise InvalidArgument(f"need at least two levels >= {min_level} to fit")
    slope, intercept = statistics.linear_regression(xs, ys)
    r = statistics.correlation(xs, ys)
    return LinearFit(slope, intercept, r * r)


def bench_report(points: Sequence[BenchPoint], fit: LinearFit | None,
                 verify_mode: bool) -> dict:
    """JSON value for the fit report (floats carried as decimal strings)."""
    report = {
        "note": NOTE,
        "points": [
            {"batch_seconds": repr(p.batch_seconds), "n_existing": p.n_existing,
             "occupied_bytes": p.occupied_bytes}
            for p in points
        ],
        "verify_mode": verify_mode,
    }
    if fit is not None:
        report["fit"] = {
            "intercept": repr(fit.intercept),
            "r_squared": repr(fit.r_squared),
            "slope": repr(fit.slope),
        }
    return report


def write_bench_report(points: Sequence[BenchPoint], fit: LinearFit | None,
                       verify_mode: bool, path: str | Path) -> Path:
    path = Path(path)
    path.write_bytes(canonical_json(bench_report(points, fit, verify_mode)))
    return path
