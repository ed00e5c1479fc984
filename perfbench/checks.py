"""Output checks, computed apart from the program.

Nothing here imports tcgw. The `.tcgw` files are read with a reader of
their own, written from the wire format in the README; statistics are
recomputed with `decimal` and `statistics`; anchor digests are SHA-256
over the summary encoded with the stdlib `json` module.

Every check returns a list of failure strings, empty when the output is
right, so the benchmark can count failed operations and the tests can
show that each check rejects a wrong input.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import struct
from collections import namedtuple
from decimal import Decimal
from pathlib import Path

from workloads import expected_epoch

MAGIC = b"TCGW"
VERSION = 1
RAW_READING = 3
ANCHOR = 4
REL_TOL = 1e-9

Tx = namedtuple("Tx", "tx_id channel_id timestamp kind payload author_id id_ok payload_offset")
Block = namedtuple("Block", "height previous_hash timestamp tx_root txs block_hash")


class FormatError(ValueError):
    """The file does not follow the `.tcgw` layout."""


def read_ledger(data: bytes) -> list[Block]:
    """Parse `.tcgw` bytes; each Tx records whether sha256(body) equals its tx_id."""
    if data[:4] != MAGIC or data[4:5] != bytes([VERSION]):
        raise FormatError("bad magic or version")
    pos = 5
    blocks = []
    try:
        while pos < len(data):
            height, = struct.unpack_from(">Q", data, pos)
            previous_hash = data[pos + 8:pos + 40]
            timestamp, = struct.unpack_from(">Q", data, pos + 40)
            tx_root = data[pos + 48:pos + 80]
            count, = struct.unpack_from(">I", data, pos + 80)
            pos += 84
            txs = []
            for _ in range(count):
                tx_id = data[pos:pos + 32]
                body_start = pos + 32
                n, = struct.unpack_from(">I", data, body_start)
                channel_id = data[body_start + 4:body_start + 4 + n].decode("utf-8")
                p = body_start + 4 + n
                ts, kind = struct.unpack_from(">QB", data, p)
                n, = struct.unpack_from(">I", data, p + 9)
                payload_offset = p + 13
                payload = data[payload_offset:payload_offset + n]
                p = payload_offset + n
                n, = struct.unpack_from(">I", data, p)
                author_id = data[p + 4:p + 4 + n].decode("utf-8")
                pos = p + 4 + n
                id_ok = hashlib.sha256(data[body_start:pos]).digest() == tx_id
                txs.append(Tx(tx_id, channel_id, ts, kind, payload, author_id, id_ok,
                              payload_offset))
            block_hash = data[pos:pos + 32]
            pos += 32
            if pos > len(data):
                raise FormatError("truncated block")
            blocks.append(Block(height, previous_hash, timestamp, tx_root, tuple(txs),
                                block_hash))
    except (struct.error, UnicodeDecodeError) as exc:
        raise FormatError(str(exc)) from exc
    return blocks


def summary_digest(summary: dict) -> str:
    """Hex SHA-256 of the summary's canonical JSON (sorted keys, compact)."""
    raw = json.dumps(summary, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(raw.encode("utf-8")).hexdigest()


def recompute_stats(readings, ranges) -> tuple[int, dict]:
    """(excluded count, {metric: stats}) from (metric, value string) pairs.

    A reading is kept when its metric has no range or its value lies in the
    inclusive bounds. Stats hold count, mean, population std dev, min, max.
    """
    bounds = {r["metric"]: (Decimal(r["min_valid"]), Decimal(r["max_valid"])) for r in ranges}
    groups: dict[str, list[Decimal]] = {}
    excluded = 0
    for metric, text in readings:
        value = Decimal(text)
        limits = bounds.get(metric)
        if limits is not None and not limits[0] <= value <= limits[1]:
            excluded += 1
            continue
        groups.setdefault(metric, []).append(value)
    stats = {metric: {"count": len(values),
                      "mean": statistics.mean(values),
                      "std_dev": statistics.pstdev(values),
                      "min": min(values),
                      "max": max(values)}
             for metric, values in groups.items()}
    return excluded, stats


def _close(reported: str, exact: Decimal, scale: Decimal) -> bool:
    """Relative match to REL_TOL; `scale` bounds the tolerance near zero."""
    return math.isclose(float(reported), float(exact), rel_tol=REL_TOL,
                        abs_tol=REL_TOL * float(abs(scale)))


def check_stats(summary: dict, excluded: int, stats: dict) -> list[str]:
    """Compare a report summary's stats with recomputed ones."""
    failures = []
    if summary["excluded_count"] != excluded:
        failures.append(f"excluded {summary['excluded_count']} != {excluded}")
    reported = {s["metric"]: s for s in summary["stats"]}
    if sorted(reported) != sorted(stats):
        return failures + [f"metrics {sorted(reported)} != {sorted(stats)}"]
    for metric, mine in stats.items():
        theirs = reported[metric]
        if theirs["count"] != mine["count"]:
            failures.append(f"{metric} count {theirs['count']} != {mine['count']}")
        for key in ("min", "max"):
            if Decimal(theirs[key]) != mine[key]:
                failures.append(f"{metric} {key} {theirs[key]} != {mine[key]}")
        if not _close(theirs["mean"], mine["mean"], 0):
            failures.append(f"{metric} mean {theirs['mean']} != {mine['mean']}")
        if not _close(theirs["std_dev"], mine["std_dev"], mine["mean"]):
            failures.append(f"{metric} std_dev {theirs['std_dev']} != {mine['std_dev']}")
    return failures


def check_epoch(field: dict, cfg: dict, epoch: int, row: dict,
                blocks: list[Block]) -> list[str]:
    """Every check on one archived epoch and its report row."""
    expected = expected_epoch(field, cfg["epoch_length"])
    txs = [tx for block in blocks for tx in block.txs]
    failures = []
    if len(txs) != expected["transactions"]:
        failures.append(f"transactions {len(txs)} != {expected['transactions']}")
    if not all(tx.id_ok for tx in txs):
        failures.append("tx_id does not match its body")
    if row["generated"] != expected["readings"]:
        failures.append(f"generated {row['generated']} != {expected['readings']}")
    if row["cultural_operations"] != expected["appends"]:
        failures.append(f"cultural_operations {row['cultural_operations']} != {expected['appends']}")
    summary = row["summary"]
    window = (epoch * cfg["epoch_length"], (epoch + 1) * cfg["epoch_length"])
    if (summary["window_start"], summary["window_end"]) != window:
        failures.append("window")
    if (summary["ledger_height"], summary["ledger_head_hash"]) != (
            blocks[-1].height, blocks[-1].block_hash.hex()):
        failures.append("ledger head")
    readings = []
    for tx in txs:
        if tx.kind == RAW_READING:
            value = json.loads(tx.payload)
            readings.append((value["metric"], value["value"]))
    excluded, stats = recompute_stats(readings, cfg["ranges"])
    if row["excluded"] != excluded:
        failures.append(f"row excluded {row['excluded']} != {excluded}")
    return failures + check_stats(summary, excluded, stats)


def check_anchors(public: list[Block], report: dict, cfg: dict) -> dict:
    """{(channel, epoch): failures} for every epoch the config implies.

    Each epoch needs exactly one anchor whose digest is SHA-256 of its
    summary, confirmed on the public head, carrying the report's summary.
    An anchor for an epoch the config does not have gets a key of its own.
    """
    head_height = public[-1].height
    out = {(f["channel_id"], e): [] for f in cfg["fields"] for e in range(cfg["epochs"])}
    seen = set()
    for block in public:
        for tx in block.txs:
            if tx.kind != ANCHOR:
                continue
            payload = json.loads(tx.payload)
            if "summary" not in payload:
                continue  # heartbeat
            key = (payload["channel_id"], payload["epoch_index"])
            failures = out.setdefault(key, ["unexpected anchor"])
            if key in seen:
                failures.append("duplicate anchor")
            seen.add(key)
            if not tx.id_ok:
                failures.append("anchor tx_id does not match its body")
            if summary_digest(payload["summary"]) != payload["summary_digest"]:
                failures.append("anchor digest")
            if head_height < block.height + cfg["confirmations_required"]:
                failures.append("anchor unconfirmed")
            rows = report["channels"].get(key[0], [])
            row = next((r for r in rows if r["epoch_index"] == key[1]), None)
            if row is None or row["summary"] != payload["summary"]:
                failures.append("anchored summary differs from the report")
    for key, failures in out.items():
        if key not in seen:
            failures.append("no anchor")
    return out


def flip_payload_byte(src: Path, dst: Path, seed: int) -> int:
    """Copy `src` to `dst` with one payload byte flipped; returns its offset."""
    data = bytearray(src.read_bytes())
    txs = [tx for block in read_ledger(bytes(data)) for tx in block.txs if tx.payload]
    tx = random.Random(seed).choice(txs)
    offset = tx.payload_offset + random.Random(seed + 1).randrange(len(tx.payload))
    data[offset] ^= 0x01
    dst.write_bytes(bytes(data))
    return offset


def check_verify_output(rc: int, stdout: str, archives: list[tuple[str, int]]) -> dict:
    """{(channel, epoch): failures} for `tcgw verify` over untouched archives."""
    lines = set(stdout.splitlines())
    out = {}
    for channel, epoch in archives:
        failures = []
        if f"{channel} epoch {epoch}: ok" not in lines:
            failures.append("not reported ok")
        if rc != 0:
            failures.append(f"exit code {rc}")
        out[(channel, epoch)] = failures
    return out


def check_tamper_output(rc: int, stdout: str, channel: str, epoch: int) -> list[str]:
    """`tcgw verify` on a tampered copy must exit 1 and name the archive."""
    failures = []
    if rc != 1:
        failures.append(f"exit code {rc}, expected 1")
    if not any(line.startswith(f"{channel} epoch {epoch}: FAIL") for line in stdout.splitlines()):
        failures.append(f"{channel} epoch {epoch} not named as failing")
    return failures
