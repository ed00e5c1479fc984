"""Builders and tamper helpers shared across the test modules."""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

from tcgw import (
    PrivateNode,
    PublicClient,
    TxKind,
    append_block,
    genesis,
    make_transaction,
)
from tcgw.canon import canonical_json, canonical_loads
from tcgw.ledger import Ledger, Transaction
from tcgw.private_chain import reading_fields
from tcgw.rng import SplitMix64, derive_seed


class Reading(NamedTuple):
    """A reading's four payload fields, unchecked: the payload's readers check."""

    sensor_id: str
    metric: str
    value: str
    timestamp: int


def reference_payload(reading: Reading) -> bytes:
    """canonical_json of the four keys reading_fields reads: the reference
    writer, independent of the template reading_payload writes from."""
    return canonical_json({"metric": reading.metric, "sensor_id": reading.sensor_id,
                           "timestamp": reading.timestamp, "value": reading.value})


def reading_transaction(channel: str, reading: Reading) -> Transaction:
    """RawReading transaction authored by the sensor at the reading's time."""
    return make_transaction(channel, reading.timestamp, TxKind.RAW_READING,
                            reference_payload(reading), reading.sensor_id)


def make_reading(i: int, sensor: str = "s-0", metric: str = "temperature_c",
                 value: str | None = None, timestamp: int | None = None) -> Reading:
    return Reading(sensor, metric, value if value is not None else f"{20 + i % 10}.5",
                   timestamp if timestamp is not None else i)


def reading_tx(channel: str, i: int, **kwargs) -> Transaction:
    return reading_transaction(channel, make_reading(i, **kwargs))


def tx_readings(txs) -> list[Reading]:
    """The readings that RawReading transactions carry, read back from each
    payload through the reference reading_fields(canonical_loads()), in order."""
    return [Reading(*reading_fields(canonical_loads(tx.payload))[:4]) for tx in txs]


def ledger_readings(ledger: Ledger, start: int, end: int) -> list[Reading]:
    """The ledger's RawReading payloads with start <= timestamp < end, in
    commit order, read by the reference."""
    return tx_readings(tx for block in ledger for tx in block.transactions
                       if tx.kind is TxKind.RAW_READING and start <= tx.timestamp < end)


def build_ledger(channel: str = "fieldA", n_txs: int = 50, per_block: int = 1) -> Ledger:
    """Ledger of n_txs single-reading transactions, per_block per block."""
    ledger = genesis()
    for start in range(0, n_txs, per_block):
        txs = [reading_tx(channel, i) for i in range(start, min(start + per_block, n_txs))]
        ledger, _ = append_block(ledger, txs, txs[-1].timestamp)
    return ledger


def node_with_readings(channel: str = "fieldA", n: int = 60,
                       window_start: int = 0, spacing: int = 10,
                       sensor: str = "s-0", seed: int = 7, ranges=()) -> PrivateNode:
    """Committed node whose readings all fall in [window_start, window_start+n*spacing),
    folded under `ranges`."""
    node = PrivateNode(channel, {sensor}, ranges=ranges)
    rng = SplitMix64(derive_seed(seed, channel))
    for i in range(n):
        ts = window_start + i * spacing
        reading = Reading(sensor, "temperature_c", f"{rng.uniform(5, 35):.3f}", ts)
        node.clock = ts
        node.submit(reading_transaction(channel, reading))
    while node.mempool:
        node.commit_batch()
    return node


class NeverConfirms(PublicClient):
    """A client whose anchor is included but never reaches confirmation depth."""

    def confirm(self, record):
        self.chain.produce_block()
        return False


def flip_byte(data: bytes, index: int, bit: int = 0x01) -> bytes:
    return data[:index] + bytes([data[index] ^ bit]) + data[index + 1:]


def tamper_ledger(ledger: Ledger, height: int, target: str,
                  byte_index: int = 0, tx_index: int = 0) -> Ledger:
    """Copy of `ledger` with one byte flipped in the chosen field of block `height`."""
    block = ledger[height]
    if target == "payload":
        tx = block.transactions[tx_index]
        new_tx = dataclasses.replace(tx, payload=flip_byte(tx.payload, byte_index))
        txs = block.transactions[:tx_index] + (new_tx,) + block.transactions[tx_index + 1:]
        new_block = dataclasses.replace(block, transactions=txs)
    elif target == "tx_id":
        tx = block.transactions[tx_index]
        new_tx = dataclasses.replace(tx, tx_id=flip_byte(tx.tx_id, byte_index))
        txs = block.transactions[:tx_index] + (new_tx,) + block.transactions[tx_index + 1:]
        new_block = dataclasses.replace(block, transactions=txs)
    elif target == "tx_root":
        new_block = dataclasses.replace(block, tx_root=flip_byte(block.tx_root, byte_index))
    elif target == "previous_hash":
        new_block = dataclasses.replace(block, previous_hash=flip_byte(block.previous_hash, byte_index))
    elif target == "block_hash":
        new_block = dataclasses.replace(block, block_hash=flip_byte(block.block_hash, byte_index))
    else:
        raise ValueError(f"unknown tamper target {target}")
    return ledger[:height] + (new_block,) + ledger[height + 1:]
