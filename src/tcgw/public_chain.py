"""Simulated public chain: rotating producers, anchors, consumer queries.

Consensus is reduced to what the data-flow claims need: a fixed validator
set produces blocks round-robin, and an anchor counts as confirmed once
the head is `confirmations_required` blocks past its inclusion height.
Only registered gateway identities may submit anchors; reading is open.

Real public networks keep producing blocks whether or not anyone is
transacting. `tick()` models that: it appends a heartbeat transaction
(Anchor kind, payload without a "summary" key) and produces a block, so
confirmation depth can accrue on an otherwise quiet chain. Registry
replay ignores heartbeats.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .canon import canonical_json, canonical_loads, from_json_value, to_json_value
from .errors import DuplicateEpoch, InvalidArgument, LedgerFormatError, UnknownGateway
from .gateway import EpochSummary, summary_digest
from .ledger import (
    Block,
    Ledger,
    Transaction,
    TxKind,
    append_block,
    genesis,
    iter_transactions,
    load_ledger,
    make_transaction,
    save_ledger,
)
from .worldstate import Document

DEFAULT_CONFIRMATIONS = 2
META_SUFFIX = ".meta.json"


@dataclass
class AnchorRecord:
    """One published summary, pending until included; see PublicChain.is_confirmed."""

    channel_id: str
    epoch_index: int
    summary_digest: bytes
    summary: EpochSummary
    submitted_by: str
    included_height: int | None = None


def _anchor_payload(summary: EpochSummary, digest: bytes, author: str) -> bytes:
    return canonical_json({
        "channel_id": summary.channel_id,
        "epoch_index": summary.epoch_index,
        "submitted_by": author,
        "summary": to_json_value(summary),
        "summary_digest": digest.hex(),
    })


class PublicChain:
    """Single-owner simulation of the open ledger side."""

    def __init__(self, validators: Iterable[str], gateways: Iterable[str] = (),
                 confirmations_required: int = DEFAULT_CONFIRMATIONS,
                 chain_id: str = "public", clock: int = 0):
        self.validators = list(validators)
        if not self.validators:
            raise InvalidArgument("need at least one validator")
        if confirmations_required < 1:
            raise InvalidArgument("confirmations_required must be positive")
        self.gateways = set(gateways)
        self.confirmations_required = confirmations_required
        self.clock = clock
        self.ledger: Ledger = genesis(chain_id)
        # Queued transactions, each with its anchor record (None for heartbeats).
        self.pending: list[tuple[Transaction, AnchorRecord | None]] = []
        self.registry: dict[str, list[AnchorRecord]] = {}
        self._tick_seq = 0

    @property
    def chain_id(self) -> str:
        return self.ledger.chain_id

    @property
    def producers(self) -> list[str]:
        """Validator that produced each block after genesis, in height order."""
        return [self._producer(h) for h in range(1, self.ledger.blocks[-1].height + 1)]

    def _producer(self, height: int) -> str:
        return self.validators[(height - 1) % len(self.validators)]

    def is_confirmed(self, record: AnchorRecord) -> bool:
        """True once the head is `confirmations_required` blocks past the anchor."""
        return (record.included_height is not None
                and self.ledger.blocks[-1].height
                >= record.included_height + self.confirmations_required)

    def next_epoch_index(self, channel_id: str) -> int:
        """Index the next anchor for this channel will carry."""
        queued = sum(1 for _, rec in self.pending
                     if rec is not None and rec.channel_id == channel_id)
        return len(self.registry.get(channel_id, [])) + queued

    def submit_anchor(self, summary: EpochSummary, author: str) -> AnchorRecord:
        """Queue an anchor transaction; one anchor per (channel, epoch)."""
        if author not in self.gateways:
            raise UnknownGateway(f"{author!r} is not a registered gateway")
        key = (summary.channel_id, summary.epoch_index)
        if self.find_anchor(*key) is not None:
            raise DuplicateEpoch(f"anchor for {key} already included")
        for _, rec in self.pending:
            if rec is not None and (rec.channel_id, rec.epoch_index) == key:
                raise DuplicateEpoch(f"anchor for {key} already pending")
        digest = summary_digest(summary)
        tx = make_transaction(summary.channel_id, self.clock, TxKind.ANCHOR,
                              _anchor_payload(summary, digest, author), author)
        record = AnchorRecord(summary.channel_id, summary.epoch_index,
                              digest, summary, author)
        self.pending.append((tx, record))
        return record

    def produce_block(self) -> Block | None:
        """Next round-robin validator packages all pending transactions."""
        if not self.pending:
            return None
        batch = self.pending
        self.pending = []
        self.ledger, block = append_block(self.ledger, [tx for tx, _ in batch], self.clock)
        for _, record in batch:
            if record is not None:
                record.included_height = block.height
                self.registry.setdefault(record.channel_id, []).append(record)
        return block

    def tick(self) -> Block:
        """Heartbeat block: advances the head (and confirmations) by one."""
        self._tick_seq += 1
        producer = self._producer(self.ledger.blocks[-1].height + 1)
        tx = make_transaction(self.chain_id, self.clock, TxKind.ANCHOR,
                              canonical_json({"tick": self._tick_seq}), producer)
        self.pending.append((tx, None))
        block = self.produce_block()
        assert block is not None
        return block

    def find_anchor(self, channel_id: str, epoch_index: int) -> AnchorRecord | None:
        for rec in self.registry.get(channel_id, []):
            if rec.epoch_index == epoch_index:
                return rec
        return None

    def query_channel(self, channel_id: str) -> list[AnchorRecord]:
        """Confirmed anchors for a channel, in epoch order."""
        records = [rec for rec in self.registry.get(channel_id, []) if self.is_confirmed(rec)]
        return sorted(records, key=lambda rec: rec.epoch_index)

    def trace_product(self, channel_id: str, doc: Document | dict | None = None) -> dict:
        """Consumer view: confirmed summaries plus the in-progress document.

        Returns a JSON value (canonical-encodable). When `doc` is given the
        trace also reports the current field values and the length of the
        "Cultural Operations" array.
        """
        trace: dict = {
            "channel_id": channel_id,
            "summaries": [to_json_value(rec.summary) for rec in self.query_channel(channel_id)],
        }
        if doc is not None:
            body = doc.body if isinstance(doc, Document) else doc
            ops = body.get("Cultural Operations", [])
            trace["cultural_operations_count"] = len(ops) if isinstance(ops, list) else 0
            trace["current_values"] = body
        return trace

    def save(self, path: str | Path) -> Path:
        """Persist ledger as .tcgw plus a sidecar with the chain parameters."""
        path = Path(path)
        save_ledger(self.ledger, path)
        meta = {
            "chain_id": self.chain_id,
            "clock": self.clock,
            "confirmations_required": self.confirmations_required,
            "gateways": sorted(self.gateways),
            "tick_seq": self._tick_seq,
            "validators": self.validators,
        }
        Path(str(path) + META_SUFFIX).write_bytes(canonical_json(meta))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PublicChain":
        path = Path(path)
        meta_path = Path(str(path) + META_SUFFIX)
        if not meta_path.exists():
            raise LedgerFormatError(f"missing chain metadata {meta_path}")
        meta = canonical_loads(meta_path.read_bytes())
        chain = cls(meta["validators"], meta["gateways"],
                    confirmations_required=meta["confirmations_required"],
                    chain_id=meta["chain_id"], clock=meta["clock"])
        chain.ledger = load_ledger(path, chain_id=meta["chain_id"])
        chain._tick_seq = meta["tick_seq"]
        chain.registry = rebuild_registry(chain.ledger)
        return chain


def rebuild_registry(ledger: Ledger) -> dict[str, list[AnchorRecord]]:
    """Reconstruct the anchor registry purely from ledger contents.

    Heartbeat payloads (no "summary" key) are skipped. Digests are kept as
    published; verify_pruned_epoch checks them against their summaries.
    """
    registry: dict[str, list[AnchorRecord]] = {}
    for height, _, tx in iter_transactions(ledger):
        if tx.kind is not TxKind.ANCHOR:
            continue
        payload = canonical_loads(tx.payload)
        if not isinstance(payload, dict) or "summary" not in payload:
            continue
        summary = from_json_value(EpochSummary, payload["summary"])
        record = AnchorRecord(
            channel_id=payload["channel_id"],
            epoch_index=payload["epoch_index"],
            summary_digest=from_json_value(bytes, payload["summary_digest"]),
            summary=summary,
            submitted_by=payload["submitted_by"],
            included_height=height,
        )
        registry.setdefault(record.channel_id, []).append(record)
    return registry


class PublicClient:
    """A gateway's handle on the chain, bound to its identity."""

    def __init__(self, chain: PublicChain, author: str):
        self.chain = chain
        self.author = author

    def next_epoch_index(self, channel_id: str) -> int:
        return self.chain.next_epoch_index(channel_id)

    def submit_anchor(self, summary: EpochSummary) -> AnchorRecord:
        return self.chain.submit_anchor(summary, self.author)

    def confirm(self, record: AnchorRecord, max_blocks: int | None = None) -> bool:
        """Drive block production until `record` confirms; True on success."""
        limit = max_blocks if max_blocks is not None else self.chain.confirmations_required + 2
        self.chain.produce_block()
        produced = 0
        while not self.chain.is_confirmed(record) and produced < limit:
            self.chain.tick()
            produced += 1
        return self.chain.is_confirmed(record)
