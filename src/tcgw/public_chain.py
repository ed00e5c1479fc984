"""Simulated public chain: rotating producers, anchors, consumer queries.

Consensus is reduced to what the data-flow claims need: a fixed validator
set produces blocks round-robin, and an anchor counts as confirmed once
the head is `confirmations_required` blocks past its inclusion height.
Only registered gateway identities may submit anchors; reading is open.

Real public networks keep producing blocks whether or not anyone is
transacting. `tick()` models that: it appends a heartbeat transaction
(Anchor kind, payload without a "summary" key) and produces a block, so
confirmation depth can accrue on an otherwise quiet chain.

`load` rebuilds the chain from its ledger and ChainParams sidecar in one
verify_chain walk that accepts only what submit_anchor and tick could write.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .canon import canonical_json, canonical_loads, from_json_value, to_json_value
from .errors import (DuplicateEpoch, InvalidArgument, InvalidChain, LedgerFormatError,
                     TcgwError, UnknownGateway, UnsupportedValue)
from .gateway import EpochSummary, summary_digest
from .ledger import (Block, Ledger, Transaction, TxKind, append_block, genesis, load_ledger,
                     make_transaction, save_ledger, verify_chain)
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


@dataclass(frozen=True)
class AnchorPayload:
    """The JSON an anchor transaction carries."""

    channel_id: str
    epoch_index: int
    submitted_by: str
    summary: EpochSummary
    summary_digest: bytes


@dataclass(frozen=True)
class ChainParams:
    """The sidecar: what a chain's ledger does not carry itself."""

    chain_id: str
    confirmations_required: int
    gateways: tuple[str, ...]
    validators: tuple[str, ...]


class PublicChain:
    """Single-owner simulation of the open ledger side."""

    def __init__(self, validators: Iterable[str], gateways: Iterable[str] = (),
                 confirmations_required: int = DEFAULT_CONFIRMATIONS,
                 chain_id: str = "public"):
        self.validators = list(validators)
        if not self.validators:
            raise InvalidArgument("need at least one validator")
        if confirmations_required < 1:
            raise InvalidArgument("confirmations_required must be positive")
        self.gateways = set(gateways)
        self.confirmations_required = confirmations_required
        self.clock = 0
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

    def _admit(self, channel_id: str, epoch_index: int, author: str) -> None:
        """Anchor rule, at submit and load: a registered gateway, one per (channel, epoch)."""
        if author not in self.gateways:
            raise UnknownGateway(f"unknown gateway {author!r}")
        key = (channel_id, epoch_index)
        if self.find_anchor(*key) is not None:
            raise DuplicateEpoch(f"anchor for {key} already included")
        for _, rec in self.pending:
            if rec is not None and (rec.channel_id, rec.epoch_index) == key:
                raise DuplicateEpoch(f"anchor for {key} already pending")

    def submit_anchor(self, summary: EpochSummary, author: str) -> AnchorRecord:
        """Queue an anchor transaction that passes `_admit`."""
        self._admit(summary.channel_id, summary.epoch_index, author)
        digest = summary_digest(summary)
        payload = AnchorPayload(summary.channel_id, summary.epoch_index, author, summary, digest)
        tx = make_transaction(summary.channel_id, self.clock, TxKind.ANCHOR,
                              canonical_json(to_json_value(payload)), author)
        record = AnchorRecord(**vars(payload))
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
        """Persist the ledger as .tcgw plus a sidecar holding its ChainParams."""
        path = Path(path)
        save_ledger(self.ledger, path)
        params = ChainParams(self.chain_id, self.confirmations_required,
                             tuple(sorted(self.gateways)), tuple(self.validators))
        Path(str(path) + META_SUFFIX).write_bytes(canonical_json(to_json_value(params)))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PublicChain":
        """Read what `save` wrote. A malformed file raises LedgerFormatError; a
        ledger that fails verify_chain, or holds a transaction `submit_anchor`
        or `tick` could not have written there, raises InvalidChain. Digests
        are kept as published; verify_pruned_epoch checks them."""
        path = Path(path)
        meta_path = Path(str(path) + META_SUFFIX)
        if not meta_path.exists():
            raise LedgerFormatError(f"missing chain metadata {meta_path}")
        try:
            params = from_json_value(ChainParams, canonical_loads(meta_path.read_bytes()))
            chain = cls(params.validators, params.gateways,
                        params.confirmations_required, params.chain_id)
        except (ValueError, UnsupportedValue) as exc:
            raise LedgerFormatError(f"malformed chain metadata {meta_path}: {exc!r}") from exc
        ledger = load_ledger(path, chain_id=chain.chain_id)

        def visit(height: int, index: int, tx: Transaction, value) -> None:
            if not (isinstance(value, dict) and "summary" in value):
                chain._tick_seq += 1
                if (tx.kind, tx.channel_id, tx.author_id, tx.payload) != (
                        TxKind.ANCHOR, chain.chain_id, chain._producer(height),
                        canonical_json({"tick": chain._tick_seq})):
                    raise InvalidChain(f"heartbeat at block {height} tx {index}: "
                                       f"not tick {chain._tick_seq}")
                return
            try:
                p = from_json_value(AnchorPayload, value)
                if (tx.kind, tx.channel_id, tx.channel_id, p.epoch_index, tx.author_id) != (
                        TxKind.ANCHOR, p.channel_id, p.summary.channel_id,
                        p.summary.epoch_index, p.submitted_by):
                    raise InvalidArgument("payload disagrees with its transaction")
                chain._admit(p.channel_id, p.epoch_index, p.submitted_by)
            except TcgwError as exc:
                raise InvalidChain(f"anchor at block {height} tx {index}: {exc}") from exc
            chain.registry.setdefault(p.channel_id, []).append(
                AnchorRecord(**vars(p), included_height=height))

        report = verify_chain(ledger, visit)
        if not report.ok:
            raise InvalidChain(f"{report.reason.value} at block {report.first_bad_height}")
        chain.ledger, chain.clock = ledger, ledger.blocks[-1].timestamp
        return chain


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
