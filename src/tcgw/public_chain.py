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

DEFAULT_CONFIRMATIONS = 2
META_SUFFIX = ".meta.json"


@dataclass(frozen=True)
class AnchorRecord:
    """One published summary: the JSON an anchor transaction carries.

    Its inclusion height lives in PublicChain.included; see is_confirmed.
    """

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
        # Every admitted anchor, pending or included, and the height of each included one.
        self.anchors: dict[tuple[str, int], AnchorRecord] = {}
        self.included: dict[tuple[str, int], int] = {}
        # Queued transactions, each with its anchor's key (None for heartbeats).
        self.pending: list[tuple[Transaction, tuple[str, int] | None]] = []
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
        height = self.included.get((record.channel_id, record.epoch_index))
        return (height is not None
                and self.ledger.blocks[-1].height >= height + self.confirmations_required)

    def next_epoch_index(self, channel_id: str) -> int:
        """The lowest epoch index this channel has no anchor for, pending or included."""
        epoch = 0
        while (channel_id, epoch) in self.anchors:
            epoch += 1
        return epoch

    def _admit(self, record: AnchorRecord) -> None:
        """Anchor rule, at submit and load: a registered gateway, one per (channel, epoch)."""
        if record.submitted_by not in self.gateways:
            raise UnknownGateway(f"unknown gateway {record.submitted_by!r}")
        key = (record.channel_id, record.epoch_index)
        if key in self.anchors:
            state = "included" if key in self.included else "pending"
            raise DuplicateEpoch(f"anchor for {key} already {state}")

    def submit_anchor(self, summary: EpochSummary, author: str) -> AnchorRecord:
        """Queue an anchor transaction that passes `_admit`."""
        record = AnchorRecord(summary.channel_id, summary.epoch_index, author, summary,
                              summary_digest(summary))
        self._admit(record)
        tx = make_transaction(summary.channel_id, self.clock, TxKind.ANCHOR,
                              canonical_json(to_json_value(record)), author)
        key = (summary.channel_id, summary.epoch_index)
        self.anchors[key] = record
        self.pending.append((tx, key))
        return record

    def produce_block(self) -> Block | None:
        """Next round-robin validator packages all pending transactions."""
        if not self.pending:
            return None
        batch = self.pending
        self.pending = []
        self.ledger, block = append_block(self.ledger, [tx for tx, _ in batch], self.clock)
        for _, key in batch:
            if key is not None:
                self.included[key] = block.height
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
        """The anchor admitted for (channel, epoch), pending or included."""
        return self.anchors.get((channel_id, epoch_index))

    def query_channel(self, channel_id: str) -> list[AnchorRecord]:
        """Confirmed anchors for a channel, in epoch order."""
        records = [rec for (channel, _), rec in self.anchors.items()
                   if channel == channel_id and self.is_confirmed(rec)]
        return sorted(records, key=lambda rec: rec.epoch_index)

    def trace_product(self, channel_id: str, doc: dict | None = None) -> dict:
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
            ops = doc.get("Cultural Operations", [])
            trace["cultural_operations_count"] = len(ops) if isinstance(ops, list) else 0
            trace["current_values"] = doc
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
                rec = from_json_value(AnchorRecord, value)
                if (tx.kind, tx.channel_id, tx.channel_id, rec.epoch_index, tx.author_id) != (
                        TxKind.ANCHOR, rec.channel_id, rec.summary.channel_id,
                        rec.summary.epoch_index, rec.submitted_by):
                    raise InvalidArgument("payload disagrees with its transaction")
                chain._admit(rec)
            except TcgwError as exc:
                raise InvalidChain(f"anchor at block {height} tx {index}: {exc}") from exc
            key = (rec.channel_id, rec.epoch_index)
            chain.anchors[key], chain.included[key] = rec, height

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
