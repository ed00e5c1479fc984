"""Simulated public chain: rotating producers, anchors, consumer queries.

Consensus is reduced to what the data-flow claims need: a fixed validator
set produces blocks round-robin, and an anchor counts as confirmed once
the head is `confirmations_required` blocks past its inclusion height.
Only registered gateway identities may submit anchors; reading is open.

On a busy chain an anchor's confirmations are the blocks that follow it
(Nakamoto 2008, sections 4 and 11): a gateway's PublicClient.submit_anchor
produces the block that includes its anchor, and the anchors of the
gateways that publish after it confirm it. `tick()` models the blocks the
network produces when no gateway transacts: it appends a heartbeat
transaction (Anchor kind, payload without a "summary" key) and produces a
block. PublicClient.confirm ticks until an anchor is confirmed: the only
ticks of run_scenario are those that confirm an epoch's last anchors.

The genesis block's previous_hash is the digest of the chain's
ChainParams, so the ledger commits to its sidecar, the validity ranges of
the run that built it included. `load` rebuilds the
chain from its ledger and ChainParams sidecar in one verify_blocks walk,
each tx_id checked against the bytes read, whose block stream
(read_payloads) accepts only what submit_anchor and tick could write, and
then checks the genesis link against the sidecar it read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .canon import (canonical_json, canonical_loads, digest_json, from_json_value,
                    to_json_value, write_canonical_json)
from .errors import (DuplicateEpoch, DuplicateRange, InvalidArgument, InvalidChain,
                     LedgerFormatError, TcgwError, UnknownGateway, UnsupportedValue)
from .gateway import EpochSummary, ValidityRange, summary_digest
from .ledger import (Block, Ledger, Transaction, TxKind, append_block, genesis, make_transaction,
                     read_blocks, read_payloads, save_ledger, verify_blocks)
from .private_chain import range_bounds

DEFAULT_CONFIRMATIONS = 2
META_SUFFIX = ".meta.json"
OPERATIONS_ARRAY = "Cultural Operations"  # the document array trace_product counts
_ANCHOR = TxKind.ANCHOR  # bound once: an enum member lookup is slow on 3.11


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
    """The sidecar: what a chain's ledger does not carry itself, beyond the
    digest its genesis block commits to (_params_digest). `ranges` are the
    validity ranges the gateways filter with and every audit re-filters with."""

    chain_id: str
    confirmations_required: int
    gateways: tuple[str, ...]
    validators: tuple[str, ...]
    ranges: tuple[ValidityRange, ...] = ()


def _params_digest(params: ChainParams) -> bytes:
    """The genesis block's previous_hash: the digest of the sidecar's value."""
    return digest_json(to_json_value(params))


class PublicChain:
    """Single-owner simulation of the open ledger side. The validator set,
    the gateway registry and the validity ranges are fixed: the genesis
    block commits to them. `bounds`, the ranges parsed once by range_bounds
    (which refuses bad ones), is what every audit against the chain folds under."""

    def __init__(self, validators: Iterable[str], gateways: Iterable[str] = (),
                 confirmations_required: int = DEFAULT_CONFIRMATIONS,
                 chain_id: str = "public", ranges: Iterable[ValidityRange] = ()):
        self.validators = tuple(validators)
        if not self.validators:
            raise InvalidArgument("need at least one validator")
        if confirmations_required < 1:
            raise InvalidArgument("confirmations_required must be positive")
        if not chain_id:
            raise InvalidArgument("chain_id must be non-empty")
        self.chain_id = chain_id
        self.gateways = frozenset(gateways)
        self.confirmations_required = confirmations_required
        self.ranges = tuple(ranges)
        self.bounds = range_bounds(self.ranges)
        self.clock = 0
        self.ledger: Ledger = genesis(_params_digest(self.params))
        # Every admitted anchor, pending or included, and the height of each included one.
        self.anchors: dict[tuple[str, int], AnchorRecord] = {}
        self.included: dict[tuple[str, int], int] = {}
        # Queued transactions, each with its anchor's key (None for heartbeats).
        self.pending: list[tuple[Transaction, tuple[str, int] | None]] = []
        self._tick_seq = 0

    @property
    def params(self) -> ChainParams:
        """What `save` writes to the sidecar."""
        return ChainParams(self.chain_id, self.confirmations_required,
                           tuple(sorted(self.gateways)), self.validators, self.ranges)

    @property
    def producers(self) -> list[str]:
        """Validator that produced each block after genesis, in height order."""
        return [self._producer(h) for h in range(1, self.ledger[-1].height + 1)]

    def _producer(self, height: int) -> str:
        return self.validators[(height - 1) % len(self.validators)]

    def is_confirmed(self, record: AnchorRecord) -> bool:
        """True once the head is `confirmations_required` blocks past the anchor."""
        height = self.included.get((record.channel_id, record.epoch_index))
        return (height is not None
                and self.ledger[-1].height >= height + self.confirmations_required)

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
        """Heartbeat block: advances the head (and confirmations) by one, and
        includes whatever is pending."""
        self._tick_seq += 1
        producer = self._producer(self.ledger[-1].height + 1)
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
        trace also reports the current field values and the length of its
        OPERATIONS_ARRAY array.
        """
        trace: dict = {
            "channel_id": channel_id,
            "summaries": [to_json_value(rec.summary) for rec in self.query_channel(channel_id)],
        }
        if doc is not None:
            ops = doc.get(OPERATIONS_ARRAY, [])
            trace["cultural_operations_count"] = len(ops) if isinstance(ops, list) else 0
            trace["current_values"] = doc
        return trace

    def save(self, path: str | Path) -> Path:
        """Persist the ledger as .tcgw plus a sidecar holding its ChainParams."""
        path = Path(path)
        save_ledger(self.ledger, path)
        write_canonical_json(to_json_value(self.params), Path(str(path) + META_SUFFIX))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "PublicChain":
        """Read what `save` wrote. A malformed file (a sidecar's ranges too)
        raises LedgerFormatError; a ledger that fails verify_blocks (a clock
        that runs backwards too), or holds a transaction `submit_anchor` or
        `tick` could not have written there, or whose genesis does not
        commit to the sidecar read (_params_digest), raises InvalidChain. The whole file is decoded
        before the walk, so a format error wins. Digests are kept as
        published; verify_pruned_epoch checks them."""
        path = Path(path)
        meta_path = Path(str(path) + META_SUFFIX)
        if not meta_path.exists():
            raise LedgerFormatError(f"missing chain metadata {meta_path}")
        try:
            params = from_json_value(ChainParams, canonical_loads(meta_path.read_bytes()))
            chain = cls(params.validators, params.gateways,
                        params.confirmations_required, params.chain_id, params.ranges)
        except (ValueError, UnsupportedValue, DuplicateRange) as exc:
            raise LedgerFormatError(f"malformed chain metadata {meta_path}: {exc!r}") from exc
        blocks = list(read_blocks(path))  # every format error before any payload is read

        def read(height: int, index: int, tx: Transaction) -> None:
            value = canonical_loads(tx.payload)  # a payload that does not parse is a TxId fault
            if not (isinstance(value, dict) and "summary" in value):
                chain._tick_seq += 1
                if (tx.kind, tx.channel_id, tx.author_id, tx.payload) != (
                        _ANCHOR, chain.chain_id, chain._producer(height),
                        canonical_json({"tick": chain._tick_seq})):
                    raise InvalidChain(f"heartbeat at block {height} tx {index}: "
                                       f"not tick {chain._tick_seq}")
                return
            try:
                rec = from_json_value(AnchorRecord, value)
                if (tx.kind, tx.channel_id, tx.channel_id, rec.epoch_index, tx.author_id) != (
                        _ANCHOR, rec.channel_id, rec.summary.channel_id,
                        rec.summary.epoch_index, rec.submitted_by):
                    raise InvalidArgument("payload disagrees with its transaction")
                chain._admit(rec)
            except TcgwError as exc:
                raise InvalidChain(f"anchor at block {height} tx {index}: {exc}") from exc
            key = (rec.channel_id, rec.epoch_index)
            chain.anchors[key], chain.included[key] = rec, height

        report = verify_blocks(read_payloads(blocks, read))
        if not report.ok:
            raise InvalidChain(str(report))
        if blocks[0][0].previous_hash != _params_digest(params):
            raise InvalidChain(f"block 0 does not commit to the sidecar {meta_path.name}")
        chain.ledger = tuple(block for block, _ in blocks)
        chain.clock = chain.ledger[-1].timestamp
        return chain


class PublicClient:
    """A gateway's handle on the chain, bound to its identity."""

    def __init__(self, chain: PublicChain, author: str):
        self.chain = chain
        self.author = author

    def next_epoch_index(self, channel_id: str) -> int:
        return self.chain.next_epoch_index(channel_id)

    def submit_anchor(self, summary: EpochSummary) -> AnchorRecord:
        """Submit `summary` as this gateway and produce the block that
        includes it: the anchor's own block."""
        record = self.chain.submit_anchor(summary, self.author)
        self.chain.produce_block()
        return record

    def confirm(self, record: AnchorRecord) -> bool:
        """Tick until `record` confirms, at most confirmations_required + 2
        times (a pending anchor is included by the first); True on success."""
        for _ in range(self.chain.confirmations_required + 2):
            if self.chain.is_confirmed(record):
                return True
            self.chain.tick()
        return self.chain.is_confirmed(record)
