"""Schema-free JSON document store driven by context operations.

Two generic operations cover every document shape without registration:
``UpdateField`` upserts a value at an object path (creating missing
intermediate objects and the document itself), ``AppendToArray`` appends
to the array at a path (creating an empty array when absent). The target
document, path, and value all travel inside the transaction payload, so
the store itself needs no per-application code.

A state is a read-only mapping from document id to body. Bodies are
immutable from the caller's point of view: apply_ops copies each touched
container once per batch, shares everything else, and leaves its input
state usable and digest-identical even when an operation fails.
state_digest hashes each document as it encodes it, a piece at a time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Iterable, Mapping

from .canon import canonical_json, canonical_loads, feed_canonical_json, sha256
from .errors import InvalidArgument, PathTypeConflict
from .ledger import KIND_BY_LABEL, Ledger, TxKind, iter_transactions, slot_setters

CONTEXT_KINDS = (TxKind.UPDATE_FIELD, TxKind.APPEND_TO_ARRAY)
_UPDATE_FIELD = TxKind.UPDATE_FIELD  # bound once: an enum member lookup is slow on 3.11

WorldState = Mapping[str, dict]  # document id -> body
EMPTY_STATE: WorldState = MappingProxyType({})


@dataclass(frozen=True, slots=True, init=False)
class ContextOp:
    """One update or append, addressed by document id and object-key path."""

    op: TxKind
    doc_id: str
    path: tuple[str, ...]
    value: Any

    def __init__(self, op: TxKind, doc_id: str, path: tuple[str, ...], value: Any):
        if op not in CONTEXT_KINDS:
            raise InvalidArgument(f"{op} is not a context operation kind")
        if not isinstance(doc_id, str) or not doc_id:
            raise InvalidArgument("doc_id must be a non-empty string")
        if not path or any(not isinstance(s, str) or not s for s in path):
            raise InvalidArgument("path must be a non-empty list of non-empty keys")
        set_op, set_doc_id, set_path, set_value = _OP_SLOTS
        set_op(self, op)
        set_doc_id(self, doc_id)
        set_path(self, path)
        set_value(self, value)


_OP_SLOTS = slot_setters(ContextOp)


def op_payload(op: ContextOp) -> bytes:
    """Canonical payload bytes carried by a context transaction."""
    return canonical_json({
        "doc_id": op.doc_id,
        "op": op.op.label,
        "path": list(op.path),
        "value": op.value,
    })


def parse_op(payload: bytes) -> ContextOp:
    """Inverse of op_payload; raises InvalidArgument on a malformed payload."""
    try:
        value = canonical_loads(payload)
    except Exception as exc:
        raise InvalidArgument(f"payload is not canonical JSON: {exc}") from exc
    return op_from_value(value)


def op_from_value(value: Any) -> ContextOp:
    """The ContextOp in a parsed payload: an object with exactly the four
    keys op_payload writes, its path a JSON array. Raises InvalidArgument if
    malformed."""
    if not isinstance(value, dict):
        raise InvalidArgument("context payload must be a JSON object")
    if len(value) != 4:
        raise InvalidArgument(f"context payload has {len(value)} keys, not 4")
    try:
        kind = KIND_BY_LABEL[value["op"]]
        doc_id, path, body = value["doc_id"], value["path"], value["value"]
    except (KeyError, TypeError) as exc:
        raise InvalidArgument(f"context payload missing field: {exc}") from exc
    if type(path) is not list:
        raise InvalidArgument("context payload path must be a JSON array")
    return ContextOp(kind, doc_id, tuple(path), body)


class OpBatch:
    """Applies context operations in order on top of `base`, never modifying it.

    Each container is copied on its first write in the batch and changed in
    place after that, so a run of appends to one array costs one copy, not
    one per op. Discard the batch after a PathTypeConflict.
    """

    def __init__(self, base: WorldState):
        self.base = base
        self.bodies: dict[str, dict] = {}
        self.owned: dict[int, Any] = {}  # copies made here, by id; held so no id is reused

    def _own(self, container: Any) -> Any:
        if id(container) not in self.owned:
            container = type(container)(container)
            self.owned[id(container)] = container
        return container

    def apply(self, op: ContextOp) -> None:
        """Raises PathTypeConflict when the path traverses a non-object or an
        append targets a non-array."""
        node = self.bodies.get(op.doc_id)
        if node is None:
            node = self.bodies[op.doc_id] = self._own(self.base.get(op.doc_id, {}))
        for segment in op.path[:-1]:
            child = node.get(segment)
            if child is not None and not isinstance(child, dict):
                raise PathTypeConflict(op.doc_id, op.path, f"segment {segment!r} is not an object")
            node[segment] = child = self._own(child or {})
            node = child
        leaf = op.path[-1]
        if op.op is _UPDATE_FIELD:
            node[leaf] = op.value
            return
        target = node.get(leaf)
        if target is not None and not isinstance(target, list):
            raise PathTypeConflict(op.doc_id, op.path, f"field {leaf!r} holds a non-array value")
        node[leaf] = target = self._own(target or [])
        target.append(op.value)

    def state(self) -> WorldState:
        """The base state with every touched document replaced."""
        return MappingProxyType({**self.base, **self.bodies}) if self.bodies else self.base


def check_digestible(op: ContextOp) -> None:
    """Raise unless state_digest can encode what `op` writes.

    The value lands len(path) levels down in its document's body, one more
    when appended to an array, and canonical_json refuses nesting deeper
    than 64 (UnsupportedValue). A lone surrogate in the doc_id, a path key
    or a string value cannot be UTF-8 encoded (UnicodeEncodeError). Either
    would otherwise surface only at the epoch's rollover.
    """
    body = [op.value] if op.op is TxKind.APPEND_TO_ARRAY else op.value
    for key in reversed(op.path):
        body = {key: body}
    canonical_json(body)
    op.doc_id.encode("utf-8")


def apply_ops(ws: WorldState, ops: Iterable[ContextOp]) -> WorldState:
    """Apply context operations in order as one OpBatch, returning a new
    state. Raises PathTypeConflict at the first op that conflicts; `ws` is
    never modified either way."""
    batch = OpBatch(ws)
    for op in ops:
        batch.apply(op)
    return batch.state()


def state_digest(ws: WorldState) -> bytes:
    """Digest over documents sorted by id; independent of insertion order.

    Each entry contributes sha256(doc_id || canonical_json(body)); the
    empty state digests the empty byte string. Each body is hashed as it is
    encoded (feed_canonical_json), so no document's encoding is held whole.
    """
    parts = []
    for doc_id in sorted(ws):
        entry = hashlib.sha256(doc_id.encode("utf-8"))
        feed_canonical_json(ws[doc_id], entry.update)
        parts.append(entry.digest())
    return sha256(b"".join(parts))


def replay(ledger: Ledger) -> WorldState:
    """Fold every context operation in chain order into one OpBatch.

    RawReading and Anchor transactions leave documents untouched. Callers
    are expected to verify the chain first; a conflicting committed op is
    re-raised with its (height, tx index) attached.
    """
    batch = OpBatch(EMPTY_STATE)
    for height, index, tx in iter_transactions(ledger):
        if tx.kind not in CONTEXT_KINDS:
            continue
        try:
            batch.apply(parse_op(tx.payload))
        except PathTypeConflict as exc:
            raise PathTypeConflict(exc.doc_id, exc.path, exc.detail,
                                   height=height, tx_index=index) from exc
    return batch.state()
