"""Schema-free JSON document store driven by context operations.

Two generic operations cover every document shape without registration:
``UpdateField`` upserts a value at an object path (creating missing
intermediate objects and the document itself), ``AppendToArray`` appends
to the array at a path (creating an empty array when absent). The target
document, path, and value all travel inside the transaction payload, so
the store itself needs no per-application code.

Values are immutable from the caller's point of view: apply_ops copies each
touched container once per batch, shares everything else, and leaves its
input state usable and digest-identical even when an operation fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from .canon import canonical_json, canonical_loads, sha256
from .errors import InvalidArgument, PathTypeConflict
from .ledger import KIND_BY_LABEL, Ledger, Transaction, TxKind, iter_transactions

CONTEXT_KINDS = (TxKind.UPDATE_FIELD, TxKind.APPEND_TO_ARRAY)


@dataclass(frozen=True)
class Document:
    doc_id: str
    body: dict


@dataclass(frozen=True)
class WorldState:
    docs: Mapping[str, Document]


EMPTY_STATE = WorldState(docs={})


@dataclass(frozen=True, slots=True)
class ContextOp:
    """One update or append, addressed by document id and object-key path."""

    op: TxKind
    doc_id: str
    path: tuple[str, ...]
    value: Any

    def __post_init__(self):
        if self.op not in CONTEXT_KINDS:
            raise InvalidArgument(f"{self.op} is not a context operation kind")
        if not isinstance(self.doc_id, str) or not self.doc_id:
            raise InvalidArgument("doc_id must be a non-empty string")
        if not self.path or any(not isinstance(s, str) or not s for s in self.path):
            raise InvalidArgument("path must be a non-empty list of non-empty keys")


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
    """The ContextOp in a parsed payload; raises InvalidArgument if malformed."""
    if not isinstance(value, dict):
        raise InvalidArgument("context payload must be a JSON object")
    try:
        kind = KIND_BY_LABEL[value["op"]]
        doc_id = value["doc_id"]
        path = tuple(value["path"])
    except (KeyError, TypeError) as exc:
        raise InvalidArgument(f"context payload missing field: {exc}") from exc
    if "value" not in value:
        raise InvalidArgument("context payload missing field: 'value'")
    return ContextOp(kind, doc_id, path, value["value"])


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
            doc = self.base.docs.get(op.doc_id)
            node = self.bodies[op.doc_id] = self._own(doc.body if doc else {})
        for segment in op.path[:-1]:
            child = node.get(segment)
            if child is not None and not isinstance(child, dict):
                raise PathTypeConflict(op.doc_id, op.path, f"segment {segment!r} is not an object")
            node[segment] = child = self._own(child or {})
            node = child
        leaf = op.path[-1]
        if op.op is TxKind.UPDATE_FIELD:
            node[leaf] = op.value
            return
        target = node.get(leaf)
        if target is not None and not isinstance(target, list):
            raise PathTypeConflict(op.doc_id, op.path, f"field {leaf!r} holds a non-array value")
        node[leaf] = target = self._own(target or [])
        target.append(op.value)

    def state(self) -> WorldState:
        """The base state with every touched document replaced."""
        docs = {doc_id: Document(doc_id, body) for doc_id, body in self.bodies.items()}
        return WorldState({**self.base.docs, **docs}) if docs else self.base


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


def apply_op(ws: WorldState, op: ContextOp) -> WorldState:
    """Apply one context operation, returning a new state (see apply_ops)."""
    return apply_ops(ws, (op,))


def read_document(ws: WorldState, doc_id: str) -> Document | None:
    return ws.docs.get(doc_id)


def state_digest(ws: WorldState) -> bytes:
    """Digest over documents sorted by id; independent of insertion order.

    Each entry contributes sha256(doc_id || canonical_json(body)); the
    empty state digests the empty byte string.
    """
    entries = sorted(ws.docs)
    parts = [sha256(doc_id.encode("utf-8") + canonical_json(ws.docs[doc_id].body))
             for doc_id in entries]
    return sha256(b"".join(parts))


def replay(ledger: Ledger, visit: Callable[[Transaction], None] | None = None) -> WorldState:
    """Fold every context operation in chain order into one OpBatch.

    RawReading and Anchor transactions leave documents untouched. `visit`,
    when given, sees every transaction in chain order in the same walk.
    Callers are expected to verify the chain first; a conflicting committed
    op is re-raised with its (height, tx index) attached.
    """
    batch = OpBatch(EMPTY_STATE)
    for height, index, tx in iter_transactions(ledger):
        if visit is not None:
            visit(tx)
        if tx.kind not in CONTEXT_KINDS:
            continue
        try:
            batch.apply(parse_op(tx.payload))
        except PathTypeConflict as exc:
            raise PathTypeConflict(exc.doc_id, exc.path, exc.detail,
                                   height=height, tx_index=index) from exc
    return batch.state()
