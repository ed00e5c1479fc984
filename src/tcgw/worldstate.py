"""Schema-free JSON document store driven by context operations.

Two generic operations cover every document shape without registration:
``UpdateField`` upserts a value at an object path (creating missing
intermediate objects and the document itself), ``AppendToArray`` appends
to the array at a path (creating an empty array when absent). The target
document, path, and value all travel inside the transaction payload, so
the store itself needs no per-application code.

All values are immutable from the caller's point of view: apply_op copies
along the touched path and shares everything else, and a failed operation
leaves the previous state usable and digest-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from .canon import canonical_json, canonical_loads, sha256
from .errors import InvalidArgument, PathTypeConflict
from .ledger import KIND_BY_LABEL, Ledger, TxKind, iter_transactions

_CONTEXT_KINDS = (TxKind.UPDATE_FIELD, TxKind.APPEND_TO_ARRAY)


@dataclass(frozen=True)
class Document:
    doc_id: str
    body: dict


@dataclass(frozen=True)
class WorldState:
    docs: Mapping[str, Document]


EMPTY_STATE = WorldState(docs={})


@dataclass(frozen=True)
class ContextOp:
    """One update or append, addressed by document id and object-key path."""

    op: TxKind
    doc_id: str
    path: tuple[str, ...]
    value: Any

    def __post_init__(self):
        if self.op not in _CONTEXT_KINDS:
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


def _apply_to_body(body: dict, op: ContextOp) -> dict:
    new_body = dict(body)
    node = new_body
    for depth, segment in enumerate(op.path[:-1]):
        child = node.get(segment)
        if child is None:
            child = {}
        elif isinstance(child, dict):
            child = dict(child)
        else:
            raise PathTypeConflict(op.doc_id, op.path,
                                   f"segment {op.path[depth]!r} is not an object")
        node[segment] = child
        node = child
    leaf = op.path[-1]
    if op.op is TxKind.UPDATE_FIELD:
        node[leaf] = op.value
    else:
        existing = node.get(leaf)
        if existing is None:
            target: list = []
        elif isinstance(existing, list):
            target = list(existing)
        else:
            raise PathTypeConflict(op.doc_id, op.path,
                                   f"field {leaf!r} holds a non-array value")
        target.append(op.value)
        node[leaf] = target
    return new_body


def apply_op(ws: WorldState, op: ContextOp) -> WorldState:
    """Apply one context operation, returning a new state.

    Raises PathTypeConflict when the path traverses a non-object or an
    append targets a non-array; `ws` is never modified either way.
    """
    doc = ws.docs.get(op.doc_id)
    new_body = _apply_to_body(doc.body if doc else {}, op)
    docs = dict(ws.docs)
    docs[op.doc_id] = Document(op.doc_id, new_body)
    return WorldState(docs)


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


def replay(ledger: Ledger) -> WorldState:
    """Fold every context operation in chain order into a fresh state.

    RawReading and Anchor transactions leave documents untouched. Callers
    are expected to verify the chain first; a conflicting committed op is
    re-raised with its (height, tx index) attached.
    """
    ws = EMPTY_STATE
    for height, index, tx in iter_transactions(ledger):
        if tx.kind not in _CONTEXT_KINDS:
            continue
        op = parse_op(tx.payload)
        try:
            ws = apply_op(ws, op)
        except PathTypeConflict as exc:
            raise PathTypeConflict(exc.doc_id, exc.path, exc.detail,
                                   height=height, tx_index=index) from exc
    return ws
