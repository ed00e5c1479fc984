"""World state: context operations, digests, replay equivalence."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tcgw import (
    EMPTY_STATE,
    ContextOp,
    TxKind,
    append_block,
    genesis,
    make_transaction,
    op_payload,
    replay,
    state_digest,
)
from tcgw.canon import canonical_json, sha256
from tcgw.errors import InvalidArgument, PathTypeConflict, UnsupportedValue
from tcgw.ledger import load_ledger, save_ledger
from tcgw.worldstate import WorldState, apply_ops, parse_op


def _update(doc: str, path: tuple[str, ...], value) -> ContextOp:
    return ContextOp(TxKind.UPDATE_FIELD, doc, path, value)


def _append(doc: str, path: tuple[str, ...], value) -> ContextOp:
    return ContextOp(TxKind.APPEND_TO_ARRAY, doc, path, value)


def test_update_field_is_an_upsert():
    ws = apply_ops(EMPTY_STATE, [_update("lot1", ("Plant density",), "4.2")])
    ws = apply_ops(ws, [_update("lot1", ("Plant density",), "4.5")])
    assert ws["lot1"]["Plant density"] == "4.5"


def test_append_creates_array_on_empty_doc():
    ws = apply_ops(EMPTY_STATE, [_append("lot1", ("Cultural Operations",), {"op": "irrigation"})])
    array = ws["lot1"]["Cultural Operations"]
    assert array == [{"op": "irrigation"}]


def test_append_to_scalar_conflicts_and_leaves_state_intact():
    ws = apply_ops(EMPTY_STATE, [_update("lot1", ("Plant density",), "4.2")])
    before = state_digest(ws)
    with pytest.raises(PathTypeConflict):
        apply_ops(ws, [_append("lot1", ("Plant density",), "x")])
    assert state_digest(ws) == before


def test_traversing_scalar_segment_conflicts():
    ws = apply_ops(EMPTY_STATE, [_update("lot1", ("a",), "scalar")])
    with pytest.raises(PathTypeConflict):
        apply_ops(ws, [_update("lot1", ("a", "b"), 1)])


def test_missing_intermediates_are_created():
    ws = apply_ops(EMPTY_STATE, [_update("lot1", ("a", "b", "c"), 7)])
    assert ws["lot1"] == {"a": {"b": {"c": 7}}}


def test_read_document_absent_and_side_effect_free():
    ws = apply_ops(EMPTY_STATE, [_update("lot1", ("x",), 1)])
    before = state_digest(ws)
    assert ws.get("nope") is None
    assert ws["lot1"]["x"] == 1
    assert state_digest(ws) == before


def test_state_is_a_read_only_mapping_of_bodies():
    ws = apply_ops(EMPTY_STATE, [_update("lot1", ("x",), 1)])
    assert dict(ws) == {"lot1": {"x": 1}}
    for state in (EMPTY_STATE, ws):
        with pytest.raises(TypeError):
            state["lot2"] = {}


def test_empty_state_digest_is_constant():
    assert state_digest(EMPTY_STATE) == state_digest(EMPTY_STATE)
    ws = apply_ops(EMPTY_STATE, [_update("d", ("k",), 1)])
    assert state_digest(ws) != state_digest(EMPTY_STATE)


def test_digest_independent_of_document_touch_order():
    a = apply_ops(EMPTY_STATE, [_update("d1", ("k",), 1), _update("d2", ("k",), 2)])
    b = apply_ops(EMPTY_STATE, [_update("d2", ("k",), 2), _update("d1", ("k",), 1)])
    assert state_digest(a) == state_digest(b)


def test_digest_changes_when_a_value_changes():
    base = apply_ops(EMPTY_STATE, [_update("d", ("k",), "1")])
    changed = apply_ops(base, [_update("d", ("k",), "2")])
    assert state_digest(base) != state_digest(changed)


def test_payload_roundtrip():
    op = _append("lot1", ("a", "b"), {"n": 3})
    assert parse_op(op_payload(op)) == op


def test_parse_op_rejects_garbage():
    with pytest.raises(InvalidArgument):
        parse_op(b"not json")
    with pytest.raises(InvalidArgument):
        parse_op(b'{"op":"UpdateField"}')


def _op_tx(channel: str, op: ContextOp, ts: int):
    return make_transaction(channel, ts, op.op, op_payload(op), "op-author")


def test_replay_applies_ops_in_chain_order():
    ledger = genesis()
    ops = [
        _update("lot1", ("Plant density",), "4.2"),
        _append("lot1", ("Cultural Operations",), {"op": "irrigation"}),
        _update("lot1", ("Plant density",), "4.5"),
    ]
    for i, op in enumerate(ops):
        ledger, _ = append_block(ledger, [_op_tx("fieldA", op, i)], i)
    body = replay(ledger)["lot1"]
    assert body["Plant density"] == "4.5"
    assert len(body["Cultural Operations"]) == 1


def test_replay_of_genesis_is_empty():
    assert replay(genesis()) == {}


def test_replay_equals_incremental_state_after_reload(tmp_path):
    ledger = genesis()
    ws = EMPTY_STATE
    for i in range(20):
        op = (_update("doc", (f"k{i % 5}",), i) if i % 2
              else _append("doc", ("log",), i))
        ws = apply_ops(ws, [op])
        ledger, _ = append_block(ledger, [_op_tx("fieldA", op, i)], i)
    path = save_ledger(ledger, tmp_path / "fieldA.tcgw")
    assert state_digest(replay(load_ledger(path))) == state_digest(ws)


def test_replay_reports_offending_height_and_index():
    ledger = genesis()
    ledger, _ = append_block(ledger, [_op_tx("fieldA", _update("d", ("k",), "s"), 0)], 0)
    ledger, _ = append_block(ledger, [_op_tx("fieldA", _append("d", ("k",), 1), 1)], 1)
    with pytest.raises(PathTypeConflict) as exc_info:
        replay(ledger)
    assert exc_info.value.height == 2
    assert exc_info.value.tx_index == 0


segments = st.text(min_size=1, max_size=6)
paths = st.lists(segments, min_size=1, max_size=5).map(tuple)
leaf_values = st.none() | st.booleans() | st.integers(-1000, 1000) | st.text(max_size=8)


@settings(derandomize=True)
@given(doc=segments, path=paths, value=leaf_values)
def test_update_accepts_any_doc_path_value(doc, path, value):
    ws = apply_ops(EMPTY_STATE, [_update(doc, path, value)])
    node = ws[doc]
    for segment in path[:-1]:
        node = node[segment]
    assert node[path[-1]] == value


@settings(derandomize=True)
@given(doc=segments, path=paths, values=st.lists(leaf_values, min_size=1, max_size=4))
def test_append_accumulates_in_order(doc, path, values):
    ws = EMPTY_STATE
    for value in values:
        ws = apply_ops(ws, [_append(doc, path, value)])
    node = ws[doc]
    for segment in path[:-1]:
        node = node[segment]
    assert node[path[-1]] == values


def _reference_apply(body: dict, op: ContextOp) -> dict:
    """The per-op copying fold this store used before batching: copies the
    body and every object along the path, and the array it appends to."""
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


def _reference_fold(ws: WorldState, ops) -> tuple[WorldState, int | None]:
    """State before the first conflicting op, and that op's index (None if none)."""
    for i, op in enumerate(ops):
        try:
            body = _reference_apply(ws.get(op.doc_id, {}), op)
        except PathTypeConflict:
            return ws, i
        ws = {**ws, op.doc_id: body}
    return ws, None


short_paths = st.lists(st.sampled_from("ab"), min_size=1, max_size=3).map(tuple)
op_values = (leaf_values | st.just({})
             | st.dictionaries(st.sampled_from("ab"), leaf_values | st.just([]), max_size=2))
context_ops = st.builds(ContextOp, st.sampled_from([TxKind.UPDATE_FIELD, TxKind.APPEND_TO_ARRAY]),
                        st.sampled_from(["d1", "d2"]), short_paths, op_values)


@settings(derandomize=True)
@given(setup=st.lists(context_ops, max_size=6), ops=st.lists(context_ops, max_size=12))
def test_apply_matches_per_op_reference_fold(setup, ops):
    ws, _ = _reference_fold(EMPTY_STATE, setup)
    before = state_digest(ws)
    payloads = [op_payload(op) for op in ops]
    expected, conflict_at = _reference_fold(ws, ops)
    state, at = ws, None
    for i, op in enumerate(ops):
        try:
            state = apply_ops(state, [op])
        except PathTypeConflict:
            at = i
            break
    assert (state_digest(state), at) == (state_digest(expected), conflict_at)
    # as one batch: the ops before the first conflict apply, that op raises
    clean = ops if conflict_at is None else ops[:conflict_at]
    assert state_digest(apply_ops(ws, clean)) == state_digest(expected)
    if conflict_at is not None:
        with pytest.raises(PathTypeConflict):
            apply_ops(ws, ops[:conflict_at + 1])
    assert state_digest(ws) == before
    assert [op_payload(op) for op in ops] == payloads


def _one_shot_digest(ws) -> bytes:
    """state_digest's formula, each document encoded whole."""
    return sha256(b"".join(sha256(doc_id.encode("utf-8") + canonical_json(ws[doc_id]))
                           for doc_id in sorted(ws)))


def _nested(levels: int, leaf=1):
    """`leaf` inside `levels` containers, lists and objects in turn."""
    for level in range(levels):
        leaf = {"k": leaf, "a": []} if level % 2 else [leaf, {}]
    return leaf


_doc_text = st.text(max_size=8) | st.sampled_from(
    ["", '"', "\\", "\n", "\x00\x1f\x7f", "pomé", "\U0001f331", 'k"\\\t'])
_doc_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _doc_text,
    lambda children: st.lists(children, max_size=5) | st.dictionaries(_doc_text, children,
                                                                       max_size=4),
    max_leaves=25,
)
_bodies = st.dictionaries(_doc_text, _doc_values, max_size=4) | st.sampled_from(
    [{}, {"k": _nested(63)}, {"é": [_nested(62, "\x00")], "a": [[], {}]}])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.dictionaries(_doc_text, _bodies, max_size=4))
def test_state_digest_equals_the_one_shot_formula(ws):
    """Hashing each document as it is encoded gives the digest of its
    whole encoding: nested objects and arrays, non-ASCII and escaped
    strings, empty containers, a leaf 64 levels down."""
    assert state_digest(ws) == _one_shot_digest(ws)


@pytest.mark.parametrize("body", [
    {"v": 1.5}, {"v": [{"x": {"y": 0.5}}]}, {1: "a"}, {"v": [{2: None}]},
    {"k": _nested(64)}, {"v": "s\ud800"}, {"v": [{"w": "\udfff"}]}, {"\ud800": 1},
], ids=["float", "deep-float", "int-key", "deep-int-key", "depth-65", "surrogate",
        "deep-surrogate", "surrogate-key"])
def test_state_digest_refuses_what_canonical_json_refuses(body):
    with pytest.raises(Exception) as expected:
        canonical_json(body)
    assert expected.type in (UnsupportedValue, UnicodeEncodeError)
    with pytest.raises(expected.type) as raised:
        state_digest({"d": body})
    if expected.type is UnsupportedValue:
        assert str(raised.value) == str(expected.value)


def test_state_digest_holds_no_document_encoding():
    """Each document is hashed as it is encoded: over one document with a
    5,000-entry array the traced peak stays under 64 KB above its level
    before the call (about 1 KB), not the encoding's chunk list and bytes
    (1.78 MB when each document was encoded whole)."""
    ops = [_append("lot1", ("Cultural Operations",), {"at": 120 * i, "operation": "irrigation"})
           for i in range(5000)]
    ws = apply_ops(EMPTY_STATE, ops)
    expected = _one_shot_digest(ws)
    assert state_digest(ws) == expected  # also warms every cache the encoder uses
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert state_digest(ws) == expected
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 64_000, peak
