"""Canonical JSON: frozen byte examples plus encode/decode properties."""

from __future__ import annotations

import collections
import enum
import functools
import hashlib
import importlib.util
import json

import pytest
from hypothesis import given, settings, strategies as st

from tcgw import canon
from tcgw.canon import (canonical_json, canonical_loads, digest_json, from_json_value, sha256,
                        to_json_value)
from tcgw.errors import InvalidArgument, UnsupportedValue
from tcgw.gateway import EpochSummary, MetricStats


def test_keys_sorted():
    assert canonical_json({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_hand_canonicalized_nested_object():
    value = {"sensor": {"ok": True, "id": "t-1"}, "count": 3, "note": 'a"b\n'}
    expected = b'{"count":3,"note":"a\\"b\\n","sensor":{"id":"t-1","ok":true}}'
    assert canonical_json(value) == expected


def test_no_whitespace_and_null_forms():
    assert canonical_json({"x": None, "y": [1, True, "z"]}) == b'{"x":null,"y":[1,true,"z"]}'


def test_non_ascii_stays_literal():
    assert canonical_json({"crop": "pomé"}) == '{"crop":"pomé"}'.encode("utf-8")


def test_decimals_travel_as_strings():
    assert canonical_json({"v": "4.20"}) == b'{"v":"4.20"}'


@pytest.mark.parametrize("bad", [1.5, float("nan"), float("inf"), {"x": 0.1}, [object()]])
def test_rejects_unsupported_values(bad):
    with pytest.raises(UnsupportedValue):
        canonical_json(bad)


def test_rejects_non_string_keys():
    with pytest.raises(UnsupportedValue):
        canonical_json({1: "x"})


def test_loads_rejects_fraction_and_nonfinite_literals():
    with pytest.raises(UnsupportedValue):
        canonical_loads(b'{"x":1.5}')
    with pytest.raises(UnsupportedValue):
        canonical_loads(b'{"x":NaN}')


def test_digest_is_sha256_of_bytes():
    value = {"a": 1}
    assert digest_json(value) == hashlib.sha256(canonical_json(value)).digest()
    assert sha256(b"") == hashlib.sha256(b"").digest()


def test_from_json_value_accepts_only_what_to_json_value_writes():
    summary = EpochSummary("f", 0, 0, 1, (MetricStats("rain_pct", 1, "1", "0", "1", "1"),),
                           0, bytes(range(32)), 1, bytes(32))
    value = to_json_value(summary)
    assert from_json_value(EpochSummary, value) == summary
    forgeries = [{**value, "extra": 1},
                 {**value, "stats": [{**value["stats"][0], "extra": 1}]},
                 {**value, "ledger_head_hash": value["ledger_head_hash"].upper()},
                 {**value, "state_digest": " " + value["state_digest"]}]
    for forged in forgeries:
        with pytest.raises(InvalidArgument):
            from_json_value(EpochSummary, forged)


json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10 ** 12), max_value=10 ** 12)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=20,
)


@given(json_values)
def test_roundtrip_idempotence(value):
    encoded = canonical_json(value)
    assert canonical_json(canonical_loads(encoded)) == encoded


@given(st.dictionaries(st.text(min_size=1, max_size=8),
                       st.integers(min_value=0, max_value=99), min_size=2, max_size=6))
def test_insertion_order_is_irrelevant(mapping):
    reversed_build = dict(reversed(list(mapping.items())))
    assert canonical_json(mapping) == canonical_json(reversed_build)


# Reference codec: the encoder and validator as they stood before the
# one-walk validator and the prebuilt C encoder, kept verbatim. The
# properties below pin the current codec to it: same bytes or value, or
# the same exception type and message.

def _reference_check_value(value, depth=0):
    if depth > 64:
        raise UnsupportedValue("value nesting deeper than 64 levels")
    if value is None or isinstance(value, (str, bool)):
        return
    if isinstance(value, int):
        return
    if isinstance(value, float):
        raise UnsupportedValue(
            f"native float {value!r} is not canonical; carry decimals as strings")
    if isinstance(value, (list, tuple)):
        for item in value:
            _reference_check_value(item, depth + 1)
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise UnsupportedValue(f"object key {key!r} is not a string")
            _reference_check_value(item, depth + 1)
        return
    raise UnsupportedValue(f"unsupported value type {type(value).__name__}")


_REFERENCE_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                      ensure_ascii=False, allow_nan=False)


def _reference_json(value):
    _reference_check_value(value)
    return _REFERENCE_ENCODER.encode(value).encode("utf-8")


def _reference_loads(data):
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        return canon._DECODER.decode(data)
    except RecursionError as exc:
        raise UnsupportedValue("JSON nesting too deep to parse") from exc


def _outcome(fn, arg):
    try:
        return "value", repr(fn(arg))
    except Exception as exc:  # compared by type and message
        return "raised", type(exc), str(exc)


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class _Name(str):
    pass


class _Items(list):
    pass


_odd_text = st.text(max_size=6) | st.sampled_from(["\ud800", "a\udfff", "\U0010fc00"])
_plain = st.none() | st.booleans() | st.integers() | _odd_text
_odd = st.sampled_from([_Level.LOW, _Name("n"), 1.5, -0.0, float("nan"), float("inf"),
                        b"x", object(), {1, 2}])
_keys = _odd_text | _odd_text.map(_Name) | _odd_text | st.sampled_from([0, -1, True, None, (1,)])
_values = st.recursive(
    _plain | _plain | _plain | _odd,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.lists(children, max_size=4).map(_Items)
    | st.dictionaries(_keys, children, max_size=4)
    | st.dictionaries(_odd_text, children, max_size=4).map(collections.OrderedDict),
    max_leaves=12,
)
# Values nested 60 to 70 levels deep, so the depth limit of 64 is crossed at
# a list, a tuple, a dict or a subclass. At most one level also holds a
# float or a bad key beside the nested value.
_shells = st.sampled_from([
    lambda v: [v], lambda v: (v,), lambda v: {"k": v}, lambda v: _Items([v]),
    lambda v: collections.OrderedDict(k=v), lambda v: {_Name("n"): v}, lambda v: ["x", v, 2],
])
_spoilers = st.sampled_from([
    lambda v: [v, 1.5], lambda v: {"a": 0.5, "b": v}, lambda v: {1: v}, lambda v: [{None: 1}, v],
])


def _nest(value, shells, spoilers):
    for at, spoiler in spoilers:
        shells.insert(at, spoiler)
    return functools.reduce(lambda inner, shell: shell(inner), shells, value)


_deep = st.builds(_nest, st.none() | st.integers() | st.sampled_from([[], {}, [1], {"k": 1}]),
                  st.lists(_shells, min_size=60, max_size=70),
                  st.lists(st.tuples(st.integers(0, 70), _spoilers), max_size=1))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_values | _deep)
def test_canonical_json_matches_reference(value):
    assert _outcome(canonical_json, value) == _outcome(_reference_json, value)


def test_encoder_without_the_c_accelerator_writes_the_same_bytes(monkeypatch):
    monkeypatch.setattr(json.encoder, "c_make_encoder", None)
    spec = importlib.util.spec_from_file_location("tcgw._canon_without_c", canon.__file__)
    pure = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pure)
    assert pure._encode_chunks == pure._ENCODER.iterencode
    deep: object = [1]
    for _ in range(63):
        deep = {"k": deep}
    for value in ({"b": [1, True, None, "pomé"], "a": {"z": (2, _Level.HIGH)}, "c": 'a"b\n'},
                  _Name("x"), deep):
        assert pure.canonical_json(value) == canonical_json(value) == _reference_json(value)


def test_cycles_stop_at_the_depth_limit():
    loop: list = []
    loop.append(loop)
    ring: dict = {}
    ring["self"] = ring
    for value in (loop, ring):
        assert _outcome(canonical_json, value) == _outcome(_reference_json, value)
        with pytest.raises(UnsupportedValue, match="deeper than 64"):
            canonical_json(value)


_texts = st.one_of(
    json_values.map(lambda v: canonical_json(v).decode("utf-8")),
    st.tuples(st.sampled_from(["", " ", "\n", "\t \r"]), json_values,
              st.sampled_from(["", " ", "\n", "  \t"])).map(
        lambda t: t[0] + json.dumps(t[1], ensure_ascii=False) + t[2]),
    st.tuples(json_values, st.sampled_from(["x", ",", "1", "]", "}", "{}", " 2", "\x00"])).map(
        lambda t: canonical_json(t[0]).decode("utf-8") + t[1]),
    st.sampled_from(["1.5", "-0.0", "1e3", "[1,2.0]", '{"x":1.5}', "NaN", "Infinity",
                     "-Infinity", "[NaN]", '{"x":-Infinity}', "", " ", "[", "{", '"\\ud800"',
                     "tru", "nul", "01", '{"a" 1}', "[1,]", '"unterminated']),
    st.sampled_from([10, 1000, 100_000]).map(lambda n: "[" * n + "]" * n),
    st.text(alphabet="[]{}\",:0123456789.eE-tfnaulrs ", max_size=12),
)
_payloads = (_texts | _texts.map(lambda s: s.encode("utf-8", "surrogatepass"))
             | st.sampled_from([b"\xff", b'{"a":"\xc3"}', b"\xed\xa0\x80", b'"\xe2\x82"']))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_payloads)
def test_canonical_loads_matches_reference(data):
    assert _outcome(canonical_loads, data) == _outcome(_reference_loads, data)
