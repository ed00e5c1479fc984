"""Canonical JSON encoding for deterministic hashing and interchange.

This byte format is the common interface between the private and public
sides of the kit: every transaction payload, epoch summary, and report is
encoded with it, and every digest is computed over it.

Canonical form:
- UTF-8, no insignificant whitespace, separators ``,`` and ``:``.
- Object keys sorted by Unicode code point (identical to UTF-8 byte order).
- Strings use minimal JSON escaping (only quote, backslash, and control
  characters; non-ASCII stays literal).
- Integers in plain base-10, no leading zeros.
- Fractional numbers are NOT representable. Carry decimals as strings
  ("4.2") so every platform produces identical bytes. Feeding a native
  float (or NaN/Infinity) raises UnsupportedValue, on encode and decode.

canonical_json checks a value in one walk that calls itself only for
containers, then runs a C encoder built once at import. canonical_loads
parses one bare value with one raw_decode and hands any other input to the
full decoder, so its results and errors are the stdlib decoder's.

Dataclasses travel through to_json_value/from_json_value: an object per
instance keyed by field name, bytes as lowercase hex, tuples as arrays.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from typing import Any, Callable

from .errors import InvalidArgument, UnsupportedValue

DIGEST_SIZE = 32


def sha256(data: bytes) -> bytes:
    """Return the raw 32-byte SHA-256 digest of `data`."""
    return hashlib.sha256(data).digest()


_LEAVES = (str, int, bool)
_PLAIN = frozenset((*_LEAVES, type(None)))


def _check_value(value: Any, depth: int = 0) -> None:
    """Raise UnsupportedValue unless `value` is canonical JSON. Exact-type
    leaves pass inline and only other values cost a call; a leaf 65 levels
    down is too deep, so at depth 64 none passes inline."""
    if depth > 64:
        raise UnsupportedValue("value nesting deeper than 64 levels")
    plain = _PLAIN if depth < 64 else ()
    cls = type(value)
    if cls is dict or isinstance(value, dict):
        for key, item in value.items():
            if type(key) is not str and not isinstance(key, str):
                raise UnsupportedValue(f"object key {key!r} is not a string")
            if type(item) not in plain:
                _check_value(item, depth + 1)
    elif cls is list or cls is tuple or isinstance(value, (list, tuple)):
        for item in value:
            if type(item) not in plain:
                _check_value(item, depth + 1)
    elif isinstance(value, float):
        raise UnsupportedValue(
            f"native float {value!r} is not canonical; carry decimals as strings")
    elif value is not None and not isinstance(value, (str, int)):
        raise UnsupportedValue(f"unsupported value type {type(value).__name__}")


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            ensure_ascii=False, allow_nan=False)
# The C encoder that JSONEncoder.encode builds on every call, built once and
# without cycle markers (_check_value stops a cycle at depth 65); without the
# _json accelerator, the stdlib's Python encoder. Each returns chunks to join.
_encode_chunks = (json.encoder.c_make_encoder(
    None, _ENCODER.default, json.encoder.encode_basestring, None, ":", ",", True, False, False)
    if json.encoder.c_make_encoder else _ENCODER.iterencode)


def canonical_json(value: Any) -> bytes:
    """Encode `value` into canonical JSON bytes.

    Raises UnsupportedValue for floats, non-string object keys, or any
    type outside {str, int, bool, None, list, dict}.
    """
    _check_value(value)
    return "".join(_encode_chunks(value, 0)).encode("utf-8")


def _reject_float(text: str) -> Any:
    raise UnsupportedValue(f"fractional literal {text} in payload; use a decimal string")


def _reject_constant(text: str) -> Any:
    raise UnsupportedValue(f"non-finite literal {text} in payload")


_DECODER = json.JSONDecoder(parse_float=_reject_float, parse_constant=_reject_constant)


def canonical_loads(data: bytes | str) -> Any:
    """Parse JSON produced under the canonical rules.

    Accepts any whitespace/key-order on input (canonical_json of the result
    re-normalizes), but rejects fractional and non-finite number literals.
    Raises UnsupportedValue on such literals and on nesting too deep to
    parse, and ValueError on broken JSON.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        try:  # one bare value, as canonical_json writes it
            value, end = _DECODER.raw_decode(data)
            if end == len(data):
                return value
        except json.JSONDecodeError:
            pass
        return _DECODER.decode(data)  # whitespace, extra data or broken JSON
    except RecursionError as exc:
        raise UnsupportedValue("JSON nesting too deep to parse") from exc


def digest_json(value: Any) -> bytes:
    """SHA-256 digest of the canonical encoding of `value`."""
    return sha256(canonical_json(value))


_FIELD_NAMES: dict[type, tuple[str, ...]] = {}
_DECODERS: dict[Any, Callable[[Any], Any]] = {}


def to_json_value(obj: Any) -> Any:
    """JSON value of a dataclass instance, or of a tuple or list of them."""
    return _encode(obj)


def _encode(obj: Any) -> Any:
    cls = type(obj)
    if cls in _PLAIN:
        return obj
    if cls is bytes:
        return obj.hex()
    if cls is tuple or cls is list:
        return [_encode(item) for item in obj]
    names = _FIELD_NAMES.get(cls)
    if names is None:
        if not dataclasses.is_dataclass(cls):
            raise UnsupportedValue(f"no JSON encoding for {cls.__name__}")
        names = _FIELD_NAMES[cls] = tuple(f.name for f in dataclasses.fields(cls))
    out = {}
    for name in names:
        value = getattr(obj, name)
        out[name] = value if type(value) in _PLAIN else _encode(value)
    return out


def from_json_value(cls: Any, value: Any) -> Any:
    """Inverse of to_json_value for a value of declared type `cls`.

    `cls` is a dataclass, ``tuple[X, ...]``, ``list[X]``, bytes, str, int or
    bool; nested values decode by their declared field types. An absent key
    takes the field's default. Anything to_json_value cannot have written,
    such as an unknown key at any depth or hex that is not lowercase, raises
    InvalidArgument.
    """
    return _decoder(cls)(value)


def _decoder(tp: Any) -> Callable[[Any], Any]:
    """The decoding function for type `tp`, built once and cached."""
    if tp in _DECODERS:
        return _DECODERS[tp]
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        specs = []  # (name, leaf type or None, decoder of a non-leaf)
        for f in dataclasses.fields(tp):
            hint = hints[f.name]
            leaf = hint if hint in _LEAVES else None
            specs.append((f.name, leaf, None if leaf else _decoder(hint)))
        known = {name for name, _, _ in specs}

        def decode(value: Any) -> Any:
            if not isinstance(value, dict):
                raise InvalidArgument(f"{tp.__name__} must be a JSON object")
            kwargs = {}
            for name, leaf, decode_field in specs:
                if name in value:
                    item = value[name]
                    if leaf is None:
                        item = decode_field(item)
                    elif type(item) is not leaf:
                        raise InvalidArgument(f"{tp.__name__}.{name} must be {leaf.__name__}")
                    kwargs[name] = item
            if len(kwargs) != len(value):
                unknown = [key for key in value if key not in known]
                raise InvalidArgument(f"{tp.__name__} has unknown keys {unknown}")
            try:  # a missing required key surfaces here as a TypeError
                return tp(**kwargs)
            except (TypeError, ValueError, ArithmeticError) as exc:
                raise InvalidArgument(f"bad {tp.__name__}: {exc}") from exc
    elif origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        decode_item = _decoder(args[0])

        def decode(value: Any) -> Any:
            if not isinstance(value, list):
                raise InvalidArgument(f"expected a JSON array, got {type(value).__name__}")
            return origin([decode_item(item) for item in value])
    elif tp is bytes:
        def decode(value: Any) -> Any:
            try:
                out = bytes.fromhex(value)
            except (TypeError, ValueError) as exc:
                raise InvalidArgument(f"expected a hex string, got {value!r}") from exc
            if out.hex() != value:
                raise InvalidArgument(f"expected lowercase hex, got {value!r}")
            return out
    elif tp in _LEAVES:
        def decode(value: Any) -> Any:
            if type(value) is not tp:
                raise InvalidArgument(f"expected {tp.__name__}, got {type(value).__name__}")
            return value
    else:
        raise TypeError(f"no JSON decoding for {tp!r}")
    _DECODERS[tp] = decode
    return decode
