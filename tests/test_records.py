"""Record semantics of Transaction and ContextOp: each behaves like the
frozen slots dataclass its fields declare, and validates every
construction, through dataclasses.replace too. A reading has no record:
its four payload fields pass reading_fields' checks or raise."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from tcgw import ContextOp, TxKind
from tcgw.gateway import filter_out_of_scale, summarize
from tcgw.ledger import Transaction
from tcgw.errors import InvalidArgument
from tcgw.private_chain import reading_fields

from helpers import Reading

RECORDS = {
    Transaction: ((bytes(range(32)), "fieldA", 5, TxKind.RAW_READING, b"{}", "s-0"),
                  ("tx_id", "channel_id", "timestamp", "kind", "payload", "author_id")),
    ContextOp: ((TxKind.UPDATE_FIELD, "doc", ("a", "b"), "v"),
                ("op", "doc_id", "path", "value")),
}
# One changed field per record that keeps it valid.
OTHER = {Transaction: ("timestamp", 6), ContextOp: ("path", ("a", "c"))}


def _generated(cls):
    """The plain frozen slots dataclass with the same name and fields."""
    return dataclasses.make_dataclass(
        cls.__name__, [(f.name, f.type) for f in dataclasses.fields(cls)],
        frozen=True, slots=True)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_behaves_like_the_generated_dataclass(cls):
    args, names = RECORDS[cls]
    record, reference = cls(*args), _generated(cls)(*args)
    assert [f.name for f in dataclasses.fields(record)] == list(names)
    assert cls.__match_args__ == names
    assert repr(record) == repr(reference)
    assert hash(record) == hash(reference) == hash(cls(*args))
    assert record == cls(*args) == cls(**dict(zip(names, args)))
    assert tuple(getattr(record, name) for name in names) == args
    name, value = OTHER[cls]
    other = cls(**{**dict(zip(names, args)), name: value})
    assert record != other and hash(record) != hash(other)
    assert record != args and record != reference  # never equal to a tuple or another class
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        cls(*args[:-1])
    with pytest.raises(TypeError):
        cls(*args, None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_is_immutable(cls):
    args, names = RECORDS[cls]
    record = cls(*args)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, name)
    # FrozenInstanceError is an AttributeError; some CPython releases raise a
    # TypeError from the frozen __setattr__ of a slots class for a new name
    with pytest.raises((AttributeError, TypeError)):
        record.extra = None
    assert record == cls(*args)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_copies_and_pickles(cls):
    args, _ = RECORDS[cls]
    record = cls(*args)
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for twin in copies:
        assert type(twin) is cls and twin == record and hash(twin) == hash(record)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(twin, RECORDS[cls][1][0], None)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_replace_builds_a_new_record(cls):
    args, names = RECORDS[cls]
    record = cls(*args)
    name, value = OTHER[cls]
    changed = dataclasses.replace(record, **{name: value})
    assert changed == cls(**{**dict(zip(names, args)), name: value})
    assert record == cls(*args)


def test_context_op_with_an_unhashable_value_compares_but_does_not_hash():
    op = ContextOp(TxKind.APPEND_TO_ARRAY, "doc", ("log",), {"at": 1})
    assert op == ContextOp(TxKind.APPEND_TO_ARRAY, "doc", ("log",), {"at": 1})
    with pytest.raises(TypeError):
        hash(op)


@pytest.mark.parametrize("args, message", [
    (("s-0", "pressure", "20.5", 0), "unknown metric 'pressure'"),
    (("s-0", None, "20.5", 0), "unknown metric None"),
    (("s-0", "temperature_c", 20, 0), "value 20 is not a decimal string"),
    (("s-0", "temperature_c", None, 0), "value None is not a decimal string"),
    (("s-0", "temperature_c", "20.5", "0"), "timestamp '0' is not an integer"),
    (("s-0", "temperature_c", "20.5", True), "timestamp True is not an integer"),
    (("s-0", "temperature_c", "20.5", 1.0), "timestamp 1.0 is not an integer"),
    (("s-0", "temperature_c", "abc", 0), "value 'abc' is not a decimal"),
    (("s-0", "temperature_c", "", 0), "value '' is not a decimal"),
    (("s-0", "temperature_c", "1.2.3", 0), "value '1.2.3' is not a decimal"),
    (("s-0", "temperature_c", "NaN", 0), "value 'NaN' is not finite"),
    (("s-0", "temperature_c", "sNaN", 0), "value 'sNaN' is not finite"),
    (("s-0", "temperature_c", "Infinity", 0), "value 'Infinity' is not finite"),
    (("s-0", "temperature_c", "-inf", 0), "value '-inf' is not finite"),
    (("s-0", "temperature_c", " 9 ", 0), "value ' 9 ' is not a plain decimal literal"),
    (("s-0", "temperature_c", "1_0", 0), "value '1_0' is not a plain decimal literal"),
    (("s-0", "temperature_c", "12.5\n", 0), "value '12.5\\n' is not a plain decimal literal"),
    (("s-0", "temperature_c", "\u0661\u0661", 0),
     "value '\u0661\u0661' is not a plain decimal literal"),
    # the first failing check names the error
    (("s-0", "pressure", 20, "0"), "unknown metric 'pressure'"),
    (("s-0", "temperature_c", 20, "0"), "value 20 is not a decimal string"),
    (("s-0", "temperature_c", "abc", "0"), "timestamp '0' is not an integer"),
    (("s-0", "temperature_c", "NaN", "0"), "timestamp '0' is not an integer"),
    ((None, "pressure", 20, "0"), "sensor_id None is not a string"),
    # a sensor_id of each type that is not a string
    ((None, "temperature_c", "20.5", 0), "sensor_id None is not a string"),
    ((["x"], "temperature_c", "20.5", 0), "sensor_id ['x'] is not a string"),
    (({"a": 1}, "temperature_c", "20.5", 0), "sensor_id {'a': 1} is not a string"),
    ((7, "temperature_c", "20.5", 0), "sensor_id 7 is not a string"),
    ((b"s-0", "temperature_c", "20.5", 0), "sensor_id b's-0' is not a string"),
])
def test_sensor_reading_errors(args, message):
    """A parsed reading payload whose (sensor_id, metric, value, timestamp)
    are `args` is refused by reading_fields with `message`, and so is a
    reading record with those fields by summarize and filter_out_of_scale."""
    with pytest.raises(InvalidArgument) as info:
        reading_fields(Reading(*args)._asdict())
    assert type(info.value) is InvalidArgument and str(info.value) == message
    for fold in (summarize, lambda readings: filter_out_of_scale(readings, ())):
        with pytest.raises(InvalidArgument) as info:
            fold([Reading("s-0", "temperature_c", "20.5", 0), Reading(*args)])
        assert str(info.value) == message


@pytest.mark.parametrize("args, message", [
    ((TxKind.RAW_READING, "d", ("k",), 1), "TxKind.RAW_READING is not a context operation kind"),
    ((TxKind.ANCHOR, "d", ("k",), 1), "TxKind.ANCHOR is not a context operation kind"),
    (("UpdateField", "d", ("k",), 1), "UpdateField is not a context operation kind"),
    ((TxKind.UPDATE_FIELD, "", ("k",), 1), "doc_id must be a non-empty string"),
    ((TxKind.UPDATE_FIELD, 7, ("k",), 1), "doc_id must be a non-empty string"),
    ((TxKind.APPEND_TO_ARRAY, None, ("k",), 1), "doc_id must be a non-empty string"),
    ((TxKind.UPDATE_FIELD, "d", (), 1), "path must be a non-empty list of non-empty keys"),
    ((TxKind.UPDATE_FIELD, "d", ("k", ""), 1), "path must be a non-empty list of non-empty keys"),
    ((TxKind.UPDATE_FIELD, "d", ("k", 1), 1), "path must be a non-empty list of non-empty keys"),
    # the first failing check names the error
    ((TxKind.ANCHOR, "", (), 1), "TxKind.ANCHOR is not a context operation kind"),
    ((TxKind.UPDATE_FIELD, "", (), 1), "doc_id must be a non-empty string"),
])
def test_context_op_errors(args, message):
    with pytest.raises(InvalidArgument) as info:
        ContextOp(*args)
    assert type(info.value) is InvalidArgument and str(info.value) == message
    with pytest.raises(InvalidArgument) as info:
        dataclasses.replace(ContextOp(TxKind.UPDATE_FIELD, "d", ("k",), 1),
                            **dict(zip(("op", "doc_id", "path", "value"), args)))
    assert str(info.value) == message
