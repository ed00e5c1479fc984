"""One-bit flips of the public chain files: `tcgw verify` must never exit 0.

The run is the first two fleet fields of the benchmark workloads (seed 1)
over two 2-day epochs. Every wire field of every block and transaction of
`public.tcgw` gets one flipped bit, found from the struct layouts the
ledger codec uses; every byte of the sidecar gets its bit 0 flipped.
"""

from __future__ import annotations

import hashlib
import re
import struct

import pytest

from tcgw.canon import canonical_json
from tcgw.cli import main
from tcgw.ledger import _BLOCK_HEAD, _TS_KIND_LEN, _TX_HEAD, DIGEST_SIZE

from helpers import flip_byte

DAY = 86_400


def _field(i: int, product: str, metric: str, low: str, high: str) -> dict:
    channel = f"{product}-{i:03d}"
    seed = hashlib.sha256(f"perfbench/1/{channel}".encode("utf-8")).digest()
    return {"channel_id": channel, "fault_rate": "0.05", "ops_interval": DAY // 2,
            "product": product, "seed": int.from_bytes(seed[:8], "big"),
            "sensors": [{"high": high, "interval": DAY // 4, "low": low,
                         "metric": metric, "sensor_id": f"{channel}-s"}]}


SMALL_RUN = {
    "confirmations_required": 2,
    "epoch_length": 2 * DAY,
    "epochs": 2,
    "fields": [_field(0, "asparagus", "temperature_c", "5", "35"),
               _field(1, "pomegranate", "humidity_pct", "20", "90")],
    "ranges": [{"metric": "temperature_c", "min_valid": "-20", "max_valid": "60"},
               {"metric": "humidity_pct", "min_valid": "0", "max_valid": "100"}],
    "validators": 4,
}


def _spans(layout: struct.Struct, offset: int) -> list[tuple[int, int]]:
    """(offset, size) of each field of a big-endian struct layout at `offset`."""
    spans = []
    for code in re.findall(r"\d*[a-zA-Z]", layout.format[1:]):
        size = struct.calcsize(">" + code)
        spans.append((offset, size))
        offset += size
    return spans


def wire_fields(data: bytes) -> list[tuple[int, int]]:
    """(offset, size) of every field of every block and transaction in a `.tcgw` file."""
    fields, at = [], 5
    while at < len(data):
        *_, count = _BLOCK_HEAD.unpack_from(data, at)
        fields += _spans(_BLOCK_HEAD, at)
        at += _BLOCK_HEAD.size
        for _ in range(count):
            _, n = _TX_HEAD.unpack_from(data, at)
            fields += _spans(_TX_HEAD, at) + [(at + _TX_HEAD.size, n)]
            at += _TX_HEAD.size + n
            *_, size = _TS_KIND_LEN.unpack_from(data, at)
            fields += _spans(_TS_KIND_LEN, at) + [(at + _TS_KIND_LEN.size, size)]
            at += _TS_KIND_LEN.size + size
            (n,) = struct.unpack_from(">I", data, at)
            fields += [(at, 4), (at + 4, n)]
            at += 4 + n
        fields.append((at, DIGEST_SIZE))
        at += DIGEST_SIZE
    assert at == len(data)
    return fields


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    (base / "cfg.json").write_bytes(canonical_json(SMALL_RUN))
    assert main(["run", "--config", str(base / "cfg.json"), "--out", str(base / "out")]) == 0
    return base / "out"


def test_every_flip_of_the_public_chain_files_fails(small_run, tmp_path, capsys):
    chain, meta = tmp_path / "public.tcgw", tmp_path / "public.tcgw.meta.json"
    data = (small_run / "public.tcgw").read_bytes()
    meta_data = (small_run / "public.tcgw.meta.json").read_bytes()
    argv = ["verify", "--archive", str(small_run / "archive"), "--chain", str(chain)]

    def exit_code(chain_bytes: bytes, meta_bytes: bytes) -> int:
        chain.write_bytes(chain_bytes)
        meta.write_bytes(meta_bytes)
        code = main(argv)
        assert "Traceback" not in capsys.readouterr().err
        return code

    assert exit_code(data, meta_data) == 0
    fields = wire_fields(data)
    assert len(fields) > 100  # every block and transaction of the run
    passed = [("public.tcgw", at + size - 1) for at, size in fields
              if exit_code(flip_byte(data, at + size - 1), meta_data) not in (1, 2)]
    passed += [("meta", i) for i in range(len(meta_data))
               if exit_code(data, flip_byte(meta_data, i)) not in (1, 2)]
    assert passed == []
