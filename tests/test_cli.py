"""CLI subcommands: exit codes, artifact round-trips, stable outputs."""

from __future__ import annotations

import json
import re

import pytest

from tcgw.canon import canonical_json, canonical_loads, to_json_value
from tcgw.cli import main
from tcgw.ledger import iter_transactions, load_ledger, save_ledger

from helpers import flip_byte
from test_gateway import _relink
from test_workload import small_scenario


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One completed small scenario shared by the read-only CLI tests."""
    base = tmp_path_factory.mktemp("cli")
    cfg_path = base / "cfg.json"
    cfg_path.write_bytes(canonical_json(to_json_value(small_scenario())))
    out = base / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out


def test_run_writes_expected_artifacts(run_dir):
    assert (run_dir / "report.json").exists()
    assert (run_dir / "public.tcgw").exists()
    assert (run_dir / "public.tcgw.meta.json").exists()
    assert (run_dir / "archive" / "ranges.json").exists()
    archives = sorted(p.name for p in (run_dir / "archive").glob("*.tcgw"))
    assert archives == ["north.epoch0.tcgw", "north.epoch1.tcgw",
                        "south.epoch0.tcgw", "south.epoch1.tcgw"]
    report = canonical_loads((run_dir / "report.json").read_bytes())
    assert report["ok"] is True
    assert report["confirmed_anchors"] == 4


def test_run_rejects_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"epoch": 3},                                        # a typo of "epochs"
    {"ranges": [{"metric": "temperature_c", "min_valid": "0", "max_valid": "1"}] * 2},
    {"channel_id": "../escaped"},                        # would write next to --out
    {"channel_id": ".."},
], ids=["unknown key", "duplicate ranges", "escaping channel", "dot-dot channel"])
def test_run_rejects_a_bad_config_before_writing_anything(tmp_path, capsys, change):
    value = to_json_value(small_scenario())
    if "channel_id" in change:
        value["fields"][0].update(change)
    else:
        value.update(change)
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(canonical_json(value))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_verify_accepts_honest_artifacts(run_dir, capsys):
    assert main(["verify", "--archive", str(run_dir / "archive"),
                 "--chain", str(run_dir / "public.tcgw")]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 4


def test_verify_flags_corrupted_archive(run_dir, tmp_path, capsys):
    tampered_dir = tmp_path / "archive"
    tampered_dir.mkdir()
    for path in (run_dir / "archive").iterdir():
        tampered_dir.joinpath(path.name).write_bytes(path.read_bytes())
    victim = tampered_dir / "north.epoch1.tcgw"
    data = victim.read_bytes()
    victim.write_bytes(flip_byte(data, len(data) - 40))
    assert main(["verify", "--archive", str(tampered_dir),
                 "--chain", str(run_dir / "public.tcgw")]) == 1
    captured = capsys.readouterr()
    assert "north epoch 1: FAIL" in captured.out
    assert "north" in captured.err and "1" in captured.err


def test_invalid_utf8_in_archive_is_a_chain_failure(run_dir, tmp_path, capsys):
    tampered_dir = tmp_path / "archive"
    tampered_dir.mkdir()
    for path in (run_dir / "archive").iterdir():
        tampered_dir.joinpath(path.name).write_bytes(path.read_bytes())
    victim = tampered_dir / "north.epoch0.tcgw"
    data = bytearray(victim.read_bytes())
    # header 5 + genesis block 116 + block 1 header 84 + tx_id 32 + length 4:
    # the first byte of the first transaction's channel_id in block 1
    data[241] = 0xFF
    victim.write_bytes(bytes(data))
    assert main(["verify", "--archive", str(tampered_dir),
                 "--chain", str(run_dir / "public.tcgw")]) == 1
    out = capsys.readouterr().out
    assert "north epoch 0: FAIL (chain)" in out
    assert out.count(": ok") == 3  # the later archives are still checked
    assert main(["inspect", str(victim)]) == 2
    assert "not valid UTF-8" in capsys.readouterr().err


def test_inspect_names_the_byte_offset_of_a_malformed_archive(run_dir, tmp_path, capsys):
    data = (run_dir / "archive" / "north.epoch0.tcgw").read_bytes()
    truncated = tmp_path / "truncated.tcgw"
    truncated.write_bytes(data[:-7])
    assert main(["inspect", str(truncated)]) == 2
    err = capsys.readouterr().err
    assert f"truncated at byte {len(data) - 32}: need 32 bytes, 25 left" in err
    # block 1's first channel_id "north" starts at byte 241 (see above); the
    # kind code follows it and the u64 timestamp
    code_at = 241 + len("north") + 8
    assert data[code_at] == 3  # RawReading
    flipped = tmp_path / "kind.tcgw"
    flipped.write_bytes(data[:code_at] + b"\x09" + data[code_at + 1:])
    assert main(["inspect", str(flipped)]) == 2
    assert f"unknown transaction kind code 9 at byte {code_at}" in capsys.readouterr().err


def _forge_first_published_digest(run_dir, tmp_path, digit: bytes | None = None):
    """Copy of public.tcgw with the first hex digit of the first published
    summary_digest replaced by `digit` (by another hex digit when None)."""
    data = (run_dir / "public.tcgw").read_bytes()
    match = re.search(rb'"channel_id":"([^"]+)","epoch_index":(\d+),.*?"summary_digest":"()',
                      data)
    at = match.start(3)
    if digit is None:
        digit = b"1" if data[at:at + 1] == b"0" else b"0"
    forged = tmp_path / "public.tcgw"
    forged.write_bytes(data[:at] + digit + data[at + 1:])
    (tmp_path / "public.tcgw.meta.json").write_bytes(
        (run_dir / "public.tcgw.meta.json").read_bytes())
    return forged, match.group(1).decode(), int(match.group(2))


def _relink_first_published_digest(run_dir, tmp_path, digit: str | None = None):
    """The same forgery with its tx_id, Merkle root and later block hashes
    re-derived, so that the public chain still passes verify_chain."""
    ledger = load_ledger(run_dir / "public.tcgw", chain_id="public")
    height, index, tx = next(found for found in iter_transactions(ledger)
                             if b'"summary"' in found[2].payload)
    payload = canonical_loads(tx.payload)
    digest = payload["summary_digest"]
    payload["summary_digest"] = (digit or ("1" if digest[0] == "0" else "0")) + digest[1:]
    forged = save_ledger(_relink(ledger, height, index, tx.kind, canonical_json(payload)),
                         tmp_path / "public.tcgw")
    (tmp_path / "public.tcgw.meta.json").write_bytes(
        (run_dir / "public.tcgw.meta.json").read_bytes())
    return forged, payload["channel_id"], payload["epoch_index"], (height, index)


def test_verify_checks_the_published_digest(run_dir, tmp_path, capsys):
    forged, channel, _ = _forge_first_published_digest(run_dir, tmp_path)
    assert main(["verify", "--archive", str(run_dir / "archive"), "--chain", str(forged)]) == 1
    assert capsys.readouterr().out == "public chain: FAIL (TxId at block 1)\n"
    assert main(["trace", "--chain", str(forged), "--channel", channel]) == 1
    assert capsys.readouterr().out == "public chain: FAIL (TxId at block 1)\n"
    relinked, channel, epoch, _ = _relink_first_published_digest(run_dir, tmp_path)
    assert main(["verify", "--archive", str(run_dir / "archive"), "--chain", str(relinked)]) == 1
    out = capsys.readouterr().out
    assert f"{channel} epoch {epoch}: FAIL (anchor)" in out
    assert out.count(": ok") == 3


def test_verify_rejects_a_digest_that_is_not_hex(run_dir, tmp_path, capsys):
    forged, _, _, (height, index) = _relink_first_published_digest(run_dir, tmp_path, "x")
    assert main(["verify", "--archive", str(run_dir / "archive"), "--chain", str(forged)]) == 1
    assert capsys.readouterr().out.startswith(
        f"public chain: FAIL (anchor at block {height} tx {index}: expected a hex string")


@pytest.mark.parametrize("ranges_json", [
    b"[1]",
    b'{"ranges":{}}',
    b'{"ranges":[{"metric":"temperature_c","min_valid":"x","max_valid":"1"}]}',
    b'{"ranges":[{"max_valid":"60","metric":"temperature_c","min_valid":"-20"},'
    b'{"max_valid":"50","metric":"temperature_c","min_valid":"-10"}]}',
])
def test_verify_rejects_malformed_ranges(run_dir, tmp_path, capsys, ranges_json):
    archive = tmp_path / "archive"
    archive.mkdir()
    for path in (run_dir / "archive").iterdir():
        archive.joinpath(path.name).write_bytes(path.read_bytes())
    (archive / "ranges.json").write_bytes(ranges_json)
    assert main(["verify", "--archive", str(archive),
                 "--chain", str(run_dir / "public.tcgw")]) == 2
    assert "cannot load inputs" in capsys.readouterr().err


def test_verify_missing_inputs(tmp_path):
    assert main(["verify", "--archive", str(tmp_path / "nope"),
                 "--chain", str(tmp_path / "nope.tcgw")]) == 2


def test_trace_outputs_canonical_json(run_dir, capsys):
    args = ["trace", "--chain", str(run_dir / "public.tcgw"), "--channel", "north",
            "--doc", str(run_dir / "state" / "north.json")]
    assert main(args) == 0
    first = capsys.readouterr().out
    trace = json.loads(first)
    assert trace["channel_id"] == "north"
    assert len(trace["summaries"]) == 2
    assert trace["cultural_operations_count"] == len(
        trace["current_values"]["Cultural Operations"])
    assert main(args) == 0
    assert capsys.readouterr().out == first  # stable byte output


def test_trace_unknown_channel_is_empty_but_ok(run_dir, capsys):
    assert main(["trace", "--chain", str(run_dir / "public.tcgw"),
                 "--channel", "mars"]) == 0
    trace = json.loads(capsys.readouterr().out)
    assert trace == {"channel_id": "mars", "summaries": []}


def test_trace_missing_chain(tmp_path):
    assert main(["trace", "--chain", str(tmp_path / "nope.tcgw"), "--channel", "x"]) == 2


def _chain_copy(run_dir, tmp_path, meta: bytes):
    chain = tmp_path / "public.tcgw"
    chain.write_bytes((run_dir / "public.tcgw").read_bytes())
    (tmp_path / "public.tcgw.meta.json").write_bytes(meta)
    return chain


def test_trace_meta_without_validators(run_dir, tmp_path, capsys):
    meta = canonical_loads((run_dir / "public.tcgw.meta.json").read_bytes())
    del meta["validators"]
    chain = _chain_copy(run_dir, tmp_path, canonical_json(meta))
    _assert_input_error(["trace", "--chain", str(chain), "--channel", "north"],
                        tmp_path / "public.tcgw.meta.json", capsys)


def test_trace_meta_that_is_an_array(run_dir, tmp_path, capsys):
    chain = _chain_copy(run_dir, tmp_path, b"[1,2]")
    _assert_input_error(["trace", "--chain", str(chain), "--channel", "north"],
                        tmp_path / "public.tcgw.meta.json", capsys)


@pytest.mark.parametrize("key, value", [
    ("validators", "val-0val-1"), ("gateways", "gw-0"), ("chain_id", 7),
    ("confirmations_required", True),
    # keys that older sidecars held, before the clock was read from the ledger
    ("clock", 0), ("tick_seq", 0)])
def test_verify_meta_with_a_mistyped_field(run_dir, tmp_path, capsys, key, value):
    meta = canonical_loads((run_dir / "public.tcgw.meta.json").read_bytes())
    meta[key] = value
    chain = _chain_copy(run_dir, tmp_path, canonical_json(meta))
    _assert_input_error(["verify", "--archive", str(run_dir / "archive"), "--chain", str(chain)],
                        tmp_path / "public.tcgw.meta.json", capsys)


def test_trace_doc_that_is_an_array(run_dir, tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_bytes(b"[1,2]")
    _assert_input_error(["trace", "--chain", str(run_dir / "public.tcgw"),
                         "--channel", "north", "--doc", str(doc)], doc, capsys)


def test_inspect_dumps_blocks(run_dir, capsys):
    assert main(["inspect", str(run_dir / "archive" / "north.epoch0.tcgw")]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["chain_id"] == "north.epoch0"  # stem of the inspected file
    assert dump["blocks"][0]["height"] == 0
    assert any(tx["kind"] == "RawReading"
               for block in dump["blocks"] for tx in block["transactions"])


def test_inspect_missing_file(tmp_path):
    assert main(["inspect", str(tmp_path / "missing.tcgw")]) == 2


def _archive_copy(run_dir, tmp_path):
    archive = tmp_path / "archive"
    archive.mkdir()
    for path in (run_dir / "archive").iterdir():
        archive.joinpath(path.name).write_bytes(path.read_bytes())
    return archive


def _assert_input_error(argv, path, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("tcgw: ") and str(path) in err


def test_verify_ranges_file_that_is_a_directory(run_dir, tmp_path, capsys):
    archive = _archive_copy(run_dir, tmp_path)
    (archive / "ranges.json").unlink()
    (archive / "ranges.json").mkdir()
    _assert_input_error(["verify", "--archive", str(archive),
                         "--chain", str(run_dir / "public.tcgw")],
                        archive / "ranges.json", capsys)


def test_verify_archive_that_is_a_directory(run_dir, tmp_path, capsys):
    archive = _archive_copy(run_dir, tmp_path)
    (archive / "x.epoch0.tcgw").mkdir()
    _assert_input_error(["verify", "--archive", str(archive),
                         "--chain", str(run_dir / "public.tcgw")],
                        archive / "x.epoch0.tcgw", capsys)


def test_verify_reports_a_deleted_archive_as_missing(run_dir, tmp_path, capsys):
    archive = _archive_copy(run_dir, tmp_path)
    (archive / "south.epoch1.tcgw").unlink()
    assert main(["verify", "--archive", str(archive),
                 "--chain", str(run_dir / "public.tcgw")]) == 1
    captured = capsys.readouterr()
    assert "south epoch 1: FAIL (missing)" in captured.out
    assert captured.out.count(": ok") == 3
    assert "channel south epoch 1" in captured.err


def test_verify_reports_a_renamed_archive(run_dir, tmp_path, capsys):
    archive = _archive_copy(run_dir, tmp_path)
    (archive / "north.epoch0.tcgw").rename(archive / "north.epoch7.tcgw")
    (archive / "south.epoch0.tcgw").rename(archive / "south-epoch0.tcgw")
    (archive / "south.epoch1.tcgw").rename(archive / "south.epoch01.tcgw")
    assert main(["verify", "--archive", str(archive),
                 "--chain", str(run_dir / "public.tcgw")]) == 1
    captured = capsys.readouterr()
    assert "north epoch 0: FAIL (missing)" in captured.out
    assert "north epoch 7: FAIL (anchor)" in captured.out
    assert "south epoch 0: FAIL (missing)" in captured.out
    assert "south epoch 1: FAIL (missing)" in captured.out
    assert captured.out.count(": ok") == 1
    for name in ("south-epoch0.tcgw", "south.epoch01.tcgw"):
        assert f"warning: {archive / name}" in captured.err


def test_verify_empty_archive_next_to_a_non_empty_chain(run_dir, tmp_path, capsys):
    (tmp_path / "archive").mkdir()
    assert main(["verify", "--archive", str(tmp_path / "archive"),
                 "--chain", str(run_dir / "public.tcgw")]) == 1
    out = capsys.readouterr().out
    assert out.count(": FAIL (missing)") == 4 and ": ok" not in out


def test_inspect_directory(tmp_path, capsys):
    _assert_input_error(["inspect", str(tmp_path)], tmp_path, capsys)


def test_run_out_is_an_existing_file(tmp_path, capsys):
    out = tmp_path / "out"
    out.write_bytes(b"")
    _assert_input_error(["run", "--out", str(out)], out, capsys)
    assert out.read_bytes() == b""


def test_bench_levels_flag(tmp_path, capsys):
    out = tmp_path / "bench"
    assert main(["bench", "--levels", "0,100,1000", "--out", str(out)]) == 0
    lines = (out / "table2.csv").read_text().splitlines()
    assert len(lines) == 4  # header + 3 rows
    assert "R^2" in capsys.readouterr().out
    report = canonical_loads((out / "bench_report.json").read_bytes())
    assert report["verify_mode"] is True


def test_bench_rejects_bad_levels(tmp_path, capsys):
    assert main(["bench", "--levels", "10,5", "--out", str(tmp_path / "b")]) == 2
    assert "bad bench flags" in capsys.readouterr().err


def test_bench_max_level_caps_default_levels(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--max-level", "1000", "--verify-mode", "off",
                 "--out", str(out)]) == 0
    lines = (out / "table2.csv").read_text().splitlines()
    # default levels up to the cap: 0, 5, 10, 50, 100, 500, 1000
    assert [line.split(",")[0] for line in lines[1:]] == \
        ["0", "5", "10", "50", "100", "500", "1000"]


def test_tcgw_seed_overrides_scenario_seeds(tmp_path, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(canonical_json(to_json_value(small_scenario())))
    out_plain = tmp_path / "plain"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_plain)]) == 0
    monkeypatch.setenv("TCGW_SEED", "31337")
    out_seeded_a, out_seeded_b = tmp_path / "seeded_a", tmp_path / "seeded_b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_seeded_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_seeded_b)]) == 0
    plain = (out_plain / "report.json").read_bytes()
    seeded_a = (out_seeded_a / "report.json").read_bytes()
    seeded_b = (out_seeded_b / "report.json").read_bytes()
    assert seeded_a != plain          # override changes the workload
    assert seeded_a == seeded_b       # but stays deterministic per seed


def test_rerun_is_byte_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(canonical_json(to_json_value(small_scenario())))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel
