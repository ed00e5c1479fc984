"""CLI subcommands: exit codes, artifact round-trips, stable outputs."""

from __future__ import annotations

import json
import re

import pytest

from tcgw.canon import canonical_json, canonical_loads, to_json_value
from tcgw.cli import main

from helpers import flip_byte
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


def test_verify_checks_the_published_digest(run_dir, tmp_path, capsys):
    forged, channel, epoch = _forge_first_published_digest(run_dir, tmp_path)
    assert main(["verify", "--archive", str(run_dir / "archive"), "--chain", str(forged)]) == 1
    out = capsys.readouterr().out
    assert f"{channel} epoch {epoch}: FAIL (anchor)" in out
    assert out.count(": ok") == 3


def test_verify_rejects_a_digest_that_is_not_hex(run_dir, tmp_path, capsys):
    forged, _, _ = _forge_first_published_digest(run_dir, tmp_path, b"x")
    assert main(["verify", "--archive", str(run_dir / "archive"), "--chain", str(forged)]) == 2
    assert "cannot load inputs" in capsys.readouterr().err


@pytest.mark.parametrize("ranges_json", [
    b"[1]",
    b'{"ranges":{}}',
    b'{"ranges":[{"metric":"temperature_c","min_valid":"x","max_valid":"1"}]}',
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


def test_inspect_dumps_blocks(run_dir, capsys):
    assert main(["inspect", str(run_dir / "archive" / "north.epoch0.tcgw")]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["chain_id"] == "north.epoch0"  # stem of the inspected file
    assert dump["blocks"][0]["height"] == 0
    assert any(tx["kind"] == "RawReading"
               for block in dump["blocks"] for tx in block["transactions"])


def test_inspect_missing_file(tmp_path):
    assert main(["inspect", str(tmp_path / "missing.tcgw")]) == 2


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
