"""CLI subcommands: exit codes, artifact round-trips, stable outputs."""

from __future__ import annotations

import dataclasses
import gc
import json
import re
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from tcgw.canon import canonical_json, canonical_loads, to_json_value
from tcgw.cli import _audit_epoch, main
from tcgw.errors import InvalidChain
from tcgw.ledger import iter_transactions, load_ledger, make_block, save_ledger
from tcgw.public_chain import PublicChain
from tcgw.workload import archive_name, default_scenario

from helpers import flip_byte, node_with_readings, tamper_ledger
from test_gateway import TEMP_RANGE, _pub, _relink, _rollover
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
    {"confirmations_required": 0},
], ids=["unknown key", "duplicate ranges", "escaping channel", "dot-dot channel",
        "zero confirmations"])
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


@pytest.mark.parametrize("where, text", [
    ("sensor_id", "s\ud800"), ("channel_id", "f\ud800"),
], ids=["sensor", "channel"])
def test_run_rejects_a_config_id_that_utf8_cannot_encode(tmp_path, capsys, where, text):
    """A lone surrogate in an id is a config error (2) naming the field, not
    a traceback out of the seed derivation."""
    value = to_json_value(small_scenario())
    field = value["fields"][0]
    (field["sensors"][0] if where == "sensor_id" else field)[where] = text
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(value))  # ASCII, the surrogate as a \u escape
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tcgw: config error: ")
    assert f"{where} {text!r} is not UTF-8 encodable" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_run_rejects_epochs_that_end_past_u64(tmp_path, capsys):
    """Timestamps are u64 on the wire: a config whose last epoch ends past
    2**64 - 1 s is a config error (2), not a struct.error traceback out of
    transaction_body (1, "verification failed")."""
    value = to_json_value(small_scenario())
    value["epoch_length"], value["epochs"] = 2**63, 2
    for field in value["fields"]:
        field["ops_interval"] = 2**62
        for sensor in field["sensors"]:
            sensor["interval"] = 2**62
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(canonical_json(value))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("tcgw: config error: ")
    assert "2 epochs of 9223372036854775808 s end past the last u64 timestamp" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_run_rejects_a_repeated_sensor_id(tmp_path, capsys):
    """Two sensors of one field with one id share an RNG stream, so equal
    specs generate equal transactions: a config error (2) naming the field
    and the id, not a bare tx id from submit mid-run."""
    value = to_json_value(small_scenario())
    field = value["fields"][0]
    field["sensors"].append(dict(field["sensors"][0]))
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(canonical_json(value))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    sensor_id = field["sensors"][0]["sensor_id"]
    assert err.startswith("tcgw: config error: ")
    assert f"field {field['channel_id']} repeats sensor_id {sensor_id!r}" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("where, text", [
    ("low", " 9 "), ("high", "1_0"), ("max_valid", "12.5\n"), ("min_valid", "\u0661\u0661"),
    ("fault_rate", "0.05 "),
])
def test_run_rejects_a_config_decimal_that_is_not_a_plain_literal(tmp_path, capsys, where, text):
    value = to_json_value(small_scenario())
    field = value["fields"][0]
    target = {"low": field["sensors"][0], "high": field["sensors"][0], "fault_rate": field,
              "max_valid": value["ranges"][0], "min_valid": value["ranges"][0]}[where]
    target[where] = text
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(canonical_json(value))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert f"{where} {text!r} is not a plain decimal literal" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


@pytest.mark.parametrize("where, text, message", [
    ("max_valid", "1E+100", "max_valid '1E+100' is not below 1E+100 in magnitude"),
    ("high", "1.7E+308", "high '1.7E+308' is not below 1E+100 in magnitude"),
    ("low", "-1E+400", "low '-1E+400' is not below 1E+100 in magnitude"),
    ("max_valid", "1E+99", "fault spike '1.0E+100' is not below 1E+100 in magnitude"),
    ("high", "9.9999999E+99", "reaches 1E+99"),
])
def test_run_rejects_a_config_value_that_a_reading_could_not_hold(tmp_path, capsys, where,
                                                                  text, message):
    """Sensor bounds, validity ranges and the fault spikes generated from them
    must keep every reading below 1E+100, so no epoch statistic overflows."""
    value = to_json_value(small_scenario())
    sensor = value["fields"][0]["sensors"][0]
    target = {"low": sensor, "high": sensor, "max_valid": value["ranges"][0]}[where]
    target[where] = text
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(canonical_json(value))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_verify_rejects_an_archived_reading_that_is_not_a_plain_literal(run_dir, tmp_path,
                                                                         capsys):
    """A re-linked archive whose reading carries the same number padded with a
    newline passes verify_chain; the audit refuses the reading as stats."""
    archive = tmp_path / "archive"
    archive.mkdir()
    for path in (run_dir / "archive").iterdir():
        archive.joinpath(path.name).write_bytes(path.read_bytes())
    victim = archive / "north.epoch0.tcgw"
    ledger = load_ledger(victim)
    report = canonical_loads((run_dir / "report.json").read_bytes())
    stats = report["channels"]["north"][0]["summary"]["stats"]
    extremes = {text for s in stats for text in (s["min"], s["max"])}
    height, index, tx, payload = next(
        (height, index, tx, payload) for height, index, tx in iter_transactions(ledger)
        if tx.kind.label == "RawReading"
        and (payload := canonical_loads(tx.payload))["value"] not in extremes
        and "." in payload["value"])
    payload["value"] += "\n"
    save_ledger(_relink(ledger, height, index, tx.kind, canonical_json(payload)), victim)
    assert main(["verify", "--archive", str(archive),
                 "--chain", str(run_dir / "public.tcgw")]) == 1
    out = capsys.readouterr().out
    assert "north epoch 0: FAIL (head, stats)" in out
    assert out.count(": ok") == 3


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


@pytest.mark.parametrize("target, fault", [("tx_id", "TxId"), ("tx_root", "TxRoot"),
                                           ("previous_hash", "HashLink")])
def test_verify_names_the_block_where_an_archive_breaks(run_dir, tmp_path, capsys,
                                                        target, fault):
    archive = tmp_path / "archive"
    archive.mkdir()
    for path in (run_dir / "archive").iterdir():
        archive.joinpath(path.name).write_bytes(path.read_bytes())
    victim = archive / "south.epoch1.tcgw"
    save_ledger(tamper_ledger(load_ledger(victim), height=1, target=target), victim)
    assert main(["verify", "--archive", str(archive),
                 "--chain", str(run_dir / "public.tcgw")]) == 1
    out = capsys.readouterr().out
    assert f"south epoch 1: FAIL (chain: {fault} at block 1)\n" in out
    assert out.count(": ok") == 3


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
    assert "north epoch 0: FAIL (chain: string at byte 241 is not valid UTF-8)" in out
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
    ledger = load_ledger(run_dir / "public.tcgw")
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
    # the next epoch's archive links to the digest its gateway published
    assert f"{channel} epoch {epoch + 1}: FAIL (link)" in out
    assert out.count(": ok") == 2


def test_verify_refuses_a_public_chain_whose_clock_runs_backwards(run_dir, tmp_path, capsys):
    """The public chain's last block set to time 0, its hash re-derived:
    append_block could not have written it, so the load refuses it."""
    ledger = load_ledger(run_dir / "public.tcgw")
    last = ledger[-1]
    assert last.timestamp > 0
    forged = ledger[:-1] + (make_block(last.height, last.previous_hash, 0, last.transactions),)
    save_ledger(forged, tmp_path / "public.tcgw")
    (tmp_path / "public.tcgw.meta.json").write_bytes(
        (run_dir / "public.tcgw.meta.json").read_bytes())
    with pytest.raises(InvalidChain, match=f"ClockSkew at block {last.height}"):
        PublicChain.load(tmp_path / "public.tcgw")
    argv = ["verify", "--archive", str(run_dir / "archive"), "--chain", str(tmp_path / "public.tcgw")]
    assert main(argv) == 1
    assert capsys.readouterr().out == f"public chain: FAIL (ClockSkew at block {last.height})\n"


def test_verify_builds_no_transaction_body(run_dir, monkeypatch, capsys):
    """Work counter: `tcgw verify` checks every tx_id against the SHA-256 of
    the body bytes it read, so it builds no body with transaction_body (it
    built one per archived and per public-chain transaction when it
    decoded each file into objects and verified those)."""
    from tcgw import ledger
    calls = []
    build = ledger.transaction_body
    monkeypatch.setattr(ledger, "transaction_body", lambda *args: calls.append(1) or build(*args))
    assert main(["verify", "--archive", str(run_dir / "archive"),
                 "--chain", str(run_dir / "public.tcgw")]) == 0
    assert capsys.readouterr().out.count(": ok") == 4
    assert calls == []


def _file_audit_peak(tmp_path, n: int, tampered: bool = False) -> int:
    """Bytes the traced heap peaks above its level before `tcgw verify`
    audits the archive file of an honest epoch of n readings, or of one
    with the first digit of its first reading's value flipped. Either audit
    reads the file once."""
    node = node_with_readings(n=n, spacing=10, ranges=(TEMP_RANGE,))
    pub = _pub()
    _rollover(node, pub, 0, n * 10)
    path = save_ledger(node.ledger, tmp_path / f"fieldA.n{n}.tcgw")
    verdict = "ok"
    if tampered:
        data = bytearray(path.read_bytes())
        data[data.index(b'"value":"') + 9] ^= 0x01
        path.write_bytes(bytes(data))
        verdict = "FAIL (chain: TxId at block 1, stats)"
    from tcgw import ledger
    reads = []

    def counting_open(file, *args, **kwargs):  # read_blocks reads a file through one open
        reads.append(file)
        return open(file, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ledger, "open", counting_open, raising=False)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert _audit_epoch(path, "fieldA", 0, pub) == verdict
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert reads == [path]
    return peak


def test_verify_holds_the_file_and_no_transaction_per_transaction(tmp_path):
    """The file audit streams the decoded blocks: its peak grows per archived
    reading by the file's bytes (142) and a double for the stats (8), 151
    bytes here, not by every decoded transaction beside
    them (438 bytes when the audit loaded the whole ledger first). A broken
    chain's stats are folded from the same block stream, so a tampered
    archive's audit grows alike (452 bytes when it read the file again into
    a Ledger and a SensorReading per reading)."""
    n = 1000
    for tampered in (False, True):
        growth = (_file_audit_peak(tmp_path, 2 * n, tampered)
                  - _file_audit_peak(tmp_path, n, tampered)) / n
        assert growth < 250, (tampered, growth)


def _verify_work(tmp_path, epochs: int) -> tuple[int, Counter]:
    """(range_bounds calls, opens per file name through read_blocks) of one
    `tcgw verify` over the 2 * epochs archives of small_scenario(epochs),
    counting cmd_verify's check of ranges.json and the chain's parse at load."""
    from tcgw import cli, ledger, public_chain
    cfg_path = tmp_path / f"cfg{epochs}.json"
    cfg_path.write_bytes(canonical_json(to_json_value(small_scenario(epochs=epochs))))
    out = tmp_path / f"out{epochs}"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    parses, opens = [], Counter()
    parse = public_chain.range_bounds

    def counting_open(file, *args, **kwargs):
        opens[Path(file).name] += 1
        return open(file, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        for module in (cli, public_chain):
            patch.setattr(module, "range_bounds", lambda ranges: parses.append(1) or parse(ranges))
        patch.setattr(ledger, "open", counting_open, raising=False)
        assert main(["verify", "--archive", str(out / "archive"),
                     "--chain", str(out / "public.tcgw")]) == 0
    return len(parses), opens


def test_verify_parses_the_ranges_twice_and_opens_each_archive_once(tmp_path, capsys):
    """Work counter: `tcgw verify` parses the validity ranges twice per
    command, at 2 archives as at 6 (once to check ranges.json, once as the
    chain loads, for every audit), and opens each file once, the public
    chain's included."""
    for epochs in (1, 3):
        parses, opens = _verify_work(tmp_path, epochs)
        assert parses == 2, epochs
        assert opens == Counter(["public.tcgw", *(archive_name(channel, epoch)
                                                  for channel in ("north", "south")
                                                  for epoch in range(epochs))])
        assert capsys.readouterr().out.count(": ok") == 2 * epochs


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


def test_verify_fails_ranges_that_block_0_does_not_commit_to(tmp_path, capsys):
    """archive/ranges.json narrowed where no reading falls (the bundled
    run's wind_speed_ms max_valid cut from 40 to 1; no bundled sensor reads
    wind) fails: the public genesis commits to the run's ranges through its
    sidecar, and a sidecar without them fails the genesis check."""
    out = tmp_path / "out"
    assert main(["run", "--out", str(out)]) == 0
    capsys.readouterr()
    ranges_path = out / "archive" / "ranges.json"
    honest = ranges_path.read_bytes()
    value = canonical_loads(honest)
    (wind,) = [r for r in value["ranges"] if r["metric"] == "wind_speed_ms"]
    assert wind["max_valid"] == "40"
    wind["max_valid"] = "1"
    ranges_path.write_bytes(canonical_json(value))
    argv = ["verify", "--archive", str(out / "archive"), "--chain", str(out / "public.tcgw")]
    assert main(argv) == 1
    assert capsys.readouterr().out == "ranges.json: FAIL (not the ranges block 0 commits to)\n"

    ranges_path.write_bytes(honest)
    meta_path = out / "public.tcgw.meta.json"
    meta = canonical_loads(meta_path.read_bytes())
    assert meta.pop("ranges") == canonical_loads(honest)["ranges"]
    meta_path.write_bytes(canonical_json(meta))
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "public chain: FAIL (block 0 does not commit to the sidecar public.tcgw.meta.json)\n")


def test_verify_without_ranges_json_audits_under_the_chain_ranges(run_dir, tmp_path, capsys):
    """A missing ranges.json is a warning: every audit folds under the
    ranges block 0 commits to, so an honest run still verifies."""
    archive = _archive_copy(run_dir, tmp_path)
    (archive / "ranges.json").unlink()
    assert main(["verify", "--archive", str(archive),
                 "--chain", str(run_dir / "public.tcgw")]) == 0
    out, err = capsys.readouterr()
    assert out == "".join(f"{channel} epoch {epoch}: ok\n"
                          for channel in ("north", "south") for epoch in (0, 1))
    assert f"{archive / 'ranges.json'} missing, not checked" in err


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
    ("validators", "val-0val-1"), ("gateways", "gw-0"), ("chain_id", 7), ("chain_id", ""),
    ("confirmations_required", True),
    # keys that older sidecars held, before the clock was read from the ledger
    ("clock", 0), ("tick_seq", 0),
    # ranges that repeat a metric: the chain refuses them as it is built
    ("ranges", [{"max_valid": "60", "metric": "temperature_c", "min_valid": "-20"}] * 2)])
def test_verify_meta_with_a_mistyped_field(run_dir, tmp_path, capsys, key, value):
    meta = canonical_loads((run_dir / "public.tcgw.meta.json").read_bytes())
    meta[key] = value
    chain = _chain_copy(run_dir, tmp_path, canonical_json(meta))
    _assert_input_error(["verify", "--archive", str(run_dir / "archive"), "--chain", str(chain)],
                        f"malformed chain metadata {tmp_path / 'public.tcgw.meta.json'}", capsys)


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
    # an archive with no anchor is still decoded: its format error wins
    (archive / "north.epoch8.tcgw").write_bytes((archive / "north.epoch7.tcgw").read_bytes()[:-7])
    assert main(["verify", "--archive", str(archive),
                 "--chain", str(run_dir / "public.tcgw")]) == 1
    captured = capsys.readouterr()
    assert "north epoch 0: FAIL (missing)" in captured.out
    assert "north epoch 7: FAIL (anchor)" in captured.out
    assert "north epoch 8: FAIL (chain: " in captured.out
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
    assert not (tmp_path / "b").exists()


def test_bench_out_under_a_file_fails_before_measuring(tmp_path, monkeypatch, capsys):
    """--out under a regular file is an input error (2) before any level is measured."""
    import tcgw.cli

    measured = []
    monkeypatch.setattr(tcgw.cli, "bench_batch_time",
                        lambda *args, **kwargs: measured.append(args) or [])
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    out = blocker / "bench"
    _assert_input_error(["bench", "--levels", "0,100", "--out", str(out)], out, capsys)
    assert measured == []
    assert blocker.read_bytes() == b""


def test_bench_without_levels_measures_the_default_levels(tmp_path, monkeypatch):
    """No --levels: the eleven default levels, up to 100,000, nothing timed here."""
    import tcgw.cli

    measured = []
    monkeypatch.setattr(tcgw.cli, "bench_batch_time",
                        lambda levels, **kwargs: measured.append(list(levels)) or [])
    assert main(["bench", "--verify-mode", "off", "--out", str(tmp_path / "bench")]) == 0
    assert measured == [[0, 5, 10, 50, 100, 500, 1000, 5000, 10000, 50000, 100000]]


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


def _run_peak(tmp_path, epochs: int) -> int:
    """Bytes the traced heap peaks above its level before `tcgw run` of the
    default scenario cut to its first field, over `epochs` epochs.

    A full collection first puts every run in one state. It empties the
    interpreter's free lists, whose reused objects tracemalloc does not
    see, and restarts the count that triggers the next full collection;
    without it, whether a full collection fell inside a run, emptying the
    free lists there, moved that run's peak by about 100 KB."""
    cfg = default_scenario(epochs)
    cfg = dataclasses.replace(cfg, fields=cfg.fields[:1])
    cfg_path = tmp_path / f"cfg{epochs}.json"
    cfg_path.write_bytes(canonical_json(to_json_value(cfg)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / f"o{epochs}")]) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_run_holds_one_epoch_at_a_time(tmp_path, capsys):
    """Each archive is saved as its epoch closes and dropped, so a run's peak
    grows per added epoch only by its report rows and public anchors (about
    6.4 KB here), not by the archive of 1,470 transactions (about 478 KB
    when every archived ledger was held until the run ended). The first run
    warms the caches that first calls allocate."""
    _run_peak(tmp_path, 1)
    growth = (_run_peak(tmp_path, 4) - _run_peak(tmp_path, 2)) / 2
    capsys.readouterr()
    assert growth < 50_000, growth


def test_a_failed_run_keeps_the_archives_of_the_epochs_it_closed(run_dir, tmp_path,
                                                                 monkeypatch, capsys):
    """An archive is written as its epoch closes: when the public chain
    produces no block after epoch 0's two heartbeats, epoch 1's anchors
    never confirm, both epoch-0 archives are on disk, the same bytes an
    honest run writes, and nothing of epoch 1 or the report is."""
    calls = []
    tick = PublicChain.tick

    def tick_twice(self):
        calls.append(self.ledger[-1].height)
        if len(calls) <= 2:
            return tick(self)

    monkeypatch.setattr(PublicChain, "tick", tick_twice)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(canonical_json(to_json_value(small_scenario())))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "anchor was not confirmed" in capsys.readouterr().err
    # two anchors and two heartbeats confirm epoch 0; epoch 1's two anchors
    # then wait through the four heartbeats that are never produced
    assert calls == [2, 3, 6, 6, 6, 6]
    names = sorted(p.name for p in (out / "archive").glob("*.tcgw"))
    assert names == ["north.epoch0.tcgw", "south.epoch0.tcgw"]
    for name in names:
        assert (out / "archive" / name).read_bytes() == (run_dir / "archive" / name).read_bytes()
    assert not (out / "report.json").exists()


def test_run_writes_every_json_file_canonically(run_dir):
    """report.json, ranges.json, the public chain's sidecar and every state
    document are canonical JSON: canonical_json of what they parse to."""
    paths = [run_dir / "report.json", run_dir / "archive" / "ranges.json",
             run_dir / "public.tcgw.meta.json", *(run_dir / "state").glob("*.json")]
    assert len(paths) == 5
    for path in paths:
        data = path.read_bytes()
        assert canonical_json(canonical_loads(data)) == data, path


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
