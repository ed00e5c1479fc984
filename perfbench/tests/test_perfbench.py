"""Tests of the benchmark itself: its checks, configs, tracer and output.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, references  # noqa: E402


def small_config(seed: int) -> dict:
    """Two bundled fields over two 2-day epochs, operations every 12 h."""
    cfg = workloads.bundled(seed)
    cfg["fields"] = cfg["fields"][:2]
    for field in cfg["fields"]:
        field["ops_interval"] = 12 * workloads.HOUR
    cfg["epoch_length"] = 2 * workloads.DAY
    return cfg


@pytest.fixture(scope="module")
def outputs():
    """A small `tcgw run` and `tcgw verify`, through the benchmark's own call path."""
    import tcgw.cli  # noqa: F401  (call_cli looks the module up)

    work = HERE / "_work" / "tests"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = small_config(7)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    out = work / "out"
    code, _, _, _ = run.call_cli(["run", "--config", str(cfg_path), "--out", str(out)], sample=False)
    assert code == 0
    verify = run.call_cli(["verify", "--archive", str(out / "archive"),
                           "--chain", str(out / "public.tcgw")], sample=False)
    yield {"cfg": cfg, "out": out, "work": work, "verify": verify,
           "report": json.loads((out / "report.json").read_bytes())}
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):
        work.parent.rmdir()


def epoch_failures(outputs, mutate=None, channel="asparagus", epoch=1):
    cfg, out = outputs["cfg"], outputs["out"]
    report = json.loads(json.dumps(outputs["report"]))
    row = next(r for r in report["channels"][channel] if r["epoch_index"] == epoch)
    if mutate:
        mutate(row)
    field = next(f for f in cfg["fields"] if f["channel_id"] == channel)
    blocks = checks.read_ledger((out / "archive" / f"{channel}.epoch{epoch}.tcgw").read_bytes())
    return checks.check_epoch(field, cfg, epoch, row, blocks)


def test_checks_pass_on_the_program_output(outputs):
    cfg, out, report = outputs["cfg"], outputs["out"], outputs["report"]
    for field in cfg["fields"]:
        for epoch in range(cfg["epochs"]):
            assert epoch_failures(outputs, channel=field["channel_id"], epoch=epoch) == []
    public = checks.read_ledger((out / "public.tcgw").read_bytes())
    anchors = checks.check_anchors(public, report, cfg)
    assert len(anchors) == len(cfg["fields"]) * cfg["epochs"]
    assert all(failures == [] for failures in anchors.values())
    code, stdout, _, _ = outputs["verify"]
    archives = [(f["channel_id"], e) for f in cfg["fields"] for e in range(cfg["epochs"])]
    assert all(f == [] for f in checks.check_verify_output(code, stdout, archives).values())


def test_wrong_mean_is_rejected(outputs):
    def shift_mean(row):
        stat = row["summary"]["stats"][0]
        stat["mean"] = repr(float(stat["mean"]) * (1 + 1e-7))

    assert any("mean" in f for f in epoch_failures(outputs, shift_mean))


def test_mean_within_tolerance_is_accepted(outputs):
    def nudge_mean(row):
        stat = row["summary"]["stats"][0]
        stat["mean"] = repr(float(stat["mean"]) * (1 + 1e-12))

    assert epoch_failures(outputs, nudge_mean) == []


def test_wrong_std_dev_min_and_count_are_rejected(outputs):
    def corrupt(row):
        stat = row["summary"]["stats"][0]
        stat["std_dev"] = repr(float(stat["std_dev"]) * 1.001)
        stat["min"] = "-1"
        stat["count"] += 1

    failures = epoch_failures(outputs, corrupt)
    assert {"std_dev", "min", "count"} <= {word for f in failures for word in f.split()}


def test_wrong_excluded_count_is_rejected(outputs):
    def add_excluded(row):
        row["summary"]["excluded_count"] += 1

    assert any(f.startswith("excluded") for f in epoch_failures(outputs, add_excluded))


def test_wrong_transaction_count_is_rejected(outputs):
    cfg = outputs["cfg"]
    saved = cfg["fields"][0]["sensors"][0]["interval"]
    cfg["fields"][0]["sensors"][0]["interval"] = saved * 2
    try:
        failures = epoch_failures(outputs)
    finally:
        cfg["fields"][0]["sensors"][0]["interval"] = saved
    assert any(f.startswith("transactions") for f in failures)
    assert any(f.startswith("generated") for f in failures)


def test_wrong_anchor_digest_is_rejected(outputs):
    public = checks.read_ledger((outputs["out"] / "public.tcgw").read_bytes())
    target = next(i for i, b in enumerate(public)
                  if any(b'"summary"' in tx.payload for tx in b.txs))
    block = public[target]
    tx = block.txs[0]
    payload = json.loads(tx.payload)
    payload["summary_digest"] = "00" * 32
    bad_tx = tx._replace(payload=json.dumps(payload).encode("utf-8"))
    public[target] = block._replace(txs=(bad_tx,) + block.txs[1:])
    anchors = checks.check_anchors(public, outputs["report"], outputs["cfg"])
    key = (payload["channel_id"], payload["epoch_index"])
    assert "anchor digest" in anchors[key]


def test_unconfirmed_and_missing_anchors_are_rejected(outputs):
    public = checks.read_ledger((outputs["out"] / "public.tcgw").read_bytes())
    anchors = checks.check_anchors(public[:-1], outputs["report"], outputs["cfg"])
    assert any("anchor unconfirmed" in f for f in anchors.values())
    anchors = checks.check_anchors(public[:1], outputs["report"], outputs["cfg"])
    assert all("no anchor" in f for f in anchors.values())


def test_tampered_byte_is_rejected(outputs):
    out, work = outputs["out"], outputs["work"]
    name = "pomegranate.epoch0.tcgw"
    tampered = work / "tampered"
    tampered.mkdir(exist_ok=True)
    checks.flip_payload_byte(out / "archive" / name, tampered / name, seed=3)
    shutil.copy(out / "archive" / "ranges.json", tampered / "ranges.json")
    blocks = checks.read_ledger((tampered / name).read_bytes())
    assert not all(tx.id_ok for b in blocks for tx in b.txs)
    code, stdout, _, _ = run.call_cli(["verify", "--archive", str(tampered),
                                       "--chain", str(out / "public.tcgw")], sample=False)
    assert checks.check_tamper_output(code, stdout, "pomegranate", 0) == []
    # The tamper check itself rejects a verify that passes or names another archive.
    untouched_code, untouched_out, _, _ = outputs["verify"]
    assert checks.check_tamper_output(untouched_code, untouched_out, "pomegranate", 0)
    assert checks.check_tamper_output(1, "asparagus epoch 0: FAIL (chain)\n", "pomegranate", 0)


def test_verify_output_check_rejects_a_failed_archive():
    archives = [("almond", 0), ("almond", 1)]
    result = checks.check_verify_output(1, "almond epoch 0: ok\nalmond epoch 1: FAIL (chain)\n",
                                        archives)
    assert result[("almond", 1)] and "exit code 1" in result[("almond", 0)]


def test_recompute_stats_applies_inclusive_ranges():
    ranges = [{"metric": "rain_pct", "min_valid": "0", "max_valid": "100"}]
    readings = [("rain_pct", "0"), ("rain_pct", "100"), ("rain_pct", "1000"),
                ("rain_pct", "50"), ("wind_speed_ms", "99")]
    excluded, stats = checks.recompute_stats(readings, ranges)
    assert excluded == 1
    assert stats["rain_pct"]["count"] == 3 and stats["rain_pct"]["mean"] == 50
    assert stats["wind_speed_ms"]["count"] == 1  # no range configured: kept


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_config_is_a_function_of_the_seed(name):
    make = workloads.WORKLOADS[name]
    assert json.dumps(make(11)) == json.dumps(make(11))
    assert make(11) != make(12)
    assert make(11)["fields"][0]["sensors"] == make(12)["fields"][0]["sensors"]


def test_expected_totals_match_the_workload_descriptions():
    totals = {name: workloads.expected_totals(make(1)) for name, make in workloads.WORKLOADS.items()}
    assert totals["bundled"] == {"transactions": 14_800, "readings": 14_700, "epochs": 10}
    assert totals["dense"] == {"transactions": 45_360, "readings": 40_320, "epochs": 1}
    assert totals["fleet"] == {"transactions": 6_000, "readings": 4_000, "epochs": 1_000}


def test_tracer_counts_calls_and_restores_the_originals():
    import tcgw.canon
    import tcgw.ledger

    original = tcgw.canon.sha256
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase("t")
        tcgw.canon.digest_json({"a": 1})
        tcgw.ledger.merkle_root([b"x" * 32, b"y" * 32])
    finally:
        tracer.uninstall()
    assert tcgw.canon.sha256 is original and tcgw.ledger.sha256 is original
    assert tracer.stat("t", "canon.digest_json").calls == 1
    assert tracer.stat("t", "canon.canonical_json").calls == 1
    # One hash from digest_json, one from merkle_root through ledger's own import.
    assert tracer.stat("t", "canon.sha256").calls == 2
    digest = tracer.stat("t", "canon.digest_json")
    assert 0 <= digest.self_time <= digest.incl


def test_scaling_keeps_an_injected_cost(outputs):
    """A known CPU cost added to one tcgw function lowers the scaled run
    rate by about the fraction it lowers the unscaled one, so the host-speed
    scaling does not absorb a slowdown of the program."""
    import tcgw.ledger

    original = tcgw.ledger.transaction_valid

    def slowed(tx):
        total = 0
        for i in range(400):
            total += i * i
        return original(tx)

    cfg = workloads.bundled(7)
    cfg["fields"] = cfg["fields"][:1]  # 2,960 transactions, about 0.2 s a run
    cfg_path = outputs["work"] / "one_field.json"
    cfg_path.write_text(json.dumps(cfg))
    out = outputs["work"] / "injected"
    times = {False: [], True: []}
    for _ in range(4):  # alternated, so both kinds of run see a similar host
        for injected in (False, True):
            shutil.rmtree(out, ignore_errors=True)
            sites = references(original) if injected else []
            for module, name in sites:
                setattr(module, name, slowed)
            try:
                code, _, seconds, scaled = run.call_cli(
                    ["run", "--config", str(cfg_path), "--out", str(out)])
            finally:
                for module, name in sites:
                    setattr(module, name, original)
            assert code == 0
            times[injected].append((seconds, scaled))

    def fall(index):
        plain = statistics.median(t[index] for t in times[False])
        return 1 - plain / statistics.median(t[index] for t in times[True])

    assert fall(0) > 0.3
    assert abs(fall(1) - fall(0)) < 0.1


def benchmark_names(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "bundled",
                           "--seed", "5", "--seconds", "0", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == benchmark_names(section)


def test_workloads_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
