"""Acceptance criteria, one test per criterion, pass/fail printed per line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines
as they complete. Tolerances are pinned in the asserts below.
"""

from __future__ import annotations

import functools
import hashlib
import math
import random
import time

import pytest

from tcgw import (
    PublicChain,
    PublicClient,
    TxKind,
    ValidityRange,
    default_scenario,
    head,
    rollover_epoch,
    run_scenario,
    verify_chain,
    verify_pruned_epoch,
)
from tcgw.bench import DEFAULT_LEVELS, bench_batch_time, bench_memory, emit_csv, fit_storage
from tcgw.canon import canonical_loads
from tcgw.cli import main
from tcgw.errors import PublishFailed
from tcgw.gateway import filter_out_of_scale, summarize
from tcgw.workload import (FieldConfig, ScenarioConfig, SensorSpec, generate_context_ops,
                           generate_readings)

import dataclasses

from helpers import (NeverConfirms, Reading, build_ledger, node_with_readings, tamper_ledger,
                     tx_readings)

TEMP_RANGE = ValidityRange("temperature_c", "-20", "60")


def criterion(number: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {number}: {title}")
                raise
            print(f"\n[PASS] criterion {number}: {title}")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def default_result():
    return run_scenario(default_scenario())


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("acceptance")
    out_a, out_b = base / "run_a", base / "run_b"
    assert main(["run", "--out", str(out_a)]) == 0
    assert main(["run", "--out", str(out_b)]) == 0
    return out_a, out_b


@criterion(1, "tamper evidence: 200 single-byte mutations all flagged within one block")
def test_criterion_1_tamper_evidence():
    started = time.perf_counter()
    ledger = build_ledger(n_txs=200, per_block=4)  # genesis + 50 blocks
    assert verify_chain(ledger).ok
    rng = random.Random(2024)
    tx_targets = ("payload", "tx_id")
    block_targets = ("tx_root", "previous_hash", "block_hash")
    for trial in range(200):
        if rng.random() < 0.6:
            target = rng.choice(tx_targets)
            height = rng.randrange(1, 51)  # genesis holds no transactions
            tx_index = rng.randrange(len(ledger[height].transactions))
        else:
            target = rng.choice(block_targets)
            height = rng.randrange(0, 51)
            tx_index = 0
        payload_len = len(ledger[height].transactions[tx_index].payload) \
            if target == "payload" else 32
        byte_index = rng.randrange(payload_len)
        mutated = tamper_ledger(ledger, height, target,
                                byte_index=byte_index, tx_index=tx_index)
        report = verify_chain(mutated)
        assert not report.ok, f"trial {trial}: {target}@{height} undetected"
        assert abs(report.first_bad_height - height) <= 1, \
            f"trial {trial}: {target}@{height} reported at {report.first_bad_height}"
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def _two_pass(values: list[float]):
    n = len(values)
    total = 0.0
    for v in values:
        total += v
    mean = total / n
    acc = 0.0
    for v in values:
        acc += (v - mean) ** 2
    return mean, math.sqrt(acc / n), min(values), max(values)


@criterion(2, "statistics oracle: summarize matches two-pass reference within 1e-9 relative")
def test_criterion_2_statistics_oracle():
    rng = random.Random(7)
    for workload in range(100):
        n = rng.randint(1, 10_000)
        readings = [Reading("s-0", "temperature_c", f"{rng.uniform(-30, 50):.4f}", i)
                    for i in range(n)]
        stats, = summarize(readings)
        mean, std, lo, hi = _two_pass([float(r.value) for r in readings])
        assert stats.count == n
        assert math.isclose(float(stats.mean), mean, rel_tol=1e-9, abs_tol=1e-12)
        assert math.isclose(float(stats.std_dev), std, rel_tol=1e-9, abs_tol=1e-12)
        assert float(stats.min) == lo and float(stats.max) == hi


def _sweep_scenario(seed: int) -> ScenarioConfig:
    fields = tuple(
        FieldConfig(ch, product, (
            SensorSpec(f"{ch}-t", "temperature_c", 3600, "5", "35"),
            SensorSpec(f"{ch}-h", "humidity_pct", 3600, "20", "90"),
        ), "0.05", seed * 1000 + i, ops_interval=21_600)
        for i, (ch, product) in enumerate([("north", "tomato"), ("south", "almond")])
    )
    return ScenarioConfig(fields=fields, epoch_length=86_400, epochs=2,
                          ranges=(TEMP_RANGE, ValidityRange("humidity_pct", "0", "100")),
                          validators=3)


@criterion(3, "publish-before-prune over 100 seeds; rejection leaves head unchanged")
def test_criterion_3_publish_before_prune():
    for seed in range(100):
        result = run_scenario(_sweep_scenario(seed))
        assert result.report["ok"], f"seed {seed}: honest epoch failed verification"
        positions: dict[tuple[str, int], dict[str, int]] = {}
        for index, event in enumerate(result.report["events"]):
            positions.setdefault((event["channel"], event["epoch"]), {})[event["event"]] = index
        assert len(positions) == 4  # 2 fields x 2 epochs
        for key, marks in positions.items():
            assert marks["anchor_confirmed"] < marks["ledger_reset"], key

        # injected rejection: even seeds an unregistered gateway, odd seeds a
        # submission that never reaches confirmation depth
        node = node_with_readings(channel="fieldA", n=20, spacing=10, seed=seed,
                                  ranges=[TEMP_RANGE])
        before = head(node.ledger)
        if seed % 2 == 0:
            pub = PublicChain(["val-0"], gateways=())
            client = PublicClient(pub, "gw-fieldA")
        else:
            pub = PublicChain(["val-0"], gateways=("gw-fieldA",))
            client = NeverConfirms(pub, "gw-fieldA")
        with pytest.raises(PublishFailed):
            rollover_epoch(node, 0, 200, client, [])
        assert head(node.ledger) == before


@criterion(4, "pruned history verifiable; three tamper classes all rejected")
def test_criterion_4_pruned_history(default_result):
    result = default_result
    assert result.report["ok"]
    assert result.report["confirmed_anchors"] == 10  # 5 fields x 2 epochs
    for rows in result.report["channels"].values():
        for row in rows:
            assert row["verification"]["ok"], row["archive_file"]

    pub = result.public_chain
    for channel in result.report["channels"]:
        archived = result.archives[(channel, 0)]
        summary = pub.find_anchor(channel, 0).summary

        flipped = tamper_ledger(archived, height=1, target="payload", byte_index=3)
        assert not verify_pruned_epoch(flipped, summary, pub).ok

        doctored = dataclasses.replace(summary, stats=tuple(
            dataclasses.replace(s, mean=repr(float(s.mean) + 0.5)) for s in summary.stats))
        assert not verify_pruned_epoch(archived, doctored, pub).ok

        anchorless = PublicChain(["val-0"], gateways=(), ranges=pub.ranges)
        assert not verify_pruned_epoch(archived, summary, anchorless).ok


@criterion(5, "storage analogue: monotone, linear fit R^2 >= 0.99, decade ratio in [8.5, 11.5]")
def test_criterion_5_storage_growth():
    started = time.perf_counter()
    levels = [n for n in DEFAULT_LEVELS if n <= 100_000]
    assert len(levels) == 11
    points = bench_memory(levels)
    occupied = {p.n_existing: p.occupied_bytes for p in points}
    assert occupied[0] > 0
    ordered = [p.occupied_bytes for p in points]
    assert all(a < b for a, b in zip(ordered, ordered[1:])), "not strictly monotone"
    fit = fit_storage(points)
    assert fit.r_squared >= 0.99, f"R^2 {fit.r_squared}"
    ratio = occupied[100_000] / occupied[10_000]
    assert 8.5 <= ratio <= 11.5, f"decade ratio {ratio:.3f}"
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


@criterion(6, "batch-time analogue: verify-mode medians non-decreasing in ledger size")
def test_criterion_6_batch_time(tmp_path):
    points = bench_batch_time([100, 1_000, 10_000], verify_mode=True)
    medians = [p.batch_seconds for p in points]
    assert all(m > 0 for m in medians)
    assert all(a <= b for a, b in zip(medians, medians[1:])), medians
    csv_path = emit_csv(points, tmp_path / "table2.csv")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "transactions,occupied_mb,batch_seconds"
    assert len(lines) == 4


@criterion(7, "out-of-scale filter: exclusions within 3 binomial sigmas, stats from kept only")
def test_criterion_7_out_of_scale_filter():
    field = FieldConfig("fieldA", "tomato",
                        (SensorSpec("s-0", "temperature_c", 60, "5", "35"),),
                        "0.1", seed=314)
    readings = tx_readings(generate_readings(field, 0, 600_000, [TEMP_RANGE]))
    assert len(readings) == 10_000
    kept, excluded = filter_out_of_scale(readings, [TEMP_RANGE])
    sigma = math.sqrt(10_000 * 0.1 * 0.9)
    assert abs(len(excluded) - 1000) <= 3 * sigma, len(excluded)
    assert len(kept) + len(excluded) == 10_000

    stats, = summarize(kept)
    mean, std, lo, hi = _two_pass([float(r.value) for r in kept])
    assert stats.count == len(kept)
    assert math.isclose(float(stats.mean), mean, rel_tol=1e-9)
    assert math.isclose(float(stats.std_dev), std, rel_tol=1e-9)
    # every excluded value is a spike far outside the kept envelope
    assert all(float(r.value) == 600.0 for r in excluded)
    assert float(stats.max) <= 60.0


@criterion(8, "determinism: two `run` executions are byte-identical")
def test_criterion_8_determinism(cli_runs):
    out_a, out_b = cli_runs
    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    assert files_a == files_b and files_a
    assert any(p.suffix == ".tcgw" for p in files_a)
    for rel in files_a:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel


# SHA-256 of every file `tcgw run` writes for the bundled scenario. A change
# here is a deliberate output-format change and belongs in CHANGES.md.
BUNDLED_RUN_DIGESTS = {
    "archive/almond.epoch0.tcgw": "3111bac57e23696f3e7eb3b7049607693e19e1c70af44b311fd422c3974b034e",
    "archive/almond.epoch1.tcgw": "1703fc176e4b97b7942045f08db3b6fb3dde6bed97c48d8db248bbb900bbb1cf",
    "archive/asparagus.epoch0.tcgw": "876898a05db05f64fbfa4cd8333b5ac12e86e0eccfa1d213ab4ff0a583a7efe3",
    "archive/asparagus.epoch1.tcgw": "510cee79897905669b581ee380e8c5fc1781720c845b629e36fc0396e3866e4c",
    "archive/durum_wheat.epoch0.tcgw": "63bb5e83d7e79ec9b0525f9fee83303ef2c7a90359a686c69d3af4f06218af36",
    "archive/durum_wheat.epoch1.tcgw": "befc7924a818a6e7cbe5cb62a4bc009ec76ad8e8a828d19a3bcdc4e2ff8b93e9",
    "archive/pomegranate.epoch0.tcgw": "7e6428f264dbcc40bdfa77a8e933931957922c519ee81d78c5d53a62117454c3",
    "archive/pomegranate.epoch1.tcgw": "100c8742262d78073db4afabc1918378ae2a0cfed44bcdd784d6c506851905ca",
    "archive/ranges.json": "8309fdc7c36b0e33e13e7eea2b7c8858746635312d1cca507203a18b9e11043e",
    "archive/tomato.epoch0.tcgw": "4d8468a9bf2fa8c3dc8b86faf47f7821a606f6249b64d6f4ec0d5b33f64cb8d3",
    "archive/tomato.epoch1.tcgw": "8046b30e9935d3f87a8ee00477bf713ba35f62862300ed4ea31317a65d4cee04",
    "public.tcgw": "cdfc3a4b28c1f584e9936ba310e0c1537f195866f26bde999a593276c8789dc1",
    "public.tcgw.meta.json": "293d63704f38d46a7dfc01abefd387363d0fedf6396ac02377d07d1f1d589f01",
    "report.json": "abf9d69a3a86af981b6830cde99b8c503f1b731e426215d81837987fd6b27319",
    "state/almond.json": "9d0b2062ba1d0607147145aaecba4b87cd045e32f70542c89625481243a55f5c",
    "state/asparagus.json": "088e926e10c0aa55cf49bc6683fe99fe3f5f42f606756c5c019ca21ef974a830",
    "state/durum_wheat.json": "943b086f5b4aa37b3d905e7df7b90e82f1ee892930342487428b685ceb299be7",
    "state/pomegranate.json": "9bd3cf96c05580be293f69f34c7a5b393abf0382249a44b63678d9ea7ae79e63",
    "state/tomato.json": "68f5532bf8de5a4490047361ee3b40819a35db7e8be9a99bfce90a99ce7cdeab",
}


def test_bundled_run_output_is_pinned(cli_runs, capsys):
    out, _ = cli_runs
    digests = {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.rglob("*") if p.is_file()}
    assert digests == BUNDLED_RUN_DIGESTS
    assert main(["verify", "--archive", str(out / "archive"),
                 "--chain", str(out / "public.tcgw")]) == 0
    assert capsys.readouterr().out.count(": ok") == 10


@criterion(9, "consumer trace: temperature stats and exact cultural-operation counts")
def test_criterion_9_consumer_trace(cli_runs, capfd):
    out, _ = cli_runs
    cfg = default_scenario()
    final_start = (cfg.epochs - 1) * cfg.epoch_length
    for field in cfg.fields:
        channel = field.channel_id
        code = main(["trace", "--chain", str(out / "public.tcgw"),
                     "--channel", channel,
                     "--doc", str(out / "state" / f"{channel}.json")])
        assert code == 0
        trace = canonical_loads(capfd.readouterr().out)
        assert len(trace["summaries"]) == cfg.epochs
        for summary in trace["summaries"]:
            assert any(s["metric"] == "temperature_c" and s["count"] > 0
                       for s in summary["stats"])
        ops = generate_context_ops(field, final_start, final_start + cfg.epoch_length)
        expected = sum(1 for _, op in ops if op.op is TxKind.APPEND_TO_ARRAY)
        assert trace["cultural_operations_count"] == expected
