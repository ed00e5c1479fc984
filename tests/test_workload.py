"""Workload generator and scenario runner: determinism, counts, protocol order."""

from __future__ import annotations

import pytest

from tcgw import (
    FieldConfig,
    ScenarioConfig,
    SensorSpec,
    TxKind,
    ValidityRange,
    default_scenario,
    filter_out_of_scale,
    generate_context_ops,
    generate_readings,
    run_scenario,
    verify_pruned_epoch,
)
from tcgw.canon import canonical_json, digest_json
from tcgw.errors import DuplicateRange, InvalidArgument, InvalidWindow
from tcgw.canon import from_json_value, to_json_value
from tcgw.workload import DEFAULT_VALIDITY_RANGES, apply_seed_override, load_scenario_config

TEMP_RANGE = ValidityRange("temperature_c", "-20", "60")


def _field(channel="fieldA", fault="0", seed=42, sensors=None, ops_interval=250) -> FieldConfig:
    sensors = sensors or (SensorSpec("s-temp", "temperature_c", 3600, "5", "35"),)
    return FieldConfig(channel, "tomato", tuple(sensors), fault, seed,
                       ops_interval=ops_interval)


def small_scenario(seed_base=1, epochs=2) -> ScenarioConfig:
    """Two fields, one-day epochs, hourly sensors; cheap enough to sweep."""
    fields = tuple(
        FieldConfig(ch, product, (
            SensorSpec(f"{ch}-t", "temperature_c", 3600, "5", "35"),
            SensorSpec(f"{ch}-h", "humidity_pct", 3600, "20", "90"),
        ), "0.05", seed_base * 100 + i, ops_interval=21600)
        for i, (ch, product) in enumerate([("north", "tomato"), ("south", "almond")])
    )
    return ScenarioConfig(fields=fields, epoch_length=86_400, epochs=epochs,
                          ranges=(TEMP_RANGE, ValidityRange("humidity_pct", "0", "100")),
                          validators=3)


def test_one_reading_per_sensor_per_interval():
    readings = generate_readings(_field(), 0, 86_400)
    assert len(readings) == 24
    assert [r.timestamp for r in readings] == [i * 3600 for i in range(24)]


def test_generation_is_deterministic():
    a = generate_readings(_field(), 0, 86_400)
    b = generate_readings(_field(), 0, 86_400)
    assert a == b
    # a different window yields a different stream
    c = generate_readings(_field(), 86_400, 2 * 86_400)
    assert [r.value for r in c] != [r.value for r in a]


def test_zero_fault_rate_yields_zero_exclusions():
    readings = generate_readings(_field(fault="0"), 0, 30 * 86_400)
    _, excluded = filter_out_of_scale(readings, [TEMP_RANGE])
    assert excluded == []


def test_faults_become_out_of_scale_spikes():
    readings = generate_readings(_field(fault="1"), 0, 10 * 3600)
    assert {r.value for r in readings} == {"600"}  # max_valid 60 x 10
    _, excluded = filter_out_of_scale(readings, [TEMP_RANGE])
    assert len(excluded) == len(readings)


def test_generate_rejects_bad_window():
    with pytest.raises(InvalidWindow):
        generate_readings(_field(), 10, 10)


def test_context_ops_schedule_and_determinism():
    ops = generate_context_ops(_field(ops_interval=250), 0, 1000)
    appends = [op for _, op in ops if op.op is TxKind.APPEND_TO_ARRAY]
    updates = [op for _, op in ops if op.op is TxKind.UPDATE_FIELD]
    assert [t for t, op in ops] == sorted(t for t, op in ops)
    assert len(appends) == 3  # at 250, 500, 750
    assert len(updates) == 1  # density update mid-window
    assert ops == generate_context_ops(_field(ops_interval=250), 0, 1000)


def test_field_config_validation():
    with pytest.raises(InvalidArgument):
        _field(fault="1.5")
    with pytest.raises(InvalidArgument):
        FieldConfig("f", "kiwi", (SensorSpec("s", "temperature_c", 60, "0", "1"),), "0", 1)
    with pytest.raises(InvalidArgument):
        SensorSpec("s", "temperature_c", 0, "0", "1")
    for channel in ["../escaped", "a/b", "a\\b", ".", "..", "a\nb", "a\0b"]:
        with pytest.raises(InvalidArgument, match="cannot name a file"):
            _field(channel)


def test_scenario_config_roundtrip(tmp_path):
    cfg = small_scenario()
    value = to_json_value(cfg)
    assert from_json_value(ScenarioConfig, value) == cfg
    path = tmp_path / "cfg.json"
    path.write_bytes(canonical_json(value))
    assert load_scenario_config(path) == cfg
    ranges = list(cfg.ranges)
    assert from_json_value(list[ValidityRange], to_json_value(ranges)) == ranges
    assert to_json_value(ranges)[0] == {"max_valid": "60", "metric": "temperature_c",
                                        "min_valid": "-20"}


def test_config_file_with_empty_ranges_uses_default_ranges(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_bytes(canonical_json({**to_json_value(small_scenario()), "ranges": []}))
    assert load_scenario_config(path).ranges == DEFAULT_VALIDITY_RANGES


def test_scenario_config_rejects_garbage():
    with pytest.raises(InvalidArgument):
        from_json_value(ScenarioConfig, {"fields": [{"oops": 1}]})
    with pytest.raises(InvalidArgument):
        from_json_value(ScenarioConfig, [1, 2, 3])
    value = to_json_value(small_scenario())
    with pytest.raises(InvalidArgument):
        from_json_value(ScenarioConfig, {k: v for k, v in value.items() if k != "fields"})
    with pytest.raises(InvalidArgument):
        from_json_value(ScenarioConfig, {**value, "ranges": value["ranges"][0]})
    with pytest.raises(InvalidArgument):
        from_json_value(ScenarioConfig, {**value, "epochs": "2"})
    with pytest.raises(InvalidArgument):
        from_json_value(list[ValidityRange], [{"metric": "temperature_c", "min_valid": "x",
                                               "max_valid": "1"}])
    with pytest.raises(InvalidArgument):
        from_json_value(list[ValidityRange], {"ranges": []})
    # a key to_json_value does not write, at any depth: "epoch" is a typo of "epochs"
    field = value["fields"][0]
    sensor = field["sensors"][0]
    for forged in [{**value, "epoch": 3},
                   {**value, "fields": [{**field, "seeds": 1}]},
                   {**value, "fields": [{**field, "sensors": [{**sensor, "unit": 1}]}]},
                   {**value, "ranges": [{**value["ranges"][0], "max": "1"}]}]:
        with pytest.raises(InvalidArgument, match="unknown keys"):
            from_json_value(ScenarioConfig, forged)


def test_scenario_config_rejects_two_ranges_for_one_metric():
    with pytest.raises(DuplicateRange):
        ScenarioConfig(fields=(_field(),), ranges=(TEMP_RANGE, TEMP_RANGE))


def test_seed_override_is_deterministic():
    cfg = small_scenario()
    a = apply_seed_override(cfg, 7)
    b = apply_seed_override(cfg, 7)
    assert a == b and a != cfg
    assert a.fields[0].seed != cfg.fields[0].seed


def test_default_scenario_shape():
    cfg = default_scenario()
    assert len(cfg.fields) == 5
    assert cfg.epochs == 2
    assert {f.product for f in cfg.fields} == {
        "asparagus", "pomegranate", "almond", "tomato", "durum_wheat"}


def test_run_scenario_counts_and_conservation():
    result = run_scenario(small_scenario())
    report = result.report
    assert report["ok"]
    assert report["confirmed_anchors"] == 4  # 2 fields x 2 epochs
    for rows in report["channels"].values():
        for row in rows:
            assert row["kept"] + row["excluded"] == row["generated"]
            assert row["pre_reset_size"] > row["post_reset_size"]


def test_run_scenario_parses_each_payload_twice(monkeypatch):
    """Work counter: every committed payload is decoded once at submit and
    once by the in-run audit, and nothing else is decoded; the anchors add
    none. A re-parse on the run path (commit, rollover) fails here."""
    from tcgw import canon
    decodes = 0
    raw_decode = canon._DECODER.raw_decode

    def counting(text, idx=0):
        nonlocal decodes
        decodes += 1
        return raw_decode(text, idx)

    monkeypatch.setattr(canon._DECODER, "raw_decode", counting)
    result = run_scenario(small_scenario(epochs=3))
    committed = sum(len(block.transactions) for ledger in result.archives.values()
                    for block in ledger.blocks)
    assert result.report["confirmed_anchors"] == 6
    assert committed == 312
    assert decodes == 2 * committed


def test_run_scenario_event_order_publish_before_prune():
    result = run_scenario(small_scenario())
    order: dict[tuple[str, int], dict[str, int]] = {}
    for position, event in enumerate(result.events):
        order.setdefault((event["channel"], event["epoch"]), {})[event["event"]] = position
    assert order
    for positions in order.values():
        assert positions["anchor_submitted"] < positions["anchor_confirmed"] < positions["ledger_reset"]


def test_run_scenario_is_fully_deterministic():
    a = run_scenario(small_scenario())
    b = run_scenario(small_scenario())
    assert digest_json(a.report) == digest_json(b.report)
    assert a.final_docs == b.final_docs


def test_archives_verify_against_public_chain():
    cfg = small_scenario()
    result = run_scenario(cfg)
    for (channel, epoch), archived in result.archives.items():
        record = result.public_chain.find_anchor(channel, epoch)
        assert record is not None and result.public_chain.is_confirmed(record)
        outcome = verify_pruned_epoch(archived, record.summary,
                                      result.public_chain, cfg.ranges)
        assert outcome.ok, (channel, epoch, outcome.failures)


def test_final_docs_match_last_epoch_ops():
    cfg = small_scenario()
    result = run_scenario(cfg)
    for field in cfg.fields:
        window_start = (cfg.epochs - 1) * cfg.epoch_length
        ops = generate_context_ops(field, window_start, window_start + cfg.epoch_length)
        expected_appends = sum(1 for _, op in ops if op.op is TxKind.APPEND_TO_ARRAY)
        body = result.final_docs[field.channel_id]
        assert len(body["Cultural Operations"]) == expected_appends
        assert "Plant density" in body
