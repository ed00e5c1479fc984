"""Workload generator and scenario runner: determinism, counts, protocol order."""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc

import pytest

from tcgw import (
    TxKind,
    ValidityRange,
    default_scenario,
    head,
    run_scenario,
    verify_pruned_epoch,
)
from tcgw.canon import canonical_json, canonical_loads, digest_json
from tcgw.errors import DuplicateRange, InvalidArgument, InvalidWindow
from tcgw.canon import from_json_value, to_json_value
from tcgw.gateway import filter_out_of_scale
from tcgw.ledger import load_ledger, save_ledger
from tcgw.public_chain import PublicChain
from tcgw.workload import (DEFAULT_VALIDITY_RANGES, FieldConfig, ScenarioConfig, SensorSpec,
                           apply_seed_override, archive_name, generate_context_ops,
                           generate_readings, load_scenario_config)

from helpers import tx_readings

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
    readings = tx_readings(generate_readings(_field(), 0, 86_400))
    assert len(readings) == 24
    assert [r.timestamp for r in readings] == [i * 3600 for i in range(24)]


def test_generation_is_deterministic():
    a = generate_readings(_field(), 0, 86_400)
    b = generate_readings(_field(), 0, 86_400)
    assert a == b
    # a different window yields a different stream
    c = generate_readings(_field(), 86_400, 2 * 86_400)
    assert [r.value for r in tx_readings(c)] != [r.value for r in tx_readings(a)]


def test_zero_fault_rate_yields_zero_exclusions():
    readings = tx_readings(generate_readings(_field(fault="0"), 0, 30 * 86_400))
    _, excluded = filter_out_of_scale(readings, [TEMP_RANGE])
    assert excluded == []


def test_faults_become_out_of_scale_spikes():
    readings = tx_readings(generate_readings(_field(fault="1"), 0, 10 * 3600))
    assert {r.value for r in readings} == {"600"}  # max_valid 60 x 10
    _, excluded = filter_out_of_scale(readings, [TEMP_RANGE])
    assert len(excluded) == len(readings)


def test_generate_rejects_bad_window():
    with pytest.raises(InvalidWindow):
        generate_readings(_field(), 10, 10)


@pytest.mark.parametrize("window", [(10, 10), (10, 5)])
def test_generate_context_ops_rejects_an_empty_or_inverted_window(window):
    """run_scenario never reaches this check (generate_readings makes it
    first), so it is called directly."""
    with pytest.raises(InvalidWindow, match=r"is empty or inverted$"):
        generate_context_ops(_field(), *window)


def test_generate_refuses_a_fault_spike_no_reading_could_hold():
    """Ranges passed to generate_readings directly, not through a
    ScenarioConfig, still cannot make a spike of 1E+100 or more."""
    with pytest.raises(InvalidArgument,
                       match=r"^temperature_c fault spike '1\.0E\+100' is not below"):
        generate_readings(_field(fault="1"), 0, 3600,
                          [ValidityRange("temperature_c", "0", "1E+99")])


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
    # an id is checked once per sensor or field, not per generated reading
    for sensor_id, message in [(7, "sensor_id 7 is not a string"),
                               ("s\udfff", "sensor_id 's\\\\udfff' is not UTF-8 encodable")]:
        with pytest.raises(InvalidArgument, match=message):
            SensorSpec(sensor_id, "temperature_c", 60, "0", "1")
    with pytest.raises(InvalidArgument, match="channel_id None is not a string"):
        _field(None)
    # two sensors of one field with one id would share one RNG stream
    twins = (SensorSpec("s-t", "temperature_c", 60, "0", "1"),
             SensorSpec("s-h", "humidity_pct", 60, "0", "1"),
             SensorSpec("s-t", "rain_pct", 3600, "0", "1"))
    with pytest.raises(InvalidArgument, match="^field fieldA repeats sensor_id 's-t'$"):
        _field(sensors=twins)
    _field(sensors=twins[:2])


def test_scenario_config_refuses_epochs_that_end_past_u64():
    """The last anchor's timestamp, epochs * epoch_length, must fit the
    wire's u64; make_transaction refuses any timestamp that does not."""
    from tcgw.ledger import make_transaction
    fields = (_field(sensors=(SensorSpec("s", "temperature_c", 2**62, "0", "1"),),
                     ops_interval=2**62),)
    ScenarioConfig(fields, epoch_length=2**63, epochs=1)
    ScenarioConfig(fields, epoch_length=2**64 - 1, epochs=1)
    for epochs, length in [(2, 2**63), (1, 2**64)]:
        with pytest.raises(InvalidArgument, match="end past the last u64 timestamp"):
            ScenarioConfig(fields, epoch_length=length, epochs=epochs)
    make_transaction("c", 2**64 - 1, TxKind.RAW_READING, b"{}", "a")
    for timestamp in (-1, 2**64):
        with pytest.raises(InvalidArgument, match=r"is not a unix second in \[0, 2\*\*64\)"):
            make_transaction("c", timestamp, TxKind.RAW_READING, b"{}", "a")


@pytest.mark.parametrize("text", [" 9 ", "1_0", "12.5\n", "\u0661\u0661", "-Infinity"])
def test_config_decimals_are_finite_plain_literals(text):
    """Every decimal string of a config reads as a finite plain literal, as
    a reading's value does; each error names the field."""
    cases = {"min_valid": lambda: ValidityRange("temperature_c", text, "100"),
             "max_valid": lambda: ValidityRange("temperature_c", "-100", text),
             "low": lambda: SensorSpec("s", "temperature_c", 60, text, "100"),
             "high": lambda: SensorSpec("s", "temperature_c", 60, "-100", text),
             "fault_rate": lambda: _field(fault=text)}
    for name, build in cases.items():
        with pytest.raises(InvalidArgument, match=f"^{name} "):
            build()


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


def test_run_scenario_audits_every_archive_under_one_parse_of_the_ranges(monkeypatch):
    """Work counter: the in-run audit parses the validity ranges once per
    run, as the public chain is built, at 2 archives as at 6, not once
    per archive."""
    from tcgw import public_chain
    parse = public_chain.range_bounds
    for epochs in (1, 3):
        parses = []
        monkeypatch.setattr(public_chain, "range_bounds",
                            lambda ranges: parses.append(1) or parse(ranges))
        result = run_scenario(small_scenario(epochs=epochs))
        assert len(result.archives) == 2 * epochs and result.report["ok"]
        assert len(parses) == 1, epochs


def test_run_scenario_parses_each_payload_twice(monkeypatch):
    """Work counter: every committed payload is read once at submit and
    once by the in-run audit, and nothing else is read; the anchors add
    none. A read is a template match of a reading (read_reading) or a JSON
    decode, and both are counted, so a re-parse on the run path (commit,
    rollover) by either reader fails here."""
    from tcgw import canon, private_chain
    reads = 0
    raw_decode = canon._DECODER.raw_decode
    template_match = private_chain._TEMPLATE_MATCH

    def counting_decode(text, idx=0):
        nonlocal reads
        reads += 1
        return raw_decode(text, idx)

    def counting_match(text):
        nonlocal reads
        match = template_match(text)
        reads += match is not None  # a miss goes on to the decoder, which counts it
        return match

    monkeypatch.setattr(canon._DECODER, "raw_decode", counting_decode)
    monkeypatch.setattr(private_chain, "_TEMPLATE_MATCH", counting_match)
    result = run_scenario(small_scenario(epochs=3))
    committed = sum(len(block.transactions) for ledger in result.archives.values()
                    for block in ledger)
    assert result.report["confirmed_anchors"] == 6
    assert committed == 312
    assert reads == 2 * committed


def test_run_scenario_builds_and_hashes_each_body_twice(monkeypatch, tmp_path):
    """Work counter: a run writing its archives builds each committed
    transaction's body twice, once in make_transaction and once as the
    in-run audit checks it (transaction_valid), and hashes it twice, the
    same two times; submit admits what make_transaction sealed, and the
    archive file takes the bodies the audit hashed. Each archived block is
    laid out once, and pre_reset_size comes from that encoding:
    ledger_size_bytes sizes only the fresh ledgers after reset, never an
    archived one."""
    import sys
    from collections import Counter
    from tcgw import canon, ledger, workload
    built: Counter = Counter()
    hashed: Counter = Counter()
    encoded: Counter = Counter()
    sized: list = []
    build, hash_, encode, size = (ledger.transaction_body, canon.sha256, ledger._block_parts,
                                  workload.ledger_size_bytes)

    def counting_build(*args):
        body = build(*args)
        built[body] += 1
        return body

    def counting_hash(data):
        hashed[data] += 1
        return hash_(data)

    def counting_encode(block, bodies):
        parts = encode(block, bodies)
        encoded[b"".join(parts)] += 1
        return parts

    def counting_size(chain):
        sized.append(chain)
        return size(chain)

    monkeypatch.setattr(ledger, "transaction_body", counting_build)
    monkeypatch.setattr(ledger, "_block_parts", counting_encode)
    monkeypatch.setattr(workload, "ledger_size_bytes", counting_size)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tcgw" and getattr(module, "sha256", None) is hash_:
            monkeypatch.setattr(module, "sha256", counting_hash)
    result = run_scenario(small_scenario(epochs=3), tmp_path)
    monkeypatch.undo()
    archives = [load_ledger(path) for path in sorted(tmp_path.glob("*.tcgw"))]
    bodies = [build(tx.channel_id, tx.timestamp, tx.kind, tx.payload, tx.author_id)
              for chain in archives for block in chain for tx in block.transactions]
    assert result.report["confirmed_anchors"] == len(archives) == 6
    assert len(bodies) == len(set(bodies)) == 312
    assert [built[body] for body in bodies] == [2] * 312
    assert [hashed[body] for body in bodies] == [2] * 312
    assert [encoded.pop(ledger.serialize_block(block)) for chain in archives
            for block in chain[1:]] == [1] * sum(len(chain) - 1 for chain in archives)
    # an epoch-0 archive starts with the unlinked genesis block, encoded once
    # by its audit; every later genesis links to the anchor before it and is
    # encoded once as the fresh ledger's post_reset_size and once more by
    # its archive's audit, if the run archives it
    pub = result.public_chain
    links = {pub.find_anchor(ch, epoch).summary_digest: 1 + (epoch < 2)
             for ch in ("north", "south") for epoch in range(3)}
    assert encoded == {ledger.serialize_block(ledger.genesis()[0]): 2,
                       **{ledger.serialize_block(ledger.genesis(link)[0]): count
                          for link, count in links.items()}}
    assert sorted(chain[0].previous_hash for chain in sized) == sorted(links)
    assert all(chain == ledger.genesis(chain[0].previous_hash) for chain in sized)


def test_verify_chain_rebuilds_the_body_of_every_sealed_transaction(monkeypatch):
    """Work counter: verification never reads the seal. Every transaction
    of a bench ledger is made by make_transaction, and verify_chain still
    builds each one's body to re-derive its id."""
    from tcgw import ledger
    from tcgw.bench import build_reading_ledger
    chain = build_reading_ledger(250)
    assert all(ledger.sealed(tx) for block in chain for tx in block.transactions)
    builds: list = []
    build = ledger.transaction_body
    monkeypatch.setattr(ledger, "transaction_body", lambda *args: builds.append(1) or build(*args))
    assert ledger.verify_chain(chain).ok
    assert len(builds) == 250


def test_run_scenario_decodes_no_reading_as_json(monkeypatch):
    """Work counter: every generated reading is in template form, so a run
    makes no canonical_loads call for one. Only the context ops' payloads
    are decoded, once at submit and once by the in-run audit."""
    import sys
    from tcgw import canon, private_chain
    from tcgw.ledger import iter_transactions
    decoded: list = []
    original = canon.canonical_loads

    def counting(data):
        decoded.append(data)
        return original(data)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "tcgw" and getattr(module, "canonical_loads", None) is original:
            monkeypatch.setattr(module, "canonical_loads", counting)
    result = run_scenario(small_scenario(epochs=3))
    monkeypatch.undo()
    txs = [tx for ledger in result.archives.values() for _, _, tx in iter_transactions(ledger)]
    readings = [tx.payload for tx in txs if tx.kind is TxKind.RAW_READING]
    assert len(readings) == 288
    assert all(private_chain._TEMPLATE_MATCH(payload.decode()) for payload in readings)
    assert set(decoded).isdisjoint(readings)
    assert len(decoded) == 2 * (len(txs) - len(readings)) == 48


def _count_reading_work(monkeypatch) -> tuple[list, list]:
    """Patch Decimal and read_reading in every tcgw module that binds them;
    returns the lists the counted calls append to: each Decimal's argument,
    and each read_reading's payload."""
    import sys
    from decimal import Decimal
    from tcgw import private_chain
    built: list = []
    read: list = []
    read_reading = private_chain.read_reading

    def counting(value="0", *args):
        built.append(value)
        return Decimal(value, *args)

    def counting_read(payload):
        read.append(payload)
        return read_reading(payload)

    for name, module in list(sys.modules.items()):
        for attr, original, counted in (("Decimal", Decimal, counting),
                                        ("read_reading", read_reading, counting_read)):
            if name.split(".")[0] == "tcgw" and getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)
    return built, read


def _reading_values(archives) -> list[str]:
    from tcgw.ledger import iter_transactions
    return [canonical_loads(tx.payload)["value"] for ledger in archives
            for _, _, tx in iter_transactions(ledger) if tx.kind is TxKind.RAW_READING]


def test_run_scenario_builds_no_decimal_from_a_reading_value(monkeypatch):
    """Work counter: no reading's value becomes a Decimal. Submit's read
    checks each value by the template match, and the node at commit and the
    in-run audit fold it as its double; no value here ties a bound's double
    or the least or greatest double so far, which alone would build one.
    The publish step builds none and reads no payload: it publishes the
    node's fold. The generator checks its sensor's fault spike once per
    window, and those are the only Decimals of a reading's text."""
    from tcgw import gateway, workload
    from tcgw.workload import _spike_value
    in_publish: list = []  # whether each publish_epoch call built or read anything
    publish = workload.publish_epoch

    def watched_publish(*args):
        before = len(built), len(read)
        result = publish(*args)
        in_publish.append((len(built), len(read)) != before)
        return result

    cfg = small_scenario(epochs=3)
    built, read = _count_reading_work(monkeypatch)
    # run_scenario publishes each epoch's last field through rollover_epoch
    monkeypatch.setattr(workload, "publish_epoch", watched_publish)
    monkeypatch.setattr(gateway, "publish_epoch", watched_publish)
    result = run_scenario(cfg)
    monkeypatch.undo()
    assert in_publish == [False] * (cfg.epochs * len(cfg.fields))
    values = _reading_values(result.archives.values())
    bounds = {text for r in cfg.ranges for text in (r.min_valid, r.max_valid)}
    assert len(values) == 288 and bounds.isdisjoint(values)
    assert len(read) == 2 * len(values)  # submit and the in-run audit
    readings = set(values)
    spike_checks = cfg.epochs * sum(1 for f in cfg.fields for s in f.sensors
                                    if _spike_value(s.metric, cfg.ranges) in readings)
    assert sum(1 for text in built if text in readings) == spike_checks


def test_verify_archive_reads_each_reading_once_and_builds_no_decimal(monkeypatch, tmp_path):
    """Work counter: the file audit reads each reading's payload once, by
    read_reading, and folds its value as its double: no Decimal of any
    reading's value."""
    from tcgw.gateway import verify_archive
    cfg = small_scenario(epochs=3)
    result = run_scenario(cfg)
    paths = {key: save_ledger(ledger, tmp_path / archive_name(*key))
             for key, ledger in result.archives.items()}
    values = _reading_values(result.archives.values())
    built, read = _count_reading_work(monkeypatch)
    for (channel, epoch), path in paths.items():
        record = result.public_chain.find_anchor(channel, epoch)
        assert verify_archive(path, record.summary, result.public_chain).ok
    monkeypatch.undo()
    assert len(values) == 288
    assert len(read) == len(values)
    assert set(built).isdisjoint(values)


def test_run_scenario_builds_no_reading_and_encodes_none(monkeypatch):
    """Work counter: run_scenario's canonical_json calls do not grow with
    the readings, none of whose payloads it encodes: two per context op
    (op_payload writes it, submit's check_digestible encodes its body) and
    a fixed few per field and epoch (state and summary digests, the anchor
    and its confirmation ticks), at one and at twice the sampling rate."""
    import sys
    from tcgw import canon
    counts = {"encodes": 0}
    encode = canon.canonical_json

    def counting_encode(value):
        counts["encodes"] += 1
        return encode(value)

    for name, module in list(sys.modules.items()):
        if name == "tcgw" or name.startswith("tcgw."):
            for attr, value in list(vars(module).items()):
                if value is encode:
                    monkeypatch.setattr(module, attr, counting_encode)
    cfg = small_scenario(epochs=3)
    denser = dataclasses.replace(cfg, fields=tuple(
        dataclasses.replace(f, sensors=tuple(dataclasses.replace(s, interval=s.interval // 2)
                                             for s in f.sensors))
        for f in cfg.fields))
    encodes = []
    for config in (cfg, denser):
        counts["encodes"] = 0
        report = run_scenario(config).report
        rows = [row for rs in report["channels"].values() for row in rs]
        ops = sum(row["cultural_operations"] + 1 for row in rows)  # + the density update
        assert counts["encodes"] <= 2 * ops + 8 * len(rows)
        encodes.append((counts["encodes"], sum(row["generated"] for row in rows)))
    (small, readings), (dense, dense_readings) = encodes
    assert dense == small and dense_readings == 2 * readings == 576


def test_run_scenario_event_order_publish_before_prune():
    result = run_scenario(small_scenario())
    order: dict[tuple[str, int], dict[str, int]] = {}
    for position, event in enumerate(result.report["events"]):
        order.setdefault((event["channel"], event["epoch"]), {})[event["event"]] = position
    assert order
    for positions in order.values():
        assert positions["anchor_submitted"] < positions["anchor_confirmed"] < positions["ledger_reset"]


def _cloned_fields(cfg: ScenarioConfig, n: int, epochs: int = 1) -> ScenarioConfig:
    """`cfg` with n fields, each one of its fields' shape in turn under a
    channel of its own, over `epochs` epochs."""
    fields = tuple(dataclasses.replace(cfg.fields[i % len(cfg.fields)], channel_id=f"field-{i}")
                   for i in range(n))
    return dataclasses.replace(cfg, fields=fields, epochs=epochs)


@pytest.mark.parametrize("confirmations", [1, 2, 3])
def test_each_anchor_is_one_block_and_an_epoch_ticks_confirmations_required_times(
        monkeypatch, confirmations):
    """Each anchor's block is confirmed by the anchor blocks that follow it;
    heartbeats only confirm an epoch's last anchors. So the public head is
    the anchor count plus confirmations_required per epoch."""
    ticks: list = []
    tick = PublicChain.tick
    monkeypatch.setattr(PublicChain, "tick", lambda self: ticks.append(1) or tick(self))
    cfg = dataclasses.replace(_cloned_fields(small_scenario(), 5, epochs=3),
                              confirmations_required=confirmations)
    report = run_scenario(cfg).report
    anchors = len(cfg.fields) * cfg.epochs
    assert report["public_head_height"] == anchors + confirmations * cfg.epochs
    assert len(ticks) == confirmations * cfg.epochs
    assert report["confirmed_anchors"] == anchors
    heights = {row["anchor_included_height"] for rows in report["channels"].values()
               for row in rows}
    assert len(heights) == anchors  # every anchor in a block of its own


def test_the_bundled_run_makes_fourteen_public_blocks():
    """10 anchor blocks and 2 heartbeats per epoch; each anchor followed by
    two heartbeats of its own made 30."""
    result = run_scenario(default_scenario())
    assert result.report["public_head_height"] == len(result.public_chain.ledger) - 1 == 14


def _run_peak(tmp_path, cfg: ScenarioConfig) -> int:
    """Bytes the traced heap peaks above its level before run_scenario(cfg)
    writing its archives to a fresh directory, after a full collection (see
    tests/test_cli.py's _run_peak)."""
    out = tmp_path / f"peak{len(list(tmp_path.iterdir()))}"
    out.mkdir()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_scenario(cfg, out)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_run_holds_at_most_confirmations_required_plus_one_ledgers(tmp_path):
    """A field's ledger is held from its publish until the anchor blocks of
    the next confirmations_required fields confirm it, so a run holds at
    most three epoch ledgers however many fields it has. Eight fields of
    the bundled shape peak above four by less than one ledger of 1,470
    transactions (about 478 KB); holding every field's ledger until one
    shared confirmation would add four. The first run warms the caches
    that first calls allocate."""
    bundled = default_scenario(epochs=1)
    _run_peak(tmp_path, _cloned_fields(bundled, 1))
    growth = (_run_peak(tmp_path, _cloned_fields(bundled, 8))
              - _run_peak(tmp_path, _cloned_fields(bundled, 4)))
    assert growth < 478_000, growth


def test_a_publish_that_fails_mid_epoch_resets_no_waiting_node(monkeypatch, tmp_path):
    """The fourth field's anchor is rejected: the first field's anchor was
    confirmed by the next two and its archive written; the second and
    third wait unconfirmed, and neither node is reset or archived."""
    from tcgw import workload
    from tcgw.errors import PublishFailed, UnknownGateway
    published: list = []  # (node, its head as published)
    closed: list = []
    publish, close, submit = workload.publish_epoch, workload.close_epoch, PublicChain.submit_anchor

    def watched_publish(node, *args):
        published.append((node, head(node.ledger)))
        return publish(node, *args)

    def watched_close(node, *args):
        closed.append(node.channel_id)
        return close(node, *args)

    def reject_the_fourth(self, summary, author):
        if summary.channel_id == "field-3":
            raise UnknownGateway(f"unknown gateway {author!r}")
        return submit(self, summary, author)

    monkeypatch.setattr(workload, "publish_epoch", watched_publish)
    monkeypatch.setattr(workload, "close_epoch", watched_close)
    monkeypatch.setattr(PublicChain, "submit_anchor", reject_the_fourth)
    with pytest.raises(PublishFailed, match="anchor rejected: unknown gateway 'gw-field-3'"):
        run_scenario(_cloned_fields(small_scenario(), 5), tmp_path)
    assert [node.channel_id for node, _ in published] == [f"field-{i}" for i in range(4)]
    assert closed == ["field-0"]
    assert [p.name for p in tmp_path.iterdir()] == ["field-0.epoch0.tcgw"]
    for node, published_head in published[1:]:
        assert head(node.ledger) == published_head and len(node.ledger) > 1


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
        outcome = verify_pruned_epoch(archived, record.summary, result.public_chain)
        assert outcome.ok, (channel, epoch, outcome.failures)


def test_every_ledger_a_run_writes_reads_back_equal(tmp_path):
    """A ledger is its blocks: what a file holds is the whole value."""
    result = run_scenario(small_scenario(epochs=2))
    assert len(result.archives) == 4
    for (channel, epoch), archived in result.archives.items():
        path = save_ledger(archived, tmp_path / archive_name(channel, epoch))
        assert load_ledger(path) == archived
    chain = result.public_chain
    assert PublicChain.load(chain.save(tmp_path / "public.tcgw")).ledger == chain.ledger


def test_archive_dir_gets_each_audited_ledger_once_and_none_is_kept(monkeypatch, tmp_path):
    """With a directory, each epoch's ledger is written to its archive file
    once, block by block as its in-run audit takes it, and the file is
    whole and closed before the next epoch's audit begins; the result
    keeps no ledger, and the files hold the very ledgers a run without a
    directory collects, with the same report."""
    from tcgw import workload
    from tcgw.ledger import LEDGER_HEADER, serialize_block
    audits: list = []  # (ledger, the bytes its audit wrote, block by block)
    audit = workload.verify_pruned_epoch

    def audited(ledger, summary, pub, write):
        for (channel, epoch), (_, blocks) in zip(order, audits):  # each earlier one is whole
            path = tmp_path / archive_name(channel, epoch)
            assert path.read_bytes() == LEDGER_HEADER + b"".join(blocks)
        blocks: list = []
        audits.append((ledger, blocks))
        return audit(ledger, summary, pub, lambda data: blocks.append(data) or write(data))

    order = [("north", 0), ("south", 0), ("north", 1), ("south", 1)]
    monkeypatch.setattr(workload, "verify_pruned_epoch", audited)
    result = run_scenario(small_scenario(), tmp_path)
    monkeypatch.undo()
    assert result.archives == {}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(archive_name(*k) for k in order)
    collected = run_scenario(small_scenario())
    assert collected.report == result.report
    assert len(audits) == len(order)
    for key, (ledger, blocks) in zip(order, audits):
        assert ledger == collected.archives[key]
        assert blocks == [serialize_block(block) for block in ledger]
        assert (tmp_path / archive_name(*key)).read_bytes() == LEDGER_HEADER + b"".join(blocks)


def test_in_run_audit_fails_an_epoch_whose_archive_bytes_are_corrupted(monkeypatch, tmp_path):
    """The in-run verdict is about the bytes written: a fault in the body
    encoder that flips one payload byte of one reading, in one epoch, as
    the run encodes that epoch for its archive, fails exactly that epoch's
    chain check, and the file holds the flipped byte, which the file audit
    (tcgw verify's) fails too."""
    from tcgw import ledger, workload
    from tcgw.gateway import verify_archive
    cfg = small_scenario(epochs=3)
    build, audit = ledger.transaction_body, workload.verify_pruned_epoch
    target: list = []  # the fields of the corrupted body, then its bytes
    writing: list = []

    def faulty(*fields):
        body = build(*fields)
        if writing == [("south", 1)] and fields[2] is TxKind.RAW_READING:
            target[:] = target or [fields]
            if fields == target[0]:
                body = bytearray(body)
                body[body.index(b'"value":"') + 9] ^= 0x01
                body = bytes(body)
                target.append(body)
        return body

    def audited(ledger, summary, *rest):
        writing.append((summary.channel_id, summary.epoch_index))
        try:
            return audit(ledger, summary, *rest)
        finally:
            writing.pop()

    monkeypatch.setattr(ledger, "transaction_body", faulty)
    monkeypatch.setattr(workload, "verify_pruned_epoch", audited)
    result = run_scenario(cfg, tmp_path)
    monkeypatch.undo()
    assert len(set(target[1:])) == 1
    verdicts = {(channel, row["epoch_index"]): row["verification"]["failures"]
                for channel, rows in result.report["channels"].items() for row in rows}
    assert verdicts.pop(("south", 1)) == ["chain"]
    assert set(map(tuple, verdicts.values())) == {()} and not result.report["ok"]
    path = tmp_path / archive_name("south", 1)
    assert target[1] in path.read_bytes()
    record = result.public_chain.find_anchor("south", 1)
    outcome = verify_archive(path, record.summary, result.public_chain)
    assert str(outcome.chain) == "TxId at block 1" and "chain" in outcome.failures


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


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0x9E3779B97F4A7C15, 20_260_101])
def test_flat_draws_equal_the_next_u64_formula(seed):
    """random() and uniform() advance and finalize the state themselves; each
    draw equals the next_u64() formula on a twin generator, and both end in
    the same state."""
    from tcgw.rng import SplitMix64
    flat, nested = SplitMix64(seed), SplitMix64(seed)
    for i in range(10_000):
        if i % 3:
            lo, hi = (-20.0, 60.0) if i % 2 else (2.0, 8.0)
            assert flat.uniform(lo, hi) == lo + (hi - lo) * ((nested.next_u64() >> 11) * 2.0**-53)
        else:
            assert flat.random() == (nested.next_u64() >> 11) * 2.0**-53
    assert flat._state == nested._state
    assert flat.next_u64() == nested.next_u64()
