"""Bench harness: growth laws on small levels, CSV schema, fit statistics."""

from __future__ import annotations

import pytest

from tcgw.bench import (
    BENCH_CHANNEL,
    BENCH_SENSOR,
    BenchPoint,
    _time_batch,
    bench_batch_time,
    bench_memory,
    build_reading_ledger,
    emit_csv,
    fit_storage,
    write_bench_report,
)
from tcgw.canon import canonical_loads
from tcgw.errors import InvalidArgument
from tcgw.ledger import head, verify_chain
from tcgw.private_chain import BATCH_SIZE, PrivateNode

SMALL_LEVELS = [0, 5, 10, 50, 100, 500, 1000]


def test_levels_must_be_ascending():
    with pytest.raises(InvalidArgument):
        bench_memory([100, 10])
    with pytest.raises(InvalidArgument):
        bench_memory([])
    with pytest.raises(InvalidArgument):
        bench_memory([-1, 10])


def test_built_ledgers_verify_and_batch_at_100():
    ledger = build_reading_ledger(250)
    assert verify_chain(ledger).ok
    assert [len(b.transactions) for b in ledger] == [0, 100, 100, 50]


def test_timed_batch_commits_one_block_of_batch_size(monkeypatch):
    """The timed region drains its batch with one commit_batch, onto a copy."""
    base = build_reading_ledger(250)
    node = PrivateNode(BENCH_CHANNEL, {BENCH_SENSOR}, ledger=base,
                       clock=base[-1].timestamp)
    committed = []
    commit_batch = PrivateNode.commit_batch

    def spy(self):
        committed.append(self)
        return commit_batch(self)

    monkeypatch.setattr(PrivateNode, "commit_batch", spy)
    _time_batch(node, 250, 0, verify_mode=True)
    timed, = committed
    assert timed.ledger[:-1] == base
    assert len(timed.ledger[-1].transactions) == BATCH_SIZE
    assert timed.mempool == [] and node.ledger is base


def test_memory_points_positive_and_strictly_monotone():
    points = bench_memory(SMALL_LEVELS)
    assert points[0].occupied_bytes > 0  # genesis overhead
    occupied = [p.occupied_bytes for p in points]
    assert occupied == sorted(occupied)
    assert len(set(occupied)) == len(occupied)


def test_memory_is_deterministic():
    assert bench_memory(SMALL_LEVELS) == bench_memory(SMALL_LEVELS)


def test_bench_ledger_bytes_are_pinned():
    """The bench ledger's bytes, pinned by its head hash and occupied sizes:
    a change to how the bench writes its readings must keep every byte."""
    assert head(build_reading_ledger(1234))[1].hex() == (
        "b93c3c9863046b6f76e3d0c1934cb501b0625576661de61a6b8aabad4f748fdd")
    assert [p.occupied_bytes for p in bench_memory([0, 5, 100, 1000])] == [116, 991, 15507, 154981]


def test_storage_fit_is_nearly_linear():
    fit = fit_storage(bench_memory([100, 500, 1000, 2000, 5000]))
    assert fit.r_squared >= 0.99
    assert fit.slope > 0


def test_batch_time_measures_positive_seconds():
    points = bench_batch_time([0, 100], verify_mode=False)
    for p in points:
        assert p.batch_seconds > 0.0
        assert p.occupied_bytes > 0


def test_batch_time_builds_one_node_over_base_per_level(monkeypatch):
    built = []
    init = PrivateNode.__init__

    def counting_init(self, *args, ledger=None, **kwargs):
        if ledger is not None:
            built.append(len(ledger))
        init(self, *args, ledger=ledger, **kwargs)

    monkeypatch.setattr(PrivateNode, "__init__", counting_init)
    bench_batch_time([0, 100, 250], verify_mode=True)
    assert built == [1, 2, 4]  # genesis plus blocks of 100


def test_batch_time_at_zero_level_commits():
    point, = bench_batch_time([0], verify_mode=True)
    assert point.n_existing == 0
    assert point.batch_seconds > 0.0


def test_emit_csv_schema_and_stability(tmp_path):
    points = [BenchPoint(n, 1000 * (n + 1), 0.25 * n) for n in range(12)]
    path = emit_csv(points, tmp_path / "table2.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 13
    assert lines[0] == "transactions,occupied_mb,batch_seconds"
    assert lines[1] == "0,0.001,0.000000"
    assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in range(12)]
    first = path.read_bytes()
    emit_csv(points, path)
    assert path.read_bytes() == first


def test_bench_report_json(tmp_path):
    points = bench_memory([100, 500, 1000])
    fit = fit_storage(points)
    path = write_bench_report(points, fit, True, tmp_path / "report.json")
    report = canonical_loads(path.read_bytes())
    assert report["verify_mode"] is True
    assert float(report["fit"]["r_squared"]) >= 0.99
    assert len(report["points"]) == 3
    assert "note" in report
