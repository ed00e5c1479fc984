#!/usr/bin/env python3
"""Pipeline benchmark: `tcgw run` then `tcgw verify`, end to end.

    python3 perfbench/run.py --workload bundled --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py          # every workload, each in a process of its own

Each round runs `tcgw run` on the workload's generated config and `tcgw
verify` on what it wrote, in this process through `tcgw.cli.main`, then
`tcgw verify` on a copy of one archive with one payload byte flipped.
Rounds repeat until --seconds have passed. The first round's outputs are
checked against the benchmark's own computation (checks.py); a later
round must write byte-identical outputs, or it is checked in full as well.

With --trace 0 the last line of output is a JSON object with the
end-to-end metrics; with --trace 1 rounds alternate untraced and traced
(tracer.py) and it carries the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from speed import SpeedSampler
from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

END_TO_END = {
    "run_tx_per_s": "tx/s",
    "audit_tx_per_s": "tx/s",
    "device_ledger_peak_kb": "KB",
    "private_bytes_per_tx": "bytes/tx",
    "public_bytes_per_anchor": "bytes/anchor",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "workload.generate_us_per_tx": "us/tx",
    "ledger.make_tx_us_per_tx": "us/tx",
    "ledger.append_block_us_per_tx": "us/tx",
    "ledger.verify_chain_us_per_tx": "us/tx",
    "ledger.save_mb_per_s": "MB/s",
    "ledger.load_mb_per_s": "MB/s",
    "ledger.size_count_ms": "ms",
    "ledger.tx_validations_per_tx": "calls/tx",
    "ledger.tx_body_builds_per_tx": "calls/tx",
    "canon.sha256_per_tx": "calls/tx",
    "canon.loads_per_tx": "calls/tx",
    "canon.dumps_per_tx": "calls/tx",
    "canon.sha256_per_audited_tx": "calls/tx",
    "canon.loads_per_audited_tx": "calls/tx",
    "private_chain.submit_us_per_tx": "us/tx",
    "private_chain.commit_ms_per_block": "ms/block",
    "private_chain.collect_ms_per_epoch": "ms/epoch",
    "private_chain.reading_parses_per_tx": "calls/tx",
    "worldstate.apply_us_per_op": "us/op",
    "worldstate.replay_ms_per_epoch": "ms/epoch",
    "worldstate.state_digest_ms_per_epoch": "ms/epoch",
    "gateway.filter_us_per_reading": "us/reading",
    "gateway.summarize_us_per_reading": "us/reading",
    "gateway.rollover_ms": "ms",
    "gateway.rollover_tail_ms": "ms",
    "gateway.rollover_tail_pct": "%",
    "gateway.rollover_samples": "count",
    "gateway.verify_epoch_ms": "ms",
    "public_chain.produce_block_us": "us/block",
    "public_chain.blocks_per_anchor": "blocks/anchor",
    "public_chain.anchor_ms_per_epoch": "ms/epoch",
    "public_chain.load_ms": "ms",
    "public_chain.find_anchor_us": "us",
    "cli.write_artifacts_ms": "ms",
    **{f"{module}.run_share": "ratio" for module in MODULES},
    "trace.overhead_pct": "%",
}

SETUP_REPS = 5
TAIL_SAMPLES = 10


def purge_tcgw() -> None:
    for name in [n for n in sys.modules if n == "tcgw" or n.startswith("tcgw.")]:
        del sys.modules[name]


def setup(workload: str, seed: int, cfg_path: Path) -> tuple[dict, float, float]:
    """Import tcgw and write the workload's config, SETUP_REPS times.

    Returns (config, median seconds, median seconds at the reference host
    speed). Each repetition imports tcgw afresh.
    """
    reps = []
    for _ in range(SETUP_REPS):
        purge_tcgw()
        with SpeedSampler() as timer:
            importlib.import_module("tcgw.cli")
            cfg = workloads.WORKLOADS[workload](seed)
            cfg_path.write_text(json.dumps(cfg, sort_keys=True))
        reps.append(timer)
    imported = Path(sys.modules["tcgw"].__file__).resolve().parent
    if imported != (SRC / "tcgw").resolve():
        raise SystemExit(f"tcgw was imported from {imported}, not from {SRC}")
    return (cfg, statistics.median(t.seconds for t in reps),
            statistics.median(t.scaled for t in reps))


def call_cli(argv: list[str], sample: bool = True) -> tuple[int, str, float, float]:
    """tcgw.cli.main(argv) with stdout and stderr captured.

    Returns (exit code, stdout, seconds, seconds at the reference host
    speed). Without `sample`, nothing interrupts the call and both times
    are its wall time.
    """
    main = sys.modules["tcgw.cli"].main  # looked up per call, so a traced main is used
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        if sample:
            with SpeedSampler() as timer:
                code = main(argv)
            return code, out.getvalue(), timer.seconds, timer.scaled
        start = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed, elapsed


def fingerprint(out_dir: Path, *outputs) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode("utf-8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    for item in outputs:
        h.update(repr(item).encode("utf-8") + b"\0")
    return h.hexdigest()


class Bench:
    """One workload at one seed: its config, work directory and rounds."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.out = work / "out"
        self.cfg_path = work / "config.json"
        self.cfg, self.setup_raw_s, self.setup_s = setup(workload, seed, self.cfg_path)
        self.totals = workloads.expected_totals(self.cfg)
        self.archives = [(f["channel_id"], e) for f in self.cfg["fields"]
                         for e in range(self.cfg["epochs"])]
        self.tamper_target = self.archives[seed % len(self.archives)]
        self.rounds: list[dict] = []
        self.checked: dict[str, int] = {}  # fingerprint -> failed operations
        self.failures: list[str] = []
        self.sizes: dict | None = None
        self.peak_rss_mb: float | None = None

    @property
    def ops_per_round(self) -> int:
        """Transactions submitted, epochs closed, archives audited, one tamper audit."""
        return self.totals["transactions"] + 2 * self.totals["epochs"] + 1

    def round(self, tracer: Tracer | None, sample: bool) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        if tracer:
            tracer.install()
            tracer.phase("run")
        run_code, run_out, run_s, run_scaled = call_cli(
            ["run", "--config", str(self.cfg_path), "--out", str(self.out)], sample)
        if tracer:
            tracer.phase("audit")
        verify_code, verify_out, audit_s, audit_scaled = call_cli(
            ["verify", "--archive", str(self.out / "archive"),
             "--chain", str(self.out / "public.tcgw")], sample)
        if tracer:
            tracer.uninstall()
        if self.peak_rss_mb is None:
            # Before the checks and later rounds add to the process's own peak.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        tamper_code, tamper_out = self.tamper()
        key = fingerprint(self.out, run_code, run_out, verify_code, verify_out,
                          tamper_code, tamper_out)
        if key not in self.checked:
            self.checked[key] = self.check(verify_code, verify_out, tamper_code, tamper_out)
        if self.sizes is None:
            self.sizes = self.measure_sizes()
        result = {
            "traced": tracer is not None,
            "run_s": run_s,
            "audit_s": audit_s,
            "run_scaled_s": run_scaled,
            "audit_scaled_s": audit_scaled,
            "failed": self.checked[key],
            "fingerprint": key,
        }
        self.rounds.append(result)
        return result

    def tamper(self) -> tuple[int, str]:
        """Verify a copy of one archive with one payload byte flipped."""
        tamper_dir = self.work / "tamper"
        shutil.rmtree(tamper_dir, ignore_errors=True)
        tamper_dir.mkdir()
        channel, epoch = self.tamper_target
        name = f"{channel}.epoch{epoch}.tcgw"
        try:
            checks.flip_payload_byte(self.out / "archive" / name, tamper_dir / name, self.seed)
            shutil.copy(self.out / "archive" / "ranges.json", tamper_dir / "ranges.json")
        except (OSError, checks.FormatError, IndexError) as exc:
            return -1, f"cannot make the tampered copy: {exc}"
        code, out, _, _ = call_cli(["verify", "--archive", str(tamper_dir),
                                    "--chain", str(self.out / "public.tcgw")], sample=False)
        return code, out

    def check(self, verify_code, verify_out, tamper_code, tamper_out) -> int:
        """Check one round's outputs in full; returns its number of failed operations."""
        cfg = self.cfg
        failed_tx = failed_epochs = 0
        try:
            report = json.loads((self.out / "report.json").read_bytes())
            public = checks.read_ledger((self.out / "public.tcgw").read_bytes())
            anchors = checks.check_anchors(public, report, cfg)
        except (OSError, ValueError, KeyError) as exc:
            self.failures.append(f"unreadable run outputs: {exc}")
            return self.ops_per_round
        audits = checks.check_verify_output(verify_code, verify_out, self.archives)
        for field in cfg["fields"]:
            channel = field["channel_id"]
            rows = {row["epoch_index"]: row for row in report["channels"].get(channel, [])}
            for epoch in range(cfg["epochs"]):
                path = self.out / "archive" / f"{channel}.epoch{epoch}.tcgw"
                try:
                    blocks = checks.read_ledger(path.read_bytes())
                    failures = checks.check_epoch(field, cfg, epoch, rows[epoch], blocks)
                    if not rows[epoch]["verification"]["ok"]:
                        failures.append("in-run verification failed")
                except (OSError, ValueError, KeyError) as exc:
                    failures = [f"transactions unreadable: {exc}"]
                if any(f.startswith(("transactions", "tx_id")) for f in failures):
                    failed_tx += workloads.expected_epoch(field, cfg["epoch_length"])["transactions"]
                failures += anchors.pop((channel, epoch))
                failed_epochs += bool(failures)
                self.failures += [f"{channel} epoch {epoch}: {f}" for f in failures]
        self.failures += [f"{key}: {f}" for key, fs in anchors.items() for f in fs]
        failed_epochs = min(self.totals["epochs"], failed_epochs + len(anchors))
        failed_audits = sum(bool(fs) for fs in audits.values())
        self.failures += [f"audit {k}: {f}" for k, fs in audits.items() for f in fs]
        tamper = checks.check_tamper_output(tamper_code, tamper_out, *self.tamper_target)
        self.failures += [f"tamper {self.tamper_target}: {f}" for f in tamper]
        return failed_tx + failed_epochs + failed_audits + bool(tamper)

    def measure_sizes(self) -> dict:
        archive = [p.stat().st_size for p in (self.out / "archive").glob("*.tcgw")]
        public = (self.out / "public.tcgw").stat().st_size
        return {"device_ledger_peak_kb": max(archive, default=0) / 1e3,
                "private_bytes_per_tx": sum(archive) / self.totals["transactions"],
                "public_bytes_per_anchor": public / len(self.archives)}

    @property
    def attempted(self) -> int:
        return self.ops_per_round * len(self.rounds)

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.rounds)

    @property
    def deterministic(self) -> bool:
        return len({r["fingerprint"] for r in self.rounds}) == 1

    def end_to_end(self) -> dict:
        n = self.totals["transactions"]
        rounds = [r for r in self.rounds if not r["traced"]]
        return {
            "run_tx_per_s": statistics.median(n / r["run_scaled_s"] for r in rounds),
            "audit_tx_per_s": statistics.median(n / r["audit_scaled_s"] for r in rounds),
            **self.sizes,
            "peak_rss_mb": self.peak_rss_mb,
            "setup_s": self.setup_s,
        }

    def per_layer(self, tracer: Tracer) -> dict:
        """Per-layer metrics over the traced rounds; see README.md for each."""
        rounds = sum(r["traced"] for r in self.rounds)
        txs = self.totals["transactions"] * rounds
        epochs = self.totals["epochs"] * rounds
        run, audit, both = ("run",), ("audit",), ("run", "audit")

        def stats(key, phases):
            return [tracer.stat(phase, key) for phase in phases]

        def calls(key, phases=both):
            return sum(x.calls for x in stats(key, phases))

        def secs(key, phases=both):
            return sum(x.incl for x in stats(key, phases))

        def units(key, phases=both):
            return sum(x.units for x in stats(key, phases))

        def per(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        rollover = sorted(tracer.samples["gateway.rollover_epoch"])
        if len(rollover) >= 4 * TAIL_SAMPLES:
            tail_index = len(rollover) - TAIL_SAMPLES - 1
            tail, tail_pct = rollover[tail_index], 100 * (tail_index + 1) / len(rollover)
        else:
            tail, tail_pct = statistics.median(rollover), 50.0
        # Untraced and traced rounds alternate, so each pair saw a similar host.
        overhead = statistics.median(
            (traced["run_s"] + traced["audit_s"]) / (plain["run_s"] + plain["audit_s"])
            for plain, traced in zip(self.rounds[::2], self.rounds[1::2]))
        main_s = secs("cli.main")
        node, client, chain = ("private_chain.PrivateNode.", "public_chain.PublicClient.",
                               "public_chain.PublicChain.")
        return {
            "workload.generate_us_per_tx": per(secs("workload.generate_readings", run)
                                               + secs("workload.generate_context_ops", run), txs, 1e6),
            "ledger.make_tx_us_per_tx": per(secs("ledger.make_transaction", run), txs, 1e6),
            "ledger.append_block_us_per_tx": per(
                secs(f"ledger.append_block<{node}commit_batch", run), txs, 1e6),
            "ledger.verify_chain_us_per_tx": per(secs("ledger.verify_chain"),
                                                 units("ledger.verify_chain"), 1e6),
            "ledger.save_mb_per_s": per(units("ledger.save_ledger", run),
                                        secs("ledger.save_ledger", run), 1e-6),
            "ledger.load_mb_per_s": per(units("ledger.load_ledger", audit),
                                        secs("ledger.load_ledger", audit), 1e-6),
            "ledger.size_count_ms": per(secs("ledger.ledger_size_bytes", run), rounds, 1e3),
            "ledger.tx_validations_per_tx": per(calls("ledger.transaction_valid", run), txs),
            "ledger.tx_body_builds_per_tx": per(calls("ledger.transaction_body", run), txs),
            "canon.sha256_per_tx": per(calls("canon.sha256", run), txs),
            "canon.loads_per_tx": per(calls("canon.canonical_loads", run), txs),
            "canon.dumps_per_tx": per(calls("canon.canonical_json", run), txs),
            "canon.sha256_per_audited_tx": per(calls("canon.sha256", audit), txs),
            "canon.loads_per_audited_tx": per(calls("canon.canonical_loads", audit), txs),
            "private_chain.submit_us_per_tx": per(secs(node + "submit", run), txs, 1e6),
            "private_chain.commit_ms_per_block": per(secs(node + "commit_batch", run),
                                                     calls(node + "commit_batch", run), 1e3),
            "private_chain.collect_ms_per_epoch": per(secs(node + "readings_in_window", run)
                                                      + secs(node + "raw_reading_count", run),
                                                      epochs, 1e3),
            "private_chain.reading_parses_per_tx": per(calls("private_chain.parse_reading", run), txs),
            "worldstate.apply_us_per_op": per(secs("worldstate.apply_op", run),
                                              calls("worldstate.apply_op", run), 1e6),
            "worldstate.replay_ms_per_epoch": per(secs("worldstate.replay"), epochs, 1e3),
            "worldstate.state_digest_ms_per_epoch": per(secs("worldstate.state_digest"), epochs, 1e3),
            "gateway.filter_us_per_reading": per(secs("gateway.filter_out_of_scale"),
                                                 units("gateway.filter_out_of_scale"), 1e6),
            "gateway.summarize_us_per_reading": per(secs("gateway.summarize"),
                                                    units("gateway.summarize"), 1e6),
            "gateway.rollover_ms": statistics.median(rollover) * 1e3,
            "gateway.rollover_tail_ms": tail * 1e3,
            "gateway.rollover_tail_pct": tail_pct,
            "gateway.rollover_samples": len(rollover),
            "gateway.verify_epoch_ms": per(secs("gateway.verify_pruned_epoch"),
                                           calls("gateway.verify_pruned_epoch"), 1e3),
            "public_chain.produce_block_us": per(secs(chain + "produce_block", run),
                                                 calls(chain + "produce_block", run), 1e6),
            "public_chain.blocks_per_anchor": per(calls(chain + "produce_block", run), epochs),
            "public_chain.anchor_ms_per_epoch": per(secs(client + "submit_anchor", run)
                                                    + secs(client + "confirm", run), epochs, 1e3),
            "public_chain.load_ms": per(secs(chain + "load", audit), calls(chain + "load", audit), 1e3),
            "public_chain.find_anchor_us": per(secs(chain + "find_anchor"),
                                               calls(chain + "find_anchor"), 1e6),
            "cli.write_artifacts_ms": per(secs("cli.cmd_run", run) - secs("workload.run_scenario", run)
                                          - secs("workload.load_scenario_config", run), rounds, 1e3),
            **{f"{m}.run_share": per(tracer.module_self_time(both, m), main_s) for m in MODULES},
            "trace.overhead_pct": (overhead - 1) * 100,
        }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = HERE / "_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, seed, work)
        tracer = Tracer() if trace else None
        start = time.perf_counter()
        while True:
            # With tracing, rounds alternate untraced and traced, in pairs.
            traced = trace and len(bench.rounds) % 2 == 1
            bench.round(tracer if traced else None, sample=not trace)
            if time.perf_counter() - start >= seconds and not (trace and len(bench.rounds) % 2):
                break
        elapsed = time.perf_counter() - start
        metrics = bench.per_layer(tracer) if trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (HERE / "_work").rmdir()
    units = PER_LAYER if trace else END_TO_END
    untraced = [r for r in bench.rounds if not r["traced"]]
    n = bench.totals["transactions"]
    print(f"workload {workload} seed {seed}: {len(bench.rounds)} rounds in {elapsed:.1f} s, "
          f"{n} transactions and {bench.totals['epochs']} epochs per round")
    line = (f"  unscaled: setup {bench.setup_raw_s:.4f} s, "
            f"run {statistics.median(n / r['run_s'] for r in untraced):.0f} tx/s, "
            f"audit {statistics.median(n / r['audit_s'] for r in untraced):.0f} tx/s")
    if not trace:
        line += (f"; host slower than the reference by x"
                 f"{statistics.median(r['run_s'] / r['run_scaled_s'] for r in untraced):.3f}")
    print(line)
    for failure in bench.failures[:20]:
        print(f"  FAILED CHECK {failure}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<42} {value:>14.4f} {units[name]}")
    print(f"  operations attempted {bench.attempted}, failed {bench.failed}")
    return {
        "correct": bench.failed == 0 and bench.deterministic,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def measure_all(seed: int, seconds: float, trace: int) -> dict:
    """Every workload, each in a child process of its own, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tcgw" / "__init__.py").is_file():
        print(f"perfbench: no tcgw sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TCGW_SEED", None)  # the generated config alone sets the seeds
    if args.workload == "all":
        result = measure_all(args.seed, args.seconds, args.trace)
    else:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
