"""Command-line entry point: run scenarios, bench, verify, trace, inspect.

Exit codes: 0 success, 1 verification failure, 2 usage or input error. A
file that cannot be read or written (an OSError) is an input error too.
Subcommands never mutate their inputs; artifacts go to --out or stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .bench import (
    DEFAULT_LEVELS,
    DEFAULT_MAX_LEVEL,
    bench_batch_time,
    emit_csv,
    fit_storage,
    write_bench_report,
)
from .canon import canonical_json, canonical_loads, from_json_value, to_json_value
from .errors import InvalidChain, TcgwError
from .gateway import ValidityRange, range_bounds, verify_pruned_epoch
from .ledger import load_ledger, save_ledger
from .public_chain import PublicChain
from .workload import (
    ARCHIVE_NAME,
    apply_seed_override,
    archive_name,
    default_scenario,
    load_scenario_config,
    run_scenario,
)


def _err(message: str) -> None:
    print(f"tcgw: {message}", file=sys.stderr)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        if args.config:
            cfg = load_scenario_config(args.config)
        else:
            cfg = default_scenario()
        seed_env = os.environ.get("TCGW_SEED")
        if seed_env:
            cfg = apply_seed_override(cfg, int(seed_env))
    except (TcgwError, ValueError, OSError) as exc:
        _err(f"config error: {exc}")
        return 2

    out = Path(args.out)
    archive_dir = out / "archive"
    state_dir = out / "state"
    archive_dir.mkdir(parents=True, exist_ok=True)
    state_dir.mkdir(parents=True, exist_ok=True)
    result = run_scenario(cfg)

    (out / "report.json").write_bytes(canonical_json(result.report))
    for (channel, epoch), ledger in sorted(result.archives.items()):
        save_ledger(ledger, archive_dir / archive_name(channel, epoch))
    (archive_dir / "ranges.json").write_bytes(
        canonical_json({"ranges": to_json_value(cfg.ranges)}))
    result.public_chain.save(out / "public.tcgw")
    for channel, body in sorted(result.final_docs.items()):
        if body is not None:
            (state_dir / f"{channel}.json").write_bytes(canonical_json(body))

    print(f"{'channel':<14}{'epoch':>6}{'generated':>11}{'kept':>7}"
          f"{'excluded':>10}{'anchored@':>11}{'verified':>10}")
    for channel, rows in sorted(result.report["channels"].items()):
        for row in rows:
            print(f"{channel:<14}{row['epoch_index']:>6}{row['generated']:>11}"
                  f"{row['kept']:>7}{row['excluded']:>10}"
                  f"{row['anchor_included_height']:>11}"
                  f"{'ok' if row['verification']['ok'] else 'FAIL':>10}")
    print(f"confirmed anchors: {result.report['confirmed_anchors']}, "
          f"public head height: {result.report['public_head_height']}")
    if not result.report["ok"]:
        _err("one or more epoch verifications failed")
        return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        if args.levels:
            levels = [int(part) for part in args.levels.split(",")]
        else:
            levels = [n for n in DEFAULT_LEVELS if n <= args.max_level]
        verify_mode = args.verify_mode == "on"
        points = bench_batch_time(levels, verify_mode=verify_mode)
    except (TcgwError, ValueError) as exc:
        _err(f"bad bench flags: {exc}")
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    emit_csv(points, out / "table2.csv")
    fit = None
    if sum(1 for p in points if p.n_existing >= 100) >= 2:
        fit = fit_storage(points)
        print(f"storage fit over levels >= 100: slope {fit.slope:.3f} bytes/tx, "
              f"intercept {fit.intercept:.1f}, R^2 {fit.r_squared:.6f}")
    write_bench_report(points, fit, verify_mode, out / "bench_report.json")
    print(f"wrote {out / 'table2.csv'} ({len(points)} rows)")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    archive_dir = Path(args.archive)
    chain_path = Path(args.chain)
    if not archive_dir.is_dir():
        _err(f"archive directory {archive_dir} not found")
        return 2
    if not chain_path.exists():
        _err(f"chain file {chain_path} not found")
        return 2
    chain = PublicChain.load(chain_path)  # a chain that fails to verify ends in main
    try:
        ranges_path = archive_dir / "ranges.json"
        if ranges_path.exists():
            ranges = from_json_value(tuple[ValidityRange, ...],
                                     canonical_loads(ranges_path.read_bytes())["ranges"])
            range_bounds(ranges)  # two ranges for one metric raise DuplicateRange
        else:
            _err(f"warning: {ranges_path} missing, verifying with no validity ranges")
            ranges = ()
    except (TcgwError, KeyError, TypeError, ValueError) as exc:
        _err(f"cannot load inputs: {exc}")
        return 2

    archives = {}
    for path in sorted(archive_dir.iterdir()):
        match = ARCHIVE_NAME.match(path.name)
        if match:
            archives[match.group("channel"), int(match.group("epoch"))] = path
        elif path.suffix == ".tcgw":
            _err(f"warning: {path} is not named <channel>.epoch<k>.tcgw, not checked")
    # Every confirmed anchor must have its archive, and every archive its anchor.
    anchored = {key for key, record in chain.anchors.items() if chain.is_confirmed(record)}
    if not archives and not anchored:
        _err(f"no archived ledgers in {archive_dir}")
        return 2
    failed = []
    for channel, epoch in sorted(archives.keys() | anchored):
        status = _audit_epoch(archives.get((channel, epoch)), channel, epoch, chain, ranges)
        print(f"{channel} epoch {epoch}: {status}")
        if status != "ok":
            failed.append((channel, epoch))
    if failed:
        _err(f"verification failed first at channel {failed[0][0]} epoch {failed[0][1]}")
        return 1
    return 0


def _audit_epoch(path: Path | None, channel: str, epoch: int, chain: PublicChain,
                 ranges: tuple[ValidityRange, ...]) -> str:
    """One epoch's verdict: "ok" or "FAIL (<codes>)"."""
    if path is None:
        return "FAIL (missing)"
    try:
        ledger = load_ledger(path, chain_id=channel)
    except TcgwError:
        return "FAIL (chain)"  # unreadable bytes are a tamper signal, not a usage error
    record = chain.find_anchor(channel, epoch)
    if record is None:
        return "FAIL (anchor)"
    outcome = verify_pruned_epoch(ledger, record.summary, chain, ranges)
    return "ok" if outcome.ok else f"FAIL ({', '.join(outcome.failures)})"


def cmd_trace(args: argparse.Namespace) -> int:
    chain_path = Path(args.chain)
    if not chain_path.exists():
        _err(f"chain file {chain_path} not found")
        return 2
    chain = PublicChain.load(chain_path)
    try:
        doc = None
        if args.doc:
            doc = canonical_loads(Path(args.doc).read_bytes())
            if not isinstance(doc, dict):
                raise ValueError(f"document {args.doc} is not a JSON object")
    except (TcgwError, OSError, ValueError) as exc:
        _err(f"cannot load inputs: {exc}")
        return 2
    trace = chain.trace_product(args.channel, doc)
    sys.stdout.buffer.write(canonical_json(trace) + b"\n")
    sys.stdout.buffer.flush()
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    path = Path(args.path)
    if not path.exists():
        _err(f"file {path} not found")
        return 2
    try:
        ledger = load_ledger(path)
    except TcgwError as exc:
        _err(f"cannot read {path}: {exc}")
        return 2
    blocks = []
    for block in ledger.blocks:
        txs = []
        for tx in block.transactions:
            try:
                payload = canonical_loads(tx.payload)
            except Exception:
                payload = tx.payload.hex()
            txs.append({
                "author_id": tx.author_id,
                "channel_id": tx.channel_id,
                "kind": tx.kind.label,
                "payload": payload,
                "timestamp": tx.timestamp,
                "tx_id": tx.tx_id.hex(),
            })
        blocks.append({
            "block_hash": block.block_hash.hex(),
            "height": block.height,
            "previous_hash": block.previous_hash.hex(),
            "timestamp": block.timestamp,
            "tx_root": block.tx_root.hex(),
            "transactions": txs,
        })
    print(json.dumps({"blocks": blocks, "chain_id": ledger.chain_id},
                     indent=2, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcgw",
        description="Two-chain gateway simulation kit: private sensor ledgers, "
                    "epoch anchoring on a public chain, prune-and-verify.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="run a scenario and write its artifacts")
    p_run.add_argument("--config", help="scenario config JSON (default: bundled 5-field, 2-epoch)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="measure storage growth and batch latency")
    p_bench.add_argument("--levels", help="comma-separated ascending transaction counts")
    p_bench.add_argument("--verify-mode", choices=("on", "off"), default="on")
    p_bench.add_argument("--max-level", type=int, default=DEFAULT_MAX_LEVEL,
                         help="cap applied to the default levels")
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.set_defaults(func=cmd_bench)

    p_verify = sub.add_parser("verify", help="verify archived epochs against the public chain")
    p_verify.add_argument("--archive", required=True, help="directory of archived .tcgw ledgers")
    p_verify.add_argument("--chain", required=True, help="public chain .tcgw file")
    p_verify.set_defaults(func=cmd_verify)

    p_trace = sub.add_parser("trace", help="consumer trace for one channel")
    p_trace.add_argument("--chain", required=True, help="public chain .tcgw file")
    p_trace.add_argument("--channel", required=True)
    p_trace.add_argument("--doc", help="JSON file with the in-progress document body")
    p_trace.set_defaults(func=cmd_trace)

    p_inspect = sub.add_parser("inspect", help="dump any .tcgw ledger file as JSON")
    p_inspect.add_argument("path")
    p_inspect.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidChain as exc:
        print(f"public chain: FAIL ({exc})")
        return 1
    except (TcgwError, OSError) as exc:
        _err(str(exc))
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
