"""Publish before prune: the gateway's epoch protocol, including a failure.

A month of readings lands on the private chain. The node folds each
reading into per-metric statistics as it commits it, leaving out-of-scale
values out under the validity ranges it was built with, and holds no
value text. The gateway anchors that summary on the public chain, waits
for confirmation depth, and only then resets the private ledger, whose
fresh genesis block links to the anchor. If publication fails, nothing is
pruned.
"""

from tcgw import (
    PrivateNode,
    PublicChain,
    PublicClient,
    TxKind,
    ValidityRange,
    head,
    ledger_size_bytes,
    make_transaction,
    reading_head,
    reading_payload,
    rollover_epoch,
    verify_pruned_epoch,
)
from tcgw.errors import PublishFailed
from tcgw.private_chain import BATCH_SIZE
from tcgw.rng import SplitMix64

RANGES = [ValidityRange("temperature_c", "-20", "60")]
HOUR, MONTH = 3_600, 30 * 86_400

node = PrivateNode("olive-grove", {"s-temp"}, ranges=RANGES)  # the stats fold's ranges
prefix = reading_head("s-temp", "temperature_c")  # each payload's text up to its timestamp
rng = SplitMix64(99)
for hour in range(MONTH // HOUR):
    ts = hour * HOUR
    # every ~50th sample the sensor glitches far out of scale
    value = "600" if rng.random() < 0.02 else f"{rng.uniform(6, 34):.3f}"
    node.clock = ts
    node.submit(make_transaction("olive-grove", ts, TxKind.RAW_READING,
                                 reading_payload(prefix, ts, value), "s-temp"))
    if len(node.mempool) >= BATCH_SIZE:
        node.commit_batch()
while node.mempool:
    node.commit_batch()

print(f"private chain: {len(node.ledger)} blocks, "
      f"{ledger_size_bytes(node.ledger)} bytes, head height {head(node.ledger)[0]}")

pub = PublicChain(["val-0", "val-1", "val-2"], gateways=["gw-olive"], ranges=RANGES)
pub.clock = MONTH
gateway = PublicClient(pub, "gw-olive")

trace: list = []
summary, record, fresh_node = rollover_epoch(node, 0, MONTH, gateway, trace)

for s in summary.stats:
    print(f"epoch 0 {s.metric}: n={s.count} mean={float(s.mean):.3f} "
          f"std={float(s.std_dev):.3f} range=[{s.min}, {s.max}]")
print(f"excluded as out-of-scale: {summary.excluded_count}")
height = pub.included[record.channel_id, record.epoch_index]
print(f"anchor confirmed at public height {height}, "
      f"digest {record.summary_digest.hex()[:24]}...")
print(f"event order: {[e['event'] for e in trace]}")
# The fresh ledger is a bare genesis block whose previous_hash is the
# confirmed anchor's summary_digest: the next epoch's archive links to this
# epoch's anchor, and the audit checks that link against the public chain.
assert fresh_node.ledger[0].previous_hash == record.summary_digest
print(f"fresh private chain: {len(fresh_node.ledger)} block, "
      f"{ledger_size_bytes(fresh_node.ledger)} bytes; its genesis links to the "
      f"anchor digest {fresh_node.ledger[0].previous_hash.hex()[:24]}...")

# The archived ledger remains fully checkable against the public record;
# the auditor re-folds its readings under the ranges block 0 commits to.
outcome = verify_pruned_epoch(node.ledger, summary, pub)
print(f"verify pruned epoch: ok={outcome.ok}")

# Failure path: a gateway the public chain does not know cannot publish,
# so the private ledger must survive untouched.
unknown = PublicClient(PublicChain(["val-0"]), "gw-stranger")
before = head(fresh_node.ledger)
try:
    rollover_epoch(fresh_node, MONTH, 2 * MONTH, unknown, [])
except PublishFailed as exc:
    print(f"rejected publication: {exc}")
assert head(fresh_node.ledger) == before
print("private head unchanged after the failed publication")
