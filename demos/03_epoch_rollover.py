"""Publish before prune: the gateway's epoch protocol, including a failure.

A month of readings lands on the private chain. The gateway filters
out-of-scale values, reduces the rest to per-metric statistics, anchors
the summary on the public chain, waits for confirmation depth, and only
then resets the private ledger. If publication fails, nothing is pruned.
"""

from tcgw import (
    PrivateNode,
    PublicChain,
    PublicClient,
    SensorReading,
    ValidityRange,
    head,
    ledger_size_bytes,
    reading_transaction,
    rollover_epoch,
    verify_pruned_epoch,
)
from tcgw.errors import PublishFailed
from tcgw.rng import SplitMix64

RANGES = [ValidityRange("temperature_c", "-20", "60")]
HOUR, MONTH = 3_600, 30 * 86_400

node = PrivateNode("olive-grove", {"s-temp"})
rng = SplitMix64(99)
for hour in range(MONTH // HOUR):
    ts = hour * HOUR
    # every ~50th sample the sensor glitches far out of scale
    value = "600" if rng.random() < 0.02 else f"{rng.uniform(6, 34):.3f}"
    node.clock = ts
    node.submit(reading_transaction("olive-grove", SensorReading("s-temp", "temperature_c", value, ts)))
    if len(node.mempool) >= node.batch_size:
        node.commit_batch()
while node.mempool:
    node.commit_batch()

print(f"private chain: {len(node.ledger.blocks)} blocks, "
      f"{ledger_size_bytes(node.ledger)} bytes, head height {head(node.ledger)[0]}")

pub = PublicChain(["val-0", "val-1", "val-2"], gateways=["gw-olive"])
pub.clock = MONTH
gateway = PublicClient(pub, "gw-olive")

trace: list = []
summary, record, fresh_node = rollover_epoch(node, RANGES, 0, MONTH, gateway, trace=trace)

for s in summary.stats:
    print(f"epoch 0 {s.metric}: n={s.count} mean={float(s.mean):.3f} "
          f"std={float(s.std_dev):.3f} range=[{s.min}, {s.max}]")
print(f"excluded as out-of-scale: {summary.excluded_count}")
height = pub.included[record.channel_id, record.epoch_index]
print(f"anchor confirmed at public height {height}, "
      f"digest {record.summary_digest.hex()[:24]}...")
print(f"event order: {[e['event'] for e in trace]}")
# The fresh ledger holds the anchor digest in memory only: its genesis block
# neither hashes it nor saves it, so the archive files do not link epochs.
print(f"fresh private chain: {ledger_size_bytes(fresh_node.ledger)} bytes "
      f"(anchor held in memory, not in genesis: "
      f"{fresh_node.ledger.genesis_anchor.hex()[:24]}...)")

# The archived ledger remains fully checkable against the public record.
outcome = verify_pruned_epoch(node.ledger, summary, pub, RANGES)
print(f"verify pruned epoch: ok={outcome.ok}")

# Failure path: a gateway the public chain does not know cannot publish,
# so the private ledger must survive untouched.
unknown = PublicClient(PublicChain(["val-0"]), "gw-stranger")
before = head(fresh_node.ledger)
try:
    rollover_epoch(fresh_node, RANGES, MONTH, 2 * MONTH, unknown)
except PublishFailed as exc:
    print(f"rejected publication: {exc}")
assert head(fresh_node.ledger) == before
print("private head unchanged after the failed publication")
