"""The five-field deployment, end to end, twice (to show determinism).

Each crop gets its own private chain and gateway; two monthly epochs are
generated, anchored, pruned, and verified. The consumer-side trace for one
channel closes the loop: confirmed statistics plus the in-progress record.
"""

import json

from tcgw import default_scenario, run_scenario
from tcgw.canon import digest_json

cfg = default_scenario(epochs=2)
result = run_scenario(cfg)

print(f"scenario ok: {result.report['ok']}, "
      f"confirmed anchors: {result.report['confirmed_anchors']}, "
      f"public head height: {result.report['public_head_height']}")

print(f"{'channel':<14}{'epoch':>6}{'generated':>11}{'kept':>7}{'excluded':>10}"
      f"{'pre-size':>10}{'post-size':>10}")
for channel, rows in sorted(result.report["channels"].items()):
    for row in rows:
        print(f"{channel:<14}{row['epoch_index']:>6}{row['generated']:>11}"
              f"{row['kept']:>7}{row['excluded']:>10}"
              f"{row['pre_reset_size']:>10}{row['post_reset_size']:>10}")

# Every event trace interleaves per field, but confirmation always
# precedes the reset for the same epoch.
first_field_events = [e for e in result.report["events"] if e["channel"] == "almond"]
print(f"almond events: {[(e['event'], e['epoch']) for e in first_field_events]}")

# What a consumer sees after scanning the channel's code.
trace = result.public_chain.trace_product("tomato", result.final_docs["tomato"])
temperature = [s for s in trace["summaries"][-1]["stats"] if s["metric"] == "temperature_c"]
print("tomato, last epoch temperature:", json.dumps(temperature[0], sort_keys=True))
print(f"tomato cultural operations in progress: {trace['cultural_operations_count']}")

# Same config, same seeds, same bytes.
again = run_scenario(cfg)
assert digest_json(again.report) == digest_json(result.report)
print(f"report digest (both runs): {digest_json(result.report).hex()[:24]}...")
