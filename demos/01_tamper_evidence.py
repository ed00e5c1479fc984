"""Hash-linked blocks make any edit visible.

We build a small chain of sensor readings, flip a single byte deep inside
one transaction payload, and watch verification name the broken block.
"""

import dataclasses

from tcgw import (
    TxKind,
    append_block,
    genesis,
    head,
    ledger_size_bytes,
    make_transaction,
    reading_head,
    reading_payload,
    verify_chain,
)

# A private ledger for one field: the tuple of its blocks. Block 0 is the
# genesis: all-zero previous hash, no transactions.
ledger = genesis()
print(f"genesis head: height={head(ledger)[0]} hash={head(ledger)[1].hex()[:16]}...")

# Append ten blocks of three readings each. A reading is its payload, a
# small fixed-format JSON object whose value is a decimal string; the
# transaction id is a digest over the full canonical encoding.
for block_index in range(10):
    txs = []
    for s in range(3):
        ts, sensor = block_index * 60 + s, f"s-{s}"
        payload = reading_payload(reading_head(sensor, "temperature_c"), ts,
                                  f"{18 + s}.{block_index}")
        txs.append(make_transaction("demo-field", ts, TxKind.RAW_READING, payload, sensor))
    ledger, block = append_block(ledger, txs, txs[-1].timestamp)
    assert block.previous_hash == ledger[block.height - 1].block_hash

print(f"built {len(ledger)} blocks, {ledger_size_bytes(ledger)} bytes on disk")
print(f"verify untouched chain: {verify_chain(ledger)}")

# Now the attack: change one byte of a committed value in block 6.
victim = ledger[6]
tx = victim.transactions[1]
tampered_tx = dataclasses.replace(tx, payload=tx.payload.replace(b"19.", b"99.", 1))
tampered_block = dataclasses.replace(
    victim, transactions=victim.transactions[:1] + (tampered_tx,) + victim.transactions[2:])
tampered = ledger[:6] + (tampered_block,) + ledger[7:]

report = verify_chain(tampered)
print(f"verify tampered chain:  ok={report.ok} "
      f"first_bad_height={report.first_bad_height} reason={report.reason.value}")
assert not report.ok and report.first_bad_height == 6

# The original value is untouched; ledgers are immutable snapshots.
assert verify_chain(ledger).ok
print("original ledger still verifies; a copy was tampered, not the chain")
