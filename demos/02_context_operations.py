"""Schema-free document updates carried entirely in the payload.

Two generic operations cover any record shape: upsert a field at a path,
or append to an array at a path. No schema is registered anywhere; the
document id, path, and value all travel inside the transaction.
"""

import json

from tcgw import (
    EMPTY_STATE,
    ContextOp,
    TxKind,
    append_block,
    apply_op,
    genesis,
    make_transaction,
    op_payload,
    replay,
    state_digest,
)

update = lambda doc, path, value: ContextOp(TxKind.UPDATE_FIELD, doc, path, value)
append = lambda doc, path, value: ContextOp(TxKind.APPEND_TO_ARRAY, doc, path, value)

# Start the lot's record with a density estimate, then revise it.
ws = apply_op(EMPTY_STATE, update("lot1", ("Plant density",), "4.2"))
ws = apply_op(ws, update("lot1", ("Plant density",), "4.5"))

# Log field work as it happens; the array is created on first append.
for day, op_name in enumerate(["irrigation", "fertilization", "irrigation"]):
    ws = apply_op(ws, append("lot1", ("Cultural Operations",),
                             {"day": day, "operation": op_name}))

# Nested paths auto-create intermediate objects.
ws = apply_op(ws, update("lot1", ("origin", "parcel"), "It-BA-07"))

print(json.dumps(ws["lot1"], indent=2, sort_keys=True))
print(f"state digest: {state_digest(ws).hex()[:24]}...")

# The same operations, committed to a ledger and replayed, land on the
# same digest: the materialized view is a pure function of the chain.
ledger = genesis("lot1-chain")
ops = [
    update("lot1", ("Plant density",), "4.2"),
    update("lot1", ("Plant density",), "4.5"),
    append("lot1", ("Cultural Operations",), {"day": 0, "operation": "irrigation"}),
    append("lot1", ("Cultural Operations",), {"day": 1, "operation": "fertilization"}),
    append("lot1", ("Cultural Operations",), {"day": 2, "operation": "irrigation"}),
    update("lot1", ("origin", "parcel"), "It-BA-07"),
]
for i, op in enumerate(ops):
    tx = make_transaction("lot1-chain", i, op.op, op_payload(op), "agronomist")
    ledger, _ = append_block(ledger, [tx], i)

assert state_digest(replay(ledger)) == state_digest(ws)
print("replay(ledger) digest equals the incrementally maintained digest")
