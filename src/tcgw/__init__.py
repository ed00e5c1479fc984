"""tcgw: two-chain gateway simulation kit.

A lightweight private ledger per field ingests raw sensor readings and
context-aware JSON operations; an edge gateway summarizes each epoch,
anchors the summary on a simulated public chain, and resets the private
ledger, keeping pruned history verifiable while low-memory participants
stay cheap.

The package exports the names README's library tour and the demos import;
every other name is imported from the module that defines it.
"""

from .gateway import ValidityRange, rollover_epoch, verify_pruned_epoch
from .ledger import (
    TxKind,
    append_block,
    genesis,
    head,
    ledger_size_bytes,
    make_transaction,
    verify_chain,
)
from .private_chain import PrivateNode, reading_head, reading_payload
from .public_chain import PublicChain, PublicClient
from .worldstate import EMPTY_STATE, ContextOp, apply_ops, op_payload, replay, state_digest
from .workload import default_scenario, run_scenario

__version__ = "0.1.0"
