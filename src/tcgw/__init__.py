"""tcgw: two-chain gateway simulation kit.

A lightweight private ledger per field ingests raw sensor readings and
context-aware JSON operations; an edge gateway summarizes each epoch,
anchors the summary on a simulated public chain, and resets the private
ledger, keeping pruned history verifiable while low-memory participants
stay cheap.
"""

from .canon import (
    canonical_json,
    canonical_loads,
    digest_json,
    from_json_value,
    sha256,
    to_json_value,
)
from .errors import (
    ClockSkew,
    DuplicateEpoch,
    DuplicateRange,
    DuplicateTransaction,
    EmptyBatch,
    InvalidArgument,
    InvalidChain,
    InvalidTransaction,
    InvalidWindow,
    LedgerFormatError,
    NonEmptyMempool,
    PathTypeConflict,
    PublishFailed,
    TcgwError,
    UnauthorizedAuthor,
    UnknownGateway,
    UnsupportedValue,
    WrongChannel,
)
from .gateway import (
    EpochSummary,
    EpochVerification,
    MetricStats,
    ValidityRange,
    filter_out_of_scale,
    rollover_epoch,
    summarize,
    summary_digest,
    verify_pruned_epoch,
)
from .ledger import (
    Block,
    ChainFault,
    Ledger,
    Transaction,
    TxKind,
    VerificationReport,
    append_block,
    genesis,
    head,
    iter_transactions,
    ledger_size_bytes,
    load_ledger,
    make_transaction,
    merkle_root,
    save_ledger,
    serialize_block,
    verify_chain,
)
from .private_chain import (
    METRICS,
    PrivateNode,
    SensorReading,
    ledger_readings,
    parse_reading,
    reading_payload,
    reading_transaction,
)
from .public_chain import AnchorRecord, PublicChain, PublicClient
from .rng import SplitMix64, derive_seed
from .worldstate import (
    EMPTY_STATE,
    ContextOp,
    WorldState,
    apply_op,
    op_payload,
    parse_op,
    replay,
    state_digest,
)
from .workload import (
    FieldConfig,
    ScenarioConfig,
    ScenarioResult,
    SensorSpec,
    default_scenario,
    generate_context_ops,
    generate_readings,
    load_scenario_config,
    run_scenario,
)

__version__ = "0.1.0"
