"""Exception types shared across the kit."""

from __future__ import annotations


class TcgwError(Exception):
    """Base class for every error raised by this package."""


class InvalidArgument(TcgwError, ValueError):
    """A caller-supplied argument violates a precondition."""


class UnsupportedValue(TcgwError):
    """Value cannot be canonically encoded (native floats, NaN, unknown types)."""


class EmptyBatch(TcgwError):
    """A block append was attempted with no transactions."""


class InvalidTransaction(TcgwError):
    """A transaction failed validation (bad tx_id or unparseable payload)."""

    def __init__(self, index: int, detail: str = ""):
        self.index = index
        super().__init__(f"invalid transaction at index {index}" + (f": {detail}" if detail else ""))


class ClockSkew(TcgwError):
    """Block timestamp is earlier than the current head's timestamp."""


class LedgerFormatError(TcgwError):
    """Persisted ledger bytes are malformed (bad magic, version, or truncation)."""


class PathTypeConflict(TcgwError):
    """A context operation ran into a value of the wrong shape along its path."""

    def __init__(self, doc_id: str, path: tuple[str, ...], detail: str,
                 height: int | None = None, tx_index: int | None = None):
        self.doc_id = doc_id
        self.path = path
        self.detail = detail
        self.height = height
        self.tx_index = tx_index
        where = f" (block {height}, tx {tx_index})" if height is not None else ""
        super().__init__(f"{detail} at {doc_id}:{'/'.join(path)}{where}")


class UnauthorizedAuthor(TcgwError):
    """Transaction author is not in the node's authorized set."""


class DuplicateTransaction(TcgwError):
    """tx_id already present in the ledger or mempool."""


class WrongChannel(TcgwError):
    """Transaction targets a different channel than the receiving node."""


class NonEmptyMempool(TcgwError):
    """Reset requested while transactions are still pending."""


class InvalidWindow(TcgwError):
    """Time window is empty, inverted, or does not cover the ledger's readings."""


class DuplicateRange(TcgwError):
    """More than one validity range configured for the same metric."""


class PublishFailed(TcgwError):
    """Anchor publication was rejected or never confirmed; no pruning happened."""


class DuplicateEpoch(TcgwError):
    """An anchor for this (channel, epoch) pair already exists."""


class UnknownGateway(TcgwError):
    """Anchor submitted by an identity that is not a registered gateway."""


class InvalidChain(TcgwError):
    """A loaded chain fails verify_chain or the rules its own methods follow."""
