"""Exception hierarchy for the repro XML store.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  The hierarchy mirrors the
layering of the system: storage-level errors, token/parse errors, and
store-level (logical) errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library.

    ``exit_code`` is what the CLI returns when the error escapes to
    :func:`repro.cli.main`; subclasses that signal a specific condition
    (corruption, degraded state) override it, mirroring the 0/1/2
    convention of ``tools/bench_compare.py``.
    """

    exit_code = 1


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------

class StorageError(ReproError):
    """Base class for errors in the page/block/buffer layer."""


class BlockNotFoundError(StorageError):
    """A block number does not exist on the device."""


class PageFullError(StorageError):
    """A record does not fit into the target page, even after compaction."""


class RecordTooLargeError(StorageError):
    """A record can never fit into a page of the configured size."""


class SlotNotFoundError(StorageError):
    """A slot index is out of range or refers to a deleted record."""


class BufferPoolExhaustedError(StorageError):
    """Every frame in the buffer pool is pinned; nothing can be evicted."""


class WALError(StorageError):
    """The write-ahead log is corrupt or was used incorrectly."""


class ChecksumError(StorageError):
    """A block's stored checksum does not match its payload.

    Raised by the page codec on fetch when a framed page fails
    verification: bit rot, a misdirected write (the CRC covers the block
    number, so a page persisted to the wrong block fails too), or a torn
    write that survived to stable storage.

    Attributes
    ----------
    block_no:
        The block whose image failed verification.
    expected_crc, actual_crc:
        CRC32 stored in the page header vs. CRC32 recomputed over the
        payload (``None`` when the header itself is unreadable).
    """

    exit_code = 2

    def __init__(
        self,
        message: str,
        block_no: int = -1,
        expected_crc: "int | None" = None,
        actual_crc: "int | None" = None,
    ) -> None:
        super().__init__(message)
        self.block_no = block_no
        self.expected_crc = expected_crc
        self.actual_crc = actual_crc


class DiskFaultError(StorageError):
    """An injected fault fired (used by failure-injection tests)."""


class SimulatedCrashError(DiskFaultError):
    """A simulated crash point fired (see :mod:`repro.storage.faults`).

    Raised by the deterministic fault layer when the process "dies": the
    operation in flight is abandoned and only the durable state (synced
    blocks, flushed WAL prefix) survives for recovery.
    """


# ---------------------------------------------------------------------------
# Token / parse layer
# ---------------------------------------------------------------------------

class TokenError(ReproError):
    """Base class for token-model errors."""


class XMLSyntaxError(TokenError):
    """The XML input is not well formed.

    Attributes
    ----------
    line, column:
        1-based position of the offending character in the input.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class TokenStreamError(TokenError):
    """A token sequence violates the XQuery Data Model nesting rules."""


class CodecError(TokenError):
    """A serialized token record cannot be decoded."""


# ---------------------------------------------------------------------------
# Identifier schemes
# ---------------------------------------------------------------------------

class IdSchemeError(ReproError):
    """Base class for identifier-scheme errors."""


class IdExhaustedError(IdSchemeError):
    """The scheme cannot allocate identifiers at the requested position."""


class IdOrderError(IdSchemeError):
    """Identifiers were compared across incompatible schemes."""


# ---------------------------------------------------------------------------
# Core store
# ---------------------------------------------------------------------------

class StoreError(ReproError):
    """Base class for logical store errors."""


class NodeNotFoundError(StoreError):
    """No node with the requested identifier exists in the store."""


class InvalidOperationError(StoreError):
    """The requested update is not legal at the target position."""


class DocumentOrderError(StoreError):
    """An internal document-order invariant was violated (a bug)."""


class StoreCorruptError(StoreError):
    """The store failed integrity verification (unrepaired damage)."""

    exit_code = 2


class StoreDegradedError(StoreError):
    """The store is consistent but data was lost to a repair.

    Verification passes structurally, yet a prior ``repair`` dropped
    token data it could not reconstruct; reads over the lost ID
    intervals return degraded (salvaged) answers, never wrong ones.
    """

    exit_code = 1


# ---------------------------------------------------------------------------
# Query layer
# ---------------------------------------------------------------------------

class QueryError(ReproError):
    """Base class for XPath errors."""


class XPathSyntaxError(QueryError):
    """The XPath expression could not be parsed."""


class XPathUnsupportedError(QueryError):
    """The expression uses a feature outside the supported subset."""


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------

class ConcurrencyError(ReproError):
    """Base class for lock/transaction errors."""


class DeadlockError(ConcurrencyError):
    """A lock request would create a wait-for cycle."""


class LockWaitError(ConcurrencyError):
    """A lock request was queued; the transaction must suspend.

    Raised by the queued-wait discipline (``wait_on_conflict=True``)
    instead of failing fast: the request stays in the lock manager's
    FIFO queue, and the caller — typically a server session driven by
    the cooperative scheduler — retries the operation once the grant
    arrives.  ``resource`` names what the transaction is waiting for.
    """

    def __init__(self, message: str, resource: tuple = ()) -> None:
        super().__init__(message)
        self.resource = resource


class SessionLimitError(ConcurrencyError):
    """Admission control rejected a new session or queued request.

    The server sheds load deterministically: opening a session beyond
    ``server_max_sessions`` or queueing an operation beyond
    ``server_max_queue_depth`` raises this instead of degrading every
    other session.  Counted in ``repro_server_sessions_shed_total``.
    """


class TransactionStateError(ConcurrencyError):
    """A transaction was used after commit/abort, or nested illegally."""


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

class ObservabilityError(ReproError):
    """A metric or tracer was registered or used inconsistently."""


# ---------------------------------------------------------------------------
# Replication
# ---------------------------------------------------------------------------

class ReplicationError(ReproError):
    """Base class for change-data-capture and replica errors."""


class ChangeStreamError(ReplicationError):
    """A change-stream frame is malformed beyond transport recovery
    (bad schema version, impossible record type, decoder misuse)."""


class ReplicationChannelError(ReplicationError):
    """The replication channel failed and its retry budget is spent.

    Raised by :class:`repro.replication.channel.ReplicationChannel` when
    the bounded retry/backoff policy gives up — the replica's checkpoint
    is intact, so a later ``repro replicate`` resumes cleanly.
    """


class ReplicationGapError(ReplicationChannelError):
    """The channel delivered a batch that does not start at the replica's
    cursor (dropped or reordered frames).  Retriable: re-fetch from the
    cursor; escalates to :class:`ReplicationChannelError` only when the
    retry budget runs out."""


class ReplicationTimeoutError(ReplicationChannelError):
    """Catch-up exceeded the configured attempt budget without the
    replica reaching the primary's stream head."""


class ReplicaDivergenceError(ReplicationError):
    """The replica's state digest does not match the primary's committed
    state and auto-resync was disabled or failed — the replica must not
    serve reads until re-seeded."""

    exit_code = 2


class ServerUnavailableError(ReproError):
    """The server could not be reached within the client's retry budget.

    Raised by :func:`repro.server.netadapter.client_request` after the
    capped reconnect/backoff loop is exhausted; carries ``attempts`` so
    operators can tell one refused connection from a flapping server.
    """

    def __init__(self, message: str, attempts: int = 1) -> None:
        super().__init__(message)
        self.attempts = attempts
