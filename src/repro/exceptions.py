"""Exception hierarchy for the ``repro`` library.

All library-raised errors derive from :class:`ReproError`, so callers can
catch one base class at an API boundary.  Subclasses exist per subsystem so
tests can assert on the precise failure mode.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SchemaError(ReproError):
    """A schema is malformed, or a record does not match its schema."""


class StorageError(ReproError):
    """An on-disk table or spill file is corrupt or used incorrectly."""


class TableClosedError(StorageError):
    """An operation was attempted on a table that has been closed."""


class SplitSelectionError(ReproError):
    """A split selection method was asked something it cannot answer."""


class TreeStructureError(ReproError):
    """A decision tree is structurally invalid (bad links, labels, ...)."""


class CoarseCriterionFailure(ReproError):
    """A coarse splitting criterion was detected to be incorrect.

    Raised internally during BOAT's cleanup phase when the Lemma 3.1 check
    (or the exact categorical check) signals that the global impurity
    minimum may lie outside what the coarse criterion allows.  The driver
    catches it and rebuilds the affected subtree; it escaping to user code
    is a bug.
    """

    def __init__(self, node_id: int, reason: str):
        super().__init__(f"coarse criterion failed at node {node_id}: {reason}")
        self.node_id = node_id
        self.reason = reason


class UnsupportedModeError(ReproError):
    """A build asked for modes the pipeline cannot combine (see
    :func:`repro.core.pipeline.check_modes`), e.g. a checkpointed forest."""


class RecoveryError(ReproError):
    """A checkpoint directory is unusable for resuming a build.

    Raised by :mod:`repro.recovery` when a resume is attempted against a
    missing, incomplete, or mismatched checkpoint — e.g. the table,
    schema, or build configuration differs from the one the checkpoint
    was written under, or the build already completed.
    """


class DatagenError(ReproError):
    """Bad parameters passed to the synthetic data generator."""


class ServeError(ReproError):
    """A serving-layer request could not be completed.

    Raised by :mod:`repro.serve` for request timeouts, backpressure
    rejections (the request queue is full), malformed serving requests,
    and predictions demanded before any model was published.  The
    ``http_status`` hint lets the HTTP front end map failure modes to
    status codes (429 backpressure, 504 timeout, ...) without string
    matching.
    """

    def __init__(self, message: str, http_status: int = 400):
        super().__init__(message)
        self.http_status = http_status


class StreamError(ReproError):
    """A streaming ingest or maintenance operation could not be completed.

    Raised by :mod:`repro.stream` for backpressure rejections (the ingest
    queue is at capacity, HTTP 429), poisoned micro-batches (schema
    mismatch, bad label — rejected at submit time so the queue keeps
    draining), updates submitted after shutdown (503), and updates
    refused while the maintenance loop is degraded after a mid-apply
    fault (503).  Like :class:`ServeError`, the ``http_status`` hint
    lets the streaming front end map failure modes without string
    matching.
    """

    def __init__(self, message: str, http_status: int = 400):
        super().__init__(message)
        self.http_status = http_status


class BenchmarkError(ReproError):
    """A benchmark harness was configured inconsistently."""


class ShardError(ReproError):
    """A sharded build could not complete.

    Raised by :mod:`repro.shard` when a shard is unreachable (dead TCP
    server, exhausted retries), a shard worker fails mid-scan, or a
    worker's result is inconsistent with the coordinator's view (row
    counts drifting between requests).  Shard *storage* corruption — a
    manifest whose schema digest does not match its shard files —
    surfaces as :class:`StorageError` like every other storage fault.
    """
