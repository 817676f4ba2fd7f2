"""A scan wrapper that survives transient I/O errors.

A 40-second sequential scan over a failing device should not throw away
39 seconds of routing work because one ``read(2)`` returned ``EIO``.
:class:`RetryingTable` wraps any :class:`~repro.storage.Table` and makes
``scan`` self-healing: when the underlying iteration raises a transient
:class:`OSError`, it backs off (bounded exponential) and re-reads from
the last offset it successfully delivered to the caller.  Batches already
yielded are never re-yielded, so downstream accumulation (the cleanup
scan's per-node statistics and held stores) sees every row exactly once
— the wrapper changes availability, never the output tree.

Offset-capable tables (:class:`~repro.storage.DiskTable`, or anything
advertising ``scan_supports_start_row``) restart by seeking straight to
the resume offset, so a retry re-reads only the faulted batch.  Generic
tables are restarted from the top with the prefix discarded; those
re-reads are still charged to the table's I/O stats — the honest cost of
retrying a device that cannot seek.

Every absorbed fault is surfaced to the active tracer: a ``scan_retry``
event (attempt number, resume offset, error type, backoff) attached to
the current phase span, plus a ``scan_retries`` counter bumped on that
span.  Faults that persist past :attr:`RetryPolicy.max_retries`
consecutive failures at the same offset propagate unchanged.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..config import DEFAULT_BATCH_ROWS, BoatConfig
from ..observability import NULL_TRACER, NullTracer, Tracer
from ..storage import Table


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for transient scan failures.

    Attributes:
        max_retries: consecutive failures tolerated at one scan offset
            before the error propagates.  (A fault that keeps firing at
            the same offset is not transient.)
        base_delay_s: sleep before the first retry; doubles per
            consecutive failure.
        max_delay_s: cap on a single backoff sleep.
    """

    max_retries: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.base_delay_s < 0:
            raise ValueError("base_delay_s must be >= 0")
        if self.max_delay_s < self.base_delay_s:
            raise ValueError("max_delay_s must be >= base_delay_s")

    def delay(self, consecutive_failures: int) -> float:
        """Backoff before retry number ``consecutive_failures`` (1-based)."""
        return min(
            self.base_delay_s * (2 ** max(consecutive_failures - 1, 0)),
            self.max_delay_s,
        )


class RetryingTable(Table):
    """Wrap a table so scans absorb transient ``OSError``s and resume.

    Args:
        inner: the real table; its schema and ``io_stats`` pass through.
        policy: retry budget and backoff shape.
        tracer: receives one ``scan_retry`` event per absorbed fault.
        sleep: injectable for tests (defaults to :func:`time.sleep`).
    """

    #: The wrapper forwards offset scans, so resumed cleanup scans work
    #: through it without re-reading the prefix (when the inner table can
    #: seek).
    scan_supports_start_row = True

    def __init__(
        self,
        inner: Table,
        policy: RetryPolicy | None = None,
        tracer: Tracer | NullTracer = NULL_TRACER,
        sleep: Callable[[float], None] = time.sleep,
    ):
        super().__init__(inner.schema, inner.io_stats)
        self._inner = inner
        self.policy = policy or RetryPolicy()
        self._tracer = tracer
        self._sleep = sleep
        #: Total faults absorbed across all scans (diagnostics/tests).
        self.retries_absorbed = 0

    @property
    def inner(self) -> Table:
        return self._inner

    def __len__(self) -> int:
        return len(self._inner)

    def append(self, batch: np.ndarray) -> None:
        self._inner.append(batch)

    def close(self) -> None:
        self._inner.close()

    # -- the self-healing scan ----------------------------------------------

    def _seekable(self) -> bool:
        return bool(getattr(self._inner, "scan_supports_start_row", False))

    def _scan_inner(self, batch_rows: int, offset: int) -> Iterator[np.ndarray]:
        if offset == 0:
            yield from self._inner.scan(batch_rows)
            return
        if self._seekable():
            yield from self._inner.scan(batch_rows, start_row=offset)
            return
        skipped = 0
        for batch in self._inner.scan(batch_rows):
            if skipped >= offset:
                yield batch
                continue
            drop = min(offset - skipped, len(batch))
            skipped += drop
            if drop < len(batch):
                yield batch[drop:]

    def scan(
        self, batch_rows: int = DEFAULT_BATCH_ROWS, start_row: int = 0
    ) -> Iterator[np.ndarray]:
        offset = start_row
        failures_here = 0
        while True:
            pass_start = offset
            try:
                for batch in self._scan_inner(batch_rows, pass_start):
                    yield batch
                    offset += len(batch)
                    failures_here = 0  # progress resets the budget
                if start_row == 0 and pass_start > 0 and self._seekable():
                    # The logical full scan completed across several
                    # partial passes, none of which recorded it.
                    if self._io_stats is not None:
                        self._io_stats.record_full_scan()
                return
            except OSError as exc:
                failures_here += 1
                if failures_here > self.policy.max_retries:
                    raise
                delay = self.policy.delay(failures_here)
                self.retries_absorbed += 1
                span = self._tracer.current()
                if span is not None:
                    span.bump("scan_retries")
                self._tracer.event(
                    "scan_retry",
                    attempt=failures_here,
                    resume_offset=offset,
                    error=type(exc).__name__,
                    backoff_s=delay,
                )
                if delay > 0:
                    self._sleep(delay)

    def __repr__(self) -> str:
        return (
            f"RetryingTable({self._inner!r}, retries={self.policy.max_retries}, "
            f"absorbed={self.retries_absorbed})"
        )


def wrap_retry(
    table: Table, boat_config: BoatConfig, tracer: Tracer | NullTracer
) -> Table:
    """Apply ``BoatConfig`` retry knobs to a table (identity when off)."""
    if boat_config.scan_retries <= 0:
        return table
    return RetryingTable(
        table,
        RetryPolicy(
            max_retries=boat_config.scan_retries,
            base_delay_s=boat_config.scan_retry_base_delay_s,
            max_delay_s=boat_config.scan_retry_max_delay_s,
        ),
        tracer=tracer,
    )
