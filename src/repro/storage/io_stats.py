"""I/O accounting.

The paper's headline claim — BOAT builds several tree levels in two scans
while level-wise algorithms pay one scan per level — is a claim about I/O.
Wall-clock time in a Python reproduction mixes in interpreter overhead, so
every table and spill file charges its reads and writes to an
:class:`IOStats` counter and benchmarks report both.

A single :class:`IOStats` instance is shared by all storage objects that
belong to one experiment; algorithms receive it via the table they scan.
With the parallel execution layer several workers may charge one instance
concurrently, so every update takes an internal lock, and workers that
keep private counters hand them back through :meth:`merge`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

#: The counter fields, in export order (trace spans mirror them).
COUNTER_FIELDS = (
    "full_scans",
    "tuples_read",
    "tuples_written",
    "bytes_read",
    "bytes_written",
    "spill_files",
)


@dataclass
class IOStats:
    """Mutable, thread-safe counters for one experiment run.

    Attributes:
        full_scans: completed sequential scans over a primary table.
        tuples_read / tuples_written: record-level traffic, all files.
        bytes_read / bytes_written: byte-level traffic, all files.
        spill_files: temporary files created (S_n and family spills).
    """

    full_scans: int = 0
    tuples_read: int = 0
    tuples_written: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    spill_files: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def record_read(self, tuples: int, nbytes: int) -> None:
        with self._lock:
            self.tuples_read += tuples
            self.bytes_read += nbytes

    def record_write(self, tuples: int, nbytes: int) -> None:
        with self._lock:
            self.tuples_written += tuples
            self.bytes_written += nbytes

    def record_full_scan(self) -> None:
        with self._lock:
            self.full_scans += 1

    def record_spill_file(self) -> None:
        with self._lock:
            self.spill_files += 1

    def snapshot(self) -> "IOStats":
        """An independent, atomically consistent copy of the counters."""
        with self._lock:
            return IOStats(
                full_scans=self.full_scans,
                tuples_read=self.tuples_read,
                tuples_written=self.tuples_written,
                bytes_read=self.bytes_read,
                bytes_written=self.bytes_written,
                spill_files=self.spill_files,
            )

    def delta_since(self, earlier: "IOStats") -> "IOStats":
        """Counters accumulated since ``earlier`` (a prior snapshot).

        Both sides are snapshotted under their own locks: ``earlier`` may
        be a *live* instance (e.g. a worker's private counters still being
        charged), and reading its six fields without the lock could
        interleave with a concurrent ``record_read`` and yield a torn
        delta — tuples from before the update, bytes from after.  Span
        boundaries take deltas exactly while workers run, so this path is
        the one that would hit it.
        """
        current = self.snapshot()
        earlier = earlier.snapshot()
        return IOStats(
            full_scans=current.full_scans - earlier.full_scans,
            tuples_read=current.tuples_read - earlier.tuples_read,
            tuples_written=current.tuples_written - earlier.tuples_written,
            bytes_read=current.bytes_read - earlier.bytes_read,
            bytes_written=current.bytes_written - earlier.bytes_written,
            spill_files=current.spill_files - earlier.spill_files,
        )

    def merge(self, other: "IOStats") -> None:
        """Add another instance's counters into this one atomically.

        The parallel cleanup scan gives each worker task a private
        :class:`IOStats`, then merges them into the experiment's shared
        instance in deterministic task order.
        """
        if other is self:
            raise ValueError("cannot merge an IOStats into itself")
        delta = other.snapshot()
        with self._lock:
            self.full_scans += delta.full_scans
            self.tuples_read += delta.tuples_read
            self.tuples_written += delta.tuples_written
            self.bytes_read += delta.bytes_read
            self.bytes_written += delta.bytes_written
            self.spill_files += delta.spill_files

    def reset(self) -> None:
        """Zero every counter in place."""
        with self._lock:
            self.full_scans = 0
            self.tuples_read = 0
            self.tuples_written = 0
            self.bytes_read = 0
            self.bytes_written = 0
            self.spill_files = 0

    def __getstate__(self) -> dict:
        # Locks cannot cross process boundaries; pickle the counters only.
        snap = self.snapshot()
        return {name: getattr(snap, name) for name in COUNTER_FIELDS}

    def __setstate__(self, state: dict) -> None:
        for name in COUNTER_FIELDS:
            setattr(self, name, state[name])
        self._lock = threading.Lock()

    def as_dict(self) -> dict[str, int]:
        """An atomically consistent ``{counter: value}`` mapping."""
        snap = self.snapshot()
        return {name: getattr(snap, name) for name in COUNTER_FIELDS}

    def __str__(self) -> str:
        # One consistent snapshot, not six racy field reads.
        snap = self.snapshot()
        return (
            f"scans={snap.full_scans} "
            f"read={snap.tuples_read}t/{snap.bytes_read}B "
            f"written={snap.tuples_written}t/{snap.bytes_written}B "
            f"spills={snap.spill_files}"
        )
