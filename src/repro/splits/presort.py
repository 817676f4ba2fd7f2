"""A family held column-wise, each numeric attribute sorted once (SLIQ/SPRINT).

The in-memory builder used to re-sort every numeric attribute at every
node and copy whole structured rows into each child.  A
:class:`PresortedFamily` instead keeps

* ``columns`` / ``labels`` — field *views* of the structured array (no
  copies),
* ``rows`` — row ids in original order, and
* ``orders[i]`` — row ids of numeric attribute ``i`` in stable ascending
  value order (NaN last), sorted once for the whole family.

Each tree node owns one segment ``[lo, hi)`` of every buffer.  Splitting
a node stably partitions each segment in place into ``[lo, mid)`` (left)
and ``[mid, hi)`` (right).  Stability is what makes this exact: a
segment of ``orders[i]`` is ordered by (value, row id), and so is a
fresh stable argsort of the child family, because ``rows`` stays in
original order.
"""

from __future__ import annotations

import numpy as np

from ..storage import CLASS_COLUMN, Schema


def sample_positions(n: int, k: int) -> np.ndarray:
    """``k`` positions spread evenly over ``n``: ``(arange(k) * n) // k``."""
    return (np.arange(k, dtype=np.int64) * n) // k


class PresortedFamily:
    """Column views plus per-node segments of row-id buffers.

    Args:
        family: the structured array (kept alive by the column views).
        schema: its schema.
        presort: sort the numeric attributes; a builder whose split method
            has no presorted search only needs ``rows``.
    """

    def __init__(self, family: np.ndarray, schema: Schema, presort: bool = True):
        n = len(family)
        index = np.int32 if n < 2**31 else np.int64
        self.family = family
        self.schema = schema
        self.labels = family[CLASS_COLUMN]
        self.columns = [family[attr.name] for attr in schema.attributes]
        self.rows = np.arange(n, dtype=index)
        self.orders: dict[int, np.ndarray] = {}
        if presort:
            for i, attr in enumerate(schema.attributes):
                if attr.is_numerical:
                    order = np.argsort(self.columns[i], kind="stable")
                    self.orders[i] = order.astype(index, copy=False)
        # Row-id-indexed scratch mark: go-left flags while partitioning,
        # subsample membership while searching.
        self._mark = np.zeros(n, dtype=bool)

    def search_rows(
        self, lo: int, hi: int, sample_rows: int | None = None
    ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
        """The node rows a split search runs on, and their sorted orders.

        Returns ``(rows, orders)``: row ids in original order, and per
        numeric attribute the same rows in stable value order.

        ``sample_rows = k < hi - lo`` (``SplitConfig.split_sample_rows``)
        restricts both to a deterministic stride subsample: the node rows
        at :func:`sample_positions`.  It is a pure function of the family
        (no RNG to thread), and every picked row is a node member, so an
        admissible subsample split leaves both children non-empty and
        recursion still terminates.  Each sorted segment is filtered by
        membership, which equals a fresh stable argsort of the subsample.
        """
        rows = self.rows[lo:hi]
        n = hi - lo
        if sample_rows is None or n <= sample_rows:
            return rows, {i: order[lo:hi] for i, order in self.orders.items()}
        picked = rows[sample_positions(n, sample_rows)]
        mark = self._mark
        mark[rows] = False
        mark[picked] = True
        orders = {}
        for i, order in self.orders.items():
            segment = order[lo:hi]
            orders[i] = segment[mark[segment]]
        return picked, orders

    def partition(self, lo: int, hi: int, go_left: np.ndarray) -> int:
        """Stably partition segment ``[lo, hi)`` of every buffer; returns mid.

        ``go_left`` is aligned with ``rows[lo:hi]``.
        """
        segment = self.rows[lo:hi]
        if self.orders:
            mark = self._mark
            mark[segment] = go_left
            for order in self.orders.values():
                sorted_segment = order[lo:hi]
                _stable_partition(sorted_segment, mark[sorted_segment])
        return lo + _stable_partition(segment, go_left)


def _stable_partition(segment: np.ndarray, go_left: np.ndarray) -> int:
    """Move ``segment[go_left]`` to the front in place, both sides in order.

    Returns the size of the front (left) part.
    """
    right = segment[~go_left]
    n_left = len(segment) - len(right)
    segment[:n_left] = segment[go_left]
    segment[n_left:] = right
    return n_left
