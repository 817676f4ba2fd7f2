"""SQL-backed training tables: BOAT where the data already lives.

The paper's warehouse scenario (§1, §7) assumes the training database is
*computed*, not materialized — and in practice it is computed by a DBMS.
:class:`SqlTable` implements the full :class:`~repro.storage.table.Table`
contract over a relational table (stdlib ``sqlite3`` by default, with a
narrow :class:`SqlDialect` seam for other engines), so every driver in
the repo — flat, checkpointed, retried, QUEST — trains straight out of
the database.  :meth:`SqlTable.from_query` goes further: the "table" is
an arbitrary ``SELECT`` (e.g. a star join), never materialized; BOAT
executes it exactly twice.

Scan semantics match the other backends byte for byte:

* Rows are ordered by an explicit ``ORDER BY`` key (``rowid`` for owned
  tables) so row *i* is stable across scans; ``start_row``/``stop_row``
  become ``LIMIT``/``OFFSET``, so partial scans read only the requested
  interval at the source.
* I/O charging is honest: each emitted batch bills its decoded byte
  width, a scan covering the whole table ticks ``record_full_scan()``,
  and partial scans never do.
* Value canonicalization is the storage engine's, not ours: sqlite has
  no NaN (``NaN`` binds as ``NULL`` and is decoded back to the canonical
  ``float64`` NaN) and stores ``-0.0`` as ``0.0``.  Round-tripping
  through :meth:`append` therefore canonicalizes those two values;
  everything else (±inf included) is bit-exact.  See docs/SQL.md.

The pushdown path (:mod:`repro.core.sql_pushdown` +
:class:`repro.kernels.sql.SqlAggregations`) builds on the accessors this
class exposes (``connection``/``source_sql``/``order_sql``/
``select_columns_sql``/``decode_rows``) to run the cleanup scan's
statistics as grouped aggregation queries inside the DBMS.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import SchemaError, StorageError, TableClosedError
from .io_stats import IOStats
from .schema import CLASS_COLUMN, Attribute, Schema
from .table import DEFAULT_BATCH_ROWS, Table

#: Table holding one schema-JSON row per BOAT training table in the file.
_META_TABLE = "boat_schema"

#: Identifiers sqlite implicitly defines on every rowid table; a training
#: attribute with one of these names would shadow the scan-order key.
_RESERVED_COLUMNS = frozenset({"rowid", "oid", "_rowid_"})


class SqlDialect:
    """What the backend needs from a SQL engine — deliberately narrow.

    The base class is the portable core (``?`` placeholders, double-quoted
    identifiers, ANSI types); engine subclasses override only what
    differs.  :class:`SqliteDialect` is the stdlib default and the only
    engine registered here.
    """

    name = "ansi"
    #: DB-API parameter placeholder.
    placeholder = "?"
    #: Exception types the engine raises; translated to StorageError.
    error_types: tuple[type[BaseException], ...] = ()

    def connect(self, path: str):
        raise StorageError(f"dialect {self.name!r} cannot open files")

    def quote(self, identifier: str) -> str:
        return '"' + identifier.replace('"', '""') + '"'

    def column_type(self, attribute: Attribute | None) -> str:
        """SQL type for an attribute (``None`` = the class label)."""
        if attribute is not None and attribute.is_numerical:
            return "DOUBLE PRECISION"
        return "INTEGER"

    def upsert_schema_sql(self, meta_table: str) -> str:
        """Statement storing (table_name, schema_json), replacing on key."""
        raise StorageError(f"dialect {self.name!r} cannot store schemas")


class SqliteDialect(SqlDialect):
    """The stdlib engine: zero new dependencies, files or ``:memory:``."""

    name = "sqlite"
    error_types = (sqlite3.Error,)

    def connect(self, path: str):
        # check_same_thread=False: scans may be driven from worker pools;
        # the backend serializes access through one cursor per scan.
        return sqlite3.connect(path, check_same_thread=False)

    def column_type(self, attribute: Attribute | None) -> str:
        if attribute is not None and attribute.is_numerical:
            return "REAL"
        return "INTEGER"

    def upsert_schema_sql(self, meta_table: str) -> str:
        return (
            f"INSERT OR REPLACE INTO {self.quote(meta_table)} "
            "(table_name, schema_json) VALUES (?, ?)"
        )


_DIALECTS: dict[str, type[SqlDialect]] = {
    "sqlite": SqliteDialect,
}


def get_dialect(name: str | SqlDialect) -> SqlDialect:
    """Resolve a dialect by name (or pass an instance through)."""
    if isinstance(name, SqlDialect):
        return name
    try:
        return _DIALECTS[name]()
    except KeyError:
        raise StorageError(
            f"unknown SQL dialect {name!r}; known: {sorted(_DIALECTS)}"
        ) from None


class SqlTable(Table):
    """A :class:`Table` whose rows live in a relational database.

    Construct via :meth:`create` (new training table), :meth:`open`
    (existing one, schema read back from the ``boat_schema`` metadata
    table) or :meth:`from_query` (read-only over an arbitrary ``SELECT``
    — the non-materialized path).  The first argument of create/open is
    a database path (opened via the dialect, closed with the table) or
    an already-open DB-API connection (left open).
    """

    scan_supports_start_row = True
    scan_supports_stop_row = True

    def __init__(
        self,
        connection,
        schema: Schema,
        *,
        dialect: SqlDialect,
        source_sql: str,
        order_sql: str,
        io_stats: IOStats | None = None,
        owns_connection: bool = False,
        table_name: str | None = None,
    ):
        super().__init__(schema, io_stats)
        self._conn = connection
        self._dialect = dialect
        self._source_sql = source_sql
        self._order_sql = order_sql
        self._owns_connection = owns_connection
        self._table_name = table_name
        self._closed = False
        self._fields = [a.name for a in schema.attributes] + [CLASS_COLUMN]
        self._select_sql = ", ".join(dialect.quote(f) for f in self._fields)
        self._numeric = [
            i for i, a in enumerate(schema.attributes) if a.is_numerical
        ]
        # Owned tables cache the row count (appends keep it current);
        # query-backed tables re-count, since the query's inputs may grow.
        self._n_rows: int | None = None
        if table_name is not None:
            self._n_rows = self._count()

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        database,
        schema: Schema,
        name: str = "training",
        io_stats: IOStats | None = None,
        dialect: str | SqlDialect = "sqlite",
    ) -> "SqlTable":
        """Create (or replace) a training table and store its schema."""
        resolved = get_dialect(dialect)
        for attr_name in [a.name for a in schema.attributes] + [CLASS_COLUMN]:
            if attr_name.lower() in _RESERVED_COLUMNS:
                raise SchemaError(
                    f"attribute name {attr_name!r} is reserved by the SQL "
                    "backend (it aliases the scan-order rowid)"
                )
        conn, owns = cls._connect(database, resolved)
        try:
            q = resolved.quote
            cols = ", ".join(
                f"{q(a.name)} {resolved.column_type(a)}"
                for a in schema.attributes
            )
            cols += f", {q(CLASS_COLUMN)} {resolved.column_type(None)}"
            conn.execute(
                f"CREATE TABLE IF NOT EXISTS {q(_META_TABLE)} "
                "(table_name TEXT PRIMARY KEY, schema_json TEXT NOT NULL)"
            )
            conn.execute(f"DROP TABLE IF EXISTS {q(name)}")
            conn.execute(f"CREATE TABLE {q(name)} ({cols})")
            conn.execute(
                resolved.upsert_schema_sql(_META_TABLE),
                (name, schema.to_json()),
            )
            conn.commit()
        except resolved.error_types as exc:
            if owns:
                conn.close()
            raise StorageError(f"cannot create SQL table {name!r}: {exc}") from exc
        return cls(
            conn,
            schema,
            dialect=resolved,
            source_sql=resolved.quote(name),
            order_sql="rowid",
            io_stats=io_stats,
            owns_connection=owns,
            table_name=name,
        )

    @classmethod
    def open(
        cls,
        database,
        name: str = "training",
        io_stats: IOStats | None = None,
        dialect: str | SqlDialect = "sqlite",
    ) -> "SqlTable":
        """Open an existing training table; the schema round-trips back."""
        resolved = get_dialect(dialect)
        conn, owns = cls._connect(database, resolved)
        q = resolved.quote
        try:
            row = conn.execute(
                f"SELECT schema_json FROM {q(_META_TABLE)} "
                "WHERE table_name = " + resolved.placeholder,
                (name,),
            ).fetchone()
        except resolved.error_types as exc:
            if owns:
                conn.close()
            raise StorageError(
                f"not a BOAT SQL database (no {_META_TABLE!r} table): {exc}"
            ) from exc
        if row is None:
            if owns:
                conn.close()
            raise StorageError(f"no BOAT training table {name!r} in database")
        return cls(
            conn,
            Schema.from_json(row[0]),
            dialect=resolved,
            source_sql=q(name),
            order_sql="rowid",
            io_stats=io_stats,
            owns_connection=owns,
            table_name=name,
        )

    @classmethod
    def from_query(
        cls,
        connection,
        select_sql: str,
        schema: Schema,
        order_sql: str,
        io_stats: IOStats | None = None,
        dialect: str | SqlDialect = "sqlite",
    ) -> "SqlTable":
        """A read-only table over an arbitrary ``SELECT`` — never materialized.

        ``select_sql`` must produce every schema column (class label
        included) plus whatever ``order_sql`` references; ``order_sql``
        must be a deterministic total order so row *i* is stable across
        scans (the BOAT guarantee depends on it).  Every scan re-executes
        the query — the honest cost of not materializing.
        """
        resolved = get_dialect(dialect)
        return cls(
            connection,
            schema,
            dialect=resolved,
            source_sql=f"({select_sql})",
            order_sql=order_sql,
            io_stats=io_stats,
            owns_connection=False,
            table_name=None,
        )

    @staticmethod
    def _connect(database, dialect: SqlDialect):
        if isinstance(database, (str, os.PathLike)):
            return dialect.connect(os.fspath(database)), True
        return database, False

    # -- pushdown accessors ------------------------------------------------

    @property
    def connection(self):
        """The underlying DB-API connection (pushdown queries use it)."""
        return self._conn

    @property
    def dialect(self) -> SqlDialect:
        return self._dialect

    @property
    def source_sql(self) -> str:
        """FROM-clause source: a quoted table name or a subquery."""
        return self._source_sql

    @property
    def order_sql(self) -> str:
        """ORDER BY key defining the scan's row order."""
        return self._order_sql

    @property
    def select_columns_sql(self) -> str:
        """Comma-joined quoted schema columns, in record order."""
        return self._select_sql

    def execute(self, sql: str, params: Sequence = ()):
        """Run a statement, translating engine errors to StorageError."""
        self._check_open()
        try:
            return self._conn.execute(sql, tuple(params))
        except self._dialect.error_types as exc:
            raise StorageError(f"SQL scan failed: {exc}") from exc

    def decode_rows(self, rows: list, fields: list[str] | None = None) -> np.ndarray:
        """Decode DB-API rows (column order = ``fields``) to a record batch.

        ``None`` values in numerical columns decode to NaN (sqlite stores
        NaN as NULL).  Unlisted fields are zero-filled; the returned array
        always has the schema's full record dtype.
        """
        fields = self._fields if fields is None else fields
        out = np.zeros(len(rows), dtype=self._schema.dtype())
        for j, name in enumerate(fields):
            column = [row[j] for row in rows]
            if any(v is None for v in column):
                out[name] = [np.nan if v is None else v for v in column]
            else:
                out[name] = column
        return out

    # -- Table contract ----------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise TableClosedError("SqlTable is closed")

    def _count(self) -> int:
        cur = self.execute(f"SELECT COUNT(*) FROM {self._source_sql}")
        try:
            return int(cur.fetchone()[0])
        finally:
            cur.close()

    def __len__(self) -> int:
        self._check_open()
        if self._n_rows is not None:
            return self._n_rows
        return self._count()

    def append(self, batch: np.ndarray) -> None:
        self._check_open()
        if self._table_name is None:
            raise StorageError(
                "query-backed SqlTable is read-only; append to the "
                "underlying tables instead"
            )
        self._schema.validate_batch(batch)
        if len(batch) == 0:
            return
        placeholders = ", ".join([self._dialect.placeholder] * len(self._fields))
        sql = (
            f"INSERT INTO {self._source_sql} ({self._select_sql}) "
            f"VALUES ({placeholders})"
        )
        try:
            # tolist() yields python scalars; NaN binds as NULL in sqlite.
            self._conn.executemany(sql, batch.tolist())
            self._conn.commit()
        except self._dialect.error_types as exc:
            raise StorageError(f"SQL append failed: {exc}") from exc
        self._n_rows += len(batch)
        if self._io_stats is not None:
            self._io_stats.record_write(len(batch), batch.nbytes)

    def scan(
        self,
        batch_rows: int = DEFAULT_BATCH_ROWS,
        start_row: int = 0,
        stop_row: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Ordered scan of rows ``[start_row, stop_row)`` via LIMIT/OFFSET.

        One query per scan; batches materialize ``batch_rows`` rows at a
        time via ``fetchmany``.  Only emitted rows are read and charged;
        a scan covering the whole table counts as one full scan.
        """
        yield from self._scan_fields(None, batch_rows, start_row, stop_row)

    def scan_columns(
        self,
        columns: list[str],
        batch_rows: int = DEFAULT_BATCH_ROWS,
        start_row: int = 0,
        stop_row: int | None = None,
    ) -> Iterator[np.ndarray]:
        """Projection scan: only the projected columns are selected.

        The database reads just the requested columns (plus the class
        label), and only their bytes are charged — the SQL analogue of
        RF-Vertical's per-attribute projection files.
        """
        fields = self._projection_fields(columns)
        yield from self._scan_fields(fields, batch_rows, start_row, stop_row)

    def _scan_fields(
        self,
        fields: list[str] | None,
        batch_rows: int,
        start_row: int,
        stop_row: int | None,
    ) -> Iterator[np.ndarray]:
        self._check_open()
        if batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        if start_row < 0:
            raise ValueError("start_row must be >= 0")
        rows_at_start = len(self)
        limit = (
            rows_at_start if stop_row is None else min(stop_row, rows_at_start)
        )
        remaining = max(limit - start_row, 0)
        select = (
            self._select_sql
            if fields is None
            else ", ".join(self._dialect.quote(f) for f in fields)
        )
        if fields is None:
            row_nbytes = self._schema.dtype().itemsize
        else:
            dtype = self._schema.dtype()
            row_nbytes = sum(dtype[name].itemsize for name in fields)
        if remaining:
            cursor = self.execute(
                f"SELECT {select} FROM {self._source_sql} "
                f"ORDER BY {self._order_sql} "
                f"LIMIT {self._dialect.placeholder} "
                f"OFFSET {self._dialect.placeholder}",
                (remaining, start_row),
            )
            try:
                while True:
                    rows = cursor.fetchmany(batch_rows)
                    if not rows:
                        break
                    batch = self.decode_rows(rows, fields)
                    if self._io_stats is not None:
                        self._io_stats.record_read(
                            len(rows), len(rows) * row_nbytes
                        )
                    yield batch if fields is None else batch[fields]
            finally:
                cursor.close()
        if (
            self._io_stats is not None
            and start_row == 0
            and limit == rows_at_start
        ):
            self._io_stats.record_full_scan()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_connection:
            self._conn.close()
