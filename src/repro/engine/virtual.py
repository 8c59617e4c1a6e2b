"""Virtual (computed) tables: the engine side of ``sys.*`` introspection.

A :class:`VirtualTableProvider` names a table, declares its schema and
materializes its current rows on demand; :class:`VirtualTable` adapts a
provider to the surface the planner, optimizer and executor already
expect from a stored :class:`~repro.engine.storage.Table` (``schema``,
``num_rows``, ``scan_column``).  The catalog resolves registered
virtual tables by name exactly like base tables, so joins, ORDER BY,
aggregation — the whole dialect — work unchanged over them.

Two properties matter for correctness:

* **Snapshot consistency** — the backing state (statement store,
  metrics registry, pool profiler) mutates concurrently, so one scan
  must observe one point in time.  The executor scans a virtual table
  through :meth:`VirtualTable.snapshot`, which materializes *all*
  columns from a single ``rows()`` call; per-column ``scan_column``
  also snapshots per call for ad-hoc consumers.
* **Read-only** — virtual tables reject DML and index creation; their
  contents are derived state.
"""

from __future__ import annotations

from typing import Optional

from .batch import Batch
from .errors import ExecutionError
from .types import TableSchema
from .vector import Vector


class VirtualTableProvider:
    """Names a virtual table and materializes its rows.

    Subclasses set ``name`` (the qualified table name, e.g.
    ``"sys.statements"``) and ``schema`` (a :class:`TableSchema` whose
    column order matches the tuples yielded by :meth:`rows`)."""

    name: str
    schema: TableSchema

    def __init__(self, name: str, schema: TableSchema, rows_fn=None):
        self.name = name
        self.schema = schema
        self._rows_fn = rows_fn

    def rows(self) -> list[tuple]:
        """The table's current rows, ordered per ``schema.columns``.
        Must be deterministic for a fixed backing state."""
        if self._rows_fn is None:  # pragma: no cover - abstract default
            raise NotImplementedError
        return self._rows_fn()


class VirtualTable:
    """Adapter presenting a provider as a scannable read-only table."""

    def __init__(self, provider: VirtualTableProvider):
        self.provider = provider
        self.schema = provider.schema
        self.name = provider.name

    # -- the surface the planner/optimizer/executor consume ----------------

    @property
    def num_rows(self) -> int:
        return len(self.provider.rows())

    def scan_column(self, name: str) -> Vector:
        """One column, from a fresh snapshot.  The executor prefers
        :meth:`snapshot` (all columns from one materialization); this
        exists for ad-hoc per-column consumers and tests."""
        return self._columns(self.provider.rows())[name]

    def snapshot(self, binding: Optional[str] = None) -> Batch:
        """All columns materialized atomically from one ``rows()``
        call; column names are prefixed with ``binding`` when given
        (the executor's scan contract)."""
        columns = self._columns(self.provider.rows())
        prefix = f"{binding}." if binding else ""
        return Batch({f"{prefix}{name}": vec for name, vec in columns.items()})

    def _columns(self, rows: list[tuple]) -> dict[str, Vector]:
        columns: dict[str, Vector] = {}
        for i, column in enumerate(self.schema.columns):
            values = [row[i] for row in rows]
            columns[column.name] = Vector.from_values(column.kind, values)
        return columns

    # -- mutation surface: always refused ----------------------------------

    def _read_only(self, *_args, **_kwargs):
        raise ExecutionError(f"system table {self.name} is read-only")

    append_rows = _read_only
    append_columns = _read_only
    delete_where = _read_only
    update_rows = _read_only
