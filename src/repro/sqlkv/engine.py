"""Execution of parsed SQL statements against a key–value Client.

The translation is the one the paper attributes to MonkeyDB (§6): each row
lives under the key ``table:pk1[:pk2...]``, stored as a column dict. A point
``SELECT`` compiles to one ``get``; an ``UPDATE`` compiles to ``get`` +
``put`` (a transactional read-modify-write); ``INSERT`` compiles to ``put``;
``DELETE`` writes a tombstone.

Statements are parsed through one process-wide plan cache
(:func:`repro.sqlkv.parser.parse` is memoised by statement text), so the
engines of every session, recording and validation replay share their
plans instead of re-lexing the same statements.
"""
from __future__ import annotations

from typing import Optional, Sequence

from ..store.client import Client
from .ast_nodes import (
    BinaryOp,
    ColumnRef,
    Condition,
    CreateTable,
    Delete,
    Expr,
    Insert,
    Literal,
    Param,
    Select,
    Update,
)
from .errors import SqlRuntimeError
from .parser import parse

__all__ = ["SqlEngine", "Row", "TOMBSTONE", "build_schemas", "row_key"]

Row = dict[str, object]

# Deleted rows leave a tombstone so deletion is itself a recorded write.
TOMBSTONE = "__deleted__"


class _Schema:
    def __init__(self, stmt: CreateTable):
        self.table = stmt.table
        self.columns = stmt.columns
        self.primary_key = stmt.primary_key

    def key_for(self, row: Row) -> str:
        try:
            parts = [str(row[c]) for c in self.primary_key]
        except KeyError as missing:
            raise SqlRuntimeError(
                f"{self.table}: missing primary key column {missing}"
            ) from None
        return ":".join([self.table, *parts])


def build_schemas(ddl_statements: list[str]) -> dict[str, "_Schema"]:
    """Parse CREATE TABLE statements into a shareable schema registry.

    Benchmark apps build their schemas once and hand the registry to every
    session's engine, mirroring MonkeyDB's out-of-band DDL.
    """
    schemas: dict[str, _Schema] = {}
    for ddl in ddl_statements:
        stmt = parse(ddl)
        if not isinstance(stmt, CreateTable):
            raise SqlRuntimeError(f"expected CREATE TABLE, got: {ddl!r}")
        schemas[stmt.table] = _Schema(stmt)
    return schemas


def row_key(table: str, *pk_parts: object) -> str:
    """The KV key of a row, e.g. ``row_key('district', 1, 2) == 'district:1:2'``."""
    return ":".join([table, *(str(p) for p in pk_parts)])


class SqlEngine:
    """Executes the SQL subset against one session's :class:`Client`.

    Schemas (CREATE TABLE) are engine-local metadata: they generate no store
    operations, matching MonkeyDB where DDL happens before the recorded run.
    Schemas can be shared across engines via the ``schemas`` argument.
    """

    def __init__(
        self,
        client: Client,
        schemas: Optional[dict[str, _Schema]] = None,
    ):
        self.client = client
        self._schemas: dict[str, _Schema] = (
            schemas if schemas is not None else {}
        )

    # ------------------------------------------------------------------
    @property
    def schemas(self) -> dict[str, _Schema]:
        return self._schemas

    def _schema(self, table: str) -> _Schema:
        try:
            return self._schemas[table]
        except KeyError:
            raise SqlRuntimeError(f"unknown table {table!r}") from None

    # ------------------------------------------------------------------
    def execute(
        self, sql: str, params: Sequence[object] = ()
    ) -> list[Row]:
        """Execute one statement; returns result rows (SELECT) or [].

        Each statement is one scheduling unit (``client.statement()``): its
        internal KV operations never interleave with other sessions,
        modelling per-statement row locking in real stores.
        """
        stmt = parse(sql)
        if isinstance(stmt, CreateTable):
            self._schemas[stmt.table] = _Schema(stmt)
            return []
        with self.client.statement():
            if isinstance(stmt, Insert):
                return self._run_insert(stmt, params)
            if isinstance(stmt, Select):
                return self._run_select(stmt, params)
            if isinstance(stmt, Update):
                return self._run_update(stmt, params)
            if isinstance(stmt, Delete):
                return self._run_delete(stmt, params)
        raise SqlRuntimeError(f"cannot execute {type(stmt).__name__}")

    # convenience aliases matching DB driver conventions
    def query_one(
        self, sql: str, params: Sequence[object] = ()
    ) -> Optional[Row]:
        rows = self.execute(sql, params)
        return rows[0] if rows else None

    # ------------------------------------------------------------------
    def _eval(
        self, expr: Expr, params: Sequence[object], row: Optional[Row]
    ) -> object:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, Param):
            try:
                return params[expr.index]
            except IndexError:
                raise SqlRuntimeError(
                    f"statement needs parameter #{expr.index + 1}, "
                    f"got {len(params)}"
                ) from None
        if isinstance(expr, ColumnRef):
            if row is None:
                raise SqlRuntimeError(
                    f"column {expr.name!r} not available in this context"
                )
            try:
                return row[expr.name]
            except KeyError:
                raise SqlRuntimeError(
                    f"unknown column {expr.name!r}"
                ) from None
        if isinstance(expr, BinaryOp):
            left = self._eval(expr.left, params, row)
            right = self._eval(expr.right, params, row)
            ops = {
                "+": lambda a, b: a + b,
                "-": lambda a, b: a - b,
                "*": lambda a, b: a * b,
                "/": lambda a, b: a / b,
            }
            return ops[expr.op](left, right)
        raise SqlRuntimeError(f"cannot evaluate {expr!r}")

    def _key_from_where(
        self,
        schema: _Schema,
        where: tuple[Condition, ...],
        params: Sequence[object],
    ) -> tuple[str, dict[str, object]]:
        """Resolve a WHERE conjunction into a row key plus residual filters."""
        bound: dict[str, object] = {}
        for cond in where:
            bound[cond.column] = self._eval(cond.value, params, None)
        missing = [c for c in schema.primary_key if c not in bound]
        if missing:
            raise SqlRuntimeError(
                f"{schema.table}: WHERE must bind the full primary key; "
                f"missing {missing} (the KV translation does point lookups)"
            )
        key = ":".join(
            [schema.table, *(str(bound[c]) for c in schema.primary_key)]
        )
        residual = {
            c: v for c, v in bound.items() if c not in schema.primary_key
        }
        return key, residual

    # ------------------------------------------------------------------
    def _run_insert(self, stmt: Insert, params: Sequence[object]) -> list[Row]:
        schema = self._schema(stmt.table)
        row: Row = {}
        for col, expr in zip(stmt.columns, stmt.values):
            if col not in schema.columns:
                raise SqlRuntimeError(
                    f"{stmt.table}: unknown column {col!r}"
                )
            row[col] = self._eval(expr, params, None)
        key = schema.key_for(row)
        self.client.put(key, row)
        return []

    def _load(self, key: str) -> Optional[Row]:
        value = self.client.get(key)
        if value is None or value == TOMBSTONE:
            return None
        if not isinstance(value, dict):
            raise SqlRuntimeError(f"key {key!r} does not hold a row")
        return dict(value)

    def _run_select(self, stmt: Select, params: Sequence[object]) -> list[Row]:
        schema = self._schema(stmt.table)
        key, residual = self._key_from_where(schema, stmt.where, params)
        row = self._load(key)
        if row is None:
            return []
        for col, expected in residual.items():
            if row.get(col) != expected:
                return []
        if stmt.columns:
            projected = {}
            for col in stmt.columns:
                if col not in row:
                    raise SqlRuntimeError(
                        f"{stmt.table}: unknown column {col!r}"
                    )
                projected[col] = row[col]
            return [projected]
        return [row]

    def _run_update(self, stmt: Update, params: Sequence[object]) -> list[Row]:
        schema = self._schema(stmt.table)
        key, residual = self._key_from_where(schema, stmt.where, params)
        row = self._load(key)
        if row is None:
            return []
        for col, expected in residual.items():
            if row.get(col) != expected:
                return []
        for col, expr in stmt.assignments:
            if col in schema.primary_key:
                raise SqlRuntimeError(
                    f"{stmt.table}: cannot update primary key column {col!r}"
                )
            row[col] = self._eval(expr, params, row)
        self.client.put(key, row)
        return []

    def _run_delete(self, stmt: Delete, params: Sequence[object]) -> list[Row]:
        schema = self._schema(stmt.table)
        key, _ = self._key_from_where(schema, stmt.where, params)
        self.client.put(key, TOMBSTONE)
        return []
