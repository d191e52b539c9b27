"""SQL data types and value coercion.

A :class:`SqlType` is carried on every column and routine parameter.
The engine is permissive in the way embedded engines usually are (it
stores Python values), but coercion at assignment boundaries applies
CHAR padding/truncation rules and DATE parsing so the transformed
PSM behaves like it would on a real DBMS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from repro.sqlengine.errors import TypeError_
from repro.sqlengine.values import Date, Null

_NUMERIC_NAMES = frozenset(
    {"INTEGER", "INT", "SMALLINT", "BIGINT", "DECIMAL", "NUMERIC", "FLOAT",
     "REAL", "DOUBLE"}
)
_CHAR_NAMES = frozenset({"CHAR", "CHARACTER", "VARCHAR"})
_INTEGER_NAMES = frozenset({"INTEGER", "INT", "SMALLINT", "BIGINT"})


@dataclass(frozen=True)
class SqlType:
    """A resolved SQL type: name plus optional length / precision / scale."""

    name: str
    length: Optional[int] = None
    precision: Optional[int] = None
    scale: Optional[int] = None

    @property
    def is_numeric(self) -> bool:
        return self.name in _NUMERIC_NAMES

    @property
    def is_integer(self) -> bool:
        return self.name in _INTEGER_NAMES

    @property
    def is_character(self) -> bool:
        return self.name in _CHAR_NAMES

    @property
    def is_date(self) -> bool:
        return self.name == "DATE"

    @property
    def is_boolean(self) -> bool:
        return self.name == "BOOLEAN"

    def to_sql(self) -> str:
        """Render this type back to SQL text."""
        if self.name in ("CHAR", "CHARACTER", "VARCHAR") and self.length:
            return f"{self.name}({self.length})"
        if self.name in ("DECIMAL", "NUMERIC") and self.precision is not None:
            if self.scale is not None:
                return f"{self.name}({self.precision}, {self.scale})"
            return f"{self.name}({self.precision})"
        return self.name

    def __str__(self) -> str:
        return self.to_sql()


INTEGER = SqlType("INTEGER")
FLOAT = SqlType("FLOAT")
BOOLEAN = SqlType("BOOLEAN")
DATE = SqlType("DATE")


def char(length: int) -> SqlType:
    return SqlType("CHAR", length=length)


def varchar(length: int) -> SqlType:
    return SqlType("VARCHAR", length=length)


def decimal(precision: int, scale: int = 0) -> SqlType:
    return SqlType("DECIMAL", precision=precision, scale=scale)


def coerce(value: Any, target: SqlType) -> Any:
    """Coerce ``value`` to ``target`` at an assignment boundary.

    NULL passes through every type.  Raises :class:`TypeError_` when the
    value cannot represent the target type.
    """
    if value is Null:
        return Null
    if target.is_character:
        return _coerce_character(value, target)
    if target.is_numeric:
        return _coerce_numeric(value, target)
    if target.is_date:
        return _coerce_date(value)
    if target.is_boolean:
        if isinstance(value, bool):
            return value
        raise TypeError_(f"cannot coerce {value!r} to BOOLEAN")
    return value


def _coerce_character(value: Any, target: SqlType) -> str:
    if isinstance(value, str):
        text = value
    elif isinstance(value, bool):
        text = "TRUE" if value else "FALSE"
    elif isinstance(value, (int, float)):
        text = str(value)
    elif isinstance(value, Date):
        text = value.to_iso()
    else:
        raise TypeError_(f"cannot coerce {value!r} to {target}")
    if target.length is not None and len(text) > target.length:
        overflow = text[target.length:]
        if overflow.strip():
            # real data loss: VARCHAR raises; CHAR truncates blanks only,
            # so non-blank loss raises there too
            raise TypeError_(
                f"value {text!r} too long for {target.to_sql()}"
            )
        text = text[: target.length]
    return text


def _coerce_numeric(value: Any, target: SqlType) -> Any:
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        return value if target.is_integer else float(value) if target.name in ("FLOAT", "REAL", "DOUBLE") else value
    if isinstance(value, float):
        if target.is_integer:
            # NaN and ±inf first: int() raises a Python error on them
            if not math.isfinite(value) or value != int(value):
                raise TypeError_(f"cannot coerce non-integral {value!r} to {target}")
            return int(value)
        return value
    if isinstance(value, str):
        text = value.strip()
        try:
            return int(text) if target.is_integer else float(text)
        except ValueError as exc:
            raise TypeError_(f"cannot coerce {value!r} to {target}") from exc
    raise TypeError_(f"cannot coerce {value!r} to {target}")


def _coerce_date(value: Any) -> Date:
    if isinstance(value, Date):
        return value
    if isinstance(value, str):
        return Date.from_iso(value)
    raise TypeError_(f"cannot coerce {value!r} to DATE")


def infer_type(value: Any) -> SqlType:
    """Best-effort type inference for literals and computed values."""
    if value is Null:
        return SqlType("NULL")
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return INTEGER
    if isinstance(value, float):
        return FLOAT
    if isinstance(value, str):
        return varchar(max(len(value), 1))
    if isinstance(value, Date):
        return DATE
    return SqlType("UNKNOWN")
