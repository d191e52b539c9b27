"""Runtime value model: NULL, dates, rows, and three-valued logic.

The engine represents SQL values with plain Python objects:

* ``int`` / ``float`` for numbers,
* ``str`` for character data,
* ``bool`` for booleans,
* :data:`Null` (a singleton) for SQL NULL,
* :class:`Date` for DATE values (an integer day ordinal underneath —
  this is also the granule the temporal layer slices on).

Comparisons between values go through :func:`compare`, which implements
SQL semantics (NULL-propagating); boolean connectives go through
:func:`logic_and` / :func:`logic_or` / :func:`logic_not`, which implement
three-valued logic with :data:`Unknown`.
"""

from __future__ import annotations

import datetime
from functools import total_ordering
from typing import Any, Iterable, Optional, Sequence

from repro.sqlengine.errors import TypeError_


class _NullType:
    """Singleton SQL NULL.  Falsy, equal only to itself."""

    _instance: Optional["_NullType"] = None

    def __new__(cls) -> "_NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __reduce__(self):  # keep singleton across pickling
        return (_NullType, ())


Null = _NullType()


class _UnknownType:
    """Singleton UNKNOWN truth value of three-valued logic."""

    _instance: Optional["_UnknownType"] = None

    def __new__(cls) -> "_UnknownType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNKNOWN"

    def __bool__(self) -> bool:
        return False


Unknown = _UnknownType()


@total_ordering
class Date:
    """A DATE value backed by a proleptic-Gregorian day ordinal.

    The temporal layer treats day ordinals as its time granules, so this
    class doubles as the granule type.  ``Date.MAX`` plays the role of
    SQL's end-of-time (9999-12-31), used as the "forever" period bound.
    """

    __slots__ = ("ordinal",)

    MIN_ORDINAL = datetime.date(1, 1, 1).toordinal()
    MAX_ORDINAL = datetime.date(9999, 12, 31).toordinal()

    def __init__(self, ordinal: int) -> None:
        if not isinstance(ordinal, int):
            raise TypeError_(f"Date ordinal must be int, got {type(ordinal).__name__}")
        self.ordinal = ordinal

    @classmethod
    def from_iso(cls, text: str) -> "Date":
        """Parse 'YYYY-MM-DD'."""
        try:
            return cls(datetime.date.fromisoformat(text.strip()).toordinal())
        except ValueError as exc:
            raise TypeError_(f"invalid DATE literal {text!r}") from exc

    @classmethod
    def from_ymd(cls, year: int, month: int, day: int) -> "Date":
        return cls(datetime.date(year, month, day).toordinal())

    def to_iso(self) -> str:
        return datetime.date.fromordinal(self.ordinal).isoformat()

    def plus_days(self, days: int) -> "Date":
        return Date(self.ordinal + days)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Date) and self.ordinal == other.ordinal

    def __lt__(self, other: "Date") -> bool:
        if not isinstance(other, Date):
            return NotImplemented
        return self.ordinal < other.ordinal

    def __hash__(self) -> int:
        return hash(("Date", self.ordinal))

    def __repr__(self) -> str:
        return f"DATE '{self.to_iso()}'"


Date.MIN = Date(Date.MIN_ORDINAL)  # type: ignore[attr-defined]
Date.MAX = Date(Date.MAX_ORDINAL)  # type: ignore[attr-defined]


class Row:
    """An immutable result row: column names plus values.

    Supports access by index and by (case-insensitive) column name.
    """

    __slots__ = ("columns", "values")

    def __init__(self, columns: Sequence[str], values: Sequence[Any]) -> None:
        if len(columns) != len(values):
            raise TypeError_(
                f"row has {len(columns)} columns but {len(values)} values"
            )
        self.columns = tuple(columns)
        self.values = tuple(values)

    def __getitem__(self, key: Any) -> Any:
        if isinstance(key, int):
            return self.values[key]
        lowered = key.lower()
        for name, value in zip(self.columns, self.values):
            if name.lower() == lowered:
                return value
        raise KeyError(key)

    def __iter__(self) -> Iterable[Any]:
        return iter(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        pairs = ", ".join(f"{c}={v!r}" for c, v in zip(self.columns, self.values))
        return f"Row({pairs})"

    def as_dict(self) -> dict:
        return dict(zip(self.columns, self.values))


def is_null(value: Any) -> bool:
    """True if ``value`` is SQL NULL."""
    return value is Null


def compare(left: Any, right: Any) -> Any:
    """SQL comparison: -1/0/1, or Unknown if either side is NULL.

    Numeric types compare numerically across int/float/bool; a float
    NaN equals NaN and is greater than every other number (PostgreSQL's
    rule, which :func:`sort_key` orders by too); strings compare after
    stripping trailing blanks (CHAR padding semantics); dates compare by
    ordinal.  Cross-type comparisons raise.
    """
    if type(left) is int and type(right) is int:
        return (left > right) - (left < right)
    if left is Null or right is Null:
        return Unknown
    left = _normalize(left)
    right = _normalize(right)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        if left != left or right != right:  # NaN
            return (right == right) - (left == left)
        return (left > right) - (left < right)
    if isinstance(left, str) and isinstance(right, str):
        lhs, rhs = left.rstrip(), right.rstrip()
        return (lhs > rhs) - (lhs < rhs)
    if isinstance(left, Date) and isinstance(right, Date):
        return (left.ordinal > right.ordinal) - (left.ordinal < right.ordinal)
    raise TypeError_(
        f"cannot compare {type(left).__name__} with {type(right).__name__}"
    )


def _normalize(value: Any) -> Any:
    """Map bool to int for comparison purposes."""
    if isinstance(value, bool):
        return int(value)
    return value


def equals(left: Any, right: Any) -> Any:
    """SQL equality: True/False, or Unknown when NULL is involved."""
    result = compare(left, right)
    if result is Unknown:
        return Unknown
    return result == 0


def logic_and(left: Any, right: Any) -> Any:
    """Three-valued AND."""
    if left is False or right is False:
        return False
    if left is Unknown or right is Unknown or left is Null or right is Null:
        return Unknown
    return True


def logic_or(left: Any, right: Any) -> Any:
    """Three-valued OR."""
    if left is True or right is True:
        return True
    if left is Unknown or right is Unknown or left is Null or right is Null:
        return Unknown
    return False


def logic_not(value: Any) -> Any:
    """Three-valued NOT."""
    if value is Unknown or value is Null:
        return Unknown
    return not value


def truth(value: Any) -> bool:
    """Collapse a three-valued truth value for WHERE filtering.

    SQL keeps a row only when the predicate is *True*; both False and
    Unknown reject it.
    """
    return value is True


_NAN_KEY = (1, float("inf"), 1)  # after every other number, inf included


def sort_key(value: Any) -> tuple:
    """A total-order key for ORDER BY / DISTINCT / hash keys: NULLs sort
    first; keys are equal exactly where :func:`compare` says 0."""
    if type(value) is str:
        return (3, value.rstrip())
    if type(value) is int:
        return (1, value)
    if value is Null:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value) if value == value else _NAN_KEY
    if isinstance(value, Date):
        return (2, value.ordinal)
    if isinstance(value, str):
        return (3, value.rstrip())
    return (4, repr(value))


def column_keys(values: list) -> list:
    """Sort keys for one ORDER BY column that order and tie exactly as
    :func:`sort_key` does: the right-stripped strings when every value is
    a ``str``, the values when every one is an ``int`` (``bool``
    excluded), the day ordinals when every one is a :class:`Date` —
    else ``sort_key`` itself."""
    kinds = set(map(type, values))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is str:
            return [value.rstrip() for value in values]
        if kind is int:
            return values
        if kind is Date:
            return [value.ordinal for value in values]
    return list(map(sort_key, values))


def sorted_rows(rows: list, columns: list) -> list:
    """``rows`` in ORDER BY order: ``columns`` holds per sort key, most
    significant first, ``(values, descending)`` — one value per row.
    One stable pass per key, from the last to the first, so ties keep
    the rows' order."""
    order = range(len(rows))
    for values, descending in reversed(columns):
        order = sorted(order, key=column_keys(values).__getitem__, reverse=descending)
    return [rows[i] for i in order]
