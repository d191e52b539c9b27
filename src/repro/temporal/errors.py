"""Errors raised by the temporal stratum."""

from __future__ import annotations

from repro.sqlengine.errors import SqlError


class TemporalError(SqlError):
    """Base class for stratum errors."""


class FeatureNotSupportedError(TemporalError):
    """The statement is well-formed Temporal SQL/PSM the stratum has no
    transformation for (SQLSTATE ``0A000``, feature not supported)."""

    sqlstate = "0A000"


class SequencedContextError(TemporalError):
    """A temporal modifier appeared inside a routine invoked from a
    sequenced or current context.

    Per the paper (§IV-A), a routine containing an explicit temporal
    modifier may only be invoked from a *nonsequenced* context, where the
    user manages validity periods manually.
    """


class PerStatementInapplicableError(TemporalError):
    """Per-statement slicing cannot transform this routine.

    The canonical case is the paper's q17b: a FETCH of an outer cursor
    placed after per-period loops over temporal routine results inside
    the same loop body (§VII-A2).  Maximally-fragmented slicing always
    applies; callers should fall back to it.
    """
