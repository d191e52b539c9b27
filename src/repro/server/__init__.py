"""Multi-client wire front-end for the temporal stratum.

An asyncio server (:class:`~repro.server.core.ReproServer`) accepts any
number of concurrent connections; each gets its own engine session (a
:class:`~repro.sqlengine.txn.TransactionManager` with its own snapshot,
write set, undo log, and redo buffer), so clients see snapshot-isolated
MVCC semantics end to end.  Statement execution is offloaded to a
single worker thread — the engine is not thread-safe, and under the
GIL a second executor thread buys no parallelism anyway — which keeps
the event loop responsive: clients pipeline network round-trips against
the worker, and MVCC lets one session's reads interleave between
another session's statements instead of blocking on its open
transaction.

The wire format (:mod:`~repro.server.protocol`) is length-prefixed
JSON; :class:`~repro.server.client.ReproClient` is the matching asyncio
client library, and ``python -m repro serve --db PATH`` the CLI entry
point.
"""

from repro.server.client import (
    ClientResult,
    ConnectionLostError,
    ReproClient,
    ServerError,
)
from repro.server.core import ReproServer
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    ConnectionClosed,
    FrameError,
    FramedReader,
)

__all__ = [
    "ClientResult",
    "ConnectionClosed",
    "ConnectionLostError",
    "FrameError",
    "FramedReader",
    "MAX_FRAME_BYTES",
    "ReproClient",
    "ReproServer",
    "ServerError",
]
