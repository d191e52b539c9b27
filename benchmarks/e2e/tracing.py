"""Layer tracing installed from outside the program.

The benchmark owns this file; nothing under ``src/`` knows about it.
:func:`install` wraps the public entry point of every layer a statement
crosses.  Each call becomes one span ``(layer, start, end, parent,
statement id)``; a layer's *self time* is its span's duration minus the
part its child spans cover, so the self times of all layers add up to
the wall time of the outermost spans.  Spans stay in memory until
:meth:`Recorder.dump` is asked for them.

Counts are read from the counters the program already exposes
(``db.stats``, ``db.obs``, ``stratum.last_strategy``) at the same
boundary the spans are taken: entry and exit of
``TemporalStratum.execute_ast``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import sys
import threading
import time
from typing import Any, Callable

from repro.sqlengine import ast_nodes as ast
from repro.temporal.stratum import SlicingStrategy

# the statement a span belongs to.  A load generator sets it before
# each statement; the server-side wrappers number statements themselves
STATEMENT: contextvars.ContextVar[int] = contextvars.ContextVar(
    "e2e_statement", default=0
)

# (module, attribute or Class.method, layer) for each role.  A plain
# function is replaced in every ``repro`` module that imported it by
# name, so `from x import f` call sites are traced too.
ENGINE_POINTS = [
    ("repro.sqlengine.parser", "parse_statement", "parser"),
    ("repro.temporal.stratum", "TemporalStratum.execute_ast", "stratum"),
    ("repro.temporal.heuristic", "choose_strategy", "heuristic"),
    ("repro.temporal.max_slicing", "transform_query_max", "stratum.transform"),
    ("repro.temporal.current", "transform_current", "stratum.transform"),
    ("repro.temporal.perst_slicing", "PerstTransformer.transform", "perst.transform"),
    ("repro.temporal.seqset", "compile_seqset", "seqset.compile"),
    ("repro.temporal.seqset", "execute_seqset", "seqset.execute"),
    ("repro.temporal.constant_periods", "materialize_constant_periods",
     "constant_periods"),
    ("repro.temporal.modifications", "execute_sequenced_modification",
     "modifications"),
    ("repro.sqlengine.engine", "Database.execute_ast", "engine"),
    ("repro.sqlengine.routines", "RoutineInterpreter.invoke_function", "routines"),
    ("repro.sqlengine.routines", "RoutineInterpreter.invoke_table_function",
     "routines"),
    ("repro.sqlengine.routines", "RoutineInterpreter.call_procedure", "routines"),
    ("repro.sqlengine.wal", "DurabilityManager.commit_buffered", "wal.commit"),
    ("repro.sqlengine.checkpoint", "write_checkpoint", "checkpoint"),
]
SERVER_POINTS = ENGINE_POINTS + [
    ("repro.server.session", "ServerSession.run_statement", "server.session"),
    ("repro.server.protocol", "encode_result", "server.encode"),
    ("repro.server.protocol", "encode_frame", "server.encode"),
]
CLIENT_POINTS = [
    ("repro.server.protocol", "decode_result", "client.decode"),
    ("repro.server.protocol", "encode_frame", "client.encode"),
]
# modules whose by-name imports must exist before functions are replaced
_IMPORT_FIRST = ("repro.cli", "repro.server.core", "repro.server.client")

# strategies under which the stratum is free to evaluate with SEQ-SET
_MAY_PICK_SEQSET = (SlicingStrategy.AUTO, SlicingStrategy.COST, SlicingStrategy.SEQSET)
# the first call of a server-side statement on its thread: the worker
# numbers statements as they start, the event loop as their results are
# encoded, and both run them in the same order
_NUMBERS_STATEMENTS = ("ServerSession.run_statement", "encode_result")


class _ThreadState:
    __slots__ = ("spans", "stack", "layers", "statements", "sql")

    def __init__(self) -> None:
        self.statements = 0
        self.sql: dict[int, str] = {}  # statement id -> text, server side
        self.spans: list = []
        self.stack: list = []  # [span index, seconds covered by children]
        # layer -> [self seconds, inclusive seconds, calls]
        self.layers: dict[str, list] = {}


class Recorder:
    """Spans and boundary counts of one process."""

    def __init__(self) -> None:
        self.enabled = False
        self._local = threading.local()
        self._threads: list[tuple[str, _ThreadState]] = []
        self._lock = threading.Lock()
        # the stratum seen at the stratum boundary: where the server
        # launcher finds the counters of a stratum it did not create
        self.stratum = None
        self.counts = {
            "sequenced_queries": 0,  # sequenced SELECT/CALL statements
            "seqset_eligible": 0,    # ... run with a strategy free to pick SEQ-SET
            "seqset_executed": 0,    # ... that SEQ-SET actually evaluated
            "result_rows": 0,
            "bytes_out": 0,          # bytes of the frames encode_frame built
        }

    # -- spans ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append((threading.current_thread().name, state))
        return state

    def wrap(self, layer: str, fn: Callable, numbers_statements: bool = False):
        perf = time.perf_counter
        get_state = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            state = get_state()
            spans, stack = state.spans, state.stack
            if numbers_statements:
                state.statements += 1
                STATEMENT.set(state.statements)
                if layer == "server.session":
                    state.sql[state.statements] = args[1]
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (layer, start, end, parent, STATEMENT.get())
                totals = state.layers.get(layer)
                if totals is None:
                    totals = state.layers[layer] = [0.0, 0.0, 0]
                totals[0] += duration - frame[1]
                totals[1] += duration
                totals[2] += 1

        return traced

    def sized(self, fn: Callable):
        """``encode_frame``: add the size of each frame to ``bytes_out``."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(message):
            data = fn(message)
            counts["bytes_out"] += len(data)
            return data

        return counted

    def wrap_stratum(self, fn: Callable):
        """``TemporalStratum.execute_ast``: a span plus the boundary
        counts (strategy taken, rows returned)."""
        traced = self.wrap("stratum", fn)
        counts = self.counts

        @functools.wraps(fn)
        def boundary(stratum, stmt, strategy=SlicingStrategy.AUTO):
            self.stratum = stratum
            result = traced(stratum, stmt, strategy)
            if not self.enabled:
                return result
            counts["result_rows"] += _result_rows(result)
            modifier = getattr(stmt, "modifier", None)
            if (
                modifier is not None
                and modifier.flavor is ast.TemporalFlavor.SEQUENCED
                and isinstance(stmt, (ast.Select, ast.CallStatement))
            ):
                counts["sequenced_queries"] += 1
                if strategy in _MAY_PICK_SEQSET:
                    counts["seqset_eligible"] += 1
                    if stratum.last_strategy is SlicingStrategy.SEQSET:
                        counts["seqset_executed"] += 1
            return result

        return boundary

    # -- results --------------------------------------------------------

    def reset(self) -> None:
        """Forget spans and counts taken so far (end of set-up)."""
        with self._lock:
            for _, state in self._threads:
                if state.stack:
                    raise RuntimeError("reset inside an open span")
                state.spans.clear()
                state.sql.clear()
                state.layers.clear()
        for key in self.counts:
            self.counts[key] = 0

    def totals(self) -> dict[str, dict[str, float]]:
        """``{layer: {self_s, incl_s, calls}}`` summed over threads."""
        out: dict[str, dict[str, float]] = {}
        with self._lock:
            for _, state in self._threads:
                for layer, (self_s, incl_s, calls) in state.layers.items():
                    entry = out.setdefault(
                        layer, {"self_s": 0.0, "incl_s": 0.0, "calls": 0}
                    )
                    entry["self_s"] += self_s
                    entry["incl_s"] += incl_s
                    entry["calls"] += calls
        return out

    def dump(self) -> dict[str, Any]:
        """Everything recorded, JSON-able: per-thread spans as
        ``[layer, start, end, parent, statement]`` (``parent`` indexes
        the same list) plus the totals."""
        with self._lock:
            threads = [
                {"thread": name, "spans": list(state.spans), "sql": dict(state.sql)}
                for name, state in self._threads
            ]
        return {
            "threads": threads,
            "layers": self.totals(),
            "counts": dict(self.counts),
            "program": program_counters(self.stratum),
        }


def _result_rows(result: Any) -> int:
    if isinstance(result, list):
        return sum(_result_rows(item) for item in result)
    rows = getattr(result, "rows", None)
    return len(rows) if rows is not None else 0


def program_counters(stratum) -> dict[str, Any]:
    """The program's own counters, read through its public accessors
    (``durability.state()`` reports the same ``wal.*`` registry values)."""
    if stratum is None:
        return {}
    stats = stratum.db.stats.snapshot()
    value = stratum.db.obs.value
    return {
        "statements": stats["statements"],
        "routine_calls": stats["total_routine_calls"],
        "plans_compiled": stats["plans_compiled"],
        "plan_cache_hits": stats["plan_cache_hits"],
        "transforms": stats["transforms"],
        "transform_cache_hits": stats["transform_cache_hits"],
        "rows_scanned": stats["rows_scanned"],
        "rows_written": stats["rows_written"],
        "slices": value("stratum.slices"),
        "choice.max": value("heuristic.choice.max"),
        "choice.perst": value("heuristic.choice.perst"),
        "choice.seqset": value("heuristic.choice.seqset"),
        "wal.commits": value("wal.commits"),
        "wal.bytes": value("wal.bytes"),
        "checkpoint.writes": value("checkpoint.writes"),
    }


def counter_delta(after: dict, before: dict) -> dict:
    return {key: value - before.get(key, 0) for key, value in after.items()}


# -- installation -------------------------------------------------------


def install(recorder: Recorder, points: list) -> None:
    """Wrap every entry point in ``points``; never undone, the process
    that installs tracing exits when its traced run ends."""
    for name in _IMPORT_FIRST:
        importlib.import_module(name)
    for module_name, target, layer in points:
        module = importlib.import_module(module_name)
        if "." in target:
            class_name, method = target.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            if target == "TemporalStratum.execute_ast":
                wrapped = recorder.wrap_stratum(original)
            else:
                wrapped = recorder.wrap(
                    layer, original, target in _NUMBERS_STATEMENTS
                )
            setattr(owner, method, wrapped)
            continue
        original = getattr(module, target)
        inner = recorder.sized(original) if target == "encode_frame" else original
        wrapped = recorder.wrap(layer, inner, target in _NUMBERS_STATEMENTS)
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    setattr(other, attr, wrapped)


def layer_metrics(
    layers: dict, counts: dict, program: dict
) -> dict[str, float]:
    """Per-layer metric values from one process's totals and counters."""

    def self_s(layer: str) -> float:
        return layers.get(layer, {}).get("self_s", 0.0)

    def calls(layer: str) -> int:
        return int(layers.get(layer, {}).get("calls", 0))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    plans = program.get("plans_compiled", 0) + program.get("plan_cache_hits", 0)
    transforms = (
        program.get("transforms", 0) + program.get("transform_cache_hits", 0)
    )
    rows = counts.get("result_rows", 0)
    return {
        "parser.busy_s": self_s("parser"),
        "parser.calls": calls("parser"),
        "stratum.busy_s": self_s("stratum"),
        "stratum.transform_s": self_s("stratum.transform"),
        "stratum.transform_cache_hit_ratio": ratio(
            program.get("transform_cache_hits", 0), transforms
        ),
        "heuristic.busy_s": self_s("heuristic"),
        "heuristic.choice.max": program.get("choice.max", 0),
        "heuristic.choice.perst": program.get("choice.perst", 0),
        "heuristic.choice.seqset": program.get("choice.seqset", 0),
        "constant_periods.busy_s": self_s("constant_periods"),
        "constant_periods.slices": program.get("slices", 0),
        "engine.busy_s": self_s("engine"),
        "engine.statements": program.get("statements", 0),
        "engine.plans_compiled": program.get("plans_compiled", 0),
        "engine.plan_cache_hit_ratio": ratio(
            program.get("plan_cache_hits", 0), plans
        ),
        "engine.rows_scanned": program.get("rows_scanned", 0),
        "engine.rows_scanned_per_row": ratio(program.get("rows_scanned", 0), rows),
        "routines.busy_s": self_s("routines"),
        "routines.calls": program.get("routine_calls", 0),
        "perst.transform_s": self_s("perst.transform"),
        "perst.rows_written": program.get("rows_written", 0),
        "perst.rows_written_per_row": ratio(program.get("rows_written", 0), rows),
        "seqset.compile_s": self_s("seqset.compile"),
        "seqset.execute_s": self_s("seqset.execute"),
        "seqset.fallbacks": (
            counts.get("seqset_eligible", 0) - counts.get("seqset_executed", 0)
        ),
        "seqset.covered_ratio": ratio(
            counts.get("seqset_executed", 0), counts.get("sequenced_queries", 0)
        ),
        "modifications.busy_s": self_s("modifications"),
        "wal.commit_s": self_s("wal.commit"),
        "wal.commits": program.get("wal.commits", 0),
        "wal.bytes": program.get("wal.bytes", 0),
        "wal.bytes_per_write": ratio(
            program.get("wal.bytes", 0), program.get("wal.commits", 0)
        ),
        "checkpoint.busy_s": self_s("checkpoint"),
        "checkpoint.count": program.get("checkpoint.writes", 0),
        "server.session_s": self_s("server.session"),
        "server.encode_s": self_s("server.encode"),
        "server.bytes_out": counts.get("bytes_out", 0),
        # measured by the wire run; zero where no wire is crossed
        "client.decode_s": 0.0,
        "wire.other_s": 0.0,
        "wire.read_ms_p50": 0.0,
        "wire.read_ms_p99": 0.0,
        "wire.write_ms_p50": 0.0,
        "wire.write_ms_p95": 0.0,
        "wire.recovery_s": 0.0,
    }
