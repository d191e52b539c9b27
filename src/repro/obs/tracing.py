"""Structured trace spans for the stratum and engine.

A :class:`Span` is one timed region of work with attributes and child
spans; a :class:`Tracer` maintains the current span stack and keeps the
most recent completed top-level span as :attr:`Tracer.last_root`.

Tracing is **off by default** and the disabled path is a single
attribute check plus a shared no-op context manager, so instrumented
code can write::

    with db.tracer.span("stratum.transform", strategy="max") as span:
        ...
        span.set(cached=False)

unconditionally.  ``span.set`` on the no-op span is a no-op; nothing
allocates while tracing is disabled.
"""

from __future__ import annotations

import time
from typing import Any, Iterator, Optional


class Span:
    """One timed region: name, attributes, children, wall seconds."""

    __slots__ = ("name", "attrs", "children", "seconds", "_started")

    def __init__(self, name: str, attrs: Optional[dict[str, Any]] = None) -> None:
        self.name = name
        self.attrs: dict[str, Any] = attrs if attrs is not None else {}
        self.children: list["Span"] = []
        self.seconds: float = 0.0
        self._started: float = 0.0

    def set(self, **attrs: Any) -> None:
        """Attach attributes to this span."""
        self.attrs.update(attrs)

    # -- introspection ---------------------------------------------------

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> Optional["Span"]:
        """First descendant (or self) with ``name``, depth-first."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def find_all(self, name: str) -> list["Span"]:
        return [span for span in self.walk() if span.name == name]

    def shape(self) -> Any:
        """The tree as nested ``(name, [children...])`` — what the
        span-tree shape tests compare, independent of timings."""
        return (self.name, [child.shape() for child in self.children])

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "seconds": self.seconds,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, include_timing: bool = True) -> str:
        """Indented text tree (the ``repro trace`` / EXPLAIN ANALYZE view)."""
        lines: list[str] = []
        self._render_into(lines, 0, include_timing)
        return "\n".join(lines)

    def _render_into(self, lines: list[str], depth: int, timing: bool) -> None:
        attrs = " ".join(
            f"{key}={_fmt_attr(value)}" for key, value in self.attrs.items()
        )
        parts = [self.name]
        if timing:
            parts.append(f"({self.seconds * 1000.0:.3f}ms)")
        if attrs:
            parts.append(attrs)
        lines.append("  " * depth + " ".join(parts))
        for child in self.children:
            child._render_into(lines, depth + 1, timing)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Span({self.name}, {len(self.children)} children)"


def _fmt_attr(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


class _NullSpan:
    """Shared span stand-in while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NoopContext:
    """Shared context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc: Any) -> bool:
        return False


_NOOP = _NoopContext()


class _SpanContext:
    """Context manager for one live span."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.span._started = time.perf_counter()
        self.tracer._push(self.span)
        return self.span

    def __exit__(self, *exc: Any) -> bool:
        self.span.seconds = time.perf_counter() - self.span._started
        self.tracer._pop(self.span)
        return False


class Tracer:
    """Span-stack owner; one per :class:`Database`."""

    __slots__ = ("enabled", "_stack", "last_root")

    def __init__(self) -> None:
        self.enabled = False
        self._stack: list[Span] = []
        self.last_root: Optional[Span] = None

    def span(self, name: str, /, **attrs: Any):
        """Open a span (no-op context manager when disabled).

        ``name`` is positional-only so an attribute may also be called
        ``name`` (e.g. ``span("routine", name="get_author_name")``).
        """
        if not self.enabled:
            return _NOOP
        return _SpanContext(self, Span(name, attrs))

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # tolerate enable/disable mid-flight: pop only if it is ours
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        if not self._stack:
            self.last_root = span
