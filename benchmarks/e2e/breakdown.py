"""Where one template's time goes: self time per layer from a spans file.

``run.py --trace 1 --spans FILE`` writes every span of the traced
region.  A span's self time is its duration minus its children's; a
statement id leads to its template — directly for spans taken in the
benchmark process, through the statement text for spans taken in the
server (the event loop encodes results in the order the worker ran
them, so both server threads share one numbering).
"""

from __future__ import annotations

import json
from pathlib import Path


def self_times(spans: list) -> list[tuple[str, int, float]]:
    """``(layer, statement, self seconds)`` per span."""
    covered = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [
        (layer, statement, end - start - covered[index])
        for index, (layer, start, end, _, statement) in enumerate(spans)
    ]


def by_template(path: Path) -> dict[str, dict[str, float]]:
    """``{template: {layer: self seconds, "statements": count}}``."""
    data = json.loads(Path(path).read_text())
    names = data["statements"]  # statement id - 1 -> template
    out: dict[str, dict[str, float]] = {}
    for name in names:
        out.setdefault(name, {"statements": 0})["statements"] += 1
    for process, dump in data["processes"].items():
        server_sql: dict[str, str] = {}
        for thread in dump["threads"]:
            server_sql.update(thread["sql"])
        for thread in dump["threads"]:
            for layer, statement, seconds in self_times(thread["spans"]):
                if process == "server":
                    template = data["sql_templates"][server_sql[str(statement)]]
                else:
                    template = names[statement - 1]
                entry = out[template]
                entry[layer] = entry.get(layer, 0.0) + seconds
    return out


def format_breakdown(table: dict, only: str = "") -> str:
    lines = []
    for template, entry in table.items():
        if only and template != only:
            continue
        layers = {k: v for k, v in entry.items() if k != "statements"}
        total = sum(layers.values())
        lines.append(f"{template}: {entry['statements']} statement(s),"
                     f" {total:.4f} s in spans")
        for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
            lines.append(f"  {layer:<20} {seconds:10.4f} s {seconds / total:7.1%}")
    return "\n".join(lines)
