"""Span-tree reconstruction: nesting, aggregation, critical path.

The solver records spans flat, in *completion* order (a child closes
before its parent), with the open-stack depth stamped on each span.
That makes the tree exact to rebuild: walking the flat list, a span at
depth ``d`` adopts every already-completed-but-unadopted span at depth
``d + 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.obs.spans import Span


@dataclass
class SpanNode:
    """One span plus its (time-ordered) children."""

    span: Span
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.span.name

    @property
    def duration_s(self) -> float:
        return self.span.duration_s

    @property
    def self_time_s(self) -> float:
        """Duration not covered by children (may be negative on a
        corrupted trace; the span-integrity detector flags that)."""
        return self.duration_s - sum(c.duration_s for c in self.children)


def build_span_tree(spans: Iterable[Span]) -> list[SpanNode]:
    """Roots of the span forest, children in start-time order."""
    # pending[d]: completed depth-d nodes not yet adopted by a parent.
    pending: dict[int, list[SpanNode]] = {}
    for s in spans:
        node = SpanNode(s, children=pending.pop(s.depth + 1, []))
        pending.setdefault(s.depth, []).append(node)
    roots = pending.pop(0, [])
    # Orphans (recorder torn down with spans still open) become roots.
    for d in sorted(pending):
        roots.extend(pending[d])
    for node, _ in walk(roots):
        node.children.sort(key=lambda n: (n.span.t_start, n.span.t_end))
    roots.sort(key=lambda n: (n.span.t_start, n.span.t_end))
    return roots


def walk(roots: list[SpanNode]) -> Iterator[tuple[SpanNode, int]]:
    """Depth-first ``(node, depth)`` pairs, children in stored order."""
    stack = [(node, 0) for node in reversed(roots)]
    while stack:
        node, depth = stack.pop()
        yield node, depth
        for child in reversed(node.children):
            stack.append((child, depth + 1))


def tree_summary(spans: Iterable[Span]) -> list[dict]:
    """Flamegraph rows with nesting: one row per ``(depth, name)``.

    Rows appear in depth-first first-visit order, so a child row always
    follows some ancestor row, and ``depth`` says how far to indent.
    Fields: ``name, depth, count, total_s, mean_s, max_s``.
    """
    agg: dict[tuple[int, str], dict] = {}
    order: list[tuple[int, str]] = []
    for node, depth in walk(build_span_tree(spans)):
        key = (depth, node.name)
        row = agg.get(key)
        if row is None:
            row = agg[key] = {
                "name": node.name,
                "depth": depth,
                "count": 0,
                "total_s": 0.0,
                "max_s": 0.0,
            }
            order.append(key)
        row["count"] += 1
        row["total_s"] += node.duration_s
        row["max_s"] = max(row["max_s"], node.duration_s)
    out = [agg[key] for key in order]
    for row in out:
        row["mean_s"] = row["total_s"] / row["count"]
    return out


def critical_path(roots: list[SpanNode]) -> list[SpanNode]:
    """Longest chain by duration: the max-duration root, then its
    max-duration child, and so on down — e.g. the solve span, its most
    expensive recovery, that recovery's construction."""
    if not roots:
        return []
    path = [max(roots, key=lambda n: n.duration_s)]
    while path[-1].children:
        path.append(max(path[-1].children, key=lambda n: n.duration_s))
    return path
