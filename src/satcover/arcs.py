"""Circular-arc view of a cover.

Every index interval is a closed arc of the circle of path indices (it
wraps past index 0 only on closed paths), so inclusion of intervals is
inclusion of arcs.  The intersection graph of a cover's arcs is
proper (no arc contains another) exactly when the cover is
inclusion-free, which the saturated decomposition guarantees.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .cover import SaturatedCover
from .paths import IndexInterval, interval_contains


@dataclass(frozen=True)
class ArcGraph:
    """Intersection graph of the arcs of a cover.

    `proper` is True when no arc contains another; `interval` is True when
    the underlying path is open (the arcs never wrap, so the structure is
    an interval graph).
    """

    nodes: tuple[IndexInterval, ...]
    edges: tuple[tuple[int, int], ...]
    proper: bool
    interval: bool

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"start": iv.start, "len": iv.length} for iv in self.nodes],
            "edges": [[u, v] for u, v in self.edges],
            "proper": self.proper,
            "interval": self.interval,
        }

    def to_dot(self) -> str:
        lines = ["graph cover {"]
        for i, iv in enumerate(self.nodes):
            lines.append(f'  n{i} [label="[{iv.start},{iv.start + iv.length})"];')
        for u, v in self.edges:
            lines.append(f"  n{u} -- n{v};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_arc_graph(cover: SaturatedCover) -> ArcGraph:
    """One arc per cover segment."""
    return arc_graph_from_intervals(cover.segments, cover.n_points, cover.closed)


def arc_graph_from_intervals(intervals, n_points: int, closed: bool) -> ArcGraph:
    """Arc graph of arbitrary intervals (not necessarily a saturated cover):
    edges between arcs sharing at least one index (touching endpoints
    count); `proper` reports whether any arc contains another.

    Intervals need 0 <= start < n_points and 1 <= length <= n_points, and
    start + length <= n_points on an open path.  Two arcs meet iff the start
    of one lies on the other, and an arc contains another only if the
    other's start lies on it, so bisecting the sorted starts finds every
    edge and containment in O(m log m + E).
    """
    nodes = tuple(IndexInterval(*iv) for iv in intervals)
    order = sorted(range(len(nodes)), key=lambda i: nodes[i].start)
    starts = [nodes[i].start for i in order]
    edges = set()
    proper = True
    for u, (start, length) in enumerate(nodes):
        end = start + length
        hits = order[bisect_left(starts, start):bisect_left(starts, end)]
        if end > n_points:  # a closed arc wrapping past index 0
            hits += order[:bisect_left(starts, end - n_points)]
        for v in hits:
            if v != u:
                edges.add((min(u, v), max(u, v)))
                if proper and interval_contains(n_points, closed, nodes[u], nodes[v]):
                    proper = False
    return ArcGraph(nodes, tuple(sorted(edges)), proper, interval=not closed)
