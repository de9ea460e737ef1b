"""Circular-arc view of a cover.

Path index k maps to the angle k/(n+1) of a full turn, so every index
interval becomes a closed arc of the unit circle and inclusion of
intervals is preserved.  The intersection graph of a cover's arcs is
proper (no arc contains another) exactly when the cover is
inclusion-free, which the saturated decomposition guarantees.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .cover import SaturatedCover
from .paths import IndexInterval, interval_contains, intervals_intersect


def phi(k: int, n: int) -> Fraction:
    """Angular position of index k on a path with max index n, as an exact
    fraction of a full turn: k/(n+1)."""
    if not 0 <= k <= n:
        raise ValueError(f"index {k} outside [0, {n}]")
    return Fraction(k, n + 1)


@dataclass(frozen=True)
class CircularArc:
    """Arc of the unit circle from phi(start) to phi(end) of an index
    interval, swept positively (it may wrap past angle 0)."""

    interval: IndexInterval
    n_points: int

    def contains(self, other: "CircularArc", closed: bool) -> bool:
        return interval_contains(self.n_points, closed, self.interval, other.interval)

    def intersects(self, other: "CircularArc", closed: bool) -> bool:
        # endpoints are multiples of 1/(n+1), so closed arcs meet iff they
        # share an index angle
        return intervals_intersect(self.n_points, closed, self.interval, other.interval)


@dataclass(frozen=True)
class ArcGraph:
    """Intersection graph of the arcs of a cover.

    `proper` is True when no arc contains another; `interval` is True when
    the underlying path is open (the arcs never wrap, so the structure is
    an interval graph).
    """

    nodes: tuple[CircularArc, ...]
    edges: tuple[tuple[int, int], ...]
    proper: bool
    interval: bool

    def to_json_dict(self) -> dict:
        return {
            "nodes": [{"start": a.interval.start, "len": a.interval.length} for a in self.nodes],
            "edges": [[u, v] for u, v in self.edges],
            "proper": self.proper,
            "interval": self.interval,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    def to_dot(self) -> str:
        lines = ["graph cover {"]
        for i, arc in enumerate(self.nodes):
            iv = arc.interval
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
    edges between arcs sharing at least one angle (touching endpoints
    count); `proper` reports whether any arc contains another."""
    arcs = tuple(CircularArc(IndexInterval(*iv), n_points) for iv in intervals)
    edges = []
    proper = True
    for u in range(len(arcs)):
        for v in range(u + 1, len(arcs)):
            if arcs[u].intersects(arcs[v], closed):
                edges.append((u, v))
            if arcs[u].contains(arcs[v], closed) or arcs[v].contains(arcs[u], closed):
                proper = False
    return ArcGraph(arcs, tuple(edges), proper, interval=not closed)
