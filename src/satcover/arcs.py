"""Circular-arc view of a cover.

Every index interval is a closed arc of the circle of path indices (it
wraps past index 0 only on closed paths), so inclusion of intervals is
inclusion of arcs.  The intersection graph of a cover's arcs is
proper (no arc contains another) exactly when the cover is
inclusion-free, which the saturated decomposition guarantees: its arcs,
sorted by start, form a proper circular-arc graph (Deng, Hell & Huang,
SIAM J. Comput. 1996), or a proper interval graph on an open path.

`build_arc_graph` is the one builder.  It reads a cover's segments in
their start order, so it needs no edge set, no final sort and no
containment test per edge, and it decides `proper` from neighbours in
that order alone.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import le, lt

from .cover import SaturatedCover
from .paths import IndexInterval


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
            "edges": self.edges,  # json.dumps writes tuples as lists
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
    """One arc per cover segment; two arcs meet when they share an index
    (touching endpoints count).

    The segments must be sorted by start, as every cover is; an unsorted
    cover raises ValueError.  Arc v runs
    from starts[v] to ends[v], unwrapped, so the later arcs whose start lies
    on it are one run of the start order, found by one bisection.  The only
    other meetings are arcs u that wrap past index 0 onto the start of an
    earlier arc v; they are appended to v's list in increasing u, after
    that run, so every list is sorted and the edges come out in
    lexicographic order.  O(m log m + E) for m arcs and E edges.
    """
    n = cover.n_points
    nodes = cover.segments
    starts = [s for s, _ in nodes]
    ends = [s + k - 1 for s, k in nodes]
    if not all(map(le, starts, starts[1:])):
        raise ValueError("cover segments are not sorted by start")
    hits = [list(range(v + 1, bisect_right(starts, e))) for v, e in enumerate(ends)]
    for u, (s, e) in enumerate(zip(starts, ends)):
        if e >= n:  # a closed arc wrapping past index 0
            for v in range(min(u, bisect_right(starts, e - n))):
                if s > ends[v]:  # otherwise u is in v's run already
                    hits[v].append(u)
    edges = tuple([(v, u) for v, later in enumerate(hits) for u in later])
    # an inclusion always shows between neighbours in start order, taken
    # circularly, unless one arc is the whole circle (or the whole path)
    proper = len(nodes) < 2 or (all(map(lt, starts, starts[1:])) and all(map(lt, ends, ends[1:]))
                                and ends[-1] < ends[0] + n and n not in [k for _, k in nodes])
    return ArcGraph(nodes, edges, proper, interval=not cover.closed)
