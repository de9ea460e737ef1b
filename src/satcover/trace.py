"""From a binary raster to one digital path per connected component.

Pixels are classified by branching index (foreground neighbours): end
points (1), regular points (2) and branching points (>= 3); maximal
connected sets of branching pixels are junctions.  Removing the junctions
leaves simple open curves, which become the edges of a multigraph on
end points and junctions.  An Euler tour of that graph (after Chinese
Postman edge duplication when needed) is flattened back to a pixel path;
the first time a tour crosses a junction it takes a covering walk over
every junction pixel, so the output path visits all foreground pixels.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .paths import NEIGHBOUR_OFFSETS, Adjacency, DigitalPath, Point, validate_path
from .pbm import BinaryImage


class TraceError(ValueError):
    pass


class OddVerticesError(TraceError):
    """Chinese Postman matching refused: too many odd-degree vertices."""


class EmitError(TraceError):
    """A tour could not be flattened to a valid pixel path."""


def _bfs(seed: Point, inside, adjacency: Adjacency) -> dict[Point, Optional[Point]]:
    """Breadth-first search from seed through the pixels of `inside`, trying
    neighbours in sorted order.  Returns the search-tree parent of every
    reached pixel (None for the seed) in visit order, so each pixel's
    children appear sorted."""
    offsets = NEIGHBOUR_OFFSETS[adjacency]
    parent: dict[Point, Optional[Point]] = {seed: None}
    queue = deque([seed])
    while queue:
        u = queue.popleft()
        x, y = u
        for dx, dy in offsets:
            q = (x + dx, y + dy)
            if q in inside and q not in parent:
                parent[q] = u
                queue.append(q)
    return parent


def _connected_sets(pixels, adjacency: Adjacency) -> list[frozenset[Point]]:
    """Connected subsets of `pixels`, sorted by their smallest pixel."""
    out = []
    seen: set[Point] = set()
    for seed in sorted(pixels):
        if seed not in seen:
            comp = frozenset(_bfs(seed, pixels, adjacency))
            seen |= comp
            out.append(comp)
    return out


def components(img: BinaryImage, adjacency: Adjacency) -> list[frozenset[Point]]:
    """Connected components of the foreground, sorted by their smallest pixel."""
    return _connected_sets(img.foreground, adjacency)


def _neighbour_table(pixels, adjacency: Adjacency) -> dict[Point, list[Point]]:
    """Each pixel's neighbours among `pixels`, in sorted order."""
    offsets = NEIGHBOUR_OFFSETS[adjacency]
    table = {}
    for p in pixels:
        x, y = p
        table[p] = [q for dx, dy in offsets if (q := (x + dx, y + dy)) in pixels]
    return table


def _junctions(table: dict[Point, list[Point]], adjacency: Adjacency) -> list[frozenset[Point]]:
    """Maximal connected sets of branching pixels, sorted by their smallest pixel."""
    return _connected_sets({p for p, qs in table.items() if len(qs) >= 3}, adjacency)


def find_junctions(img: BinaryImage, adjacency: Adjacency) -> list[frozenset[Point]]:
    return _junctions(_neighbour_table(img.foreground, adjacency), adjacency)


# ---------------------------------------------------------------------------
# Curve graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Vertex:
    kind: str  # "end" | "junction" | "cycle"
    pixels: tuple[Point, ...]  # end: its pixel; junction: sorted pixels; cycle: ()


@dataclass(frozen=True)
class Edge:
    u: int
    v: int
    pixels: tuple[Point, ...]  # interior pixels only, ordered from the u side
    duplicate_of: Optional[int] = None  # set on Chinese-Postman copies

    @property
    def weight(self) -> int:
        return len(self.pixels) + 2


@dataclass(frozen=True)
class CurveGraph:
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]
    adjacency: Adjacency

    def degrees(self) -> list[int]:
        deg = [0] * len(self.vertices)
        for e in self.edges:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    def odd_vertices(self) -> list[int]:
        return [v for v, d in enumerate(self.degrees()) if d % 2 == 1]

    def is_connected(self) -> bool:
        return len(self.vertices) <= 1 or None not in _vertex_dijkstra(self, 0)[0]

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"kind": v.kind, "pixels": [[x, y] for x, y in v.pixels]} for v in self.vertices
            ],
            "edges": [
                {"u": e.u, "v": e.v, "pixels": [[x, y] for x, y in e.pixels]} for e in self.edges
            ],
        }


def _walk(table: dict[Point, list[Point]], start: Point, junction_of: dict[Point, int]) -> list[Point]:
    """The chain from `start`: step each time to the first neighbour that is
    neither a junction pixel nor the previous pixel, until there is none or
    the walk is back at `start`."""
    chain = [start]
    prev, cur = None, start
    while True:
        nxt = None
        for q in table[cur]:
            if q != prev and q not in junction_of:
                nxt = q
                break
        if nxt is None or nxt == start:
            return chain
        chain.append(nxt)
        prev, cur = cur, nxt


_DISCONNECTED = "expected a single connected component"


def build_curve_graph(img: BinaryImage, adjacency: Adjacency) -> CurveGraph:
    """Graph of one connected raster component.

    End pixels and junction pixels live on the vertices; edge pixel lists
    hold everything in between, so vertex pixels and edge pixels partition
    the foreground.  Every edge's pixels touch those of both its vertices,
    so the graph is connected iff the image is: the single-component check
    reads the graph instead of searching the pixels again.

    A non-junction pixel has at most two neighbours, so each end of an open
    chain is a tip (one neighbour) or a port (a junction pixel's
    non-junction neighbour), and the chains are walked from those ends.  A
    chain with neither touches nothing else: with no tip and no junction the
    component is one cycle, walked from its smallest pixel towards that
    pixel's smaller neighbour.
    """
    table = _neighbour_table(img.foreground, adjacency)
    if len(table) == 1:
        return CurveGraph((Vertex("end", tuple(table)),), (), adjacency)

    junctions = _junctions(table, adjacency)
    junction_of = {p: jid for jid, j in enumerate(junctions) for p in j}
    tips = sorted([p for p, qs in table.items() if len(qs) == 1])
    if not tips and not junctions:
        cycle = _walk(table, min(table), junction_of) if table else []
        # the empty image, or a cycle beside other cycles or isolated pixels
        if not cycle or len(cycle) != len(table):
            raise TraceError(_DISCONNECTED)
        return CurveGraph((Vertex("cycle", ()),), (Edge(0, 0, tuple(cycle)),), adjacency)

    ports = {q for p in junction_of for q in table[p] if q not in junction_of}
    chains = []
    far_ends: set[Point] = set()
    # each chain is met first at its smaller end
    for start in sorted(ports.union(tips)):
        if start not in far_ends:
            chain = _walk(table, start, junction_of)
            far_ends.add(chain[-1])
            chains.append(chain)
    # an isolated pixel or a cycle beside other strokes is on no walk
    if len(junction_of) + sum(map(len, chains)) != len(table):
        raise TraceError(_DISCONNECTED)
    chains.sort(key=min)

    vertices = [Vertex("junction", tuple(sorted(j))) for j in junctions]
    vertices += [Vertex("end", (p,)) for p in tips]
    end_vertex = {p: vid for vid, p in enumerate(tips, len(junctions))}

    def attachments(p: Point) -> list[int]:
        # a tip's own vertex, then its junction neighbours in sorted order; a
        # chain of two or more pixels attaches each end to one of them, a
        # one-pixel chain runs from the first to the last
        ids = [end_vertex[p]] if p in end_vertex else []
        ids += [junction_of[q] for q in table[p] if q in junction_of]
        return ids

    edges: list[Edge] = []
    for chain in chains:
        first, last = chain[0], chain[-1]
        # end pixels live on their vertices, not in the edge's pixel list
        start = 1 if first in end_vertex else 0
        stop = len(chain) - 1 if last in end_vertex else len(chain)
        edges.append(Edge(attachments(first)[0], attachments(last)[-1], tuple(chain[start:stop])))

    graph = CurveGraph(tuple(vertices), tuple(edges), adjacency)
    if not graph.is_connected():
        raise TraceError(_DISCONNECTED)
    return graph


# ---------------------------------------------------------------------------
# Chinese Postman and Euler tours
# ---------------------------------------------------------------------------


def _vertex_dijkstra(g: CurveGraph, source: int):
    """Shortest paths over the multigraph; returns (dist, predecessor edge)."""
    n = len(g.vertices)
    adj: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]  # (weight, other, edge id)
    for ei, e in enumerate(g.edges):
        adj[e.u].append((e.weight, e.v, ei))
        adj[e.v].append((e.weight, e.u, ei))
    dist = [None] * n
    pred: list[Optional[tuple[int, int]]] = [None] * n  # (prev vertex, edge id)
    heap = [(0, source)]
    dist[source] = 0
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for w, v, ei in adj[u]:
            nd = d + w
            if dist[v] is None or nd < dist[v]:
                dist[v] = nd
                pred[v] = (u, ei)
                heapq.heappush(heap, (nd, v))
    return dist, pred


def _min_weight_matching(odd: list[int], dist: dict[int, list]) -> list[tuple[int, int]]:
    n = len(odd)
    full = (1 << n) - 1

    @lru_cache(maxsize=None)
    def best(mask: int) -> int:
        if mask == full:
            return 0
        i = next(k for k in range(n) if not mask & (1 << k))
        out = None
        for j in range(i + 1, n):
            if mask & (1 << j):
                continue
            c = dist[odd[i]][odd[j]] + best(mask | (1 << i) | (1 << j))
            if out is None or c < out:
                out = c
        return out

    pairs = []
    mask = 0
    while mask != full:
        i = next(k for k in range(n) if not mask & (1 << k))
        target = best(mask)
        for j in range(i + 1, n):
            if mask & (1 << j):
                continue
            nm = mask | (1 << i) | (1 << j)
            if dist[odd[i]][odd[j]] + best(nm) == target:
                pairs.append((odd[i], odd[j]))
                mask = nm
                break
    best.cache_clear()
    return pairs


MAX_ODD = 20  # odd-vertex cap of the exact bitmask matching


def eulerize(g: CurveGraph) -> CurveGraph:
    """Duplicate edges along minimum-weight shortest paths pairing up the
    odd-degree vertices (edge weight = pixel count + 2), so that every
    vertex ends up with even degree.  The copies mark back-and-forth use."""
    if not g.is_connected():
        raise TraceError("cannot eulerize a disconnected graph")
    odd = g.odd_vertices()
    if not odd:
        return g
    if len(odd) > MAX_ODD:
        raise OddVerticesError(
            f"{len(odd)} odd vertices exceed the exact matching cap of {MAX_ODD}")
    dist = {}
    pred = {}
    for s in odd:
        dist[s], pred[s] = _vertex_dijkstra(g, s)
    pairs = _min_weight_matching(odd, dist)
    new_edges = list(g.edges)
    for a, b in pairs:
        cur = b
        while cur != a:
            prev, ei = pred[a][cur]
            base = g.edges[ei]
            new_edges.append(Edge(base.u, base.v, base.pixels, duplicate_of=ei))
            cur = prev
    return CurveGraph(g.vertices, tuple(new_edges), g.adjacency)


Traversal = tuple[int, int, int]  # (edge id, from vertex, to vertex)


def _hierholzer(g: CurveGraph, start: int) -> list[Traversal]:
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(len(g.vertices))}
    for ei, e in enumerate(g.edges):
        adj[e.u].append((ei, e.v))
        if e.v != e.u:
            adj[e.v].append((ei, e.u))
        else:
            adj[e.u].append((ei, e.u))  # self-loop occupies two slots
    used = [False] * len(g.edges)
    ptr = {v: 0 for v in adj}
    stack: list[tuple[int, Optional[int], Optional[int]]] = [(start, None, None)]
    out: list[Traversal] = []
    while stack:
        v, eid, frm = stack[-1]
        lst = adj[v]
        i = ptr[v]
        while i < len(lst) and used[lst[i][0]]:
            i += 1
        ptr[v] = i
        if i < len(lst):
            nei, nv = lst[i]
            used[nei] = True
            stack.append((nv, nei, v))
        else:
            stack.pop()
            if eid is not None:
                out.append((eid, frm, v))
    out.reverse()
    if len(out) != len(g.edges):
        raise TraceError("no Euler route: graph is disconnected")
    return out


def euler_tour(g: CurveGraph, start: int = 0) -> list[Traversal]:
    """Closed tour using every edge exactly once; requires all degrees even."""
    odd = g.odd_vertices()
    if odd:
        raise TraceError(f"graph has odd-degree vertices {odd}; eulerize first")
    if not g.is_connected():
        raise TraceError("graph is disconnected")
    if not g.edges:
        return []
    return _hierholzer(g, start)


def euler_open_trail(g: CurveGraph) -> list[Traversal]:
    """Open trail between the two odd vertices (which must be exactly two)."""
    odd = g.odd_vertices()
    if len(odd) != 2:
        raise TraceError(f"an open trail needs exactly 2 odd vertices, found {len(odd)}")
    if not g.is_connected():
        raise TraceError("graph is disconnected")
    return _hierholzer(g, min(odd))


# ---------------------------------------------------------------------------
# Flattening a tour back to pixels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """Where one edge traversal landed in the emitted path."""

    edge: int
    offset: int
    length: int
    forward: bool


def _route(parent: dict[Point, Optional[Point]], entry: Point, exit_: Point) -> list[Point]:
    """Search-tree path from the search's seed `entry` to exit_."""
    if exit_ not in parent:
        raise EmitError(f"junction pixels are not connected between {entry} and {exit_}")
    route = [exit_]
    while parent[route[-1]] is not None:
        route.append(parent[route[-1]])
    route.reverse()
    return route


def _junction_tree_walk(pixels: frozenset[Point], entry: Point, exit_: Point,
                        adjacency: Adjacency) -> list[Point]:
    """Walk visiting every junction pixel, starting at entry, ending at exit_:
    a spanning-tree traversal that descends the entry-to-exit spine last and
    does not climb back out of it (at most 2*|pixels| points)."""
    parent = _bfs(entry, pixels, adjacency)
    spine = _route(parent, entry, exit_)
    spine_next = dict(zip(spine, spine[1:]))
    children: dict[Point, list[Point]] = {p: [] for p in parent}
    for q, u in parent.items():
        if u is not None and spine_next.get(u) != q:
            children[u].append(q)

    out = [entry]
    stack = [(entry, iter(children[entry]))]
    while stack:
        u, todo = stack[-1]
        c = next(todo, None)
        if c is not None:
            out.append(c)
            stack.append((c, iter(children[c])))
            continue
        stack.pop()
        nxt = spine_next.get(u)
        if nxt is not None:
            # the spine replaces u on the stack: its walk never returns to u
            out.append(nxt)
            stack.append((nxt, iter(children[nxt])))
        elif stack:
            out.append(stack[-1][0])
    return out


def emit_path(g: CurveGraph, tour: list[Traversal]) -> tuple[DigitalPath, tuple[Run, ...]]:
    """Concatenate the tour's edge pixels, routing through junction pixels at
    the seams.  The first crossing of each junction covers all its pixels, so
    the emitted path visits every foreground pixel of the component.  The
    finished path is validated once, the wrap pair of a closed path included;
    a pair that is not adjacent raises EmitError."""
    if not tour:
        raise TraceError("cannot emit an empty tour")
    closed = tour[0][1] == tour[-1][2]
    adjacency = g.adjacency
    legs = []  # each traversal's edge pixels in walking order
    for eid, u, _ in tour:
        e = g.edges[eid]
        legs.append(e.pixels if u == e.u else e.pixels[::-1])
    stream: list[Point] = []
    runs: list[Run] = []
    seen: set[int] = set()

    def first(k: int) -> Point:
        # the first pixel traversal k emits; only a junction asks, as an
        # empty traversal from an end into a junction has none
        if legs[k]:
            return legs[k][0]
        vert = g.vertices[tour[k][2]]
        if vert.kind != "end":
            raise AssertionError("empty edge must end at an end vertex")
        return vert.pixels[0]

    def emit_vertex(vid: int, nxt: Optional[int]) -> None:
        # nxt: the index of the traversal that leaves vid, None at the end
        vert = g.vertices[vid]
        if vert.kind == "end" and (not stream or stream[-1] != vert.pixels[0]):
            stream.append(vert.pixels[0])
        if vert.kind != "junction":
            return
        pixels = frozenset(vert.pixels)
        entry = _attach(pixels, stream[-1]) if stream else None
        exit_ = _attach(pixels, first(nxt)) if nxt is not None else None
        if vid not in seen:
            seen.add(vid)
            if entry is None:
                entry = exit_ if exit_ is not None else min(pixels)
            if exit_ is None:
                exit_ = entry
            stream.extend(_junction_tree_walk(pixels, entry, exit_, adjacency))
        elif entry is not None and exit_ is not None:
            stream.extend(_route(_bfs(entry, pixels, adjacency), entry, exit_))

    def _attach(pixels: frozenset[Point], outside: Point) -> Point:
        # the smallest junction pixel next to `outside`
        x, y = outside
        for dx, dy in NEIGHBOUR_OFFSETS[adjacency]:
            if (q := (x + dx, y + dy)) in pixels:
                return q
        raise EmitError(f"pixel {outside} does not touch the junction it should")

    if not closed:
        emit_vertex(tour[0][1], 0)
    last = len(tour) - 1
    for k, (eid, u, v) in enumerate(tour):
        runs.append(Run(eid, len(stream), len(legs[k]), u == g.edges[eid].u))
        stream.extend(legs[k])
        emit_vertex(v, k + 1 if k < last else 0 if closed else None)

    path = DigitalPath(tuple(stream), closed=closed, adjacency=adjacency)
    report = validate_path(path)
    if not report.ok:
        i = report.index
        raise EmitError(f"seam break: {stream[i]} to {stream[(i + 1) % len(stream)]} not adjacent")
    return path, tuple(runs)


# ---------------------------------------------------------------------------
# Whole-image pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentTrace:
    path: DigitalPath
    graph: Optional[CurveGraph]  # eulerized when duplication was needed
    tour: tuple[Traversal, ...]
    runs: tuple[Run, ...]


def trace_component(img: BinaryImage, adjacency: Adjacency) -> ComponentTrace:
    """Trace one connected component (img must contain exactly one)."""
    fg = img.foreground
    if len(fg) == 1:
        p = next(iter(fg))
        return ComponentTrace(DigitalPath((p,), closed=False, adjacency=adjacency), None, (), ())
    g = build_curve_graph(img, adjacency)
    if not g.edges:
        # every pixel is branching: one junction blob, covered by a tree walk
        pixels = frozenset(g.vertices[0].pixels)
        start = min(pixels)
        walk = _junction_tree_walk(pixels, start, start, adjacency)
        return ComponentTrace(DigitalPath(tuple(walk), closed=False, adjacency=adjacency),
                              g, (), ())
    odd = g.odd_vertices()
    if len(odd) == 2:
        tour = euler_open_trail(g)
    else:
        if odd:
            g = eulerize(g)
        tour = euler_tour(g, 0)
    path, runs = emit_path(g, tour)
    return ComponentTrace(path, g, tuple(tour), runs)


def trace_image(img: BinaryImage, adjacency: Adjacency) -> list[ComponentTrace]:
    """One path per connected component, components ordered by smallest pixel."""
    subs = [BinaryImage(img.width, img.height, comp) for comp in components(img, adjacency)]
    return [trace_component(sub, adjacency) for sub in subs]
