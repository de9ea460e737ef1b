"""From a binary raster to one digital path per connected component.

Pixels are classified by branching index (foreground neighbours): end
points (1), regular points (2) and branching points (>= 3); maximal
connected sets of branching pixels are junctions.  Removing the junctions
leaves simple open curves, which become the edges of a multigraph on
end points and junctions.  The whole image is read from one neighbour
code byte per image-wide pixel id (see `satcover.pbm`; the decoder numbers
the pixels as it reads them): each junction is grouped in the one pass
over its pixels that finds its ports, the chains of every component are
walked at once, the pixels no walk reaches are lone pixels and pure
cycles, and the components are those of the graph of junctions and end
points joined by chains, so no search over the pixels finds them.  An
Euler tour of each graph (after Chinese Postman edge duplication when
needed) is flattened back to a pixel path; the first time a tour crosses
a junction it takes a covering walk over every junction pixel, on the
same ids, so the output path visits all foreground pixels.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Optional

from .paths import NEIGHBOUR_OFFSETS, Adjacency, DigitalPath, Point, validate_path
from .pbm import BinaryImage, _id_map


class TraceError(ValueError):
    pass


class OddVerticesError(TraceError):
    """Chinese Postman matching refused: one 2-edge-connected block of the
    curve graph has more than MAX_ODD vertices in its parity set."""


class EmitError(TraceError):
    """A tour could not be flattened to a valid pixel path."""


# Tables over a neighbour code byte, whose bit k says that the neighbour at
# the k-th offset of NEIGHBOUR_OFFSETS is foreground: the number of set bits
# (the branching index) and the directions of the set bits, lowest first,
# built as the codes below 2**k followed by each of them with bit k set.
_DEGREE = bytes(c.bit_count() for c in range(256))
_DIRECTIONS = [()]
for _k in range(8):
    _DIRECTIONS += [d + (_k,) for d in _DIRECTIONS]


def _classify(point: dict[int, Point], stride: int, adjacency: Adjacency):
    """One neighbour code byte per pixel id of `point`.

    The ids are the image-wide ids of `satcover.pbm`, (x + 1) * stride + y
    + 1 with stride = height + 2: a pixel's cell number, column by column,
    in the image padded by one cell.  So id order is tuple order and the
    neighbour at (dx, dy) is at id + dx * stride + dy, with no wrap between
    columns; any stride of at least max y - min y + 3 keeps this.  Returns
    those id offsets in NEIGHBOUR_OFFSETS order, the code of every id, and
    the sorted ids of the branching pixels (three or more neighbours) and
    of the tips (one)."""
    offs = tuple([dx * stride + dy for dx, dy in NEIGHBOUR_OFFSETS[adjacency]])
    code = dict.fromkeys(point, 0)
    # the offsets are sorted and symmetric, so direction flip - k is the
    # step back from direction k (flip = len(offs) - 1): each pixel probes
    # the larger half, and a hit sets bit k on it and bit flip - k on the
    # neighbour.  The probes are written out for each adjacency.
    if len(offs) == 4:
        o2, o3 = offs[2:]
        for i in point:
            c = 0
            if (j := i + o2) in code:
                c = 4
                code[j] |= 2
            if (j := i + o3) in code:
                c |= 8
                code[j] |= 1
            if c:
                code[i] |= c
    else:
        o4, o5, o6, o7 = offs[4:]
        for i in point:
            c = 0
            if (j := i + o4) in code:
                c = 16
                code[j] |= 8
            if (j := i + o5) in code:
                c |= 32
                code[j] |= 4
            if (j := i + o6) in code:
                c |= 64
                code[j] |= 2
            if (j := i + o7) in code:
                c |= 128
                code[j] |= 1
            if c:
                code[i] |= c
    degree = bytes(code.values()).translate(_DEGREE)
    return (offs, code, sorted(compress(code, map((3).__le__, degree))),
            sorted(compress(code, map((1).__eq__, degree))))


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

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"kind": v.kind, "pixels": [[x, y] for x, y in v.pixels]} for v in self.vertices
            ],
            "edges": [
                {"u": e.u, "v": e.v, "pixels": [[x, y] for x, y in e.pixels]} for e in self.edges
            ],
        }


def _walk(link: dict[int, int], steps, start: int) -> list[int]:
    """The chain of ids from `start`: step each time along the lowest bit of
    the pixel's code, once the bit back to the previous pixel is masked out,
    until no bit is left or the walk is back at `start`.  `steps[k]` holds
    the id offset of direction k and the mask that clears the bit back."""
    chain = [start]
    cur, keep = start, -1
    while c := link[cur] & keep:
        step, keep = steps[_DIRECTIONS[c][0]]
        cur += step
        if cur == start:
            break
        chain.append(cur)
    return chain


_DISCONNECTED = "expected a single connected component"


def _curve_graphs(point: dict[int, Point], stride: int, adjacency: Adjacency):
    """The curve graph of every connected component of the pixels of
    `point`, ordered by smallest pixel, from one code byte per pixel id (see
    `_classify`), and the image's context for `emit_path`.

    End pixels and junction pixels live on the vertices; edge pixel lists
    hold everything in between, so vertex pixels and edge pixels partition
    the component.  A non-junction pixel has at most two neighbours, so each
    end of an open chain is a tip (one neighbour) or a port (a junction
    pixel's non-junction neighbour), and the chains are walked from those
    ends on codes whose bits towards junction pixels are cleared.  What no
    walk reaches touches no tip and no junction: a lone pixel, or a cycle,
    which starts at its smallest pixel and goes towards that pixel's smaller
    neighbour.  Every edge's pixels touch those of both its vertices, so the
    components of the small graph of junctions and tips joined by chains
    are those of the image, and each keeps the numbering of the whole:
    junctions by smallest pixel, then tips, then chains by smallest pixel.
    The walk runs on ids, which id order keeps in tuple order; ids become
    pixels only where a vertex or an edge is built.

    The context is (offsets, code, link, point, junction_of, stride): the
    neighbour codes, the codes a walk follows (a junction pixel's keep only
    its bits towards its own junction), and each branching id's junction.
    """
    offs, code, branching, tips = _classify(point, stride, adjacency)
    flip = len(offs) - 1  # the step back from direction k (see `_classify`)
    steps = [(o, ~(1 << flip - k)) for k, o in enumerate(offs)]
    link = code.copy()
    junction_of = dict.fromkeys(branching, -1)  # -1 until its junction is found
    junctions = []
    ports = set()
    # one pass over the junction pixels: each junction grows breadth-first
    # from its smallest id, and a neighbour that is not branching is a port;
    # the bits between a junction and its ports are cleared on both sides
    for seed in branching:
        if junction_of[seed] < 0:
            jid = junction_of[seed] = len(junctions)
            blob = [seed]
            for j in blob:
                c = code[j]
                for k in _DIRECTIONS[c]:
                    if (q := j + offs[k]) not in junction_of:
                        ports.add(q)
                        link[q] &= steps[k][1]
                        c ^= 1 << k
                    elif junction_of[q] < 0:
                        junction_of[q] = jid
                        blob.append(q)
                link[j] = c
            blob.sort()
            junctions.append(blob)
    chains = []
    far_ends: set[int] = set()
    # each chain is met first at its smaller end
    for start in sorted(ports.union(tips)):
        if start not in far_ends:
            chain = _walk(link, steps, start)
            far_ends.add(chain[-1])
            chains.append(chain)
    chains.sort(key=min)

    vertices = [Vertex("junction", tuple(map(point.__getitem__, j))) for j in junctions]
    vertices += [Vertex("end", (point[p],)) for p in tips]
    end_vertex = {p: vid for vid, p in enumerate(tips, len(junctions))}

    def attachments(p: int) -> list[int]:
        # a tip's own vertex, then its junction neighbours in sorted order; a
        # chain of two or more pixels attaches each end to one of them, a
        # one-pixel chain runs from the first to the last
        ids = [end_vertex[p]] if p in end_vertex else []
        ids += [junction_of[q] for k in _DIRECTIONS[code[p]] if (q := p + offs[k]) in junction_of]
        return ids

    ends = [(attachments(c[0])[0], attachments(c[-1])[-1]) for c in chains]
    root = list(range(len(vertices)))  # union-find: a chain joins its two vertices

    def find(v: int) -> int:
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for u, v in ends:
        root[find(u)] = find(v)

    # by component: [smallest pixel, vertices, edges]; each pixel is in a
    # junction or on a chain, so the smallest is in the first of either
    parts: dict[int, list] = {}
    local = []
    for vid, vert in enumerate(vertices):
        part = parts.setdefault(find(vid), [vert.pixels[0], [], []])
        local.append(len(part[1]))
        part[1].append(vert)
    for chain, (u, v) in zip(chains, ends):
        part = parts[find(u)]
        if not part[2]:
            part[0] = min(part[0], point[min(chain)])
        # end pixels live on their vertices, not in the edge's pixel list
        start = 1 if chain[0] in end_vertex else 0
        stop = len(chain) - 1 if chain[-1] in end_vertex else len(chain)
        part[2].append(Edge(local[u], local[v], tuple(map(point.__getitem__, chain[start:stop]))))
    found = [(low, CurveGraph(tuple(vs), tuple(es), adjacency)) for low, vs, es in parts.values()]

    # what no walk reached: lone pixels and pure cycles
    rest = set(code).difference(junction_of, *chains)
    while rest:
        p = rest.pop()
        if not code[p]:
            found.append((point[p], CurveGraph((Vertex("end", (point[p],)),), (), adjacency)))
            continue
        cycle = _walk(link, steps, p)
        rest.difference_update(cycle)
        # from its smallest pixel towards that pixel's smaller neighbour
        k = cycle.index(min(cycle))
        cycle = cycle[k:] + cycle[:k]
        if cycle[1] != cycle[0] + offs[_DIRECTIONS[code[cycle[0]]][0]]:
            cycle[1:] = cycle[:0:-1]
        edge = Edge(0, 0, tuple(map(point.__getitem__, cycle)))
        found.append((point[cycle[0]], CurveGraph((Vertex("cycle", ()),), (edge,), adjacency)))
    graphs = [g for _, g in sorted(found, key=lambda f: f[0])]
    return graphs, (offs, code, link, point, junction_of, stride)


def _image_graphs(img: BinaryImage, adjacency: Adjacency):
    """`_curve_graphs` on the image's pixel ids."""
    return _curve_graphs(img._ids(), img.height + 2, adjacency)


def _one_graph(img: BinaryImage, adjacency: Adjacency):
    graphs, context = _image_graphs(img, adjacency)
    if len(graphs) != 1:
        raise TraceError(_DISCONNECTED)
    return graphs[0], context


def build_curve_graph(img: BinaryImage, adjacency: Adjacency) -> CurveGraph:
    """Graph of one connected raster component (see `_curve_graphs`)."""
    return _one_graph(img, adjacency)[0]


def components(img: BinaryImage, adjacency: Adjacency) -> list[frozenset[Point]]:
    """Connected components of the foreground, sorted by their smallest
    pixel: the pixels of each curve graph's vertices and edges."""
    return [frozenset().union(*[v.pixels for v in g.vertices], *[e.pixels for e in g.edges])
            for g in _image_graphs(img, adjacency)[0]]


def find_junctions(img: BinaryImage, adjacency: Adjacency) -> list[frozenset[Point]]:
    """Maximal connected sets of branching pixels, sorted by their smallest
    pixel: the junction vertices of every curve graph."""
    return [frozenset(pixels) for pixels in sorted(
        v.pixels for g in _image_graphs(img, adjacency)[0] for v in g.vertices
        if v.kind == "junction")]


# ---------------------------------------------------------------------------
# Chinese Postman and Euler tours
# ---------------------------------------------------------------------------


def _adjacency(g: CurveGraph, skip=frozenset()) -> list[list[tuple[int, int, int]]]:
    """Each vertex's (weight, other end, edge id) in edge-id order, leaving
    out the edges in `skip`; a self-loop is listed twice at its vertex."""
    adj: list[list[tuple[int, int, int]]] = [[] for _ in g.vertices]
    for ei, e in enumerate(g.edges):
        if ei not in skip:
            adj[e.u].append((e.weight, e.v, ei))
            adj[e.v].append((e.weight, e.u, ei))
    return adj


def _dijkstra(adj: list[list[tuple[int, int, int]]], source: int):
    """Shortest paths from source over `adj`; returns (dist, predecessor edge)."""
    n = len(adj)
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


def _blocks(adj: list[list[tuple[int, int, int]]]):
    """Reachability, bridges and 2-edge-connected blocks from one iterative
    lowlink search from vertex 0.  The search skips only the edge it arrived
    by, so a parallel copy of it is a back edge, and a self-loop lowers
    nothing: neither is ever a bridge.  Leaving u over a bridge closes u's
    block: the vertices found since u that no closed block holds yet.  The
    block left when the search ends holds vertex 0.

    Returns each vertex's block (-1 where the search does not reach), each
    block's vertices and each block's bridge above it as (edge id, its end
    in the block, its other end).  Blocks are numbered in the order they
    close, so a block comes before its parent; the last one, vertex 0's,
    has None for its bridge."""
    # `found` holds the discovered vertices that no closed block holds, in
    # discovery order; it is cut back only above the vertex being left, so
    # the positions of the vertices on the search stack order them as
    # their discovery times would, and serve as the lowlink values
    at = [-1] * len(adj)  # a vertex's position in `found`; -1 while undiscovered
    low = [0] * len(adj)
    block = [-1] * len(adj)
    found, members, up = [0], [], []
    at[0] = 0
    stack = [(0, -1, iter(adj[0]))]
    while stack:
        u, arrived_by, todo = stack[-1]
        for _, v, ei in todo:
            if ei == arrived_by:
                continue
            if at[v] >= 0:
                low[u] = min(low[u], at[v])
            else:
                at[v] = low[v] = len(found)
                found.append(v)
                stack.append((v, ei, iter(adj[v])))
                break
        else:
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] <= at[p]:
                    continue
                up.append((arrived_by, u, p))
            else:
                up.append(None)
            for v in found[at[u]:]:
                block[v] = len(members)
            members.append(found[at[u]:])
            del found[at[u]:]
    return block, members, up


MAX_ODD = 20  # cap on one block's parity set, for the exact bitmask matching


def _postman_edges(g: CurveGraph, odd: list[int], block: list[int],
                   members: list[list[int]], up: list) -> list[int]:
    """The edge ids to duplicate, pair by pair, on the blocks of `_blocks`.
    The odd vertices are paired by the lexicographically first
    minimum-weight pairing: the lowest unpaired vertex a takes the smallest
    partner c with which the rest can still reach the optimum.  Each pair's
    edges are those of the shortest path from a, listed from c back to a.

    The optimum tau(T) of a set T of vertices splits over the bridges and
    2-edge-connected blocks.  A bridge is duplicated iff the side of it
    away from vertex 0 holds an odd number of T.  Each block pairs its
    parity set by a bitmask DP: its vertices in T, with each end of a
    duplicated bridge toggled.  A shortest path between two vertices of a
    block stays inside it, so the DP reads distances from a search that
    never crosses a bridge.

    Pairing a with c un-duplicates every bridge between their blocks and
    toggles two vertices (x, y) in each block on the way; dist(a, c) is the
    sum of those bridges and the block distances d(x, y).  No part of tau
    drops by more than its share of dist(a, c), so c reaches the optimum
    iff every bridge on the way is duplicated and each block's DP drops by
    exactly d(x, y).  A tree's blocks are single vertices, so a tree pairs
    by parity alone and needs no search."""
    bit = [0] * len(block)  # a vertex's bit in its block's masks
    for vs in members:
        for k, v in enumerate(vs):
            bit[v] = 1 << k

    # the parity sets of `odd`: one mask per block, children before parents
    mask = [0] * len(members)
    below = [0] * len(members)  # odd vertices in the block and under it
    for v in odd:
        mask[block[v]] ^= bit[v]
        below[block[v]] += 1
    doubled = [False] * len(g.edges)
    for b, (ei, lo, hi) in enumerate(up[:-1]):
        below[block[hi]] += below[b]
        if below[b] % 2:
            doubled[ei] = True
            mask[b] ^= bit[lo]
            mask[block[hi]] ^= bit[hi]
    worst = max(m.bit_count() for m in mask)
    if worst > MAX_ODD:
        raise OddVerticesError(f"{worst} odd vertices in one 2-edge-connected block "
                               f"exceed the exact matching cap of {MAX_ODD}")

    inner = _adjacency(g, {bridge[0] for bridge in up[:-1]})
    searches: dict[int, tuple] = {}

    def paths_from(v: int):
        if v not in searches:
            searches[v] = _dijkstra(inner, v)
        return searches[v]

    @lru_cache(maxsize=None)
    def tau(b: int, m: int) -> int:
        # the minimum pairing weight of the vertices of block b in mask m
        if not m:
            return 0
        lowest = m & -m
        dist = paths_from(members[b][lowest.bit_length() - 1])[0]
        rest = todo = m ^ lowest
        best = None
        while todo:
            j = todo & -todo
            todo ^= j
            c = dist[members[b][j.bit_length() - 1]] + tau(b, rest ^ j)
            if best is None or c < best:
                best = c
        return best

    def route(a: int, c: int):
        # the legs (x, y) inside each block from a to c and the bridges
        # between them, or None at a bridge that is not duplicated; a block
        # is numbered before its parent, so the smaller of two is never an
        # ancestor of the other and climbs towards their meeting block
        xa, xc, ba, bc = a, c, block[a], block[c]
        legs_a, legs_c, bridges_a, bridges_c = [], [], [], []
        while ba != bc:
            if ba < bc:
                ei, lo, hi = up[ba]
                if not doubled[ei]:
                    return None
                legs_a.append((xa, lo))
                bridges_a.append(ei)
                xa, ba = hi, block[hi]
            else:
                ei, lo, hi = up[bc]
                if not doubled[ei]:
                    return None
                legs_c.append((lo, xc))
                bridges_c.append(ei)
                xc, bc = hi, block[hi]
        return legs_a + [(xa, xc)] + legs_c[::-1], bridges_a + bridges_c[::-1]

    def tight(x: int, y: int) -> bool:
        if x == y:
            return True
        b = block[x]
        return tau(b, mask[b]) - tau(b, mask[b] ^ bit[x] ^ bit[y]) == paths_from(x)[0][y]

    out: list[int] = []
    unpaired = list(odd)
    while unpaired:
        a = unpaired[0]
        for k in range(1, len(unpaired)):
            found = route(a, unpaired[k])
            if found is not None and all(tight(x, y) for x, y in found[0]):
                break
        else:
            raise AssertionError(f"no optimal partner for odd vertex {a}")
        del unpaired[k], unpaired[0]
        legs, crossed = found
        for ei in crossed:
            doubled[ei] = False
        for x, y in legs:
            mask[block[x]] ^= bit[x] ^ bit[y]
        # from c back to a: each leg from its far end, then the bridge before it
        for k in range(len(legs) - 1, -1, -1):
            x, cur = legs[k]
            while cur != x:
                cur, ei = paths_from(x)[1][cur]
                out.append(ei)
            if k:
                out.append(crossed[k - 1])
    tau.cache_clear()
    return out


def eulerize(g: CurveGraph) -> CurveGraph:
    """Duplicate edges along minimum-weight shortest paths pairing up the
    odd-degree vertices (edge weight = pixel count + 2), so that every
    vertex ends up with even degree.  The copies mark back-and-forth use.
    Bridges are duplicated by parity and only the 2-edge-connected blocks
    are matched exactly, so a tree of any size eulerizes; a block whose
    parity set exceeds MAX_ODD raises OddVerticesError, and a disconnected
    graph (one search from vertex 0 leaves a vertex unreached) TraceError."""
    if not g.vertices:
        return g
    blocks = _blocks(_adjacency(g))
    if -1 in blocks[0]:
        raise TraceError("cannot eulerize a disconnected graph")
    odd = g.odd_vertices()
    if not odd:
        return g
    new_edges = list(g.edges)
    for ei in _postman_edges(g, odd, *blocks):
        base = g.edges[ei]
        new_edges.append(Edge(base.u, base.v, base.pixels, duplicate_of=ei))
    return CurveGraph(g.vertices, tuple(new_edges), g.adjacency)


Traversal = tuple[int, int, int]  # (edge id, from vertex, to vertex)


def _hierholzer(g: CurveGraph, start: int) -> list[Traversal]:
    """Hierholzer's walk from start, taking each vertex's edges in the slot
    order of `_adjacency`.  The graph is disconnected when, with two or more
    vertices, one has no edge, or when the walk misses an edge."""
    adj = _adjacency(g)
    if len(adj) > 1 and not all(adj):
        raise TraceError("graph is disconnected")
    used = [False] * len(g.edges)
    todo = [iter(slots) for slots in adj]  # each vertex's slots not yet passed
    stack: list[tuple[int, Optional[int], Optional[int]]] = [(start, None, None)]
    out: list[Traversal] = []
    while stack:
        v, eid, frm = stack[-1]
        for _, nv, nei in todo[v]:
            if not used[nei]:
                used[nei] = True
                stack.append((nv, nei, v))
                break
        else:
            stack.pop()
            if eid is not None:
                out.append((eid, frm, v))
    out.reverse()
    if len(out) != len(g.edges):
        raise TraceError("graph is disconnected")
    return out


def euler_tour(g: CurveGraph, start: int = 0) -> list[Traversal]:
    """Closed tour using every edge exactly once; requires all degrees even."""
    odd = g.odd_vertices()
    if odd:
        raise TraceError(f"graph has odd-degree vertices {odd}; eulerize first")
    if not g.vertices:
        return []
    if start not in range(len(g.vertices)):
        raise TraceError(f"start {start} is not a vertex of the graph")
    return _hierholzer(g, start)


def euler_open_trail(g: CurveGraph) -> list[Traversal]:
    """Open trail between the two odd vertices (which must be exactly two)."""
    odd = g.odd_vertices()
    if len(odd) != 2:
        raise TraceError(f"an open trail needs exactly 2 odd vertices, found {len(odd)}")
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


def _id_of(p: Point, stride: int) -> int:
    """The id of pixel p (see `_classify`)."""
    return (p[0] + 1) * stride + p[1] + 1


def _junction_walk(context, entry: int, exit_: int, cover: bool = True) -> list[Point]:
    """A walk through the pixels of one junction from id entry to id exit_,
    from one breadth-first search rooted at entry over the junction's codes
    in `context` (see `_curve_graphs`).  The directions of a code come out
    in NEIGHBOUR_OFFSETS order, so neighbours are tried in sorted order.
    Its spine is the search-tree path from entry to exit_; with `cover`, the
    walk visits every pixel: a spanning-tree traversal that descends the
    spine last and does not climb back out of it (at most 2*|pixels|
    points)."""
    offs, link, point = context[0], context[2], context[3]
    parent: dict[int, Optional[int]] = {entry: None}
    order = [entry]  # visit order; the search appends to it as it reads it
    for u in order:
        for k in _DIRECTIONS[link[u]]:
            if (q := u + offs[k]) not in parent:
                parent[q] = u
                order.append(q)
    if exit_ not in parent:
        raise EmitError(f"junction pixels are not connected between {point[entry]} "
                        f"and {point[exit_]}")
    spine = [exit_]
    while parent[spine[-1]] is not None:
        spine.append(parent[spine[-1]])
    spine.reverse()
    if not cover:
        return list(map(point.__getitem__, spine))
    spine_next = dict(zip(spine, spine[1:]))
    children: dict[int, list[int]] = {p: [] for p in parent}
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
    return list(map(point.__getitem__, out))


def _graph_context(g: CurveGraph):
    """The context of `_curve_graphs` for the image of `g`'s own pixels."""
    pixels = {p for v in g.vertices for p in v.pixels}.union(*[e.pixels for e in g.edges])
    ys = [y for _, y in pixels]
    stride = max(ys, default=0) - min(ys, default=0) + 3
    return _curve_graphs(_id_map(pixels, stride), stride, g.adjacency)[1]


def emit_path(g: CurveGraph, tour: list[Traversal],
              context=None) -> tuple[DigitalPath, tuple[Run, ...]]:
    """Concatenate the tour's edge pixels, routing through junction pixels at
    the seams.  The first crossing of each junction covers all its pixels, so
    the emitted path visits every foreground pixel of the component.  The
    finished path is validated once, the wrap pair of a closed path included;
    a pair that is not adjacent raises EmitError.  The junctions are walked
    on the ids of `context`, the one `_curve_graphs` returned with `g`; with
    none, it is made from the pixels of `g`."""
    if not tour:
        raise TraceError("cannot emit an empty tour")
    if context is None:
        context = _graph_context(g)
    offs, code, _, _, junction_of, stride = context
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
        root = _id_of(vert.pixels[0], stride)
        if (jid := junction_of.get(root)) is None:
            raise EmitError(f"junction at {vert.pixels[0]} is not one of the image")
        entry = _attach(stream[-1], jid) if stream else None
        exit_ = _attach(first(nxt), jid) if nxt is not None else None
        if vid not in seen:
            seen.add(vid)
            if entry is None:
                entry = exit_ if exit_ is not None else root
            if exit_ is None:
                exit_ = entry
            stream.extend(_junction_walk(context, entry, exit_))
        elif entry is not None and exit_ is not None:
            stream.extend(_junction_walk(context, entry, exit_, cover=False))

    def _attach(outside: Point, jid: int) -> int:
        # the smallest pixel of junction jid next to `outside`, from the
        # code bits of `outside`
        p = _id_of(outside, stride)
        for k in _DIRECTIONS[code.get(p, 0)]:
            if junction_of.get(q := p + offs[k]) == jid:
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


def _trace_graph(g: CurveGraph, context) -> ComponentTrace:
    """The trace of one component, from its curve graph and the context
    `_curve_graphs` returned with it."""
    if not g.edges:
        # a lone pixel, or a blob of branching pixels covered by a tree walk
        vert = g.vertices[0]
        if vert.kind == "end":
            return ComponentTrace(DigitalPath(vert.pixels, closed=False, adjacency=g.adjacency),
                                  None, (), ())
        root = _id_of(vert.pixels[0], context[5])
        walk = _junction_walk(context, root, root)
        return ComponentTrace(DigitalPath(tuple(walk), closed=False, adjacency=g.adjacency),
                              g, (), ())
    odd = g.odd_vertices()
    if len(odd) == 2:
        tour = euler_open_trail(g)
    else:
        if odd:
            g = eulerize(g)
        tour = euler_tour(g, 0)
    path, runs = emit_path(g, tour, context)
    return ComponentTrace(path, g, tuple(tour), runs)


def trace_component(img: BinaryImage, adjacency: Adjacency) -> ComponentTrace:
    """Trace one connected component (img must contain exactly one)."""
    return _trace_graph(*_one_graph(img, adjacency))


def trace_image(img: BinaryImage, adjacency: Adjacency) -> list[ComponentTrace]:
    """One path per connected component, components ordered by smallest pixel."""
    graphs, context = _image_graphs(img, adjacency)
    return [_trace_graph(g, context) for g in graphs]
