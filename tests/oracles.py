"""Independent oracles used by the test suite.

The DSS feasibility oracle decides digital straightness by brute-force
satisfiability of the digitization inequalities: it enumerates every
candidate slope (a, b) up to the interval length and checks whether the
remainder spread fits the band width.  It shares nothing with the
incremental recognizer.

`load_pbm_reference` is the PBM decoder that tokenizes byte by byte and
decodes pixels cell by cell; the whole-buffer decoder must accept, reject
and decode exactly like it.

`build_curve_graph_reference` is the curve-graph builder that searches the
image for components again, computes branching indices pixel by pixel and
orders each chain from its own neighbour dict; the neighbour-table builder,
which reads its single-component check from the graph it built, must
return the same graph or raise the same exception type.
`find_junctions_reference` returns the maximal connected sets of branching
pixels as plain frozensets, found from those per-pixel branching indices;
the junction vertices of the graph builder must hold the same sets.

`connected_sets_reference` is a flood fill on tuple pixels, written here
and shared with no code it checks.  `components_reference` runs it on the
foreground, and `find_junctions_reference` and `curve_graphs_reference`
group the branching pixels with it.  `satcover.trace.components` and
`satcover.trace.find_junctions` are read from the curve graphs of the
builder on integer pixel ids, and must return the same sets in the same
order.

`curve_graphs_reference` is the whole-image graph builder on tuple pixels:
a table of neighbour lists per pixel, and chains walked by testing each
neighbour against the previous pixel and the junction pixels.  The builder
on integer pixel ids and neighbour code bytes must return the same graphs,
in the same order, at both adjacencies.

`ReferenceDssRecognizer` is the hook-based DSS recognizer that the
predicate module ran one point at a time before its runs became one loop:
the base class's runs drive its three hooks, it counts each point's
occurrences in a dict and keeps step vectors as tuples.  The one-loop
recognizer must match it run for run: interval, characteristics, leaning
points, core and calls.

`dss_replay` re-derives a DSS recognizer's state from its core points
alone, by extending a fresh core one point at a time at either end; the
O(1) retraction must leave the same state as this replay, and the replays
at the two ends must agree.

`validate_path_reference` is the path validator that tests every
consecutive pair with `is_adjacent`; the unit-step validator must return
the same report.

`arc_graph_reference` is the arc-graph builder that tests every pair of
arcs; the sorted-start builder must return the same nodes, edges and
`proper` flag on every start-sorted family, proper or not.
`literal_cover` is the saturated cover by its definition verbatim: every
interval is evaluated and true intervals contained in other true
intervals are dropped.

`blocks_reference` finds the bridges and 2-edge-connected blocks of a
multigraph by deleting each edge in turn and searching again; the one
lowlink search of `satcover.trace` must give the same blocks and bridges.

`interval_contains` is the containment test of two index intervals that
the arc-graph builder no longer needs; `arc_graph_reference` and
`literal_cover` test inclusions with it.

`min_weight_matching_reference` is the bitmask matching over all odd
vertices that `satcover.trace.eulerize` used before it split the problem
over bridges and 2-edge-connected blocks: the lowest unpaired odd vertex
takes the smallest partner that can still reach the optimum.  The
eulerization must duplicate the edges of exactly these pairs.

`junction_tree_walk_reference` is the walk through a junction on tuple
pixels that `satcover.trace.emit_path` took before it walked on pixel ids:
a breadth-first search that builds a tuple for each neighbour of each
pixel and tests it against the junction's pixel set.  The walk on ids must
give the same covering walk and the same spine.

`dump_p1_reference` and `dump_p4_reference` are the PBM writers that visit
every cell of the image; the writers that start from a blank file and mark
only the foreground pixels must write the same bytes.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from satcover.arcs import ArcGraph
from satcover.cover import SaturatedCover
from satcover.paths import (
    NEIGHBOUR_OFFSETS,
    UNIT_STEPS,
    Adjacency,
    DigitalPath,
    IndexInterval,
    Point,
    ValidationReport,
    is_adjacent,
)
from satcover.pbm import BinaryImage, PbmError
from satcover.predicates import (
    DssRecognizer,
    PredicateError,
    PredicateSpec,
    Recognizer,
    make_recognizer,
)
from satcover.trace import CurveGraph, Edge, EmitError, TraceError, Vertex


def interval_points(path: DigitalPath, iv: IndexInterval) -> list[Point]:
    return [path.points[i] for i in iv.indices(path.n_points)]


def validate_path_reference(path: DigitalPath) -> ValidationReport:
    """The pairwise validator that `satcover.paths.validate_path` replaced:
    each consecutive pair, then the closing pair, is tested for repetition
    before adjacency."""
    pts = path.points
    n1 = len(pts)
    if n1 == 0:
        return ValidationReport(False, kind="empty")
    for i in range(n1 - 1):
        if pts[i] == pts[i + 1]:
            return ValidationReport(False, index=i, kind="repetition")
        if not is_adjacent(pts[i], pts[i + 1], path.adjacency):
            return ValidationReport(False, index=i, kind="not_adjacent")
    if path.closed:
        if pts[-1] == pts[0]:
            return ValidationReport(False, index=n1 - 1, kind="repetition", closing=True)
        if not is_adjacent(pts[-1], pts[0], path.adjacency):
            return ValidationReport(False, index=n1 - 1, kind="bad_closure", closing=True)
    return ValidationReport(True)


def interval_contains(n_points: int, closed: bool, outer: IndexInterval, inner: IndexInterval) -> bool:
    """True iff inner's index range is a subset of outer's (circularly for closed)."""
    if inner.length > outer.length:
        return False
    if not closed:
        return outer.start <= inner.start and inner.start + inner.length <= outer.start + outer.length
    if outer.length == n_points:
        return True
    offset = (inner.start - outer.start) % n_points
    return offset + inner.length <= outer.length


def intervals_intersect(n_points: int, closed: bool, a: IndexInterval, b: IndexInterval) -> bool:
    """True iff the two index ranges share at least one index."""
    if not closed:
        return max(a.start, b.start) <= min(a.start + a.length, b.start + b.length) - 1
    if a.length == n_points or b.length == n_points:
        return True
    off_ab = (b.start - a.start) % n_points
    off_ba = (a.start - b.start) % n_points
    return off_ab < a.length or off_ba < b.length


def arc_graph_reference(intervals, n_points: int, closed: bool) -> ArcGraph:
    """The arc graph by every pair of arcs, in any order: an edge for every
    pair sharing an index, and `proper` False when either arc of some pair
    contains the other.  `satcover.arcs.build_arc_graph` must return the
    same graph for every cover whose segments are sorted by start."""
    nodes = tuple(IndexInterval(*iv) for iv in intervals)
    edges = []
    proper = True
    for u in range(len(nodes)):
        for v in range(u + 1, len(nodes)):
            if intervals_intersect(n_points, closed, nodes[u], nodes[v]):
                edges.append((u, v))
            if (interval_contains(n_points, closed, nodes[u], nodes[v])
                    or interval_contains(n_points, closed, nodes[v], nodes[u])):
                proper = False
    return ArcGraph(nodes, tuple(edges), proper, interval=not closed)


def enumerate_subpaths(path: DigitalPath, max_len: Optional[int] = None) -> Iterator[IndexInterval]:
    """Every valid IndexInterval of the path, exactly once.

    Open path of n+1 points: all (start, length) with start+length <= n+1,
    i.e. (n+1)(n+2)/2 intervals.  Closed path: every start with lengths
    1 .. n+1, i.e. (n+1)^2 intervals.
    """
    n1 = path.n_points
    for start in range(n1):
        longest = n1 if path.closed else n1 - start
        if max_len is not None:
            longest = min(longest, max_len)
        for length in range(1, longest + 1):
            yield IndexInterval(start, length)


def literal_cover(path: DigitalPath, spec: PredicateSpec) -> SaturatedCover:
    """Every interval is evaluated statelessly and true intervals contained
    in other true intervals are removed.  This is the definition of the
    saturated cover verbatim, but it needs O(n^2) checks, so keep n small."""
    n1 = path.n_points
    closed = path.closed
    rec = make_recognizer(spec, path)
    true_ivs = [iv for iv in enumerate_subpaths(path) if rec.holds(iv)]
    if closed and any(iv.length == n1 for iv in true_ivs):
        # full-turn intervals at every start share one index set; the
        # whole circle is the single saturated subpath, start 0 canonical
        segments = (IndexInterval(0, n1),)
    else:
        segments = tuple(sorted(
            iv for iv in true_ivs
            if not any(o != iv and interval_contains(n1, closed, o, iv) for o in true_ivs)))
    return SaturatedCover(n1, closed, spec, segments, rec.calls)


def neighbours(p: Point, adjacency: Adjacency) -> tuple[Point, ...]:
    """The neighbourhood of p, in sorted order."""
    if adjacency is Adjacency.INDEX:
        raise ValueError("INDEX adjacency has no finite neighbourhood")
    x, y = p
    return tuple((x + dx, y + dy) for dx, dy in NEIGHBOUR_OFFSETS[adjacency])


def branching_index(img: BinaryImage, p: Point, adjacency: Adjacency) -> int:
    """Number of foreground neighbours of a foreground pixel."""
    if p not in img.foreground:
        raise ValueError(f"pixel {p} is not foreground")
    return sum(1 for q in neighbours(p, adjacency) if q in img.foreground)


def dss_feasible(path: DigitalPath, iv: IndexInterval) -> bool:
    """Is there (a, b, mu) with mu <= a*x - b*y <= mu + omega - 1 on every
    interval point?  omega = max(|a|,|b|) for 8-paths, |a|+|b| for 4-paths.

    A feasible interval of m distinct points is feasible with |a|, |b| <= m,
    so the enumeration is exhaustive.
    """
    pts = interval_points(path, iv)
    naive = path.adjacency is Adjacency.EIGHT
    xs = np.array([p[0] for p in pts], dtype=np.int64)
    ys = np.array([p[1] for p in pts], dtype=np.int64)
    bound = len(set(pts)) + 1
    a_vals = np.arange(0, bound + 1)
    b_vals = np.arange(-bound, bound + 1)
    aa, bb = np.meshgrid(a_vals, b_vals, indexing="ij")
    aa = aa.ravel()
    bb = bb.ravel()
    keep = (aa != 0) | (bb != 0)
    aa, bb = aa[keep], bb[keep]
    r = aa[:, None] * xs[None, :] - bb[:, None] * ys[None, :]
    spread = r.max(axis=1) - r.min(axis=1)
    omega = np.maximum(np.abs(aa), np.abs(bb)) if naive else np.abs(aa) + np.abs(bb)
    return bool(np.any(spread <= omega - 1))


def dss_state(rec: DssRecognizer) -> tuple:
    """(characteristics, leaning points, step counts) of a DSS recognizer's
    core.  The characteristics are sign-normalized like `characteristics()`;
    the leaning points are the tuple (Uf, Ul, Lf, Ll), and a sign flip swaps
    the upper ones (Uf, Ul) with the lower ones (Lf, Ll); step counts map
    each step vector between consecutive core points to its number of
    occurrences, decoded from the recognizer's step codes 3 * dx + dy."""
    lean = rec._lean
    if lean is not None:
        a, b, _ = rec._chars
        if a < 0 or (a == 0 and b < 0):
            lean = lean[2:] + lean[:2]
        lean = tuple(lean)
    steps = {}
    for code in rec._dirs:
        dx = (code + 1) // 3
        steps[dx, code - 3 * dx] = rec._steps[code]
    return rec.characteristics(), lean, steps


def dss_replay(core_points, adjacency: Adjacency, front: bool = True) -> tuple:
    """The core part of `dss_state` (characteristics, leaning points, step
    counts), rebuilt from scratch on a path of the core points, which are
    distinct and adjacent: a fresh recognizer is reset to the first core
    point and extended at its front by each following point in turn.  With
    `front=False` it is extended at its back by each earlier point in turn.
    A singleton's first step always lands at its last end, so that replay
    starts from the last two core points, joined by one front extension."""
    pts = list(core_points)
    rec = DssRecognizer(DigitalPath(tuple(pts), closed=False, adjacency=adjacency))
    if front or len(pts) < 3:
        rec.reset(0)
        grown = all(rec.try_extend_positive() for _ in pts[1:])
    else:
        rec.reset(len(pts) - 2)
        grown = rec.try_extend_positive() and all(rec.try_extend_negative() for _ in pts[2:])
    if not grown or list(rec._core) != pts:
        raise AssertionError("core replay failed; recognizer state corrupt")
    chars, lean, _ = dss_state(rec)
    steps = Counter((q[0] - p[0], q[1] - p[1]) for p, q in zip(pts, pts[1:]))
    return chars, lean, dict(steps)


class ReferenceDssRecognizer(Recognizer):
    """Arithmetic DSS recognition with O(1) extension and removal at both
    ends of the core, one hook call per point: the recognizer that
    `satcover.predicates.DssRecognizer` runs in one loop.  It keeps a
    multiplicity count per point; a revisit only bumps its point's count,
    and a new point must extend the core.

    Extension is the incremental recognition of Debled-Rennesson and
    Reveilles.  Removal is its inverse, the retraction step of maximal
    segment computation (Feschet & Tougne, *Optimal time computation of the
    tangent of a discrete curve*, DGCI 1999; Lachaud, Vialard & de
    Vieilleville, *Fast, accurate and convergent tangent estimation on
    digital contours*, IVC 2007): the characteristics change only when the
    removed extremity was one of exactly two leaning points of its kind
    and the other kind has one.

    Both ends of the core are the same operation seen from opposite sides,
    so each is written once and indexed by the end: 0 for the first core
    point, 1 for the last.  Each hook is one frame, apart from the line
    turns, and the band width w is stored beside (a, b, mu).  Steps are read
    in core order, first to last.
    A core with two step directions accepts only those two; a core with one
    direction d accepts a step s iff s.d > 0 on 8-paths (d or an eighth
    turn) and s.d >= 0 on 4-paths (d or a quarter turn).
    """

    def __init__(self, path: DigitalPath):
        if path.adjacency is Adjacency.INDEX:
            raise PredicateError("dss requires grid adjacency (4 or 8), not index-only")
        super().__init__(path)
        self._naive = path.adjacency is Adjacency.EIGHT
        self._units = UNIT_STEPS[path.adjacency]
        # occurrences in the interval of each of its distinct points, never
        # 0; a plain dict because every new point is a miss, and a Counter
        # miss runs its Python-level __missing__
        self._counts: dict = {}
        self._core: deque = deque()
        self._chars = None  # (a, b, mu) or None while the core is a singleton
        # the band width w of _chars, updated with it
        self._width = 0
        # [Uf, Ul, Lf, Ll]: the upper leaning point at end e is _lean[e],
        # the lower one _lean[2 + e]
        self._lean = None
        self._steps: dict = {}  # step vector -> occurrences in the core

    # -- characteristics ----------------------------------------------------

    def characteristics(self) -> Optional[tuple[int, int, int]]:
        """Current (a, b, mu), sign-normalized to a >= 0 (b > 0 when a == 0).

        None for a single-point core, where the line is unconstrained.
        """
        if self._chars is None:
            return None
        a, b, mu = self._chars
        if a < 0 or (a == 0 and b < 0):
            a, b, mu = -a, -b, -mu - self._width + 1
        return (a, b, mu)

    # -- hooks ---------------------------------------------------------------

    def _on_reset(self, index: int, p: Point) -> bool:
        self._counts = {p: 1}
        self._core = deque([p])
        self._chars = None
        self._lean = None
        self._steps = {}
        return True

    def _try_add(self, index: int, p: Point, positive: bool, closing: bool) -> bool:
        # band membership is a property of the point multiset, so the
        # wrap join needs no extra handling here
        counts = self._counts
        count = counts.get(p)
        if count:
            counts[p] = count + 1
            return True
        # a new point must be adjacent to a core end, which it then extends
        core = self._core
        x, y = p
        if self._chars is None:
            # the first step: the line through both points, of width 1
            q = core[0]
            step = (x - q[0], y - q[1])
            if step not in self._units:
                return False
            a, b = step[1], step[0]
            self._chars = (a, b, a * q[0] - b * q[1])
            self._width = 1
            self._lean = [q, p, q, p]
            self._steps = {step: 1}
            core.append(p)
            counts[p] = 1
            return True

        a, b, mu = self._chars
        om = self._width
        r = a * x - b * y
        if not mu - 1 <= r <= mu + om:
            return False  # no end can take a point this far off the band
        steps = self._steps
        lean = self._lean
        for end in (1, 0):  # the last core point first, then the first
            if end:
                q = core[-1]
                step = (x - q[0], y - q[1])
            else:
                q = core[0]
                step = (q[0] - x, q[1] - y)
            # the step must be a unit step next to the core's only direction
            # (see the class docstring), or one of its two directions
            if len(steps) == 1:
                (d,) = steps
                dot = step[0] * d[0] + step[1] * d[1]
                if step not in self._units or dot < 0 or (dot == 0 and self._naive):
                    continue
            elif step not in steps:
                continue
            if mu <= r < mu + om:
                if r == mu:
                    lean[end] = p
                if r == mu + om - 1:
                    lean[2 + end] = p
            else:
                # p lies just above (below) the band: the line turns about
                # the upper (lower) leaning point at the far end, and the
                # lower (upper) leaning point at p's end is the only one of
                # its kind that survives, so it becomes the one at both ends.
                upper = r < mu
                same = 0 if upper else 2
                other = 2 - same
                witness = lean[other + end]
                new = self._slope_through(p, lean[same + 1 - end], witness, upper)
                if new is None:
                    continue
                self._chars, self._width = new
                lean[same + end] = p
                lean[other + 1 - end] = witness
            count = steps.get(step, 0)
            steps[step] = count + 1
            if not count and len(steps) > 2:
                raise AssertionError("segment core acquired a third step direction")
            core.append(p) if end else core.appendleft(p)
            counts[p] = 1
            return True
        return False

    def _on_remove(self, index: int, p: Point, opening: bool) -> None:
        counts = self._counts
        count = counts[p] - 1
        if count:
            counts[p] = count
            return
        del counts[p]
        # A point whose last occurrence leaves the interval is always a
        # geometric extremity: interior columns/rows stay visited as long
        # as the interval spans both sides of them.  `anchor` is its
        # neighbour in the core, and `sign` * (b, a) the period pointing
        # inward from its core end: +1 at the first end, -1 at the last.
        core = self._core
        if core[0] == p:
            core.popleft()
            anchor, end, sign = core[0], 0, 1
        elif core[-1] == p:
            core.pop()
            anchor, end, sign = core[-1], 1, -1
        else:
            raise AssertionError(f"removed point {p} is interior to the segment core")
        step = (sign * (anchor[0] - p[0]), sign * (anchor[1] - p[1]))
        steps = self._steps
        if steps[step] == 1:
            del steps[step]
        else:
            steps[step] -= 1
        if len(core) == 1:
            self._chars = None
            self._lean = None
            return
        a, b, _ = self._chars
        lean = self._lean
        # leaning points of one kind are one period (b, a) apart; `u`, `l`
        # are those at p's end of the core, `u_far`, `l_far` at the other
        far = 1 - end
        u, u_far, l, l_far = lean[end], lean[far], lean[2 + end], lean[2 + far]
        inward = (p[0] + sign * b, p[1] + sign * a)
        if p == u and u_far == inward and l == l_far:
            self._turn(u_far, l, sign)
        elif p == l and l_far == inward and u == u_far:
            self._turn(u, l_far, -sign)
        else:
            # still two leaning points of one kind: the line stays pinned
            if p == u:
                lean[end] = inward
            if p == l:
                lean[2 + end] = inward

    # -- core maintenance -----------------------------------------------------

    def _turn(self, up: Point, low: Point, sigma: int) -> None:
        """New characteristics (a', b', mu') once the core has one upper
        leaning point `up` and one lower leaning point `low` left.

        With r'(x, y) = a'x - b'y: the removed point was one period (b, a)
        from the survivor of its kind and one remainder step outside the
        new band, so r'(b, a) = sigma (+1 for an upper point removed at the
        back or a lower one at the front, -1 otherwise).  Together with
        r'(low) - r'(up) = width' - 1, where the width is linear in
        (b', a') inside the core's octant (quadrant when 4-connected), these
        are two linear equations in (b', a').
        """
        a, b, _ = self._chars
        # width(x, y) = sx * x + sy * y for every direction of the core's
        # steps (each of which has width 1)
        sb = 1 if b > 0 else -1
        sa = 1 if a > 0 else -1
        if self._naive:
            sx, sy = (sb, 0) if abs(b) > abs(a) else (0, sa)
        else:
            sx, sy = sb, sa
        tx = low[0] - up[0] - sy
        ty = low[1] - up[1] + sx
        det = b * ty - a * tx
        nb = (b + sigma * tx) // det
        na = (a + sigma * ty) // det
        om = sx * nb + sy * na
        self._chars = (na, nb, na * up[0] - nb * up[1])
        self._width = om
        first, last = self._core[0], self._core[-1]
        # the leaning points of each kind at the two core ends lie whole
        # periods (nb, na) back and ahead of the survivor q of that kind; a
        # point's position along the core is its width-weighted offset, and
        # one period spans om of it
        lean = []
        for q in (up, low):
            back = (sx * (q[0] - first[0]) + sy * (q[1] - first[1])) // om
            ahead = (sx * (last[0] - q[0]) + sy * (last[1] - q[1])) // om
            lean += [(q[0] - back * nb, q[1] - back * na), (q[0] + ahead * nb, q[1] + ahead * na)]
        self._lean = lean

    def _slope_through(self, p: Point, pivot: Point, witness: Point, upper: bool):
        """Characteristics of the line through p and pivot, oriented so that
        they are upper (resp. lower) leaning and `witness` leans opposite,
        and the band width of that line."""
        dx, dy = p[0] - pivot[0], p[1] - pivot[1]
        g = math.gcd(dx, dy)
        if g == 0:
            return None
        dx //= g
        dy //= g
        # both orientations have the same width
        om = max(abs(dx), abs(dy)) if self._naive else abs(dx) + abs(dy)
        for sign in (1, -1):
            a, b = sign * dy, sign * dx
            rp = a * p[0] - b * p[1]
            rw = a * witness[0] - b * witness[1]
            # the band runs from the upper leaning point to the lower one
            if (rw - rp if upper else rp - rw) == om - 1:
                return (a, b, min(rp, rw)), om
        return None


def dss_feasible_all_intervals(path: DigitalPath) -> dict[tuple[int, int], bool]:
    """Feasibility of every interval of the path, via vectorized prefix scans
    of the remainder arrays (equivalent to calling dss_feasible everywhere)."""
    n1 = path.n_points
    naive = path.adjacency is Adjacency.EIGHT
    bound = n1 + 1
    a_vals = np.arange(0, bound + 1)
    b_vals = np.arange(-bound, bound + 1)
    aa, bb = np.meshgrid(a_vals, b_vals, indexing="ij")
    aa = aa.ravel()
    bb = bb.ravel()
    keep = (aa != 0) | (bb != 0)
    aa, bb = aa[keep], bb[keep]
    omega = (np.maximum(np.abs(aa), np.abs(bb)) if naive else np.abs(aa) + np.abs(bb))
    width = omega - 1

    reps = 2 if path.closed else 1
    xs = np.array([p[0] for p in path.points] * reps, dtype=np.int64)
    ys = np.array([p[1] for p in path.points] * reps, dtype=np.int64)
    r = aa[:, None] * xs[None, :] - bb[:, None] * ys[None, :]

    out: dict[tuple[int, int], bool] = {}
    for start in range(n1):
        stop = start + (n1 if path.closed else n1 - start)
        seg = r[:, start:stop]
        runmin = np.minimum.accumulate(seg, axis=1)
        runmax = np.maximum.accumulate(seg, axis=1)
        feas = np.any((runmax - runmin) <= width[:, None], axis=0)
        for length in range(1, stop - start + 1):
            out[(start, length)] = bool(feas[length - 1])
    return out


def min_matching_weight(odd: list[int], dist) -> int:
    """Minimum total weight over all perfect pairings of the odd vertices,
    by exhaustive enumeration (fine for up to ~8 vertices)."""
    if not odd:
        return 0
    a = odd[0]
    best = None
    for i in range(1, len(odd)):
        rest = odd[1:i] + odd[i + 1:]
        cost = dist[a][odd[i]] + min_matching_weight(rest, dist)
        if best is None or cost < best:
            best = cost
    return best


def min_weight_matching_reference(odd: list[int], dist: dict[int, list]) -> list[tuple[int, int]]:
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


def blocks_reference(g: CurveGraph) -> tuple[list[int], dict[int, tuple[int, int]]]:
    """Reachability, bridges and 2-edge-connected blocks of a multigraph by
    their definitions, on the vertices reached from vertex 0: an edge is a
    bridge iff deleting it disconnects its ends, and the blocks are the
    components once the bridges are gone.  Returns each vertex's block as
    its smallest vertex (-1 where vertex 0 does not reach), and every
    bridge as {edge id: (its end away from vertex 0, its end towards it)}."""
    around: list[list[tuple[int, int]]] = [[] for _ in g.vertices]
    for ei, e in enumerate(g.edges):
        around[e.u].append((e.v, ei))
        around[e.v].append((e.u, ei))

    def reach(start: int, cut) -> set[int]:
        seen, todo = {start}, [start]
        while todo:
            for w, ei in around[todo.pop()]:
                if ei not in cut and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    reached = reach(0, ()) if g.vertices else set()
    bridges = {}
    for ei, e in enumerate(g.edges):
        if e.u in reached and e.v not in reach(e.u, {ei}):
            near = reach(0, {ei})
            bridges[ei] = (e.v, e.u) if e.u in near else (e.u, e.v)
    block = [-1] * len(g.vertices)
    for v in reached:
        if block[v] < 0:
            comp = reach(v, bridges)
            for w in comp:
                block[w] = min(comp)
    return block, bridges


def _tokens(data: bytes):
    """PBM tokens: whitespace separated, '#' comments run to end of line."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c == b"#":
            while i < n and data[i:i + 1] not in (b"\n", b"\r"):
                i += 1
        elif c.isspace():
            i += 1
        else:
            j = i
            while j < n and not data[j:j + 1].isspace() and data[j:j + 1] != b"#":
                j += 1
            yield i, data[i:j]
            i = j


def load_pbm_reference(data: bytes) -> BinaryImage:
    """The byte-at-a-time PBM decoder that `satcover.pbm.load_pbm` replaced,
    kept as the reference it is compared against."""
    if not isinstance(data, (bytes, bytearray)):
        raise PbmError("load_pbm expects bytes")
    toks = _tokens(bytes(data))
    try:
        _, magic = next(toks)
    except StopIteration:
        raise PbmError("empty file") from None
    if magic not in (b"P1", b"P4"):
        raise PbmError(f"unsupported magic {magic!r} (want P1 or P4)")
    dims = []
    for _ in range(2):
        try:
            pos, tok = next(toks)
        except StopIteration:
            raise PbmError("truncated header: missing dimensions") from None
        try:
            dims.append(int(tok))
        except ValueError:
            raise PbmError(f"bad dimension token {tok!r}") from None
        last_pos, last_tok = pos, tok
    width, height = dims
    if width <= 0 or height <= 0:
        raise PbmError(f"dimensions must be positive, got {width}x{height}")

    fg = set()
    if magic == b"P1":
        count = 0
        for _, tok in toks:
            for ch in tok.decode("ascii", "replace"):
                if ch not in "01":
                    raise PbmError(f"P1 pixel must be 0 or 1, got {ch!r}")
                if count >= width * height:
                    raise PbmError("too many pixels")
                if ch == "1":
                    fg.add((count % width, count // width))
                count += 1
        if count != width * height:
            raise PbmError(f"expected {width * height} pixels, got {count}")
    else:
        # raw rows start after the single whitespace byte ending the header
        start = last_pos + len(last_tok)
        if start >= len(data) or not data[start:start + 1].isspace():
            raise PbmError("P4 header must end with one whitespace byte")
        start += 1
        row_bytes = (width + 7) // 8
        need = row_bytes * height
        raw = data[start:start + need]
        if len(raw) < need:
            raise PbmError(f"truncated raster: need {need} bytes, have {len(raw)}")
        for y in range(height):
            row = raw[y * row_bytes:(y + 1) * row_bytes]
            for x in range(width):
                if row[x >> 3] & (0x80 >> (x & 7)):
                    fg.add((x, y))
    return BinaryImage(width, height, frozenset(fg))


def connected_sets_reference(pixels, adjacency: Adjacency) -> list[frozenset[Point]]:
    """Connected subsets of `pixels` by breadth-first flood fill on tuple
    pixels, each from the smallest pixel no earlier fill reached, so they
    come sorted by their smallest pixel."""
    out = []
    seen: set[Point] = set()
    for seed in sorted(pixels):
        if seed in seen:
            continue
        comp = {seed}
        todo = [seed]
        while todo:
            p = todo.pop()
            for q in neighbours(p, adjacency):
                if q in pixels and q not in comp:
                    comp.add(q)
                    todo.append(q)
        seen |= comp
        out.append(frozenset(comp))
    return out


def components_reference(img: BinaryImage, adjacency: Adjacency) -> list[frozenset[Point]]:
    """Connected components of the foreground, sorted by their smallest pixel."""
    return connected_sets_reference(img.foreground, adjacency)


def find_junctions_reference(img: BinaryImage, adjacency: Adjacency) -> list[frozenset[Point]]:
    branching = {p for p in img.foreground if branching_index(img, p, adjacency) >= 3}
    return connected_sets_reference(branching, adjacency)


def _order_chain(comp: frozenset[Point], adjacency: Adjacency) -> tuple[list[Point], bool]:
    """Order a simplified-image component; returns (pixels, is_cycle)."""
    nbrs = {p: sorted(q for q in neighbours(p, adjacency) if q in comp) for p in comp}
    for p, qs in nbrs.items():
        if len(qs) > 2:
            raise AssertionError(f"simplified image is not thin at {p}")
    ends = sorted(p for p, qs in nbrs.items() if len(qs) <= 1)
    if ends:
        start = ends[0]
        cycle = False
    else:
        start = min(comp)
        cycle = True
    chain = [start]
    prev = None
    cur = start
    while True:
        nxt = [q for q in nbrs[cur] if q != prev]
        if not nxt:
            break
        step = nxt[0]
        if cycle and step == start:
            break
        chain.append(step)
        prev, cur = cur, step
        if cycle and len(chain) == len(comp):
            break
    if len(chain) != len(comp):
        raise AssertionError("component walk did not cover the component")
    return chain, cycle


def build_curve_graph_reference(img: BinaryImage, adjacency: Adjacency) -> CurveGraph:
    """The curve-graph builder that `satcover.trace.build_curve_graph`
    replaced, kept as the reference it is compared against.

    Graph of one connected raster component.

    End pixels and junction pixels live on the vertices; edge pixel lists
    hold everything in between, so vertex pixels and edge pixels partition
    the foreground.
    """
    comps = components_reference(img, adjacency)
    if len(comps) != 1:
        raise TraceError(f"expected a single connected component, found {len(comps)}")

    junctions = find_junctions_reference(img, adjacency)
    junction_of: dict[Point, int] = {}

    vertices: list[Vertex] = []
    for j in junctions:
        vertices.append(Vertex("junction", tuple(sorted(j))))
    for jid, j in enumerate(junctions):
        for p in j:
            junction_of[p] = jid

    junction_pixels = set(junction_of)
    simplified = frozenset(img.foreground - junction_pixels)
    chains = []
    if simplified:
        sub = BinaryImage(img.width, img.height, simplified)
        chains = [_order_chain(comp, adjacency) for comp in components_reference(sub, adjacency)]

    # an end pixel (one foreground neighbour) can only be the end of an open chain
    chain_ends = {p for chain, cycle in chains if not cycle for p in (chain[0], chain[-1])}
    end_vertex: dict[Point, int] = {}
    for p in sorted(p for p in chain_ends if branching_index(img, p, adjacency) == 1):
        end_vertex[p] = len(vertices)
        vertices.append(Vertex("end", (p,)))

    edges: list[Edge] = []
    for chain, cycle in chains:
        if cycle:
            if junctions:
                raise AssertionError("cycle component in an image with junctions")
            vid = len(vertices)
            vertices.append(Vertex("cycle", ()))
            edges.append(Edge(vid, vid, tuple(chain)))
            continue

        def port(pixel: Point, inner: Optional[Point]) -> tuple[int, bool]:
            # -> (vertex id, strip pixel from the edge list?)
            if pixel in end_vertex:
                return end_vertex[pixel], True
            outward = [q for q in neighbours(pixel, adjacency)
                       if q in junction_pixels and q != inner]
            if not outward:
                raise AssertionError(f"chain port {pixel} attaches to nothing")
            return junction_of[outward[0]], False

        if len(chain) == 1:
            p = chain[0]
            if p in end_vertex:
                u = end_vertex[p]
                out = sorted(q for q in neighbours(p, adjacency) if q in junction_pixels)
                if not out:
                    raise AssertionError(f"stranded end pixel {p}")
                edges.append(Edge(u, junction_of[out[0]], ()))
            else:
                out = sorted(q for q in neighbours(p, adjacency) if q in junction_pixels)
                if len(out) < 2:
                    raise AssertionError(f"one-pixel chain {p} lacks two attachments")
                edges.append(Edge(junction_of[out[0]], junction_of[out[1]], (p,)))
            continue

        u, strip_u = port(chain[0], chain[1])
        v, strip_v = port(chain[-1], chain[-2])
        pixels = chain[1 if strip_u else 0: len(chain) - (1 if strip_v else 0)]
        edges.append(Edge(u, v, tuple(pixels)))

    return CurveGraph(tuple(vertices), tuple(edges), adjacency)


def _neighbour_table(pixels, adjacency: Adjacency) -> dict[Point, list[Point]]:
    """Each pixel's neighbours among `pixels`, in sorted order."""
    offsets = NEIGHBOUR_OFFSETS[adjacency]
    table = {}
    for p in pixels:
        x, y = p
        table[p] = [q for dx, dy in offsets if (q := (x + dx, y + dy)) in pixels]
    return table


def _branching_and_tips(table: dict[Point, list[Point]]) -> tuple[set[Point], list[Point]]:
    """The branching pixels (three or more neighbours) and the tips (one
    neighbour, sorted), from one pass over the table."""
    branching: set[Point] = set()
    tips = []
    for p, qs in table.items():
        degree = len(qs)
        if degree >= 3:
            branching.add(p)
        elif degree == 1:
            tips.append(p)
    tips.sort()
    return branching, tips


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


def curve_graphs_reference(pixels, adjacency: Adjacency) -> list[CurveGraph]:
    """The tuple-keyed builder that `satcover.trace._curve_graphs` replaced,
    kept as the reference it is compared against.

    The curve graph of every connected component of `pixels`, ordered by
    smallest pixel, from one neighbour table.

    End pixels and junction pixels live on the vertices; edge pixel lists
    hold everything in between, so vertex pixels and edge pixels partition
    the component.  A non-junction pixel has at most two neighbours, so each
    end of an open chain is a tip (one neighbour) or a port (a junction
    pixel's non-junction neighbour), and the chains are walked from those
    ends.  What no walk reaches touches no tip and no junction: a lone
    pixel, or a cycle, which starts at its smallest pixel and goes towards
    that pixel's smaller neighbour.  Every edge's pixels touch those of both
    its vertices, so the components of the small graph of junctions and
    tips joined by chains are those of the image, and each keeps the
    numbering of the whole: junctions by smallest pixel, then tips, then
    chains by smallest pixel.
    """
    table = _neighbour_table(pixels, adjacency)
    branching, tips = _branching_and_tips(table)
    junctions = connected_sets_reference(branching, adjacency)
    junction_of = {p: jid for jid, j in enumerate(junctions) for p in j}
    ports = {q for p in junction_of for q in table[p] if q not in junction_of}
    chains = []
    far_ends: set[Point] = set()
    # each chain is met first at its smaller end
    for start in sorted(ports.union(tips)):
        if start not in far_ends:
            chain = _walk(table, start, junction_of)
            far_ends.add(chain[-1])
            chains.append(chain)
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
            part[0] = min(part[0], min(chain))
        # end pixels live on their vertices, not in the edge's pixel list
        start = 1 if chain[0] in end_vertex else 0
        stop = len(chain) - 1 if chain[-1] in end_vertex else len(chain)
        part[2].append(Edge(local[u], local[v], tuple(chain[start:stop])))
    found = [(low, CurveGraph(tuple(vs), tuple(es), adjacency)) for low, vs, es in parts.values()]

    # what no walk reached: lone pixels and pure cycles
    rest = set(table).difference(junction_of, *chains)
    while rest:
        p = rest.pop()
        if not table[p]:
            found.append((p, CurveGraph((Vertex("end", (p,)),), (), adjacency)))
            continue
        cycle = _walk(table, p, junction_of)
        rest.difference_update(cycle)
        # from its smallest pixel towards that pixel's smaller neighbour
        k = cycle.index(min(cycle))
        cycle = cycle[k:] + cycle[:k]
        if cycle[1] != table[cycle[0]][0]:
            cycle[1:] = cycle[:0:-1]
        found.append((cycle[0], CurveGraph((Vertex("cycle", ()),), (Edge(0, 0, tuple(cycle)),),
                                           adjacency)))
    return [g for _, g in sorted(found, key=lambda f: f[0])]


def junction_tree_walk_reference(pixels: frozenset[Point], entry: Point, exit_: Point,
                                  adjacency: Adjacency, cover: bool = True) -> list[Point]:
    """A walk through junction pixels from entry to exit_, from one
    breadth-first search rooted at entry that tries neighbours in sorted
    order.  Its spine is the search-tree path from entry to exit_; with
    `cover`, the walk visits every pixel: a spanning-tree traversal that
    descends the spine last and does not climb back out of it (at most
    2*|pixels| points)."""
    offsets = NEIGHBOUR_OFFSETS[adjacency]
    parent: dict[Point, Optional[Point]] = {entry: None}
    order = [entry]  # visit order; the search appends to it as it reads it
    for u in order:
        x, y = u
        for dx, dy in offsets:
            q = (x + dx, y + dy)
            if q in pixels and q not in parent:
                parent[q] = u
                order.append(q)
    if exit_ not in parent:
        raise EmitError(f"junction pixels are not connected between {entry} and {exit_}")
    spine = [exit_]
    while parent[spine[-1]] is not None:
        spine.append(parent[spine[-1]])
    spine.reverse()
    if not cover:
        return spine
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


def dump_p1_reference(img: BinaryImage) -> bytes:
    lines = [b"P1", f"{img.width} {img.height}".encode()]
    for y in range(img.height):
        lines.append(b" ".join(b"1" if (x, y) in img.foreground else b"0" for x in range(img.width)))
    return b"\n".join(lines) + b"\n"


def dump_p4_reference(img: BinaryImage) -> bytes:
    row_bytes = (img.width + 7) // 8
    out = bytearray(f"P4\n{img.width} {img.height}\n".encode())
    for y in range(img.height):
        row = bytearray(row_bytes)
        for x in range(img.width):
            if (x, y) in img.foreground:
                row[x >> 3] |= 0x80 >> (x & 7)
        out += row
    return bytes(out)
