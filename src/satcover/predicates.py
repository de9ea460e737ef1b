"""Conservative predicates on path intervals, with incremental recognizers.

A predicate is *conservative* when truth on an interval implies truth on
every sub-interval (equivalently, falsity is inherited by every superset).
Each predicate ships as a Recognizer: a small state machine that represents
one interval at a time, always satisfying the predicate.  It resets to a
singleton and moves in runs, one call each: growing at either end, or
sliding on past the positive end by dropping points at the negative end.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .paths import UNIT_STEPS, Adjacency, DigitalPath, IndexInterval, Point


class PredicateError(ValueError):
    """Bad predicate spec: unknown name, missing parameter, or adjacency mismatch."""


@dataclass(frozen=True)
class PredicateSpec:
    """Named predicate selection plus its integer parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "params": dict(sorted(self.params.items()))}


class Recognizer:
    """Incremental truth maintenance for one predicate on one path.

    The recognizer represents a single interval and the represented
    interval always satisfies the predicate.  `reset` re-targets it to a
    singleton: every predicate holds on every singleton.  The interval then
    moves in runs, each one method call:

    - `grow(positive, limit)` extends it on one side until an attempt fails
      or `limit` attempts are made;
    - `slide(removals)` drops points at its negative end until the point
      past its positive end joins, or resets there, and then grows
      positively up to the path's boundary.

    `remove_negative_end` is a run of one.  `holds` is stateless: it
    replays an interval from a reset and counts one call.  The interval is
    `_start`, an unwrapped index, and `_length`; `room` gives how far it
    can grow on a side.

    `calls` counts predicate evaluations: one per reset, one per attempted
    extension (successful or not, an attempt refused at the boundary
    included) and one per `holds`.  Removals are state maintenance and do
    not count.

    A predicate needs only the three hooks below, `_on_reset`, `_try_add`
    and `_on_remove`: the runs here call them one point at a time.  A
    subclass may override `grow`, `slide` and `remove_negative_end` for
    speed, keeping the counts.
    """

    def __init__(self, path: DigitalPath):
        self.n_points = path.n_points
        self._points = path.points
        self._closed = path.closed
        self.calls = 0
        self._start = 0  # unwrapped; may leave [0, n] on closed paths
        self._length = 0

    # -- predicate-specific hooks ------------------------------------------
    #
    # `_try_add` and `_on_remove` run with `_start` and `_length` still
    # those of the interval before the change.  So on a closed path an add
    # at `_length == n_points - 1` completes the full turn, and a removal at
    # `_length == n_points` breaks it: a predicate that reads the order of
    # its points must then count the wrap join as well, so that full-turn
    # truth does not depend on the starting rotation.

    def _on_reset(self, index: int, p: Point) -> None:
        raise NotImplementedError

    def _try_add(self, index: int, p: Point, positive: bool) -> bool:
        raise NotImplementedError

    def _on_remove(self, index: int, p: Point) -> None:
        raise NotImplementedError

    # -- interval mechanics -------------------------------------------------

    @property
    def interval(self) -> IndexInterval:
        return IndexInterval(self._start % self.n_points, self._length)

    @property
    def length(self) -> int:
        return self._length

    def room(self, positive: bool) -> int:
        """The extensions that fit on one side before the boundary: an open
        end, or the full turn of a closed path."""
        if self._closed:
            return self.n_points - self._length
        return self.n_points - self._start - self._length if positive else self._start

    def reset(self, index: int) -> None:
        """Represent the singleton at `index`, which may be unwrapped."""
        self.calls += 1
        self._start = index
        self._length = 1
        idx = index % self.n_points
        self._on_reset(idx, self._points[idx])

    def grow(self, positive: bool, limit: int) -> int:
        """Extend on the positive (negative) side, one point per attempt,
        until an attempt fails or `limit` attempts are made; returns the
        points added.  An attempt past the boundary fails."""
        room = self.room(positive)
        tries = limit if limit < room else room
        n1 = self.n_points
        points = self._points
        length = self._length
        added = 0
        while added < tries:
            nxt = self._start + length if positive else self._start - 1
            idx = nxt % n1
            if not self._try_add(idx, points[idx], positive):
                self.calls += added + 1
                return added
            if not positive:
                self._start = nxt
            self._length = length = length + 1
            added += 1
        self.calls += added + (limit > room)
        return added

    def _check_slide(self, removals: int) -> int:
        """The unwrapped index past the positive end, which a slide of
        `removals` drops waits for; ValueError if there is none or the
        interval has fewer than `removals` + 1 points."""
        q = self._start + self._length
        if not 0 <= removals < self._length or not (self._closed or q < self.n_points):
            raise ValueError(f"cannot slide {removals} points off the interval "
                             f"start={self._start} len={self._length}")
        return q

    def slide(self, removals: int) -> None:
        """Drop the negative end, then attempt to add the point past the
        positive end, until it joins; after `removals` drops without a join,
        reset there.  Then grow positively up to the boundary, attempting
        nothing past it."""
        q = self._check_slide(removals)
        n1 = self.n_points
        closed = self._closed
        points = self._points
        idx = q % n1
        p = points[idx]
        while removals:
            removals -= 1
            k = self._start % n1
            self._on_remove(k, points[k])
            self._start += 1
            self._length -= 1
            self.calls += 1
            if self._try_add(idx, p, True):
                self._length += 1
                break
        else:
            self.reset(q)
        self.grow(True, n1 - self._length if closed else n1 - q - 1)

    def remove_negative_end(self) -> None:
        if self._length < 2:
            raise ValueError("cannot remove from an interval of fewer than 2 points")
        idx = self._start % self.n_points
        self._on_remove(idx, self._points[idx])
        self._start += 1
        self._length -= 1

    def holds(self, iv: IndexInterval) -> bool:
        """Stateless evaluation: replays the interval from its start,
        counted as one call whatever it replays.

        Re-targets this recognizer (the previous state is discarded).
        """
        calls = self.calls
        self.reset(iv.start)
        ok = self.grow(True, iv.length - 1) == iv.length - 1
        self.calls = calls + 1
        return ok


# ---------------------------------------------------------------------------
# Digital straight segments
# ---------------------------------------------------------------------------
#
# An interval is a DSS when some integer line band  mu <= a*x - b*y <= mu+w-1
# contains all its points, with w = max(|a|,|b|) on 8-connected paths and
# w = |a|+|b| on 4-connected ones.  Because the path moves by unit steps, the
# *distinct* points of any band-feasible interval form a classic connected
# segment in geometric order; the path may wander back and forth along it.
# That segment is the "core".  The recognizer keeps only its two ends, its
# arithmetic characteristics (a, b, mu) and its four leaning points.  A
# revisit leaves the core as it is; a new point must extend the core.
#
# A step (dx, dy) between core points is coded 3 * dx + dy, in -4..4; a
# list of 9 counts indexed by the code holds the core's steps (a negative
# code indexes from the end of the list, so no two codes share a slot).

_STEP_CODES = {adj: frozenset(3 * dx + dy for dx, dy in steps) for adj, steps in UNIT_STEPS.items()}


def _turns(adjacency: Adjacency) -> dict:
    """The steps a core with the one step direction d accepts next, by the
    code of d: s.d > 0 on 8-paths (d or an eighth turn), s.d >= 0 on
    4-paths (d or a quarter turn)."""
    least = 1 if adjacency is Adjacency.EIGHT else 0
    steps = UNIT_STEPS[adjacency]
    return {3 * dx + dy: frozenset(3 * sx + sy for sx, sy in steps if sx * dx + sy * dy >= least)
            for dx, dy in steps}


_TURNS = {adj: _turns(adj) for adj in UNIT_STEPS}


class DssRecognizer(Recognizer):
    """Arithmetic DSS recognition with O(1) extension and removal at both
    ends of the core.

    Extension is the incremental recognition of Debled-Rennesson and
    Reveilles.  Removal is its inverse, the retraction step of maximal
    segment computation (Feschet & Tougne, *Optimal time computation of the
    tangent of a discrete curve*, DGCI 1999; Lachaud, Vialard & de
    Vieilleville, *Fast, accurate and convergent tangent estimation on
    digital contours*, IVC 2007): the characteristics change only when the
    removed extremity was one of exactly two leaning points of its kind
    and the other kind has one.

    Every run is one loop, `_run`, over local copies of the state, with the
    add and the drop each written once.  Both ends of the core are the same
    operation seen from opposite sides, so each is indexed by the end: 0
    for the first core point, 1 for the last.  Steps are read in core
    order, first to last.  A core with two step directions accepts only
    those two; a core with one accepts the turns of `_turns`.

    Whether a point is already in the interval is read from its occurrence
    gaps (`_gaps`), computed once per path, so no multiplicities are kept.
    Only the two ends of the core are kept: a drop removes an end whose
    last occurrence leaves, and the path's next point, still in the
    interval and adjacent to it, is its one neighbour in the core (a core
    is monotone along its main axis on 8-paths, along both step directions
    on 4-paths), so it becomes the new end.
    """

    def __init__(self, path: DigitalPath):
        if path.adjacency is Adjacency.INDEX:
            raise PredicateError("dss requires grid adjacency (4 or 8), not index-only")
        super().__init__(path)
        self._naive = path.adjacency is Adjacency.EIGHT
        self._codes = _STEP_CODES[path.adjacency]
        self._turns = _TURNS[path.adjacency]
        self._ends = [None, None]  # the first and the last core point
        self._chars = None  # (a, b, mu) or None while the core is a singleton
        # the band width w of _chars, updated with it
        self._width = 0
        # [Uf, Ul, Lf, Ll]: the upper leaning point at end e is _lean[e],
        # the lower one _lean[2 + e]
        self._lean = None
        self._dirs = ()  # the codes of the core's one or two step directions
        self._steps = [0] * 9  # occurrences of each step code in the core
        self._prev, self._next = self._gaps()
        # attempts to add a point, revisits and refusals included
        self.extensions = 0

    def _gaps(self) -> tuple[list, list]:
        """For each index, the distances back and ahead to the nearest other
        occurrence of its point, cyclic on closed paths, or n when it has
        none.  One shared constant list when the points are distinct."""
        n1 = self.n_points
        points = self._points
        if len(set(points)) == n1:
            gaps = [n1] * n1
            return gaps, gaps
        prev = [n1] * n1
        nxt = [n1] * n1
        first: dict = {}
        last: dict = {}
        for i, p in enumerate(points):
            j = last.get(p)
            if j is None:
                first[p] = i
            else:
                prev[i] = nxt[j] = i - j
            last[p] = i
        if self._closed:
            for p, i in first.items():
                j = last[p]
                if j != i:
                    prev[i] = nxt[j] = i + n1 - j
        return prev, nxt

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

    # -- runs ------------------------------------------------------------------

    def _on_reset(self, index, p):
        self._ends = [p, p]
        self._chars = self._lean = None
        self._dirs = ()
        self._steps = [0] * 9

    def grow(self, positive: bool, limit: int) -> int:
        return self._run(0, False, positive, limit)

    def slide(self, removals: int) -> None:
        self._check_slide(removals)
        self._run(removals, True, True, 0)

    def remove_negative_end(self) -> None:
        if self._length < 2:
            raise ValueError("cannot remove from an interval of fewer than 2 points")
        self._run(1, False, True, 0)

    def _run(self, removals: int, join: bool, positive: bool, limit: int) -> int:
        """Drop `removals` points at the negative end; with `join`, attempt
        after each drop to add the point past the positive end, stop
        dropping once it joins, and reset there if it never does, then grow
        positively up to the boundary.  Without drops, add points on the
        positive (negative) side until an attempt fails or `limit` attempts
        are made, as `Recognizer.grow` does.  Returns the points added
        after the drops and the join."""
        n1 = self.n_points
        closed = self._closed
        points = self._points
        nxt = self._next
        # an added point is already in the interval when its nearest other
        # occurrence on the interval's side is at most `length` away
        seen = self._prev if positive else nxt
        naive = self._naive
        codes = self._codes
        turns = self._turns
        start = self._start
        length = self._length
        ends = self._ends
        lean = self._lean
        counts = self._steps
        dirs = self._dirs
        if dirs:
            a, b, mu = self._chars
            om = self._width
            allowed = dirs if len(dirs) == 2 else turns[dirs[0]]
        calls = extensions = added = 0
        dropping = removals > 0 or join
        budget = 0
        boundary = False
        if join:
            qx, qy = points[(start + length) % n1]  # the point the drops wait for
        elif not dropping:
            room = self.room(positive)
            budget = min(limit, room)
            boundary = limit > room
        while True:
            if dropping:
                if not removals:
                    if not join:
                        break
                    # no drop let the point past the positive end join:
                    # start afresh there
                    calls += 1
                    start += length
                    length = 1
                    ends[0] = ends[1] = points[start % n1]
                    for code in dirs:
                        counts[code] = 0
                    dirs = ()
                    lean = None
                    dropping = False
                    budget = n1 - 1 if closed else n1 - start - 1
                    continue
                removals -= 1
                # -- the drop of the negative end ------------------------------
                idx = start % n1
                if nxt[idx] >= length:
                    # the last occurrence of p leaves the interval.  A point
                    # whose last occurrence leaves is always a geometric
                    # extremity: interior columns/rows stay visited as long
                    # as the interval spans both sides of them.  `anchor`,
                    # the path's next point, is its neighbour in the core
                    # and the new end, and `sign` * (b, a) the period
                    # pointing inward from its core end: +1 at the first
                    # end, -1 at the last.
                    p = points[idx]
                    if ends[0] == p:
                        end, sign = 0, 1
                    elif ends[1] == p:
                        end, sign = 1, -1
                    else:
                        raise AssertionError(f"removed point {p} is interior to the segment core")
                    anchor = ends[end] = points[(idx + 1) % n1]
                    code = sign * (3 * (anchor[0] - p[0]) + anchor[1] - p[1])
                    count = counts[code] - 1
                    counts[code] = count
                    if not count:
                        dirs = dirs[1:] if dirs[0] == code else dirs[:1]
                        if dirs:
                            allowed = turns[dirs[0]]
                    if not dirs:
                        lean = None
                    else:
                        # leaning points of one kind are one period (b, a)
                        # apart; `u`, `l` are those at p's end of the core,
                        # `u_far`, `l_far` at the other
                        u, l = lean[end], lean[2 + end]
                        if p == u or p == l:
                            far = 1 - end
                            u_far, l_far = lean[far], lean[2 + far]
                            inward = (p[0] + sign * b, p[1] + sign * a)
                            if p == u and u_far == inward and l == l_far:
                                a, b, mu, om, lean = _turn(a, b, u_far, l, sign, ends, naive)
                            elif p == l and l_far == inward and u == u_far:
                                a, b, mu, om, lean = _turn(a, b, u, l_far, -sign, ends, naive)
                            else:
                                # still two leaning points of one kind: the
                                # line stays pinned
                                if p == u:
                                    lean[end] = inward
                                if p == l:
                                    lean[2 + end] = inward
                start += 1
                length -= 1
                if not join:
                    continue
                if dirs:
                    r = a * qx - b * qy
                    if not mu - 1 <= r <= mu + om:
                        # no end can take the waiting point this far off the
                        # band, and no point of the interval lies off it:
                        # the attempt fails without the full add
                        calls += 1
                        extensions += 1
                        continue
            elif budget > 0:
                budget -= 1
            else:
                if boundary:
                    calls += 1  # the attempt past the boundary
                break
            # -- the attempt to add the next point ------------------------------
            calls += 1
            extensions += 1
            at = start + length if positive else start - 1
            idx = at % n1
            ok = seen[idx] <= length  # a revisit
            if not ok:
                p = points[idx]
                x, y = p
                if not dirs:
                    # the first step: the line through both points, of width 1
                    q = ends[0]
                    dx = x - q[0]
                    dy = y - q[1]
                    code = 3 * dx + dy
                    if -1 <= dx <= 1 and -1 <= dy <= 1 and code in codes:
                        a, b, mu, om = dy, dx, dy * q[0] - dx * q[1], 1
                        lean = [q, p, q, p]
                        counts[code] = 1
                        dirs = (code,)
                        allowed = turns[code]
                        ends[1] = p
                        ok = True
                else:
                    r = a * x - b * y
                    # no end can take a point farther off the band
                    if mu - 1 <= r <= mu + om:
                        for end in (1, 0):  # the last core point first, then the first
                            q = ends[end]
                            if end:
                                dx = x - q[0]
                                dy = y - q[1]
                            else:
                                dx = q[0] - x
                                dy = q[1] - y
                            code = 3 * dx + dy
                            if not (-1 <= dx <= 1 and -1 <= dy <= 1 and code in allowed):
                                continue
                            if mu <= r < mu + om:
                                if r == mu:
                                    lean[end] = p
                                if r == mu + om - 1:
                                    lean[2 + end] = p
                            else:
                                # p lies just above (below) the band: the line
                                # turns about the upper (lower) leaning point at
                                # the far end, and the lower (upper) leaning
                                # point at p's end is the only one of its kind
                                # that survives, so it becomes the one at both
                                # ends.
                                upper = r < mu
                                same = 0 if upper else 2
                                other = 2 - same
                                witness = lean[other + end]
                                new = _slope_through(p, lean[same + 1 - end], witness, upper, naive)
                                if new is None:
                                    continue
                                a, b, mu, om = new
                                lean[same + end] = p
                                lean[other + 1 - end] = witness
                            count = counts[code]
                            counts[code] = count + 1
                            if not count:
                                allowed = dirs = dirs + (code,)
                            ends[end] = p
                            ok = True
                            break
            if ok:
                if not positive:
                    start = at
                length += 1
                if dropping:
                    dropping = False
                    budget = n1 - length if closed else n1 - start - length
                else:
                    added += 1
            elif not dropping:
                break
        self._start = start
        self._length = length
        self.calls += calls
        self.extensions += extensions
        self._lean = lean
        self._dirs = dirs
        if dirs:
            self._chars = (a, b, mu)
            self._width = om
        else:
            self._chars = None
        return added


def _turn(a: int, b: int, up: Point, low: Point, sigma: int, ends, naive: bool) -> tuple:
    """New characteristics (a', b', mu'), band width and leaning points once
    the core has one upper leaning point `up` and one lower leaning point
    `low` left.

    With r'(x, y) = a'x - b'y: the removed point was one period (b, a)
    from the survivor of its kind and one remainder step outside the
    new band, so r'(b, a) = sigma (+1 for an upper point removed at the
    back or a lower one at the front, -1 otherwise).  Together with
    r'(low) - r'(up) = width' - 1, where the width is linear in
    (b', a') inside the core's octant (quadrant when 4-connected), these
    are two linear equations in (b', a').
    """
    # width(x, y) = sx * x + sy * y for every direction of the core's
    # steps (each of which has width 1)
    sb = 1 if b > 0 else -1
    sa = 1 if a > 0 else -1
    if not naive:
        sx, sy = sb, sa
    elif sb * b > sa * a:
        sx, sy = sb, 0
    else:
        sx, sy = 0, sa
    ux, uy = up
    lx, ly = low
    tx = lx - ux - sy
    ty = ly - uy + sx
    det = b * ty - a * tx
    nb = (b + sigma * tx) // det
    na = (a + sigma * ty) // det
    om = sx * nb + sy * na
    (fx, fy), (ex, ey) = ends
    # the leaning points of each kind at the two core ends lie whole
    # periods (nb, na) back and ahead of the survivor of that kind; a
    # point's position along the core is its width-weighted offset, and
    # one period spans om of it
    back = (sx * (ux - fx) + sy * (uy - fy)) // om
    ahead = (sx * (ex - ux) + sy * (ey - uy)) // om
    low_back = (sx * (lx - fx) + sy * (ly - fy)) // om
    low_ahead = (sx * (ex - lx) + sy * (ey - ly)) // om
    lean = [(ux - back * nb, uy - back * na), (ux + ahead * nb, uy + ahead * na),
            (lx - low_back * nb, ly - low_back * na), (lx + low_ahead * nb, ly + low_ahead * na)]
    return na, nb, na * ux - nb * uy, om, lean


def _slope_through(p: Point, pivot: Point, witness: Point, upper: bool, naive: bool):
    """Characteristics (a, b, mu) of the line through p and pivot, oriented
    so that they are upper (resp. lower) leaning and `witness` leans
    opposite, and the band width of that line; None if there is none."""
    px, py = p
    dx, dy = px - pivot[0], py - pivot[1]
    g = math.gcd(dx, dy)
    if g == 0:
        return None
    dx //= g
    dy //= g
    # both orientations have the same width
    adx = dx if dx > 0 else -dx
    ady = dy if dy > 0 else -dy
    om = (adx if adx > ady else ady) if naive else adx + ady
    rp = dy * px - dx * py
    rw = dy * witness[0] - dx * witness[1]
    # the band runs from the upper leaning point to the lower one; the
    # opposite orientation negates both remainders
    spread = rw - rp if upper else rp - rw
    if spread == om - 1:
        return dy, dx, min(rp, rw), om
    if -spread == om - 1:
        return -dy, -dx, -max(rp, rw), om
    return None


# ---------------------------------------------------------------------------
# The other shipped predicates
# ---------------------------------------------------------------------------


class MaxLenRecognizer(Recognizer):
    """Interval has at most k points.  Every run is O(1) arithmetic."""

    def __init__(self, path: DigitalPath, k: int):
        if k < 1:
            raise PredicateError(f"max_len requires k >= 1, got {k}")
        super().__init__(path)
        self.k = k

    def _on_reset(self, index, p):
        pass

    def _on_remove(self, index, p):
        pass

    def grow(self, positive: bool, limit: int) -> int:
        room = self.room(positive)
        tries = min(limit, room)
        added = max(0, min(tries, self.k - self._length))
        # a run ends on a refused attempt: at k points, or past the boundary
        self.calls += added + (added < tries or limit > room)
        if not positive:
            self._start -= added
        self._length += added
        return added

    def slide(self, removals: int) -> None:
        q = self._check_slide(removals)
        if removals:
            # one drop leaves at most k - 1 points: the next point joins
            self._start += 1
        else:
            self._start = q
            self._length = 1
        # the join or the reset, then the positive run up to the boundary
        room = self.n_points - self._length if self._closed else self.n_points - q - 1
        added = min(room, self.k - self._length)
        self.calls += 1 + added + (added < room)
        self._length += added


class MonotoneRecognizer(Recognizer):
    """One coordinate is weakly monotone along the interval.  O(1) removal:
    only the counts of rising and falling consecutive steps are kept.

    The full turn of a closed path counts all joins including the wrap, so
    it is monotone only when the coordinate is constant (the joins sum to
    zero around the circle); truth is then independent of the rotation.
    """

    def __init__(self, path: DigitalPath, axis: int):
        super().__init__(path)
        self.axis = axis
        self._rising = 0
        self._falling = 0

    def _on_reset(self, index, p):
        self._rising = 0
        self._falling = 0

    def _try_add(self, index, p, positive):
        if self._closed and self._length + 1 == self.n_points:
            # the add completes the full turn, whose joins sum to zero: it
            # is monotone only when every join is flat.  With the added
            # point's two joins flat, the interval's joins sum to zero too,
            # and being monotone, they are all flat already.
            a = self.axis
            return self._points[index - 1][a] == p[a] == self._points[(index + 1) % self.n_points][a]
        # the neighbour already in the interval, read inline; index - 1
        # wraps by negative indexing
        if positive:
            d = p[self.axis] - self._points[index - 1][self.axis]
        else:
            d = self._points[(index + 1) % self.n_points][self.axis] - p[self.axis]
        if d > 0 and self._falling:
            return False
        if d < 0 and self._rising:
            return False
        if d > 0:
            self._rising += 1
        elif d < 0:
            self._falling += 1
        return True

    def _on_remove(self, index, p):
        # only the join out counts: when the removal breaks a full turn, its
        # join in (the wrap join) leaves too, but a full turn holds only
        # with every join flat
        d = self._points[(index + 1) % self.n_points][self.axis] - p[self.axis]
        if d > 0:
            self._rising -= 1
        elif d < 0:
            self._falling -= 1


class BboxRecognizer(Recognizer):
    """Bounding box of the interval fits in w x h grid cells.

    Removal recomputes a lost extreme by scanning the coordinate counts,
    so it is O(distinct coordinates) rather than O(1).  The counts are plain
    dicts, never holding 0, for the same reason as the DSS multiplicities.
    """

    def __init__(self, path: DigitalPath, w: int, h: int):
        if w < 1 or h < 1:
            raise PredicateError(f"bbox requires w >= 1 and h >= 1, got {w}x{h}")
        super().__init__(path)
        self.w = w
        self.h = h
        self._xs: dict = {}  # occurrences of each x in the interval
        self._ys: dict = {}
        self._xmin = self._xmax = self._ymin = self._ymax = 0

    def _on_reset(self, index, p):
        self._xs = {p[0]: 1}
        self._ys = {p[1]: 1}
        self._xmin = self._xmax = p[0]
        self._ymin = self._ymax = p[1]

    def _try_add(self, index, p, positive):
        xmin = min(self._xmin, p[0])
        xmax = max(self._xmax, p[0])
        ymin = min(self._ymin, p[1])
        ymax = max(self._ymax, p[1])
        if xmax - xmin + 1 > self.w or ymax - ymin + 1 > self.h:
            return False
        xs, ys = self._xs, self._ys
        xs[p[0]] = xs.get(p[0], 0) + 1
        ys[p[1]] = ys.get(p[1], 0) + 1
        self._xmin, self._xmax, self._ymin, self._ymax = xmin, xmax, ymin, ymax
        return True

    def _on_remove(self, index, p):
        self._xs[p[0]] -= 1
        if not self._xs[p[0]]:
            del self._xs[p[0]]
            if p[0] == self._xmin:
                self._xmin = min(self._xs)
            if p[0] == self._xmax:
                self._xmax = max(self._xs)
        self._ys[p[1]] -= 1
        if not self._ys[p[1]]:
            del self._ys[p[1]]
            if p[1] == self._ymin:
                self._ymin = min(self._ys)
            if p[1] == self._ymax:
                self._ymax = max(self._ys)


class ContainsStartRecognizer(Recognizer):
    """Interval contains path index 0.

    Deliberately NOT conservative (a sub-interval may miss index 0); it is
    shipped only so the conservativity checker has a known bad citizen to
    detect, and must not be fed to the cover algorithms: it has no hooks,
    only the stateless check.
    """

    def holds(self, iv: IndexInterval) -> bool:
        self.calls += 1
        return -iv.start % self.n_points < iv.length


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredicateInfo:
    name: str
    params: tuple[str, ...]
    conservative: bool
    doc: str
    # called as factory(path, *values), with the values in `params` order
    factory: Callable[..., Recognizer] = field(compare=False)


_REGISTRY: dict[str, PredicateInfo] = {info.name: info for info in (
    PredicateInfo("dss", (), True, "points fit one digital straight line band", DssRecognizer),
    PredicateInfo("max_len", ("k",), True, "at most k points", MaxLenRecognizer),
    PredicateInfo("x_monotone", (), True, "x coordinate weakly monotone",
                  lambda path: MonotoneRecognizer(path, 0)),
    PredicateInfo("y_monotone", (), True, "y coordinate weakly monotone",
                  lambda path: MonotoneRecognizer(path, 1)),
    PredicateInfo("bbox", ("w", "h"), True, "bounding box fits in w x h cells", BboxRecognizer),
    PredicateInfo("contains_start", (), False,
                  "interval contains path index 0 (non-conservative, for verification only)",
                  ContainsStartRecognizer),
)}


def register_predicate(info: PredicateInfo) -> None:
    _REGISTRY[info.name] = info


def list_predicates() -> list[PredicateInfo]:
    return sorted(_REGISTRY.values(), key=lambda info: info.name)


def make_recognizer(spec: PredicateSpec, path: DigitalPath) -> Recognizer:
    """The recognizer of `spec` on `path`.  The one check of a spec's
    parameters: no unknown one, and each declared one present as an int
    (not a bool); range checks are the recognizer's own."""
    if spec.name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise PredicateError(f"unknown predicate {spec.name!r} (known: {known})")
    info = _REGISTRY[spec.name]
    for key in sorted(spec.params):
        if key not in info.params:
            raise PredicateError(f"predicate {spec.name!r} has no parameter {key!r}")
    values = []
    for key in info.params:
        if key not in spec.params:
            raise PredicateError(f"predicate {spec.name!r} needs parameter {key!r}")
        v = spec.params[key]
        if not isinstance(v, int) or isinstance(v, bool):
            raise PredicateError(f"parameter {key!r} of {spec.name!r} must be an integer")
        values.append(v)
    return info.factory(path, *values)


# ---------------------------------------------------------------------------
# Conservativity checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConservativityReport:
    ok: bool
    trials: int
    counterexample: Optional[tuple[int, IndexInterval, IndexInterval]] = None
    # counterexample = (path position in the sample, X true, Y subset false)

    def __str__(self) -> str:
        if self.ok:
            return f"conservative over {self.trials} sampled interval pairs"
        i, x, y = self.counterexample
        return (f"NOT conservative: on sample path {i} the predicate holds on "
                f"start={x.start} len={x.length} but fails on start={y.start} len={y.length}")


def check_conservative(
    spec: PredicateSpec,
    paths: Sequence[DigitalPath],
    trials: int = 10_000,
    seed: int = 0,
) -> ConservativityReport:
    """Randomized conservativity probe.

    Samples intervals X on which the predicate holds and checks random
    sub-intervals Y of X; the first (X, Y) with holds(X) and not holds(Y)
    refutes conservativity.
    """
    rng = random.Random(seed)
    recs = [make_recognizer(spec, p) for p in paths]
    for t in range(trials):
        i = rng.randrange(len(paths))
        path, rec = paths[i], recs[i]
        n1 = path.n_points
        start = rng.randrange(n1)
        max_len = n1 if path.closed else n1 - start
        x = IndexInterval(start, rng.randint(1, max_len))
        if not rec.holds(x):
            continue
        sub_len = rng.randint(1, x.length)
        sub_off = rng.randint(0, x.length - sub_len)
        y = IndexInterval((x.start + sub_off) % n1, sub_len)
        if not rec.holds(y):
            return ConservativityReport(False, t + 1, (i, x, y))
    return ConservativityReport(True, trials)
