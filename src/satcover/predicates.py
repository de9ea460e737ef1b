"""Conservative predicates on path intervals, with incremental recognizers.

A predicate is *conservative* when truth on an interval implies truth on
every sub-interval (equivalently, falsity is inherited by every superset).
Each predicate ships as a Recognizer: a small state machine that represents
one interval at a time, always satisfying the predicate, and supports
resetting to a singleton, extending at either end, and dropping the point
at the negative end.
"""

from __future__ import annotations

import math
import random
from collections import deque
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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PredicateSpec":
        if not isinstance(doc, dict) or "name" not in doc:
            raise PredicateError("predicate document must be an object with a 'name'")
        return cls(doc["name"], dict(doc.get("params", {})))


class Recognizer:
    """Incremental truth maintenance for one predicate on one path.

    The recognizer represents a single interval and the represented
    interval always satisfies the predicate.  `reset` re-targets it to a
    singleton and reports whether the predicate holds there; each
    `try_extend_*` either succeeds (the interval grows by one point) or
    fails leaving the state unchanged.  `remove_negative_end` drops the
    first point; each predicate notes what its removal costs.

    `calls` counts predicate evaluations: one per `reset`, one per
    `try_extend_*` (successful or not) and one per `holds`.  Removals are
    state maintenance and do not count.
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
    # `closing` is set on the extension that grows a closed-path interval to
    # the full point count: the interval then denotes the whole circle, and
    # order-sensitive predicates must account for the wrap join as well (so
    # that full-turn truth does not depend on the starting rotation).
    # `opening` mirrors it on removal from a full interval.

    def _on_reset(self, index: int, p: Point) -> bool:
        raise NotImplementedError

    def _try_add(self, index: int, p: Point, positive: bool, closing: bool) -> bool:
        raise NotImplementedError

    def _on_remove(self, index: int, p: Point, opening: bool) -> None:
        raise NotImplementedError

    # -- interval mechanics -------------------------------------------------

    @property
    def interval(self) -> IndexInterval:
        return IndexInterval(self._start % self.n_points, self._length)

    @property
    def length(self) -> int:
        return self._length

    def reset(self, index: int) -> bool:
        """Represent the singleton at `index`; False if the predicate fails there
        (the state is then empty and must be reset again before use)."""
        self.calls += 1
        self._start = index
        self._length = 0
        idx = index % self.n_points
        ok = self._on_reset(idx, self._points[idx])
        if ok:
            self._length = 1
        return ok

    # The two extensions are written out apiece, one frame above the hook:
    # each adds the point at unwrapped index `nxt`, just past its end.

    def try_extend_positive(self) -> bool:
        self.calls += 1
        n1 = self.n_points
        length = self._length
        nxt = self._start + length
        # empty, a full turn already (never wrap past it), or past the open end
        if not 0 < length < n1 or not (self._closed or 0 <= nxt < n1):
            return False
        idx = nxt % n1
        if self._try_add(idx, self._points[idx], True, self._closed and length + 1 == n1):
            self._length = length + 1
            return True
        return False

    def try_extend_negative(self) -> bool:
        self.calls += 1
        n1 = self.n_points
        length = self._length
        nxt = self._start - 1
        if not 0 < length < n1 or not (self._closed or 0 <= nxt < n1):
            return False
        idx = nxt % n1
        if self._try_add(idx, self._points[idx], False, self._closed and length + 1 == n1):
            self._start = nxt
            self._length = length + 1
            return True
        return False

    def remove_negative_end(self) -> None:
        if self._length < 2:
            raise ValueError("cannot remove from an interval of fewer than 2 points")
        idx = self._start % self.n_points
        self._on_remove(idx, self._points[idx], self._closed and self._length == self.n_points)
        self._start += 1
        self._length -= 1

    def holds(self, iv: IndexInterval) -> bool:
        """Stateless evaluation, counted as one call whatever it replays.

        Re-targets this recognizer (the previous state is discarded).
        """
        calls = self.calls
        ok = self._holds(iv)
        self.calls = calls + 1
        return ok

    def _holds(self, iv: IndexInterval) -> bool:
        """Replay the interval from its start."""
        if not self.reset(iv.start):
            return False
        for _ in range(iv.length - 1):
            if not self.try_extend_positive():
                return False
        return True


# ---------------------------------------------------------------------------
# Digital straight segments
# ---------------------------------------------------------------------------
#
# An interval is a DSS when some integer line band  mu <= a*x - b*y <= mu+w-1
# contains all its points, with w = max(|a|,|b|) on 8-connected paths and
# w = |a|+|b| on 4-connected ones.  Because the path moves by unit steps, the
# *distinct* points of any band-feasible interval form a classic connected
# segment in geometric order; the path may wander back and forth along it.
# The recognizer therefore keeps a multiplicity count per point plus a
# "core": the distinct points as a deque in geometric order, carrying
# arithmetic characteristics (a, b, mu) and the four leaning points.  A
# revisit only bumps its point's count; a new point must extend the core.


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


# ---------------------------------------------------------------------------
# The other shipped predicates
# ---------------------------------------------------------------------------


class MaxLenRecognizer(Recognizer):
    """Interval has at most k points.  O(1) removal."""

    def __init__(self, path: DigitalPath, k: int):
        if k < 1:
            raise PredicateError(f"max_len requires k >= 1, got {k}")
        super().__init__(path)
        self.k = k

    def _on_reset(self, index, p):
        return True

    def _try_add(self, index, p, positive, closing):
        return self._length + 1 <= self.k

    def _on_remove(self, index, p, opening):
        pass


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
        return True

    def _coord(self, index: int) -> int:
        return self._points[index % self.n_points][self.axis]

    def _try_add(self, index, p, positive, closing):
        if closing:
            # the added point fills the last gap: both of its joins appear
            d_in = p[self.axis] - self._coord(index - 1)
            d_out = self._coord(index + 1) - p[self.axis]
            rising = (d_in > 0) + (d_out > 0)
            falling = (d_in < 0) + (d_out < 0)
            if (rising and (falling or self._falling)) or (falling and self._rising):
                return False
            self._rising += rising
            self._falling += falling
            return True
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

    def _on_remove(self, index, p, opening):
        if opening:
            d_in = p[self.axis] - self._coord(index - 1)
            self._rising -= d_in > 0
            self._falling -= d_in < 0
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
        return True

    def _try_add(self, index, p, positive, closing):
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

    def _on_remove(self, index, p, opening):
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
    detect, and must not be fed to the cover algorithms.
    """

    def _on_reset(self, index, p):
        return index == 0

    def _try_add(self, index, p, positive, closing):
        return True  # a superset of a set containing index 0 still contains it

    def _on_remove(self, index, p, opening):
        pass

    def _holds(self, iv: IndexInterval) -> bool:
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
