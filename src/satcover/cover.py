"""Decomposition of a digital path into all saturated subpaths.

A subpath is *saturated* for a predicate when the predicate holds on it
and fails on (or cannot form) both of its one-point extensions.  For a
conservative predicate the set of saturated subpaths is the generalized
tangential cover; it has at most one segment per path point, and the
incremental sweep below finds it with a number of predicate evaluations
linear in the path length.

One sweep serves two routes: :func:`saturated_cover` grows each fresh
window alternately on both sides, and :func:`forward_cover` runs the same
sweep with the negative side switched off.  A definition-based oracle,
:func:`brute_force_cover`, cross-checks both at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Optional, Sequence

from .paths import DigitalPath, IndexInterval
from .predicates import PredicateSpec, Recognizer, make_recognizer


class CoverCapError(ValueError):
    """brute_force_cover refused an input larger than its point cap."""


@dataclass(frozen=True)
class SaturatedCover:
    """All saturated subpaths of one predicate on one path.

    `predicate_calls` counts every singleton reset, every attempted
    extension (successful or not) and every stateless check performed
    while computing the cover; removals are state maintenance and are
    not predicate evaluations.
    """

    n_points: int
    closed: bool
    predicate: PredicateSpec
    segments: tuple[IndexInterval, ...]
    predicate_calls: int

    def to_json_dict(self) -> dict:
        return {
            "n": self.n_points,
            "closed": self.closed,
            "predicate": self.predicate.to_json_dict(),
            "segments": [{"start": s.start, "len": s.length} for s in self.segments],
            "predicate_calls": self.predicate_calls,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SaturatedCover":
        return cls(
            n_points=doc["n"],
            closed=doc["closed"],
            predicate=PredicateSpec.from_json_dict(doc["predicate"]),
            segments=tuple(IndexInterval(s["start"], s["len"]) for s in doc["segments"]),
            predicate_calls=doc["predicate_calls"],
        )


def _finish(path, spec, keys, *recs: Recognizer) -> SaturatedCover:
    # tuple.__new__ makes each IndexInterval in C, with no Python frame
    segments = tuple(map(tuple.__new__, repeat(IndexInterval), sorted(keys)))
    calls = sum(rec.calls for rec in recs)
    return SaturatedCover(path.n_points, path.closed, spec, segments, calls)


def _seed(rec: Recognizer, t: int, limit: int) -> int:
    """Reset `rec` at t, t+1, ... (mod n) until the singleton holds; returns
    that index, or `limit` when every singleton before it fails."""
    n1 = rec.n_points
    while t < limit and not rec.reset(t % n1):
        t += 1
    return t


def _restart(rec: Recognizer, probe: Recognizer, i: int, q: int,
             limit: int) -> Optional[tuple[int, int]]:
    """Move the window i .. q - 1 of `rec` on past q.

    When the singleton at q holds, shrink from the negative side until the
    extension to q holds again and return the new (start, end = q).
    Otherwise seed afresh past q and return (t, t) with t > q, or None when
    the seed scan reaches `limit`.
    """
    if not probe.reset(q % rec.n_points):
        t = _seed(rec, q + 1, limit)
        return None if t >= limit else (t, t)
    while i < q - 1:
        rec.remove_negative_end()
        i += 1
        if rec.try_extend_positive():
            return i, q
    rec.reset(q % rec.n_points)  # known true from the probe
    return q, q


def _sweep(path: DigitalPath, spec: PredicateSpec, two_sided: bool) -> SaturatedCover:
    """The incremental sweep: grow a window until it is saturated, then move
    on past its positive end and shrink from its negative end.

    With `two_sided`, a window grows alternately around each fresh seed
    (positive side first on odd length); otherwise it grows on its positive
    side only.  On closed paths the sweep stops at a repeated segment or one
    wrap past the first one, and drops the first segment if a later one
    contains it.
    """
    n1 = path.n_points
    rec = make_recognizer(spec, path)
    probe = make_recognizer(spec, path)
    keys: dict[tuple[int, int], None] = {}
    closed = path.closed

    t = _seed(rec, 0, n1)
    if t == n1:
        return _finish(path, spec, keys, rec, probe)  # predicate false on every singleton

    # on closed paths the seed scan may wrap this far
    limit = t + n1 if closed else n1
    i = j = t
    pos_ok, neg_ok = True, two_sided

    while True:
        # Increase / Check / Maximality: alternate sides while both can grow,
        # then finish on whichever side still can.
        while pos_ok and neg_ok and j - i + 1 < n1 and (closed or (0 < i and j < n1 - 1)):
            if (j - i) % 2 == 0:
                if rec.try_extend_positive():
                    j += 1
                else:
                    pos_ok = False
            elif rec.try_extend_negative():
                i -= 1
            else:
                neg_ok = False
        while pos_ok and j - i + 1 < n1 and (closed or j < n1 - 1) and rec.try_extend_positive():
            j += 1
        while neg_ok and j - i + 1 < n1 and (closed or i > 0) and rec.try_extend_negative():
            i -= 1

        length = j - i + 1
        if closed and length == n1:
            # the whole circle, canonical start 0
            return _finish(path, spec, {(0, n1): None}, rec, probe)
        key = (i % n1, length)
        if key in keys:
            break  # wrapped around onto a known segment
        if not keys:
            # j only grows: stop one wrap past the first segment, or at the path's end
            last_q = j + n1 if closed else n1 - 1
        keys[key] = None

        q = j + 1
        if q > last_q:
            break
        window = _restart(rec, probe, i, q, limit)
        if window is None:
            break
        i, j = window
        # a fresh seed past q may grow both ways; after a shrink, the
        # shrink's last failure rules the negative side out for good
        pos_ok, neg_ok = True, two_sided and i > q

    if closed:
        # a forward-grown first segment may not be saturated on its negative
        # side: drop it if another segment's arc contains its arc (no segment
        # here is the whole circle, which returned above)
        first = start0, len0 = next(iter(keys))
        for start, size in keys:
            if len0 <= size and (start, size) != first and (start0 - start) % n1 + len0 <= size:
                del keys[first]
                break
    return _finish(path, spec, keys, rec, probe)


def saturated_cover(path: DigitalPath, spec: PredicateSpec) -> SaturatedCover:
    """Two-sided sweep: returns exactly the saturated subpaths of a
    conservative predicate."""
    return _sweep(path, spec, two_sided=True)


def forward_cover(path: DigitalPath, spec: PredicateSpec) -> SaturatedCover:
    """The same sweep with the negative side switched off: each window grows
    on its positive side only.  Produces the same cover as
    :func:`saturated_cover`; on closed paths its first segment may be
    unsaturated, and the end rule then drops it."""
    return _sweep(path, spec, two_sided=False)


def brute_force_cover(
    path: DigitalPath,
    spec: PredicateSpec,
    max_points: int = 500,
) -> SaturatedCover:
    """Ground truth by definition, for desk-scale inputs.

    Finds, for every start, the longest true interval (true lengths form a
    prefix, the predicate being conservative) and keeps it when its
    one-point negative extension is false or impossible.
    """
    n1 = path.n_points
    if n1 > max_points:
        raise CoverCapError(f"path has {n1} points, above the brute-force cap {max_points}")
    rec = make_recognizer(spec, path)
    closed = path.closed

    lmax = [0] * n1
    s = _seed(rec, 0, n1)
    while s < n1:
        while rec.try_extend_positive():
            pass
        lmax[s] = rec.length
        s = _seed(rec, s + 1, n1)
    if closed and any(L == n1 for L in lmax):
        return _finish(path, spec, {(0, n1): None}, rec)
    keys = {}
    for s in range(n1):
        L = lmax[s]
        if L == 0:
            continue
        if not closed and s == 0:
            keys[(s, L)] = None
            continue
        if lmax[(s - 1) % n1] <= L:  # (s-1 .. s+L-1) is false: negative end is stuck
            keys[(s, L)] = None
    return _finish(path, spec, keys, rec)


def segment_is_saturated(path: DigitalPath, spec: PredicateSpec, iv: IndexInterval) -> bool:
    """Post-hoc stateless check that `iv` is saturated: true on it, false or
    impossible on both one-point extensions."""
    rec = make_recognizer(spec, path)
    n1 = path.n_points
    if not rec.holds(iv):
        return False
    if iv.length < n1:
        if path.closed or iv.start + iv.length < n1:
            if rec.holds(IndexInterval(iv.start, iv.length + 1)):
                return False
        if path.closed or iv.start > 0:
            if rec.holds(IndexInterval((iv.start - 1) % n1, iv.length + 1)):
                return False
    return True


@dataclass(frozen=True)
class ProbeRow:
    n_points: int
    predicate_calls: int
    seconds: float  # wall time of the sweep alone, path generation excluded

    @property
    def ratio(self) -> float:
        return self.predicate_calls / self.n_points

    @property
    def us_per_point(self) -> float:
        return self.seconds * 1e6 / self.n_points


def complexity_probe(
    spec: PredicateSpec,
    sizes: Sequence[int],
    path_factory: Callable[[int], DigitalPath],
) -> list[ProbeRow]:
    """Run the sweep on synthetic paths of the given sizes and tabulate the
    predicate-call counts and times; calls/n and time/n staying flat across
    sizes exhibit linear complexity in evaluations and in time."""
    rows = []
    for size in sizes:
        path = path_factory(size)
        t0 = time.perf_counter()
        cov = saturated_cover(path, spec)
        rows.append(ProbeRow(path.n_points, cov.predicate_calls, time.perf_counter() - t0))
    return rows
