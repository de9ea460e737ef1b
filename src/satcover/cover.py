"""Decomposition of a digital path into all saturated subpaths.

A subpath is *saturated* for a predicate when the predicate holds on it
and fails on (or cannot form) both of its one-point extensions.  For a
conservative predicate the set of saturated subpaths is the generalized
tangential cover; it has at most one segment per path point, and the
incremental sweep below finds it with a number of predicate evaluations
linear in the path length.

One sweep serves two routes: :func:`saturated_cover` grows its first
window alternately on both sides, and :func:`forward_cover` runs the same
sweep with the negative side switched off.  A definition-based oracle,
:func:`brute_force_cover`, cross-checks both at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Sequence

from .paths import DigitalPath, IndexInterval
from .predicates import _REGISTRY, PredicateError, PredicateSpec, Recognizer, make_recognizer


class CoverCapError(ValueError):
    """brute_force_cover refused an input larger than its point cap."""


@dataclass(frozen=True)
class SaturatedCover:
    """All saturated subpaths of one predicate on one path.

    `predicate_calls` counts every singleton reset, the singleton past the
    window at every window move, every attempted extension (successful or
    not) and every stateless check performed while computing the cover;
    removals are state maintenance and are not predicate evaluations.
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


def _recognizer(spec: PredicateSpec, path: DigitalPath) -> Recognizer:
    """The recognizer of `spec` for a cover, refused for a predicate
    registered as not conservative: its covers are not saturated covers."""
    info = _REGISTRY.get(spec.name)
    if info is not None and not info.conservative:
        raise PredicateError(f"predicate {spec.name!r} is not conservative; "
                             "covers need a conservative predicate")
    return make_recognizer(spec, path)


def _finish(path, spec, keys, rec: Recognizer) -> SaturatedCover:
    # tuple.__new__ makes each IndexInterval in C, with no Python frame
    segments = tuple(map(tuple.__new__, repeat(IndexInterval), sorted(keys)))
    return SaturatedCover(path.n_points, path.closed, spec, segments, rec.calls)


def _sweep(path: DigitalPath, spec: PredicateSpec, two_sided: bool) -> SaturatedCover:
    """The incremental sweep: grow a window at index 0 until it is
    saturated, then move on past its positive end, shrinking from its
    negative end, with one recognizer run per window move.

    The first window grows alternately on both sides while both can grow
    (positive side first on odd length), then on whichever side still can;
    with `two_sided` off, on its positive side only.  Every singleton holds,
    so each later window is one `Recognizer.slide`: it drops the window's
    negative end until the point past it joins, or restarts there, and
    grows it positively; the last refused join rules the negative side out
    for good.  On closed paths the sweep stops at a repeated segment or one
    wrap past the first one, and drops the first segment if a later one
    contains it.
    """
    n1 = path.n_points
    rec = _recognizer(spec, path)
    keys: dict[tuple[int, int], None] = {}
    closed = path.closed

    rec.reset(0)
    pos_ok, neg_ok = True, two_sided
    while pos_ok and neg_ok and rec.room(True) and rec.room(False):
        if rec.length % 2:
            pos_ok = rec.grow(True, 1) == 1
        else:
            neg_ok = rec.grow(False, 1) == 1
    if pos_ok:
        rec.grow(True, rec.room(True))
    if neg_ok:
        rec.grow(False, rec.room(False))
    if closed and rec.length == n1:
        # the whole circle, canonical start 0
        return _finish(path, spec, {(0, n1): None}, rec)

    # the end only grows: stop one wrap past the first segment, or at the
    # path's end
    last_q = rec._start + rec._length - 1 + n1 if closed else n1 - 1
    while True:
        i, length = rec._start, rec._length
        key = (i % n1, length)
        if key in keys:
            break  # wrapped around onto a known segment
        keys[key] = None
        q = i + length
        if q > last_q:
            break
        rec.calls += 1  # the singleton past the window, which holds
        rec.slide(length - 1)

    if closed:
        # a forward-grown first segment may not be saturated on its negative
        # side: drop it if another segment's arc contains its arc (no segment
        # here is the whole circle: the first window would have been it)
        first = start0, len0 = next(iter(keys))
        for start, size in keys:
            if len0 <= size and (start, size) != first and (start0 - start) % n1 + len0 <= size:
                del keys[first]
                break
    return _finish(path, spec, keys, rec)


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
    rec = _recognizer(spec, path)
    closed = path.closed

    lmax = [0] * n1
    for s in range(n1):
        rec.reset(s)
        rec.grow(True, n1)  # to the first refusal, at the boundary included
        lmax[s] = rec.length
    if closed and any(L == n1 for L in lmax):
        return _finish(path, spec, {(0, n1): None}, rec)
    keys = {}
    for s in range(n1):
        L = lmax[s]
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
