"""Decomposition of a digital path into all saturated subpaths.

A subpath is *saturated* for a predicate when the predicate holds on it
and fails on (or cannot form) both of its one-point extensions.  For a
conservative predicate the set of saturated subpaths is the generalized
tangential cover; it has at most one segment per path point, and the
incremental sweep below finds it with a number of predicate evaluations
linear in the path length.

Three routes are provided: the two-sided alternating sweep
(:func:`saturated_cover`), a forward-only variant that slides a window
(:func:`forward_cover`), and a definition-based oracle
(:func:`brute_force_cover`) for cross-checking at desk scale.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .paths import DigitalPath, IndexInterval, interval_contains
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
    segments = tuple(IndexInterval(s, l) for s, l in sorted(keys))
    calls = sum(rec.calls for rec in recs)
    return SaturatedCover(path.n_points, path.closed, spec, segments, calls)


def _seed(rec: Recognizer, t: int, limit: int) -> int:
    """Reset `rec` at t, t+1, ... (mod n) until the singleton holds; returns
    that index, or `limit` when every singleton before it fails."""
    n1 = rec.n_points
    while t < limit and not rec.reset(t % n1):
        t += 1
    return t


def _restart(rec: Recognizer, probe: Recognizer, q: int, limit: int) -> Optional[tuple[int, int]]:
    """Move the window of `rec`, whose positive end is q - 1, on past q.

    When the singleton at q holds, shrink from the negative side until the
    extension to q holds again and return the new (start, end = q).
    Otherwise seed afresh past q and return (t, t) with t > q, or None when
    the seed scan reaches `limit`.
    """
    if not probe.reset(q % rec.n_points):
        t = _seed(rec, q + 1, limit)
        return None if t >= limit else (t, t)
    i = q - rec.length
    while rec.length > 1:
        rec.remove_negative_end()
        i += 1
        if rec.try_extend_positive():
            return i, q
    rec.reset(q % rec.n_points)  # known true from the probe
    return q, q


def saturated_cover(path: DigitalPath, spec: PredicateSpec) -> SaturatedCover:
    """Two-sided sweep: grow alternately around a seed (positive side first
    on odd length), then repeatedly extend past the positive end and shrink
    from the negative side until the predicate holds again.

    Returns exactly the saturated subpaths of a conservative predicate.
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
    pos_ok = neg_ok = True
    guard = t + 3 * n1 + 3

    while True:
        # Increase / Check / Maximality: alternate sides, positive first,
        # continuing one-sided once the other side has failed or hit an end.
        while True:
            length = j - i + 1
            if length == n1:
                break
            pos_avail = pos_ok and (closed or j < n1 - 1)
            neg_avail = neg_ok and (closed or i > 0)
            if not pos_avail and not neg_avail:
                break
            if length % 2 == 1:
                side_pos = pos_avail
            else:
                side_pos = not neg_avail
            if side_pos:
                if rec.try_extend_positive():
                    j += 1
                else:
                    pos_ok = False
            else:
                if rec.try_extend_negative():
                    i -= 1
                else:
                    neg_ok = False

        length = j - i + 1
        if closed and length == n1:
            # the whole circle, canonical start 0
            return _finish(path, spec, {(0, n1): None}, rec, probe)
        key = (i % n1, length)
        if key in keys:
            return _finish(path, spec, keys, rec, probe)  # wrapped around: sweep done
        keys[key] = None

        q = j + 1
        if not closed and q >= n1:
            return _finish(path, spec, keys, rec, probe)
        if q > guard:
            raise AssertionError("cover sweep failed to terminate")
        window = _restart(rec, probe, q, limit)
        if window is None:
            return _finish(path, spec, keys, rec, probe)
        i, j = window
        # a fresh seed past q may grow both ways; after a shrink, the
        # shrink's last failure rules the negative side out for good
        pos_ok, neg_ok = True, i > q


def forward_cover(path: DigitalPath, spec: PredicateSpec) -> SaturatedCover:
    """Forward-only variant: positive extension plus negative-end removal.

    Produces the same cover as :func:`saturated_cover`.  On closed paths
    the sweep runs until it revisits a segment (one wrap past the first
    recognized one), and the first segment is discarded if some later
    segment contains it.
    """
    n1 = path.n_points
    rec = make_recognizer(spec, path)
    probe = make_recognizer(spec, path)
    keys: dict[tuple[int, int], None] = {}
    closed = path.closed
    first_key: Optional[tuple[int, int]] = None

    t = _seed(rec, 0, n1)
    if t == n1:
        return _finish(path, spec, keys, rec, probe)

    limit = t + n1 if closed else n1
    s = j = t
    first_end: Optional[int] = None

    while True:
        while rec.length < n1 and (closed or j < n1 - 1) and rec.try_extend_positive():
            j += 1
        if closed and rec.length == n1:
            return _finish(path, spec, {(0, n1): None}, rec, probe)
        key = (s % n1, j - s + 1)
        if key in keys:
            break
        keys[key] = None
        if first_key is None:
            first_key, first_end = key, j

        q = j + 1
        if not closed and q >= n1:
            break
        if closed and q > first_end + n1:
            break  # one full wrap past the first recognized segment
        window = _restart(rec, probe, q, limit)
        if window is None:
            break
        s, j = window

    if closed and first_key is not None and len(keys) > 1:
        first_iv = IndexInterval(*first_key)
        for other in keys:
            if other != first_key and interval_contains(n1, True, IndexInterval(*other), first_iv):
                del keys[first_key]
                break
    return _finish(path, spec, keys, rec, probe)


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
