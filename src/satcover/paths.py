"""Digital paths on the integer grid.

A digital path is an ordered list of grid points in which consecutive
points are distinct and adjacent under a chosen neighbourhood relation.
Paths may self-intersect (the same point may occur at several non-adjacent
positions); a *subpath* is a contiguous run of indices and is identified
by an (start, length) interval, never by its point set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, NamedTuple, Optional

Point = tuple[int, int]


class Adjacency(Enum):
    """Neighbourhood relation between grid points.

    FOUR uses the l1 norm and EIGHT the l-infinity norm: p and q are
    adjacent iff the norm of q - p is <= 1 and p != q.  INDEX declares any
    two distinct points adjacent, so connectivity is carried purely by
    consecutive list positions.
    """

    FOUR = "4"
    EIGHT = "8"
    INDEX = "index"

    @classmethod
    def from_code(cls, code: str) -> "Adjacency":
        for adj in cls:
            if adj.value == code:
                return adj
        raise ValueError(f"unknown adjacency code {code!r} (expected '4', '8' or 'index')")


# The offsets q - p from a grid point p to its neighbours q, in sorted
# order: adding p keeps their order, so p's neighbours come out sorted.
NEIGHBOUR_OFFSETS = {
    Adjacency.FOUR: ((-1, 0), (0, -1), (0, 1), (1, 0)),
    Adjacency.EIGHT: ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)),
}

# The steps q - p between adjacent grid points: p and q are adjacent iff
# their difference is one of these.  Per-point code tests adjacency with
# this one set lookup.
UNIT_STEPS = {adj: frozenset(offsets) for adj, offsets in NEIGHBOUR_OFFSETS.items()}


def is_adjacent(p: Point, q: Point, adjacency: Adjacency) -> bool:
    """True iff p != q and q - p has norm <= 1 under the declared norm."""
    if adjacency is Adjacency.INDEX:
        return p != q
    return (q[0] - p[0], q[1] - p[1]) in UNIT_STEPS[adjacency]


@dataclass(frozen=True)
class DigitalPath:
    """An ordered list of grid points with an adjacency discipline.

    The list is never empty, consecutive points are distinct, and for
    FOUR/EIGHT adjacency every consecutive pair (including the wrap pair
    of a closed path) is adjacent.  `points` is a tuple of `(x, y)` tuples,
    stored as given: construction neither converts nor validates; use
    :func:`validate_path`, and :func:`path_from_json` for outside input.
    """

    points: tuple[Point, ...]
    closed: bool = False
    adjacency: Adjacency = Adjacency.EIGHT

    @property
    def n_points(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_path; `index` is the first offending pair (i, i+1),
    or (i, 0) when `closing` marks the wrap join of a closed path."""

    ok: bool
    index: Optional[int] = None
    kind: Optional[str] = None  # "empty" | "repetition" | "not_adjacent" | "bad_closure"
    closing: bool = False

    @property
    def message(self) -> str:
        if self.ok:
            return "ok"
        if self.kind == "empty":
            return "path has no points"
        if self.kind == "bad_closure":
            return f"closing pair (index {self.index}, index 0) is not adjacent"
        what = "repeated point" if self.kind == "repetition" else "non-adjacent pair"
        if self.closing:
            return f"{what} at closing pair (index {self.index}, index 0)"
        return f"{what} at consecutive indices ({self.index}, {self.index + 1})"


def validate_path(path: DigitalPath) -> ValidationReport:
    """Check all DigitalPath invariants; the report is the result, never an exception."""
    pts = path.points
    n1 = len(pts)
    if n1 == 0:
        return ValidationReport(False, kind="empty")
    units = UNIT_STEPS.get(path.adjacency)  # None for INDEX
    # each point with its successor, the wrap pair (n1 - 1, 0) last when closed
    succ = pts[1:] + pts[:1] if path.closed else pts[1:]
    for i, (p, q) in enumerate(zip(pts, succ)):
        adjacent = p != q if units is None else (q[0] - p[0], q[1] - p[1]) in units
        if not adjacent:
            closing = i == n1 - 1
            kind = "repetition" if p == q else "bad_closure" if closing else "not_adjacent"
            return ValidationReport(False, index=i, kind=kind, closing=closing)
    return ValidationReport(True)


class IndexInterval(NamedTuple):
    """A subpath as a contiguous index range: points start .. start+length-1.

    On closed paths indices are taken modulo the point count; an interval
    never wraps more than one full turn (length <= n_points).
    """

    start: int
    length: int

    def indices(self, n_points: int) -> Iterator[int]:
        for k in range(self.length):
            yield (self.start + k) % n_points


def middle_index(iv: IndexInterval, n_points: int) -> int:
    """The index from which the interval is rebuilt by alternating,
    positive-first additions: start + floor((length-1)/2), mod n_points."""
    return (iv.start + (iv.length - 1) // 2) % n_points


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

class PathFormatError(ValueError):
    """Raised when a path JSON document is malformed or violates path invariants."""


def path_to_json(path: DigitalPath) -> str:
    doc = {
        "closed": path.closed,
        "adjacency": path.adjacency.value,
        "points": path.points,  # tuples encode as JSON arrays
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def path_from_json(text: str | bytes) -> DigitalPath:
    """Parse a path document given as text or as UTF-8 bytes."""
    try:
        doc = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        # bad UTF-8 or JSON, an integer past int's digit limit, or nesting
        # deeper than the decoder's recursion limit
        raise PathFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PathFormatError("path document must be a JSON object")
    for key in ("closed", "adjacency", "points"):
        if key not in doc:
            raise PathFormatError(f"missing key {key!r}")
    if not isinstance(doc["closed"], bool):
        raise PathFormatError("'closed' must be a boolean")
    try:
        adjacency = Adjacency.from_code(doc["adjacency"])
    except ValueError as exc:
        raise PathFormatError(str(exc)) from exc
    raw = doc["points"]
    if not isinstance(raw, list):
        raise PathFormatError("'points' must be an array")
    for i, entry in enumerate(raw):
        # JSON decodes to exact types: an integer is an int and never a bool
        if (type(entry) is not list or len(entry) != 2
                or type(entry[0]) is not int or type(entry[1]) is not int):
            raise PathFormatError(f"point {i} must be a pair of integers, got {entry!r}")
    path = DigitalPath(tuple(map(tuple, raw)), closed=doc["closed"], adjacency=adjacency)
    report = validate_path(path)
    if not report.ok:
        raise PathFormatError(f"invalid digital path: {report.message}")
    return path
