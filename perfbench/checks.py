"""Checks of the program's outputs that share no code with the program.

Each check raises CheckError on the first violation.  Predicates are
re-derived from the points (numpy for the exhaustive DSS slope search),
arc-graph edges from a numpy pairwise intersection matrix, and raster
components from a flood fill written here.  Only ``validate_path`` is
borrowed from the program, as the definition of a well-formed path.
"""

from __future__ import annotations

import json
import random
from collections import deque
from functools import lru_cache

import numpy as np


class CheckError(AssertionError):
    pass


def _require(ok, what: str) -> None:
    if not ok:
        raise CheckError(what)


# --------------------------------------------------------------------------
# predicates, evaluated on the points of one interval
# --------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _slopes(bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Every primitive direction (a, b) with 0 <= a <= bound, |b| <= bound.

    A multiple (ka, kb) has the same feasibility as (a, b): the spread and
    the band width both scale by k, and spreads are integers.
    """
    aa, bb = np.meshgrid(np.arange(0, bound + 1), np.arange(-bound, bound + 1), indexing="ij")
    aa, bb = aa.ravel(), bb.ravel()
    keep = np.gcd(aa, bb) == 1
    return aa[keep].astype(np.int64), bb[keep].astype(np.int64)


def dss_feasible(pts: np.ndarray, eight: bool, chunk: int = 2048) -> bool:
    """Is there a band mu <= a*x - b*y <= mu + w - 1 holding every point,
    with w = max(|a|,|b|) (8-paths) or |a|+|b| (4-paths)?  Exhaustive over
    |a|, |b| <= distinct points + 1, as in the test suite's oracle."""
    distinct = np.unique(pts, axis=0)
    aa, bb = _slopes(len(distinct) + 1)
    xs, ys = distinct[:, 0], distinct[:, 1]
    for lo in range(0, len(aa), chunk):
        a, b = aa[lo:lo + chunk], bb[lo:lo + chunk]
        r = a[:, None] * xs[None, :] - b[:, None] * ys[None, :]
        spread = r.max(axis=1) - r.min(axis=1)
        width = np.maximum(np.abs(a), np.abs(b)) if eight else np.abs(a) + np.abs(b)
        if np.any(spread <= width - 1):
            return True
    return False


def make_feasible(name: str, params: dict, adjacency: str):
    """feasible(points, full_turn) for one predicate; full_turn marks the
    whole of a closed path, whose wrap join counts for x_monotone."""
    if name == "max_len":
        k = params["k"]
        return lambda pts, full_turn: len(pts) <= k
    if name == "bbox":
        w, h = params["w"], params["h"]

        def bbox(pts, full_turn):
            return (int(np.ptp(pts[:, 0])) <= w - 1) and (int(np.ptp(pts[:, 1])) <= h - 1)
        return bbox
    if name == "x_monotone":
        def x_monotone(pts, full_turn):
            xs = pts[:, 0]
            d = np.diff(np.append(xs, xs[0])) if full_turn else np.diff(xs)
            return bool(np.all(d >= 0) or np.all(d <= 0))
        return x_monotone
    if name == "dss":
        eight = adjacency == "8"
        return lambda pts, full_turn: dss_feasible(pts, eight)
    raise ValueError(f"no independent check for predicate {name!r}")


# --------------------------------------------------------------------------
# covers
# --------------------------------------------------------------------------


def _take(points: np.ndarray, start: int, length: int) -> np.ndarray:
    return np.take(points, np.arange(start, start + length), axis=0, mode="wrap")


def _contains_any(starts, lens, n: int, closed: bool, rows: int = 256) -> bool:
    """Does some interval contain another one (circularly when closed)?"""
    m = len(starts)
    for lo in range(0, m, rows):
        s_out, l_out = starts[lo:lo + rows, None], lens[lo:lo + rows, None]
        if closed:
            off = (starts[None, :] - s_out) % n
            inside = (off + lens[None, :] <= l_out) | (l_out == n)
        else:
            inside = (s_out <= starts[None, :]) & (starts[None, :] + lens[None, :] <= s_out + l_out)
        inside[np.arange(len(s_out)), np.arange(lo, lo + len(s_out))] = False
        if inside.any():
            return True
    return False


def check_cover(doc: dict, points: np.ndarray, closed: bool, adjacency: str,
                name: str, params: dict, sample: int | None, rng: random.Random) -> list:
    """Check a cover JSON document against the path's points.

    Structure (every segment): at most n segments, distinct middles,
    inclusion-free, every index covered.  Saturation: each segment is true
    and both one-point extensions are false or impossible.  Completeness:
    between consecutive segments S, T (by start), the interval from one
    point before T's start to one point past S's end is false, so no
    saturated segment is missing.  With ``sample`` set, saturation and
    completeness are checked on that many random segments.
    Returns the segments as (start, length) pairs.
    """
    n = len(points)
    _require(doc["n"] == n and doc["closed"] == closed, "cover n/closed differ from the path")
    _require(doc["predicate"] == {"name": name, "params": params}, "cover names another predicate")
    segs = [(s["start"], s["len"]) for s in doc["segments"]]
    m = len(segs)
    _require(1 <= m <= n, f"{m} segments for {n} points")
    starts = np.array([s for s, _ in segs], dtype=np.int64)
    lens = np.array([ln for _, ln in segs], dtype=np.int64)
    _require(np.all((starts >= 0) & (starts < n) & (lens >= 1) & (lens <= n)), "segment out of range")
    if not closed:
        _require(np.all(starts + lens <= n), "open segment runs past the end")
    _require(np.all(np.diff(starts) > 0), "segments not sorted by distinct starts")
    middles = (starts + (lens - 1) // 2) % n
    _require(len(np.unique(middles)) == m, "two segments share a middle")
    _require(not _contains_any(starts, lens, n, closed), "a segment contains another")
    cover = np.zeros(n + 1, dtype=np.int64)
    for s, ln in segs:
        end = s + ln
        if end <= n:
            cover[s] += 1
            cover[end] -= 1
        else:
            cover[s] += 1
            cover[n] -= 1
            cover[0] += 1
            cover[end - n] -= 1
    _require(np.all(np.cumsum(cover)[:n] > 0), "some index is in no segment")

    feasible = make_feasible(name, params, adjacency)
    picks = range(m) if sample is None else sorted(rng.sample(range(m), min(sample, m)))
    for i in picks:
        s, ln = segs[i]
        _require(feasible(_take(points, s, ln), closed and ln == n),
                 f"segment ({s},{ln}) is false")
        if ln < n and (closed or s + ln < n):
            _require(not feasible(_take(points, s, ln + 1), closed and ln + 1 == n),
                     f"segment ({s},{ln}) extends at its end")
        if ln < n and (closed or s > 0):
            _require(not feasible(_take(points, s - 1, ln + 1), closed and ln + 1 == n),
                     f"segment ({s},{ln}) extends at its start")
        if i + 1 < m or (closed and m > 1):
            t = starts[(i + 1) % m] + (n if i + 1 == m else 0)
            bridge = s + ln + 1 - (t - 1)
            if bridge <= n:
                _require(not feasible(_take(points, t - 1, bridge), closed and bridge == n),
                         f"a saturated segment is missing after ({s},{ln})")
    return segs


def check_rotation(segs, n: int, rotation: int, reference: dict, key) -> None:
    """The cover of a rotated circle is the rotated cover: compare the
    segments, moved back to the unrotated indexing, with the first cover of
    the same circle seen in this run."""
    moved = frozenset(((s + rotation) % n, ln) for s, ln in segs)
    if key not in reference:
        reference[key] = moved
    _require(reference[key] == moved, "rotated circle gives another cover")


# --------------------------------------------------------------------------
# arc graphs
# --------------------------------------------------------------------------


def check_arc_graph(doc: dict, segs, n: int, closed: bool, rows: int = 256) -> None:
    """Nodes are the cover's segments in order; edges are exactly the pairs
    of intervals sharing an index; the graph is proper."""
    nodes = [(v["start"], v["len"]) for v in doc["nodes"]]
    _require(nodes == list(segs), "arc-graph nodes differ from the cover")
    _require(doc["interval"] == (not closed), "wrong interval flag")
    _require(doc["proper"] is True, "graph of an inclusion-free cover is not proper")
    starts = np.array([s for s, _ in segs], dtype=np.int64)
    lens = np.array([ln for _, ln in segs], dtype=np.int64)
    m = len(segs)
    found = []
    for lo in range(0, m, rows):
        sa, la = starts[lo:lo + rows, None], lens[lo:lo + rows, None]
        if closed:
            meet = (((starts[None, :] - sa) % n < la) | ((sa - starts[None, :]) % n < lens[None, :])
                    | (la == n) | (lens[None, :] == n))
        else:
            meet = np.maximum(sa, starts[None, :]) <= np.minimum(sa + la, starts[None, :] + lens[None, :]) - 1
        meet &= np.arange(m)[None, :] > np.arange(lo, lo + len(sa))[:, None]
        found.append(np.argwhere(meet) + np.array([lo, 0]))
    want = np.concatenate(found) if found else np.zeros((0, 2), dtype=np.int64)
    got = np.array(doc["edges"], dtype=np.int64).reshape(-1, 2)
    _require(got.shape == want.shape and np.array_equal(got, want),
             f"arc-graph edges differ: {len(got)} given, {len(want)} expected")


# --------------------------------------------------------------------------
# rasters and traced paths
# --------------------------------------------------------------------------

_OFFSETS = {
    "4": ((0, -1), (-1, 0), (1, 0), (0, 1)),
    "8": ((-1, -1), (0, -1), (1, -1), (-1, 0), (1, 0), (-1, 1), (0, 1), (1, 1)),
}


def mask_pixels(mask: np.ndarray) -> frozenset:
    ys, xs = np.nonzero(mask)
    return frozenset(zip(xs.tolist(), ys.tolist()))


def flood_components(pixels: frozenset, adjacency: str) -> list[frozenset]:
    """Connected components by breadth-first flood fill, by smallest pixel."""
    todo = set(pixels)
    out = []
    for seed in sorted(pixels):
        if seed not in todo:
            continue
        todo.discard(seed)
        comp = [seed]
        queue = deque([seed])
        while queue:
            x, y = queue.popleft()
            for dx, dy in _OFFSETS[adjacency]:
                q = (x + dx, y + dy)
                if q in todo:
                    todo.discard(q)
                    comp.append(q)
                    queue.append(q)
        out.append(frozenset(comp))
    return out


def check_image(img, mask: np.ndarray, pixels: frozenset) -> None:
    h, w = mask.shape
    _require((img.width, img.height) == (w, h), "load_pbm read other dimensions")
    _require(img.foreground == pixels, "load_pbm read another pixel set")


def check_traces(texts, paths_mod, pixels: frozenset, adjacency: str) -> None:
    """One valid path per flood-fill component, in component order, whose
    point set is that component; the path JSON holds the same path."""
    comps = flood_components(pixels, adjacency)
    _require(len(texts) == len(comps), f"{len(texts)} paths for {len(comps)} components")
    for text, comp in zip(texts, comps):
        doc = json.loads(text)
        _require(doc["adjacency"] == adjacency, "path has another adjacency")
        pts = tuple((x, y) for x, y in doc["points"])
        path = paths_mod.DigitalPath(pts, closed=doc["closed"],
                                     adjacency=paths_mod.Adjacency.from_code(adjacency))
        _require(paths_mod.validate_path(path).ok, "traced path is not a valid digital path")
        _require(frozenset(pts) == comp, "traced path misses or adds pixels")

