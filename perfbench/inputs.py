"""Seeded inputs of the three workloads.

Every generator is a pure function of its arguments, so one ``--seed``
gives the same inputs on every run.  Paths come from ``satcover.synth``
and are handed to the program as path JSON; rasters are drawn here with
numpy and encoded as PBM bytes by this module's own encoders, so that
``load_pbm`` can be checked against the pixel set that was drawn.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

# --------------------------------------------------------------------------
# paths
# --------------------------------------------------------------------------

CIRCLE_SIZES = (1000, 2000, 4000, 8000, 16000)  # approximate point counts
# Size classes of one round's circles, in order: a 4k circle after each
# of the others, so the 4k circles are spread through the round.
CIRCLE_ORDER = (0, 2, 4, 2, 1, 2, 3, 2)


@dataclass(frozen=True)
class PathInput:
    """One path op: the path JSON the program parses, and what it stands for."""

    text: str
    n_points: int
    closed: bool
    adjacency: str
    points: np.ndarray  # (n, 2) int64, the points in path order
    size_class: int  # index into CIRCLE_SIZES, or -1 for walks
    rotation: int  # start offset applied to the circle


def path_json(points, closed: bool, adjacency: str) -> str:
    return json.dumps({"closed": closed, "adjacency": adjacency,
                       "points": [[int(x), int(y)] for x, y in points]},
                      sort_keys=True, separators=(",", ":"))


def circle_radii(seed: int) -> list[int]:
    """One radius per size class; a seeded jitter of about 1% of the radius."""
    rng = random.Random(f"circle-radii-{seed}")
    out = []
    for n in CIRCLE_SIZES:
        r = round(n / 5.66)
        out.append(r + rng.randint(-(r // 100), r // 100))
    return out


def circle_round(synth, seed: int, round_no: int) -> list[PathInput]:
    """The circles of CIRCLE_SIZES in CIRCLE_ORDER, each started at a seeded
    rotation that changes from round to round (the circles stay the same).
    The 4k class comes four times in eight ops, so the middle half of a
    run's sorted op times is exactly its 4k circles, sampled all through
    the run.  Op 0 is the 1k circle."""
    rng = random.Random(f"circle-rot-{seed}-{round_no}")
    bases = [synth.digitized_circle_path(r).points for r in circle_radii(seed)]
    out = []
    for cls in CIRCLE_ORDER:
        base = bases[cls]
        n = len(base)
        k = rng.randrange(n)
        pts = np.asarray(base[k:] + base[:k], dtype=np.int64)
        out.append(PathInput(path_json(pts, True, "8"), n, True, "8", pts, cls, k))
    return out


WALK_POINTS = 1500

# (predicate name, params, route, walk kind); walk kind = (closed, adjacency).
# The slow max_len ops and the mid-length dss and x_monotone ops alternate,
# so the ops in the middle of the sorted times are spread through the round.
WALK_OPS = (
    ("max_len", {"k": 8}, "saturated", (False, "4")),
    ("dss", {}, "saturated", (False, "8")),
    ("bbox", {"w": 5, "h": 5}, "saturated", (True, "4")),
    ("dss", {}, "forward", (False, "8")),
    ("x_monotone", {}, "forward", (False, "4")),
    ("max_len", {"k": 8}, "forward", (True, "8")),
    ("dss", {}, "saturated", (True, "8")),
    ("bbox", {"w": 5, "h": 5}, "forward", (False, "8")),
    ("dss", {}, "forward", (True, "8")),
    ("x_monotone", {}, "saturated", (True, "8")),
)


def walk(synth, paths_mod, closed: bool, adj: str, seed: int, n_points: int) -> PathInput:
    """A random walk of n_points points; a closed one wanders for about
    n_points steps and then steers home, so it ends up a few percent longer."""
    adjacency = paths_mod.Adjacency.from_code(adj)
    if closed:
        path = synth.random_closed_path(2 * n_points, adjacency, seed=seed)
    else:
        path = synth.random_walk_path(n_points, adjacency, seed=seed)
    pts = np.asarray(path.points, dtype=np.int64)
    return PathInput(path_json(pts, closed, adj), len(pts), closed, adj, pts, -1, 0)


def walk_round(synth, paths_mod, seed: int, n_points: int = WALK_POINTS) -> list[PathInput]:
    """One seeded walk per entry of WALK_OPS; every round has the same walks."""
    return [walk(synth, paths_mod, closed, adj,
                 random.Random(f"walk-{seed}-{i}").randrange(1 << 30), n_points)
            for i, (_, _, _, (closed, adj)) in enumerate(WALK_OPS)]


# --------------------------------------------------------------------------
# rasters
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RasterInput:
    """One trace op: PBM bytes, the drawn pixels, and the adjacency to trace with."""

    name: str
    data: bytes
    adjacency: str
    mask: np.ndarray  # (height, width) bool, True on foreground
    expect_failure: str = ""  # exception class name of a known program fault


def encode_p4(mask: np.ndarray) -> bytes:
    h, w = mask.shape
    return f"P4\n{w} {h}\n".encode() + np.packbits(mask, axis=1).tobytes()


def encode_p1(mask: np.ndarray) -> bytes:
    """Plain PBM with one line of digits per row (no separators needed)."""
    h, w = mask.shape
    digits = np.where(mask, ord("1"), ord("0")).astype(np.uint8)
    body = np.concatenate([digits, np.full((h, 1), ord("\n"), np.uint8)], axis=1)
    return f"P1\n{w} {h}\n".encode() + body.tobytes()


def draw_ring(synth, mask: np.ndarray, cx: int, cy: int, r: int, four: bool) -> None:
    """The closed 8-connected digitized circle of ``synth``; with four=True
    every diagonal step also gets a corner pixel, so the ring is 4-connected."""
    pts = synth.digitized_circle_path(r).points
    for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
        mask[cy + py, cx + px] = True
        if four and px != qx and py != qy:
            mask[cy + py, cx + qx] = True


def big_ring(synth, rng: random.Random, four: bool) -> np.ndarray:
    mask = np.zeros((2020, 2020), dtype=bool)
    draw_ring(synth, mask, 1010 + rng.randint(-8, 8), 1010 + rng.randint(-8, 8),
              1000 - rng.randint(0, 8), four)
    return mask


def many_rings(synth, rng: random.Random, four: bool) -> np.ndarray:
    """8 x 8 small rings in 32-pixel cells, radius 9..12 with seeded centres."""
    grid, cell = 8, 32
    mask = np.zeros((grid * cell, grid * cell), dtype=bool)
    for gy in range(grid):
        for gx in range(grid):
            r = rng.randint(9, 12)
            slack = cell // 2 - r - 2
            cx = gx * cell + cell // 2 + rng.randint(-slack, slack)
            cy = gy * cell + cell // 2 + rng.randint(-slack, slack)
            draw_ring(synth, mask, cx, cy, r, four)
    return mask


def comb(teeth: int, width: int, height: int, tooth_lengths, spacing: int,
         first: int) -> np.ndarray:
    """A one-pixel spine along row 1 and `teeth` teeth hanging from it."""
    mask = np.zeros((height, width), dtype=bool)
    mask[1, 1:width - 1] = True
    for t in range(teeth):
        x = first + t * spacing
        mask[2:2 + tooth_lengths[t], x] = True
    return mask


def seeded_comb(rng: random.Random) -> np.ndarray:
    """Eight interior teeth of seeded lengths: 8 tooth ends, 8 T-junctions
    and 2 spine ends, so 18 odd vertices, under the cap of 20."""
    spacing = rng.randint(5, 7)
    lengths = [rng.randint(20, 55) for _ in range(8)]
    return comb(8, 9 * spacing + 2, 60, lengths, spacing, spacing)


def lattice(rng: random.Random) -> np.ndarray:
    """4 x 4 cells of one-pixel lines with seeded line positions: 12 odd
    T-junctions on the border, even crossings inside."""
    xs = [1]
    ys = [1]
    for _ in range(4):
        xs.append(xs[-1] + rng.randint(8, 16))
        ys.append(ys[-1] + rng.randint(8, 16))
    mask = np.zeros((ys[-1] + 2, xs[-1] + 2), dtype=bool)
    for x in xs:
        mask[1:ys[-1] + 1, x] = True
    for y in ys:
        mask[y, 1:xs[-1] + 1] = True
    return mask


def comb_22() -> np.ndarray:
    """60x60 comb with 11 teeth whose curve graph has 22 odd vertices,
    above the odd-vertex cap of 20 of ``trace.eulerize``."""
    return comb(11, 60, 60, [55] * 11, 5, 1)


def bar_1500x3() -> np.ndarray:
    """A solid 1500x3 bar: every pixel is branching, so the whole bar is one
    junction walked by the recursive ``_junction_tree_walk``."""
    return np.ones((3, 1500), dtype=bool)


def raster_round(synth, seed: int) -> list[RasterInput]:
    """Eleven rasters.  By trace time the nine that succeed sort into four
    small line drawings, three images of 64 small rings and two 2020x2020
    rings, so the median op is always one of the multi-ring images.  The
    big rings, the multi-ring images and the line drawings alternate, so
    each kind is spread through the round.  Every round has the same
    rasters."""
    rng = random.Random(f"raster-{seed}")
    ring8 = big_ring(synth, rng, four=False)
    ring4 = big_ring(synth, rng, four=True)
    rings8a = many_rings(synth, rng, four=False)
    rings8b = many_rings(synth, rng, four=False)
    rings4 = many_rings(synth, rng, four=True)
    comb_a = seeded_comb(rng)
    comb_b = seeded_comb(rng)
    lat_a = lattice(rng)
    lat_b = lattice(rng)
    c22 = comb_22()
    bar = bar_1500x3()
    return [
        RasterInput("ring-2020-p4", encode_p4(ring8), "8", ring8),
        RasterInput("rings-64-p1", encode_p1(rings8a), "8", rings8a),
        RasterInput("comb-p1", encode_p1(comb_a), "8", comb_a),
        RasterInput("lattice-p4", encode_p4(lat_a), "8", lat_a),
        RasterInput("comb-22", encode_p4(c22), "8", c22, "OddVerticesError"),
        RasterInput("ring4-2020-p1", encode_p1(ring4), "4", ring4),
        RasterInput("rings-64-p4", encode_p4(rings8b), "8", rings8b),
        RasterInput("comb-p4", encode_p4(comb_b), "4", comb_b),
        RasterInput("lattice-p1", encode_p1(lat_b), "4", lat_b),
        RasterInput("rings4-64-p4", encode_p4(rings4), "4", rings4),
        RasterInput("bar-1500x3", encode_p1(bar), "8", bar, "RecursionError"),
    ]
