"""Synthetic digital paths: digitized lines and circles, random walks.

Used by the complexity probe, the randomized verification suite and the
test corpus.  All generators are deterministic given their arguments.
"""

from __future__ import annotations

import random
from typing import Optional

from .paths import Adjacency, DigitalPath, Point, is_adjacent

_STEPS = {
    Adjacency.FOUR: ((1, 0), (-1, 0), (0, 1), (0, -1)),
    Adjacency.EIGHT: ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, -1), (-1, 1), (-1, -1)),
}


def digitized_line_path(n_points: int, a: int = 2, b: int = 5,
                        adjacency: Adjacency = Adjacency.EIGHT) -> DigitalPath:
    """Open digitization of the line of slope a/b (0 <= a <= b, b >= 1)."""
    if not (0 <= a <= b and b >= 1):
        raise ValueError("digitized_line_path expects 0 <= a <= b, b >= 1")
    pts: list[Point] = []
    if adjacency is Adjacency.EIGHT:
        for x in range(n_points):
            pts.append((x, (a * x + b // 2) // b))
    else:
        # remainder-driven staircase inside the band 0 <= a*x - b*y <= a+b-1
        x = y = 0
        r = 0
        while len(pts) < n_points:
            pts.append((x, y))
            if a and r + a > a + b - 1:
                y += 1
                r -= b
            else:
                x += 1
                r += a
    return DigitalPath(tuple(pts), closed=False, adjacency=adjacency)


def _octant(radius: int) -> list[Point]:
    # midpoint rule from (0, r) down to the diagonal
    pts = []
    x, y, d = 0, radius, 1 - radius
    while x <= y:
        pts.append((x, y))
        if d < 0:
            d += 2 * x + 3
        else:
            d += 2 * (x - y) + 5
            y -= 1
        x += 1
    return pts


def digitized_circle_path(radius: int) -> DigitalPath:
    """Closed 8-connected digitization of a circle (midpoint rule)."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    oct1 = _octant(radius)
    arcs = [
        [(x, y) for x, y in oct1],
        [(y, x) for x, y in reversed(oct1)],
        [(y, -x) for x, y in oct1],
        [(x, -y) for x, y in reversed(oct1)],
        [(-x, -y) for x, y in oct1],
        [(-y, -x) for x, y in reversed(oct1)],
        [(-y, x) for x, y in oct1],
        [(-x, y) for x, y in reversed(oct1)],
    ]
    pts: list[Point] = []
    for arc in arcs:
        for p in arc:
            if pts and p == pts[-1]:
                continue
            pts.append(p)
    if len(pts) > 1 and pts[-1] == pts[0]:
        pts.pop()
    return DigitalPath(tuple(pts), closed=True, adjacency=Adjacency.EIGHT)


def circle_path_of_size(n_points: int) -> DigitalPath:
    """Closed digitized circle with roughly n_points points."""
    radius = max(1, round(n_points / 5.66))
    return digitized_circle_path(radius)


def random_walk_path(n_points: int, adjacency: Adjacency = Adjacency.EIGHT,
                     seed: int = 0, rng: Optional[random.Random] = None) -> DigitalPath:
    """Open random walk; revisits allowed, consecutive points always distinct."""
    rng = rng or random.Random(seed)
    steps = _STEPS[adjacency]
    x = y = 0
    pts: list[Point] = [(0, 0)]
    while len(pts) < n_points:
        dx, dy = rng.choice(steps)
        x += dx
        y += dy
        pts.append((x, y))
    return DigitalPath(tuple(pts), closed=False, adjacency=adjacency)


def random_closed_path(max_points: int, adjacency: Adjacency = Adjacency.EIGHT,
                       seed: int = 0, rng: Optional[random.Random] = None) -> DigitalPath:
    """Closed random walk: wander for about half the budget, then steer home
    until adjacent to the start.  At most max_points points."""
    if max_points < 2:
        raise ValueError("a closed path needs at least 2 points")
    rng = rng or random.Random(seed)
    steps = _STEPS[adjacency]
    budget = max(1, (max_points - 2) // 2)
    x = y = 0
    pts: list[Point] = [(0, 0)]
    for _ in range(budget):
        dx, dy = rng.choice(steps)
        x += dx
        y += dy
        pts.append((x, y))
    # steer back: stop as soon as the current point closes the loop
    while not (len(pts) >= 2 and is_adjacent(pts[-1], pts[0], adjacency)):
        dx = 0 if x == 0 else (-1 if x > 0 else 1)
        dy = 0 if y == 0 else (-1 if y > 0 else 1)
        if adjacency is Adjacency.FOUR and dx and dy:
            if abs(x) >= abs(y):
                dy = 0
            else:
                dx = 0
        if dx == 0 and dy == 0:
            break  # already home: the start duplicate is dropped below
        x += dx
        y += dy
        pts.append((x, y))
    if pts[-1] == pts[0]:
        pts.pop()
    if len(pts) < 2 or not is_adjacent(pts[-1], pts[0], adjacency):
        # degenerate wander (can only happen for tiny budgets): use a unit loop
        pts = [(0, 0), (0, 1), (1, 1), (1, 0)] if adjacency is Adjacency.FOUR else [(0, 0), (1, 1), (2, 0), (1, -1)]
    return DigitalPath(tuple(pts), closed=True, adjacency=adjacency)


def random_index_path(n_points: int, seed: int = 0, span: int = 12,
                      rng: Optional[random.Random] = None) -> DigitalPath:
    """Index-connected path: arbitrary points, consecutive ones distinct."""
    rng = rng or random.Random(seed)
    pts: list[Point] = []
    while len(pts) < n_points:
        p = (rng.randint(-span, span), rng.randint(-span, span))
        if pts and p == pts[-1]:
            continue
        pts.append(p)
    return DigitalPath(tuple(pts), closed=False, adjacency=Adjacency.INDEX)


def shape_factory(shape: str, adjacency: Adjacency = Adjacency.EIGHT, seed: int = 0,
                  closed: bool = False):
    """Factory by name, for the complexity probe: size -> path."""
    if shape == "circle":
        if adjacency is not Adjacency.EIGHT:
            raise ValueError("circle paths are 8-connected")
        return circle_path_of_size
    if shape == "line":
        if closed or adjacency is Adjacency.INDEX:
            raise ValueError("line paths are open grid paths")
        return lambda n: digitized_line_path(n, 2, 5, adjacency)
    if shape == "walk":
        if adjacency is Adjacency.INDEX:
            if closed:
                raise ValueError("index-connected walks are open")
            return lambda n: random_index_path(n, seed=seed)
        if closed:
            return lambda n: random_closed_path(max(4, n), adjacency, seed=seed)
        return lambda n: random_walk_path(n, adjacency, seed=seed)
    raise ValueError(f"unknown probe shape {shape!r} (circle, line or walk)")
