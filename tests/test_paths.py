import json
import random
from collections import Counter

import pytest

from oracles import (
    enumerate_subpaths,
    interval_contains,
    intervals_intersect,
    validate_path_reference,
)
from satcover.paths import (
    Adjacency,
    DigitalPath,
    IndexInterval,
    PathFormatError,
    is_adjacent,
    middle_index,
    path_from_json,
    path_to_json,
    validate_path,
)
from satcover import synth


def test_is_adjacent_norms():
    assert is_adjacent((0, 0), (1, 0), Adjacency.FOUR)
    assert not is_adjacent((0, 0), (1, 1), Adjacency.FOUR)
    assert is_adjacent((0, 0), (1, 1), Adjacency.EIGHT)
    assert not is_adjacent((0, 0), (0, 0), Adjacency.EIGHT)
    assert is_adjacent((5, -3), (99, 99), Adjacency.INDEX)
    assert not is_adjacent((5, -3), (5, -3), Adjacency.INDEX)
    # the unit-step lookup agrees with the norms on a window of offsets
    for dx in range(-3, 4):
        for dy in range(-3, 4):
            q = (2 + dx, -1 + dy)
            assert is_adjacent((2, -1), q, Adjacency.FOUR) == (abs(dx) + abs(dy) == 1)
            assert is_adjacent((2, -1), q, Adjacency.EIGHT) == (max(abs(dx), abs(dy)) == 1)


def test_validate_reports():
    ok = validate_path(DigitalPath(((0, 0), (1, 0), (2, 0)), adjacency=Adjacency.FOUR))
    assert ok.ok

    gap = validate_path(DigitalPath(((0, 0), (2, 0)), adjacency=Adjacency.FOUR))
    assert not gap.ok and gap.index == 0 and gap.kind == "not_adjacent"

    rep = validate_path(DigitalPath(((0, 0), (0, 0)), adjacency=Adjacency.INDEX))
    assert not rep.ok and rep.index == 0 and rep.kind == "repetition"

    empty = validate_path(DigitalPath(()))
    assert not empty.ok and empty.kind == "empty"

    bad_close = validate_path(DigitalPath(((0, 0), (1, 0), (2, 0)), closed=True,
                                          adjacency=Adjacency.FOUR))
    assert not bad_close.ok and bad_close.kind == "bad_closure"
    assert bad_close.message == "closing pair (index 2, index 0) is not adjacent"

    rep_close = validate_path(DigitalPath(((0, 0), (1, 0), (0, 0)), closed=True,
                                          adjacency=Adjacency.FOUR))
    assert not rep_close.ok and rep_close.index == 2 and rep_close.kind == "repetition"
    assert rep_close.message == "repeated point at closing pair (index 2, index 0)"

    good_close = validate_path(DigitalPath(((0, 0), (1, 0), (1, 1), (0, 1)), closed=True,
                                           adjacency=Adjacency.FOUR))
    assert good_close.ok


def mutated_paths(rng, count):
    """Seeded 4-, 8- and index paths, open and closed, of up to 12 points,
    each hit by up to two mutations: a repeated point, a jump, a bad
    closure (a last point two or three cells from the first) and a
    repeated first point (appended as the last)."""
    for _ in range(count):
        adjacency = rng.choice(list(Adjacency))
        closed = rng.random() < 0.5
        n = rng.randint(1, 12)
        if adjacency is Adjacency.INDEX:
            pts = list(synth.random_index_path(n, span=2, rng=rng).points)
        elif closed and n >= 4:
            pts = list(synth.random_closed_path(n, adjacency, rng=rng).points)
        else:
            pts = list(synth.random_walk_path(n, adjacency, rng=rng).points)
        for _ in range(rng.randint(0, 2)):
            kind = rng.randrange(4)
            i = rng.randrange(len(pts))
            if kind == 0:
                pts.insert(i, pts[i])
            elif kind == 1:
                pts[i] = (pts[i][0] + rng.choice((-2, 2)), pts[i][1] + rng.randint(-2, 2))
            elif kind == 2:
                pts.append((pts[0][0] + rng.choice((-3, -2, 2, 3)), pts[0][1] + rng.randint(-1, 1)))
            else:
                pts.append(pts[0])
        yield DigitalPath(tuple(pts), closed=closed, adjacency=adjacency)


def test_validate_matches_pairwise_reference():
    """The unit-step validator reports the same first offending pair, kind
    and closing flag as the pairwise `is_adjacent` loop."""
    edge_cases = [DigitalPath((), closed=closed, adjacency=adjacency)
                  for closed in (False, True) for adjacency in Adjacency]
    edge_cases += [DigitalPath(((3, -1),), closed=closed, adjacency=adjacency)
                   for closed in (False, True) for adjacency in Adjacency]
    seen = Counter()
    for path in edge_cases + list(mutated_paths(random.Random(2031), 4_000)):
        report = validate_path(path)
        assert report == validate_path_reference(path), (path.points, path.closed, path.adjacency)
        seen[report.kind, report.closing, path.adjacency] += 1
    # every report each adjacency can give was given, at least ten times
    for adjacency in Adjacency:
        kinds = [(None, False), ("repetition", False), ("repetition", True)]
        if adjacency is not Adjacency.INDEX:
            kinds += [("not_adjacent", False), ("bad_closure", True)]
        for kind, closing in kinds:
            assert seen[kind, closing, adjacency] >= 10, (seen, adjacency)


def test_middle_index_examples():
    assert middle_index(IndexInterval(3, 1), 10) == 3
    assert middle_index(IndexInterval(0, 5), 10) == 2
    assert middle_index(IndexInterval(0, 6), 10) == 2
    # wraps on closed paths
    assert middle_index(IndexInterval(8, 5), 10) == 0


@pytest.mark.parametrize("closed", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 30])
def test_same_middle_intervals_nested(n, closed):
    if closed and n < 2:
        return
    groups = {}
    for start in range(n):
        for length in range(1, (n if closed else n - start) + 1):
            iv = IndexInterval(start, length)
            groups.setdefault(middle_index(iv, n), []).append(iv)
    for ivs in groups.values():
        ivs.sort(key=lambda iv: iv.length)
        for small, big in zip(ivs, ivs[1:]):
            assert interval_contains(n, closed, big, small)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 41, 100])
def test_enumerate_counts(n):
    open_path = synth.random_walk_path(n, Adjacency.EIGHT, seed=n)
    ivs = list(enumerate_subpaths(open_path))
    assert len(ivs) == n * (n + 1) // 2
    assert len(set(ivs)) == len(ivs)
    singles = list(enumerate_subpaths(open_path, max_len=1))
    assert len(singles) == n

    if n >= 4:
        ring = synth.random_closed_path(n + 2, Adjacency.EIGHT, seed=n)
        m = ring.n_points
        ivs = list(enumerate_subpaths(ring))
        assert len(ivs) == m * m
        assert len(set(ivs)) == len(ivs)


def test_enumerate_closed_three_points():
    ring = DigitalPath(((0, 0), (1, 0), (0, 1)), closed=True)
    assert len(list(enumerate_subpaths(ring))) == 9


def test_interval_predicates():
    assert interval_contains(10, False, IndexInterval(2, 5), IndexInterval(3, 2))
    assert not interval_contains(10, False, IndexInterval(3, 2), IndexInterval(2, 5))
    assert interval_contains(10, True, IndexInterval(8, 5), IndexInterval(9, 2))
    assert not interval_contains(10, True, IndexInterval(8, 5), IndexInterval(1, 5))
    assert intervals_intersect(10, False, IndexInterval(0, 3), IndexInterval(2, 2))
    assert not intervals_intersect(10, False, IndexInterval(0, 2), IndexInterval(3, 2))
    assert intervals_intersect(10, True, IndexInterval(8, 3), IndexInterval(0, 2))
    assert not intervals_intersect(10, True, IndexInterval(8, 2), IndexInterval(1, 2))


def test_path_json_roundtrip():
    path = synth.random_closed_path(20, Adjacency.FOUR, seed=3)
    text = path_to_json(path)
    back = path_from_json(text)
    assert back == path
    # deterministic byte-for-byte
    assert path_to_json(back) == text


def test_points_are_stored_as_given_and_parsed_to_tuples():
    pts = ((0, 0), (1, 0), (1, 1))
    assert DigitalPath(pts).points is pts
    back = path_from_json(json.dumps({"closed": False, "adjacency": "8", "points": pts}))
    assert type(back.points) is tuple and all(type(p) is tuple for p in back.points)
    assert back.points == pts


def test_path_json_rejections():
    with pytest.raises(PathFormatError):
        path_from_json("not json at all {")
    with pytest.raises(PathFormatError):
        path_from_json(json.dumps({"closed": False, "adjacency": "16", "points": [[0, 0]]}))
    with pytest.raises(PathFormatError):
        path_from_json(json.dumps({"closed": False, "adjacency": "4", "points": [[0.5, 0]]}))
    with pytest.raises(PathFormatError, match="non-adjacent"):
        path_from_json(json.dumps({"closed": False, "adjacency": "4", "points": [[0, 0], [2, 0]]}))
    with pytest.raises(PathFormatError, match="repeated"):
        path_from_json(json.dumps({"closed": False, "adjacency": "index",
                                   "points": [[0, 0], [0, 0]]}))
    with pytest.raises(PathFormatError):
        path_from_json(json.dumps({"closed": False, "adjacency": "4", "points": []}))
