import json
import random

import pytest
from hypothesis import given, strategies as st

from fixtures import GRID_SPECS
from oracles import arc_graph_reference, interval_contains, intervals_intersect
from satcover import synth
from satcover.arcs import build_arc_graph
from satcover.cover import SaturatedCover, saturated_cover
from satcover.paths import Adjacency, DigitalPath, IndexInterval
from satcover.predicates import PredicateSpec
from satcover.verify import applicable, iter_corpus


def test_sliding_windows_overlap_graph():
    path = DigitalPath(((0, 0), (1, 0), (2, 0), (3, 0), (4, 0)))
    cover = saturated_cover(path, PredicateSpec("max_len", {"k": 3}))
    graph = build_arc_graph(cover)
    assert len(graph.nodes) == 3
    # closed-arc semantics: windows {0,1,2} and {2,3,4} touch at index 2
    assert graph.edges == ((0, 1), (0, 2), (1, 2))
    assert graph.proper
    assert graph.interval  # open path
    # windows two apart are disjoint
    path = DigitalPath(tuple((x, 0) for x in range(7)))
    cover = saturated_cover(path, PredicateSpec("max_len", {"k": 3}))
    graph = build_arc_graph(cover)
    assert (0, 4) not in graph.edges and (0, 3) not in graph.edges


def test_single_segment_graph():
    path = DigitalPath(tuple((x, 0) for x in range(10)))
    graph = build_arc_graph(saturated_cover(path, PredicateSpec("dss")))
    assert len(graph.nodes) == 1
    assert graph.edges == ()
    assert graph.proper


def hand_cover(family, n_points: int, closed: bool) -> SaturatedCover:
    """A cover of the given (start, length) pairs, in the given order."""
    segments = tuple(IndexInterval(*iv) for iv in family)
    return SaturatedCover(n_points, closed, PredicateSpec("max_len", {"k": 1}), segments, 0)


def test_nested_intervals_flagged_improper():
    graph = build_arc_graph(hand_cover([(0, 5), (1, 3)], n_points=10, closed=False))
    assert not graph.proper
    assert graph.edges == ((0, 1),)


def test_unsorted_cover_refused():
    with pytest.raises(ValueError) as err:
        build_arc_graph(hand_cover([(1, 3), (0, 5)], n_points=10, closed=False))
    assert str(err.value) == "cover segments are not sorted by start"


def test_closed_cover_graph_is_not_interval():
    ring = synth.digitized_circle_path(6)
    graph = build_arc_graph(saturated_cover(ring, PredicateSpec("dss")))
    assert not graph.interval
    assert graph.proper


@given(data=st.data())
def test_inclusion_preserving(data):
    n = data.draw(st.integers(2, 40))
    closed = data.draw(st.booleans())
    outer_len = data.draw(st.integers(1, n))
    outer_start = data.draw(st.integers(0, n - 1))
    if not closed:
        outer_start = min(outer_start, n - outer_len)
    inner_len = data.draw(st.integers(1, outer_len))
    inner_off = data.draw(st.integers(0, outer_len - inner_len))
    outer = IndexInterval(outer_start, outer_len)
    inner = IndexInterval((outer_start + inner_off) % n, inner_len)
    assert interval_contains(n, closed, outer, inner)
    assert intervals_intersect(n, closed, outer, inner)


def _random_family(rng: random.Random, n: int, closed: bool) -> list[tuple[int, int]]:
    """Up to 9 intervals of a path of n points, drawn so that wraps,
    touching ends, full circles, duplicates and nesting all occur often."""
    family = []
    for _ in range(rng.randint(0, 9)):
        kind = rng.random()
        if family and kind < 0.15:  # a duplicate
            family.append(rng.choice(family))
            continue
        if family and kind < 0.35:  # nested in, or touching the end of, an earlier one
            s, k = rng.choice(family)
            if rng.random() < 0.5:
                off = rng.randint(0, k - 1)
                start, length = s + off, rng.randint(1, k - off)
            else:
                start, length = s + k, rng.randint(1, n)
            start %= n
        elif closed and kind < 0.45:  # the full circle, at any start
            start, length = rng.randrange(n), n
        else:
            start, length = rng.randrange(n), rng.randint(1, n)
        if not closed:
            length = min(length, n - start)
        family.append((start, length))
    return family


def test_matches_all_pairs_reference():
    rng = random.Random(6)
    for trial in range(20_000):
        n = rng.choice((1, 2, 3, rng.randint(4, 12), rng.randint(13, 60)))
        closed = rng.random() < 0.5
        family = sorted(_random_family(rng, n, closed))
        got = build_arc_graph(hand_cover(family, n, closed))
        assert got == arc_graph_reference(family, n, closed), (trial, n, closed, family)


def test_edges_symmetric_irreflexive():
    ring = synth.random_closed_path(40, Adjacency.EIGHT, seed=9)
    graph = build_arc_graph(saturated_cover(ring, PredicateSpec("bbox", {"w": 3, "h": 3})))
    assert all(u < v for u, v in graph.edges)
    assert len(set(graph.edges)) == len(graph.edges)


def test_graph_json_and_dot():
    path = DigitalPath(((0, 0), (1, 0), (2, 0), (3, 0), (4, 0)))
    graph = build_arc_graph(saturated_cover(path, PredicateSpec("max_len", {"k": 3})))
    doc = graph.to_json_dict()
    assert set(doc) == {"nodes", "edges", "proper", "interval"}
    assert doc["nodes"][0] == {"start": 0, "len": 3}
    assert doc["edges"] == ((0, 1), (0, 2), (1, 2))
    assert json.dumps(doc["edges"]) == "[[0, 1], [0, 2], [1, 2]]"
    dot = graph.to_dot()
    assert "n0 -- n1;" in dot and dot.startswith("graph cover {")


def test_real_covers_match_all_pairs_reference():
    """Covers are proper, unlike most random families, so they reach the
    branches the random families rarely do: strictly increasing starts and
    ends, and arcs wrapping past index 0 onto the starts of the first arcs."""
    wrapped = 0
    for path in iter_corpus(seed=15, count=350, max_points=80, with_index=True):
        for spec in GRID_SPECS:
            if not applicable(spec, path):
                continue
            cover = saturated_cover(path, spec)
            graph = build_arc_graph(cover)
            assert graph == arc_graph_reference(cover.segments, cover.n_points, cover.closed), (
                spec, path.points)
            ends = [s + k - 1 for s, k in cover.segments]
            wrapped += any(cover.segments[u].start > ends[v] for v, u in graph.edges)
    assert wrapped >= 200, wrapped


@pytest.mark.parametrize("spec", [PredicateSpec("max_len", {"k": 8}), PredicateSpec("bbox", {"w": 5, "h": 5})],
                         ids=["max_len-k8", "bbox-w5-h5"])
def test_rotated_circle_graph_maps_back(spec):
    """Rotating a closed path rotates its cover; mapped back through the
    rotation, the rotated cover's arc graph has the same edges, at a size
    the all-pairs reference cannot reach."""
    path = synth.circle_path_of_size(20_000)
    n1 = path.n_points
    graph = build_arc_graph(saturated_cover(path, spec))
    index = {iv: i for i, iv in enumerate(graph.nodes)}
    edges = set(graph.edges)
    for offset in (1, n1 // 3, n1 - 7):
        rotated = DigitalPath(path.points[offset:] + path.points[:offset], closed=True,
                              adjacency=path.adjacency)
        turned = build_arc_graph(saturated_cover(rotated, spec))
        back = [index[(s + offset) % n1, k] for s, k in turned.nodes]
        assert len(turned.edges) == len(edges)
        assert {(min(back[u], back[v]), max(back[u], back[v])) for u, v in turned.edges} == edges
        assert turned.proper
