from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from satcover import synth
from satcover.arcs import CircularArc, arc_graph_from_intervals, build_arc_graph, phi
from satcover.cover import saturated_cover
from satcover.paths import Adjacency, DigitalPath, IndexInterval
from satcover.predicates import PredicateSpec


def test_phi_examples():
    assert phi(0, 9) == 0
    assert phi(2, 7) == Fraction(1, 4)
    assert phi(3, 3) == Fraction(3, 4)
    assert phi(IndexInterval(6, 4).end(8), 7) == Fraction(1, 8)  # end index 9 wraps to 1
    with pytest.raises(ValueError):
        phi(5, 3)


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


def test_nested_intervals_flagged_improper():
    graph = arc_graph_from_intervals([(0, 5), (1, 3)], n_points=10, closed=False)
    assert not graph.proper
    assert (0, 1) in graph.edges


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
    a = CircularArc(outer, n)
    b = CircularArc(inner, n)
    assert a.contains(b, closed)
    assert a.intersects(b, closed)


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
    assert doc["edges"] == [[0, 1], [0, 2], [1, 2]]
    dot = graph.to_dot()
    assert "n0 -- n1;" in dot and dot.startswith("graph cover {")
