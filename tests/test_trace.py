import random
from collections import Counter
from functools import lru_cache

import pytest

from fixtures import ALL_FIXTURES, fixture_image
from oracles import (
    blocks_reference,
    branching_index,
    build_curve_graph_reference,
    components_reference,
    curve_graphs_reference,
    find_junctions_reference,
    junction_tree_walk_reference,
    min_matching_weight,
    min_weight_matching_reference,
)
from satcover import trace
from satcover.paths import NEIGHBOUR_OFFSETS, Adjacency, is_adjacent, validate_path
from satcover.pbm import BinaryImage, _id_map, image_from_ascii
from satcover.trace import (
    MAX_ODD,
    CurveGraph,
    Edge,
    EmitError,
    OddVerticesError,
    TraceError,
    Vertex,
    _adjacency,
    _blocks,
    _curve_graphs,
    _dijkstra,
    _image_graphs,
    _junction_walk,
    build_curve_graph,
    components,
    emit_path,
    euler_open_trail,
    euler_tour,
    eulerize,
    find_junctions,
    trace_component,
    trace_image,
)

FOUR = Adjacency.FOUR
EIGHT = Adjacency.EIGHT


# ---------------------------------------------------------------------------
# classification and junctions
# ---------------------------------------------------------------------------


def test_branching_index_examples():
    lone = BinaryImage(3, 3, frozenset({(1, 1)}))
    assert branching_index(lone, (1, 1), EIGHT) == 0

    run = image_from_ascii("###")
    assert branching_index(run, (1, 0), EIGHT) == 2
    assert branching_index(run, (0, 0), EIGHT) == 1

    plus = fixture_image("plus")
    assert branching_index(plus, (1, 1), FOUR) == 4

    with pytest.raises(ValueError):
        branching_index(run, (9, 9), EIGHT)


def test_find_junctions():
    assert find_junctions(image_from_ascii("#####"), FOUR) == []

    plus = fixture_image("plus")
    assert find_junctions(plus, FOUR) == [frozenset({(1, 1)})]

    corridor = fixture_image("two_junction_corridor")
    js = find_junctions(corridor, FOUR)
    assert len(js) == 2
    assert [min(j) for j in js] == [(1, 1), (7, 1)]


def test_junction_maximality():
    # no branching pixel outside a junction touches the junction
    for name in ("plus", "h_shape", "figure_eight", "fat_junction", "theta"):
        img = fixture_image(name)
        js = find_junctions(img, FOUR)
        all_junction_pixels = set().union(*js)
        for j in js:
            for p in j:
                for q in all_junction_pixels - j:
                    assert not is_adjacent(p, q, FOUR)


def test_components_split():
    img = fixture_image("two_components")
    comps = components(img, FOUR)
    assert len(comps) == 2
    assert sorted(len(c) for c in comps) == [3, 3]


# ---------------------------------------------------------------------------
# curve graph
# ---------------------------------------------------------------------------


def _kinds(graph):
    return sorted(v.kind for v in graph.vertices)


def test_segment_graph():
    g = build_curve_graph(image_from_ascii("#####"), FOUR)
    assert _kinds(g) == ["end", "end"]
    assert len(g.edges) == 1
    assert len(g.edges[0].pixels) == 3  # the end pixels live on the vertices
    for adjacency in (FOUR, EIGHT):  # a lone pixel is one end vertex
        g = build_curve_graph(image_from_ascii("#"), adjacency)
        assert g.vertices == (Vertex("end", ((0, 0),)),)
        assert g.edges == ()


def test_plus_graph():
    g = build_curve_graph(fixture_image("plus"), FOUR)
    assert _kinds(g) == ["end", "end", "end", "end", "junction"]
    assert len(g.edges) == 4
    assert all(e.pixels == () for e in g.edges)


def test_figure_eight_graph():
    g = build_curve_graph(fixture_image("figure_eight"), FOUR)
    assert _kinds(g) == ["junction"]
    assert len(g.edges) == 2
    assert all(e.u == e.v == 0 for e in g.edges)  # two self-loops
    assert sorted(len(e.pixels) for e in g.edges) == [7, 7]


def test_pure_cycle_graph():
    g = build_curve_graph(fixture_image("pure_cycle"), FOUR)
    assert _kinds(g) == ["cycle"]
    assert len(g.edges) == 1
    assert g.edges[0].u == g.edges[0].v
    assert len(g.edges[0].pixels) == 8


def test_pixel_partition_invariant():
    for name in ("segment", "plus", "h_shape", "figure_eight", "pure_cycle",
                 "fat_junction", "theta"):
        img = fixture_image(name)
        g = build_curve_graph(img, FOUR)
        seen = []
        for v in g.vertices:
            seen.extend(v.pixels)
        for e in g.edges:
            seen.extend(e.pixels)
        assert sorted(seen) == sorted(img.foreground), name


@pytest.mark.parametrize("art", [
    ALL_FIXTURES["two_components"],
    "...\n...",
    "#.###",
    "###..#.\n#.#.###\n###..#.",
    "###.###\n#.#.#.#\n###.###",
    "###.#\n#.#..\n###..",
    "###.###\n#.#....\n###....",
], ids=["two_components", "empty", "isolated_pixel_and_segment", "cycle_and_plus",
        "two_cycles", "cycle_and_isolated_pixel", "cycle_and_segment"])
def test_multi_component_rejected(art):
    img = image_from_ascii(art)
    for adjacency in (FOUR, EIGHT):
        with pytest.raises(TraceError, match="expected a single connected component"):
            build_curve_graph(img, adjacency)
        with pytest.raises(TraceError, match="expected a single connected component"):
            trace_component(img, adjacency)


def _random_images(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        w, h = rng.randint(1, 12), rng.randint(1, 12)
        density = rng.random()
        yield BinaryImage(w, h, frozenset(
            (x, y) for y in range(h) for x in range(w) if rng.random() < density))


def _outcome(run, *args):
    try:
        return run(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("adjacency", [FOUR, EIGHT])
def test_curve_graph_matches_reference(adjacency):
    """The neighbour-table builder returns the reference's graph on every
    component, its junction vertices are the reference junctions, and the
    single-component check it reads from the graph refuses exactly the
    images that do not have one component."""
    images = list(_random_images(2000, seed=5)) + [fixture_image(n) for n in sorted(ALL_FIXTURES)]
    checked = rejected = 0
    for img in images:
        assert find_junctions(img, adjacency) == find_junctions_reference(img, adjacency)
        comps = components_reference(img, adjacency)
        refused = (_outcome(build_curve_graph, img, adjacency)
                   == (TraceError, "expected a single connected component"))
        assert refused == (len(comps) != 1)
        rejected += refused
        for comp in comps:
            if len(comp) < 2:
                continue
            sub = BinaryImage(img.width, img.height, comp)
            built = _outcome(build_curve_graph, sub, adjacency)
            assert built == _outcome(build_curve_graph_reference, sub, adjacency)
            assert ([v.pixels for v in built.vertices if v.kind == "junction"]
                    == [tuple(sorted(j)) for j in find_junctions_reference(sub, adjacency)])
            checked += 1
    assert checked > 2000
    assert rejected > 500


def test_graph_json_schema():
    g = build_curve_graph(fixture_image("plus"), FOUR)
    doc = g.to_json_dict()
    assert set(doc) == {"vertices", "edges"}
    assert all(set(v) == {"kind", "pixels"} for v in doc["vertices"])
    assert all(set(e) == {"u", "v", "pixels"} for e in doc["edges"])


# ---------------------------------------------------------------------------
# eulerization and tours
# ---------------------------------------------------------------------------


def _duplicated_weight(g):
    return sum(e.weight for e in g.edges if e.duplicate_of is not None)


def _matching_lower_bound(g):
    odd = g.odd_vertices()
    dist = {s: _dijkstra(_adjacency(g), s)[0] for s in odd}
    return min_matching_weight(odd, dist)


def test_eulerize_cycle_unchanged():
    g = build_curve_graph(fixture_image("pure_cycle"), FOUR)
    assert eulerize(g) is g


def test_eulerize_segment_duplicates_its_edge():
    g = build_curve_graph(image_from_ascii("#####"), FOUR)
    eg = eulerize(g)
    assert len(eg.edges) == 2
    assert eg.edges[1].duplicate_of == 0
    assert eg.odd_vertices() == []


@pytest.mark.parametrize("name", ["plus", "h_shape", "fat_junction", "theta",
                                  "two_junction_corridor"])
def test_eulerize_optimal(name):
    g = build_curve_graph(fixture_image(name), FOUR)
    odd = g.odd_vertices()
    assert len(odd) % 2 == 0
    if not odd:
        return
    eg = eulerize(g)
    assert eg.odd_vertices() == []
    assert _duplicated_weight(eg) == _matching_lower_bound(g)


def test_eulerize_cap():
    """MAX_ODD caps one 2-edge-connected block's parity set, not the graph:
    a star with 21 rays is a tree and pairs its 22 odd vertices by parity,
    while a 22-cycle with 11 chords is one block with 22 odd vertices."""
    vertices = [Vertex("junction", ((0, 0),))] + [
        Vertex("end", ((i + 1, 0),)) for i in range(21)]
    edges = [Edge(0, i + 1, ()) for i in range(21)]
    star = CurveGraph(tuple(vertices), tuple(edges), FOUR)
    assert len(star.odd_vertices()) == 22
    eg = eulerize(star)
    assert sorted(e.duplicate_of for e in eg.edges[21:]) == list(range(21))
    assert _duplicated_weight(eg) == 42
    assert eg.odd_vertices() == []

    vertices = [Vertex("junction", ((i, 0),)) for i in range(22)]
    edges = [Edge(i, (i + 1) % 22, ()) for i in range(22)]
    edges += [Edge(i, i + 11, ()) for i in range(11)]  # chords
    chorded = CurveGraph(tuple(vertices), tuple(edges), FOUR)
    assert len(chorded.odd_vertices()) == 22
    with pytest.raises(OddVerticesError, match="22 odd vertices in one 2-edge-connected block"):
        eulerize(chorded)


def _reference_eulerize(g):
    """eulerize on the reference pairing: each pair's shortest path from its
    first vertex is duplicated edge by edge from the second vertex back."""
    odd = g.odd_vertices()
    searches = {s: _dijkstra(_adjacency(g), s) for s in odd}
    new_edges = list(g.edges)
    for a, b in min_weight_matching_reference(odd, {s: d for s, (d, _) in searches.items()}):
        cur = b
        while cur != a:
            cur, ei = searches[a][1][cur]
            base = g.edges[ei]
            new_edges.append(Edge(base.u, base.v, base.pixels, duplicate_of=ei))
    return CurveGraph(g.vertices, tuple(new_edges), g.adjacency)


def _random_multigraphs(seed: int):
    """Connected multigraphs of 2-14 vertices: a random spanning tree plus
    parallel edges, self-loops and chords, with weights from a range of one,
    two or five values, so that ties are common."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(2, 14)
        pairs = [(rng.randrange(v), v) for v in range(1, n)]
        for _ in range(rng.randint(0, n)):
            kind = rng.random()
            if kind < 0.3:
                pairs.append(rng.choice(pairs))
            elif kind < 0.45:
                v = rng.randrange(n)
                pairs.append((v, v))
            else:
                pairs.append((rng.randrange(n), rng.randrange(n)))
        rng.shuffle(pairs)
        spread = rng.choice([1, 2, 5])
        yield CurveGraph(tuple(Vertex("junction", ((v, 0),)) for v in range(n)),
                         tuple(Edge(u, v, ((0, 0),) * rng.randrange(spread)) for u, v in pairs),
                         FOUR)


def test_eulerize_pairs_like_the_reference():
    """On curve graphs of random images at both adjacencies and on random
    multigraphs, eulerize duplicates exactly the edges of the reference
    pairing, in the same order: the same pairs, not only the same weight."""
    def graphs():
        multigraphs = _random_multigraphs(seed=17)
        for img in _random_images(100_000, seed=13):
            for adjacency in (FOUR, EIGHT):
                for comp in components_reference(img, adjacency):
                    if len(comp) > 1:
                        yield "image", build_curve_graph(BinaryImage(img.width, img.height, comp),
                                                         adjacency)
            yield "multigraph", next(multigraphs)

    checked: Counter = Counter()
    for source, g in graphs():
        if 4 <= len(g.odd_vertices()) <= 16:
            assert eulerize(g) == _reference_eulerize(g), g
            checked[source] += 1
            if checked.total() == 3000:
                break
    assert min(checked.values()) >= 1000, checked


def _lowlink_graphs(seed: int):
    """Multigraphs of 1-12 vertices: a random spanning tree with some of its
    edges dropped in about a third of the graphs, then parallel copies of
    its edges in about half of them, and self-loops and chords each in
    about two fifths."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(1, 12)
        drop = rng.choice([0.0, 0.0, 0.3])
        pairs = [(rng.randrange(v), v) for v in range(1, n) if rng.random() >= drop]
        if pairs and rng.random() < 0.5:
            pairs += [rng.choice(pairs) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.4:
            pairs += [(v, v) for v in rng.sample(range(n), rng.randint(1, n))]
        if rng.random() < 0.4:
            pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, n))]
        rng.shuffle(pairs)
        yield _multigraph(n, pairs)


def _lowlink_kinds(g, block, bridges):
    """Which of the corpus' kinds g is: a tree with at least one edge,
    disconnected, with a self-loop, or with a parallel copy of an edge that
    is a bridge once the copy is deleted."""
    kinds = set()
    ends = [frozenset((e.u, e.v)) for e in g.edges]
    if any(e.u == e.v for e in g.edges):
        kinds.add("self-loop")
    if -1 in block:
        kinds.add("disconnected")
    elif 0 < len(g.edges) == len(g.vertices) - 1:
        kinds.add("tree")
    for ei, e in enumerate(g.edges):
        if e.u != e.v and ends.count(ends[ei]) == 2:
            rest = g.edges[:ei] + g.edges[ei + 1:]
            if len(blocks_reference(CurveGraph(g.vertices, rest, FOUR))[1]) > len(bridges):
                kinds.add("parallel-bridge")
    return kinds


def test_blocks_match_their_definitions():
    """The one lowlink search gives the blocks and bridges that deleting
    each edge in turn gives: the same partition of the vertices vertex 0
    reaches, -1 on the others, and the same bridges, each listed as (edge
    id, its end in the block, its end in the parent block).  A block is
    numbered before its parent, and the last block holds vertex 0."""
    kinds: Counter = Counter()
    graphs = _lowlink_graphs(seed=29)
    for _ in range(2000):
        g = next(graphs)
        block, members, up = _blocks(_adjacency(g))
        want_block, want_bridges = blocks_reference(g)
        assert [min(members[b]) if b >= 0 else -1 for b in block] == want_block, g
        assert all(block[v] == b for b, vs in enumerate(members) for v in vs), g
        assert sum(map(len, members)) == len(block) - block.count(-1), g
        assert len(up) == len(members) == len(want_bridges) + 1, g
        assert up[-1] is None and block[0] == len(members) - 1, g
        assert {ei: (lo, hi) for ei, lo, hi in up[:-1]} == want_bridges, g
        for b, (ei, lo, hi) in enumerate(up[:-1]):
            assert block[lo] == b < block[hi], g
        kinds.update(_lowlink_kinds(g, want_block, want_bridges))
    assert min(kinds[k] for k in ("tree", "disconnected", "self-loop", "parallel-bridge")) >= 200, kinds


def test_eulerize_searches_the_graph_once(monkeypatch):
    """eulerize makes one lowlink search, and the pairing reads its blocks
    instead of searching again: on the H fixture, and on a graph with
    bridges and a block holding a cycle."""
    calls = []

    def counted(adj):
        calls.append(len(adj))
        return _blocks(adj)

    monkeypatch.setattr(trace, "_blocks", counted)
    h_shape = build_curve_graph(fixture_image("h_shape"), FOUR)
    bridged = _multigraph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (0, 5)])
    for g in (h_shape, bridged):
        assert g.odd_vertices()
        calls.clear()
        assert eulerize(g).odd_vertices() == []
        assert calls == [len(g.vertices)]


def test_eulerize_trees_above_the_cap_by_parity():
    """A tree with more odd vertices than MAX_ODD duplicates exactly the
    edges with an odd number of odd vertices on either side, counted by
    removing each edge in turn."""
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(40, 120)
        edges = tuple(Edge(rng.randrange(v), v, ((0, 0),) * rng.randrange(4)) for v in range(1, n))
        g = CurveGraph(tuple(Vertex("junction", ((v, 0),)) for v in range(n)), edges, FOUR)
        odd = set(g.odd_vertices())
        assert len(odd) > MAX_ODD
        want = 0
        for ei, e in enumerate(edges):
            side, todo = {e.v}, [e.v]
            while todo:
                u = todo.pop()
                for f in edges:
                    if f is not e and u in (f.u, f.v):
                        w = f.v if f.u == u else f.u
                        if w not in side:
                            side.add(w)
                            todo.append(w)
            want += e.weight * (len(odd & side) % 2)
        eg = eulerize(g)
        assert eg.odd_vertices() == []
        assert _duplicated_weight(eg) == want


def _lattice(rng):
    """One-pixel lines bounding 2-4 by 2-4 cells of seeded sizes."""
    xs, ys = [0], [0]
    for lines in (xs, ys):
        for _ in range(rng.randint(2, 4)):
            lines.append(lines[-1] + rng.randint(2, 5))
    w, h = xs[-1] + 1, ys[-1] + 1
    return w, h, frozenset({(x, y) for x in range(w) for y in ys}
                           | {(x, y) for x in xs for y in range(h)})


def _comb(rng):
    """A one-pixel spine along row 6 with teeth of seeded lengths above and
    below it, at least 2 columns apart."""
    w = rng.randint(6, 24)
    fg = {(x, 6) for x in range(w)}
    for x in range(0, w, 2):
        if rng.random() < 0.6:
            fg.update((x, 6 + side * k) for side in (-1, 1) if rng.random() < 0.7
                      for k in range(1, rng.randint(1, 6) + 1))
    return w, 13, frozenset(fg)


def _symmetric_images(w, h, fg):
    """The image under each of the 8 symmetries of the square."""
    for swap in (False, True):
        sw, sh = (h, w) if swap else (w, h)
        pixels = [(y, x) if swap else (x, y) for x, y in fg]
        for fx in (False, True):
            for fy in (False, True):
                yield BinaryImage(sw, sh, frozenset(
                    (sw - 1 - x if fx else x, sh - 1 - y if fy else y) for x, y in pixels))


def test_eulerize_weight_is_invariant_under_symmetries_and_translation():
    """The duplicated weight of an optimal eulerization is a property of the
    raster's shape: each of the 8 symmetries of the square, and a seeded
    translation, gives the same weight even where the tie-break pairs other
    vertices.  Seeded lattices (one block of up to 12 odd vertices, under
    MAX_ODD) and combs (trees), at both adjacencies."""
    rng = random.Random(29)
    paired = 0
    for case in range(30):
        w, h, fg = (_lattice if case % 2 else _comb)(rng)
        dx, dy = rng.randint(1, 7), rng.randint(1, 7)
        shifted = BinaryImage(w + dx + rng.randint(0, 3), h + dy + rng.randint(0, 3),
                              frozenset((x + dx, y + dy) for x, y in fg))
        for adjacency in (FOUR, EIGHT):
            weights = set()
            for img in (*_symmetric_images(w, h, fg), shifted):
                eg = eulerize(build_curve_graph(img, adjacency))
                assert eg.odd_vertices() == []
                weights.add(_duplicated_weight(eg))
            assert len(weights) == 1, (case, adjacency, weights)
            paired += weights != {0}
    # narrow cells merge the junctions of an 8-lattice, and a comb may have
    # no tooth, so a few cases have no odd vertex
    assert paired >= 50


def _multigraph(n, pairs):
    """n vertices joined by pixel-free edges, one per (u, v) pair."""
    return CurveGraph(tuple(Vertex("junction", ((v, 0),)) for v in range(n)),
                      tuple(Edge(u, v, ()) for u, v in pairs), FOUR)


_CANNOT = (TraceError, "cannot eulerize a disconnected graph")
_APART = (TraceError, "graph is disconnected")


def _trail_needs(k):
    return TraceError, f"an open trail needs exactly 2 odd vertices, found {k}"


def _odd_first(odd):
    return TraceError, f"graph has odd-degree vertices {odd}; eulerize first"


@pytest.mark.parametrize("n, pairs, want", [
    (2, [(1, 1)], (_CANNOT, _APART, _trail_needs(0))),
    (2, [], (_CANNOT, _APART, _trail_needs(0))),
    (2, [(0, 0), (1, 1)], (_CANNOT, _APART, _trail_needs(0))),
    (4, [(0, 1), (2, 3)], (_CANNOT, _odd_first([0, 1, 2, 3]), _trail_needs(4))),
    (3, [(0, 1), (2, 2)], (_CANNOT, _odd_first([0, 1]), _APART)),
    (3, [(0, 1)], (_CANNOT, _odd_first([0, 1]), _APART)),
    (0, [], (_multigraph(0, []), [], _trail_needs(0))),
], ids=["isolated-vertex-and-self-loop", "two-lone-vertices", "two-self-loops",
        "two-segments", "segment-and-self-loop", "segment-and-isolated-vertex", "empty"])
def test_euler_stage_refusals(n, pairs, want):
    """eulerize, euler_tour and euler_open_trail refuse a disconnected graph
    with these exact exception types and texts; the empty graph is its own
    eulerization and has the empty tour."""
    g = _multigraph(n, pairs)
    assert [_outcome(run, g) for run in (eulerize, euler_tour, euler_open_trail)] == list(want)


def test_euler_tour_start_out_of_range():
    g = _multigraph(3, [(0, 1), (1, 2), (2, 0)])
    for start in (-1, 3):
        with pytest.raises(TraceError, match=f"start {start} is not a vertex"):
            euler_tour(g, start)


def test_euler_tour_cycle():
    # triangle as an abstract multigraph
    g = _multigraph(3, [(0, 1), (1, 2), (2, 0)])
    assert euler_tour(g, 0) == [(0, 0, 1), (1, 1, 2), (2, 2, 0)]


def test_euler_tour_figure_eight():
    g = build_curve_graph(fixture_image("figure_eight"), FOUR)
    assert [(e.u, e.v) for e in g.edges] == [(0, 0), (0, 0)]
    assert euler_tour(g, 0) == [(0, 0, 0), (1, 0, 0)]


def test_euler_routes_on_a_multigraph():
    """Parallel edges and self-loops: each vertex offers its edges in edge-id
    order, a self-loop twice, so the tours and the trail are these exactly."""
    pairs = [(0, 1), (1, 2), (1, 1), (0, 1), (2, 1), (2, 2)]
    g = _multigraph(3, pairs)
    assert [euler_tour(g, s) for s in range(3)] == [
        [(0, 0, 1), (1, 1, 2), (5, 2, 2), (4, 2, 1), (2, 1, 1), (3, 1, 0)],
        [(0, 1, 0), (3, 0, 1), (1, 1, 2), (5, 2, 2), (4, 2, 1), (2, 1, 1)],
        [(1, 2, 1), (0, 1, 0), (3, 0, 1), (2, 1, 1), (4, 1, 2), (5, 2, 2)],
    ]
    assert euler_open_trail(_multigraph(3, pairs + [(0, 2)])) == [
        (0, 0, 1), (1, 1, 2), (4, 2, 1), (2, 1, 1), (3, 1, 0), (6, 0, 2), (5, 2, 2)]


def test_euler_tour_requires_even_degrees():
    g = build_curve_graph(image_from_ascii("#####"), FOUR)
    with pytest.raises(TraceError):
        euler_tour(g, 0)
    eg = eulerize(g)
    tour = euler_tour(eg, 0)
    assert sorted(t[0] for t in tour) == [0, 1]


def test_euler_trail_needs_two_odd():
    g = build_curve_graph(fixture_image("pure_cycle"), FOUR)
    with pytest.raises(TraceError):
        euler_open_trail(g)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _check_component(img, tr):
    rep = validate_path(tr.path)
    assert rep.ok, rep.message
    assert set(tr.path.points) >= img.foreground
    if tr.graph is not None and tr.tour:
        # each eulerized edge appears exactly once, as a contiguous run
        assert sorted(r.edge for r in tr.runs) == list(range(len(tr.graph.edges)))
        for run in tr.runs:
            e = tr.graph.edges[run.edge]
            pix = e.pixels if run.forward else tuple(reversed(e.pixels))
            assert tuple(tr.path.points[run.offset:run.offset + run.length]) == pix


def test_emit_segment_in_order():
    img = image_from_ascii("#####")
    tr = trace_component(img, FOUR)
    assert tr.path.points == tuple((x, 0) for x in range(5))
    assert not tr.path.closed


def test_emit_plus_covers_center_twice():
    img = fixture_image("plus")
    tr = trace_component(img, FOUR)
    _check_component(img, tr)
    assert tr.path.points.count((1, 1)) >= 2
    assert len(set(tr.path.points)) == 5


def test_emit_figure_eight_closed():
    img = fixture_image("figure_eight")
    tr = trace_component(img, FOUR)
    _check_component(img, tr)
    assert tr.path.closed


@pytest.mark.parametrize("name", ["segment", "plus", "h_shape", "figure_eight",
                                  "two_junction_corridor", "pure_cycle",
                                  "fat_junction", "theta"])
def test_emit_fixture_corpus(name):
    img = fixture_image(name)
    for tr in trace_image(img, FOUR):
        sub = BinaryImage(img.width, img.height, frozenset(tr.path.points) & img.foreground)
        _check_component(sub, tr)
    covered = set()
    for tr in trace_image(img, FOUR):
        covered |= set(tr.path.points)
    assert covered == set(img.foreground)


def test_emit_refuses_a_path_that_is_not_adjacent():
    """The emitted path is validated once, the wrap pair of a closed path
    included: a gap inside an open segment's edge and a self-loop whose last
    pixel does not touch its first both raise EmitError."""
    gap = CurveGraph((Vertex("end", ((0, 0),)), Vertex("end", ((4, 0),))),
                     (Edge(0, 1, ((1, 0), (3, 0))),), FOUR)
    with pytest.raises(EmitError, match=r"seam break: \(1, 0\) to \(3, 0\) not adjacent"):
        emit_path(gap, euler_open_trail(gap))

    loop = CurveGraph((Vertex("cycle", ()),),
                      (Edge(0, 0, ((0, 0), (1, 0), (2, 0), (3, 0))),), FOUR)
    with pytest.raises(EmitError, match=r"seam break: \(3, 0\) to \(0, 0\) not adjacent"):
        emit_path(loop, euler_tour(loop, 0))


def test_emit_refuses_a_junction_its_pixels_do_not_make():
    """Without a context, `emit_path` walks junctions on the ids of the
    graph's own pixels; a vertex called a junction whose pixel branches
    nowhere raises EmitError."""
    mid = CurveGraph((Vertex("junction", ((1, 0),)), Vertex("end", ((0, 0),)),
                      Vertex("end", ((2, 0),))), (Edge(1, 0, ()), Edge(0, 2, ())), FOUR)
    with pytest.raises(EmitError, match=r"junction at \(1, 0\) is not one of the image"):
        emit_path(mid, euler_open_trail(mid))


def test_trace_image_components_and_isolated():
    img = fixture_image("two_components")
    traces = trace_image(img, FOUR)
    assert len(traces) == 2

    lone = BinaryImage(3, 3, frozenset({(1, 1)}))
    traces = trace_image(lone, FOUR)
    assert len(traces) == 1
    assert traces[0].path.points == ((1, 1),)

    blank = BinaryImage(4, 4, frozenset())
    assert trace_image(blank, FOUR) == []


_PLANTS = (
    ((0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)),  # cycle under FOUR
    ((1, 0), (0, 1), (2, 1), (1, 2)),  # cycle under EIGHT
    ((0, 0), (1, 0), (0, 1), (1, 1)),  # cycle under FOUR, branching blob under EIGHT
    ((0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)),  # solid blob
)


def _mixed_images(count: int, seed: int):
    """Sparse seeded noise, which leaves lone pixels and short strokes, with
    up to three cycles or solid blobs planted at random places."""
    rng = random.Random(seed)
    for _ in range(count):
        w, h = rng.randint(4, 14), rng.randint(4, 14)
        density = rng.uniform(0.05, 0.45)
        fg = {(x, y) for y in range(h) for x in range(w) if rng.random() < density}
        for _ in range(rng.randint(0, 3)):
            ox, oy = rng.randrange(w - 2), rng.randrange(h - 2)
            for dx in range(-1, 4):  # clear a margin, then plant
                for dy in range(-1, 4):
                    fg.discard((ox + dx, oy + dy))
            fg.update((ox + dx, oy + dy) for dx, dy in rng.choice(_PLANTS))
        yield BinaryImage(w, h, frozenset(fg))


def _per_component(img, adjacency):
    return [trace_component(BinaryImage(img.width, img.height, comp), adjacency)
            for comp in components_reference(img, adjacency)]


def _kind(tr) -> str:
    if tr.graph is None:
        return "lone"
    if not tr.tour:
        return "blob"
    return "cycle" if tr.graph.vertices[0].kind == "cycle" else "stroke"


@pytest.mark.parametrize("adjacency", [FOUR, EIGHT])
def test_trace_image_equals_per_component_traces(adjacency):
    """Tracing the whole image from one neighbour table gives, component by
    component, the trace of that component alone (path, graph, tour and
    runs, or the same refusal), and each trace covers exactly the pixels of
    its component.  The images hold lone pixels, pure cycles beside strokes
    and blobs of branching pixels."""
    images = list(_mixed_images(2400, seed=29)) + [fixture_image(n) for n in sorted(ALL_FIXTURES)]
    seen: Counter = Counter()
    for img in images:
        comps = components_reference(img, adjacency)
        whole = _outcome(trace_image, img, adjacency)
        assert whole == _outcome(_per_component, img, adjacency), img
        if not isinstance(whole, list):  # both routes refused alike
            continue
        assert [frozenset(tr.path.points) for tr in whole] == comps, img
        kinds = {_kind(tr) for tr in whole}
        seen["multi-component"] += len(comps) > 1
        seen.update(kinds & {"lone", "blob"})
        seen["cycle beside a stroke"] += {"cycle", "stroke"} <= kinds
    # under 4-adjacency the top left pixel of a component has at most two
    # neighbours, so no component is a blob of branching pixels
    wanted = ("lone", "cycle beside a stroke") + (("blob",) if adjacency is EIGHT else ())
    assert seen["multi-component"] >= 2000, seen
    assert min(seen[k] for k in wanted) >= 100, seen


_SIDE = 4
_CELLS = [(x, y) for y in range(_SIDE) for x in range(_SIDE)]


@lru_cache(maxsize=None)
def _square_class_masks() -> tuple[int, ...]:
    """One nonempty 4x4 image per symmetry class of the square, as a bit
    mask over _CELLS: the smallest mask of each class."""
    m = _SIDE - 1
    perms = [[_CELLS.index(f(x, y)) for x, y in _CELLS] for f in (
        lambda x, y: (y, x), lambda x, y: (m - x, y), lambda x, y: (x, m - y),
        lambda x, y: (m - y, x), lambda x, y: (y, m - x), lambda x, y: (m - x, m - y),
        lambda x, y: (m - y, m - x))]
    classes, seen = [], set()
    for mask in range(1, 1 << len(_CELLS)):
        if mask not in seen:
            classes.append(mask)
            bits = [i for i in range(len(_CELLS)) if mask >> i & 1]
            seen.update(sum(1 << perm[i] for i in bits) for perm in perms)
    return tuple(classes)


@pytest.mark.parametrize("adjacency", [FOUR, EIGHT])
def test_small_scope_rasters(adjacency):
    """Every 4x4 image up to the symmetries of the square traces with no
    exception into valid paths that cover exactly the foreground, with every
    eulerized edge a contiguous run and an optimal Chinese-Postman
    duplication (none when the open trail needs none)."""
    masks = _square_class_masks()
    assert len(masks) == 8547
    duplicated = 0
    for mask in masks:
        fg = frozenset(c for i, c in enumerate(_CELLS) if mask >> i & 1)
        img = BinaryImage(_SIDE, _SIDE, fg)
        comps = components_reference(img, adjacency)
        traces = trace_image(img, adjacency)
        assert len(traces) == len(comps)
        covered = set()
        for comp, tr in zip(comps, traces):
            _check_component(BinaryImage(_SIDE, _SIDE, comp), tr)
            covered.update(tr.path.points)
            if tr.graph is None or not tr.tour:
                continue
            base = CurveGraph(tr.graph.vertices,
                              tuple(e for e in tr.graph.edges if e.duplicate_of is None), adjacency)
            odd = base.odd_vertices()
            want = 0 if len(odd) == 2 else _matching_lower_bound(base)
            assert _duplicated_weight(tr.graph) == want, (mask, odd)
            duplicated += want > 0
        assert covered == fg, mask
    assert duplicated > 300, duplicated


def _far_bordered_images(count: int, seed: int):
    """Seeded noise in boxes of 1-30 x 1-30 cells placed up to 10^6 cells
    from the origin, with foreground on all four sides of the box: in its
    first and last column and its first and last row, often at the corners
    or in neighbouring columns, where a stride that lets one column's ids
    run into the next would join pixels that do not touch."""
    rng = random.Random(seed)
    for _ in range(count):
        w, h = rng.randint(1, 30), rng.randint(1, 30)
        ox, oy = rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)
        density = rng.uniform(0.05, 0.5)
        fg = {(x, y) for x in range(w) for y in range(h) if rng.random() < density}
        for _ in range(rng.randint(1, 4)):
            x, y = rng.randrange(w), rng.randrange(h)
            fg.update([(0, y), (w - 1, y), (x, 0), (x, h - 1)])
            if x + 1 < w:
                fg.update([(x + 1, 0), (x + 1, h - 1)])
        yield frozenset((ox + x, oy + y) for x, y in fg)


def _graphs(pixels, adjacency):
    """`_curve_graphs` on `pixels`, numbered in the order given, with the
    least column stride that keeps columns apart."""
    ys = [y for _, y in pixels]
    stride = max(ys, default=0) - min(ys, default=0) + 3
    return _curve_graphs(_id_map(pixels, stride), stride, adjacency)[0]


@lru_cache(maxsize=None)
def _differential_images() -> tuple[frozenset, ...]:
    """The foregrounds of the 2,400-image corpus and the fixtures, of every
    4x4 raster up to symmetry, and of 1,500 images with foreground on all
    four sides far from the origin."""
    images = [img.foreground for img in _mixed_images(2400, seed=29)]
    images += [fixture_image(n).foreground for n in sorted(ALL_FIXTURES)]
    images += [frozenset(c for i, c in enumerate(_CELLS) if mask >> i & 1)
               for mask in _square_class_masks()]
    images += list(_far_bordered_images(1500, seed=41))
    return tuple(images)


@pytest.mark.parametrize("adjacency", [FOUR, EIGHT])
def test_curve_graphs_equal_the_tuple_builder(adjacency):
    """The builder on integer pixel ids and neighbour code bytes returns the
    graphs of the tuple builder it replaced, in the same order, on every
    image of `_differential_images`."""
    kinds: Counter = Counter()
    for fg in _differential_images():
        graphs = _graphs(fg, adjacency)
        assert graphs == curve_graphs_reference(fg, adjacency), sorted(fg)
        kinds.update(v.kind for g in graphs for v in g.vertices)
    assert min(kinds[k] for k in ("end", "junction", "cycle")) >= 1000, kinds


@pytest.mark.parametrize("adjacency", [FOUR, EIGHT])
def test_components_and_junctions_equal_the_flood_fill(adjacency):
    """`components` and `find_junctions`, which are read from the curve
    graphs, return the sets of the oracles' flood fill in the same order, on
    every image of `_differential_images`."""
    seen: Counter = Counter()
    for fg in _differential_images():
        img = BinaryImage(max((x for x, _ in fg), default=0) + 1,
                          max((y for _, y in fg), default=0) + 1, fg)
        comps = components(img, adjacency)
        assert comps == components_reference(img, adjacency), sorted(fg)
        junctions = find_junctions(img, adjacency)
        assert junctions == find_junctions_reference(img, adjacency), sorted(fg)
        seen["multi-component"] += len(comps) > 1
        seen["several junctions"] += len(junctions) > 1
    assert min(seen.values()) >= 1000, seen


@pytest.mark.parametrize("adjacency", [FOUR, EIGHT])
def test_curve_graphs_ignore_the_input_order(adjacency):
    """The same pixels as a frozenset, as a list in scan order (row by row)
    and as its reverse give the same graphs: junctions are seeded in sorted
    id order, never in the order the pixels arrive.  On the fixtures, the
    mixed corpus and a solid bar."""
    images = [fixture_image(n).foreground for n in sorted(ALL_FIXTURES)]
    images += [img.foreground for img in _mixed_images(2400, seed=29)]
    images.append(frozenset((x, y) for x in range(300) for y in range(3)))
    for fg in images:
        scan = sorted(fg, key=lambda p: (p[1], p[0]))
        graphs = _graphs(fg, adjacency)
        assert _graphs(scan, adjacency) == graphs, scan
        assert _graphs(scan[::-1], adjacency) == graphs, scan


@pytest.mark.parametrize("adjacency", [FOUR, EIGHT])
def test_junction_walk_equals_the_tuple_walk(adjacency):
    """The walk on pixel ids gives the tuple walk's covering walk and spine
    on every junction of the 2,400-image corpus and of every 4x4 image up
    to symmetry: the covering walk from each attachment pixel (a junction
    pixel next to a pixel outside it) to each, and the spine between each
    pair of them.  A junction with no attachment pixel is walked from its
    smallest pixel, as a blob with no edge is."""
    images = list(_mixed_images(2400, seed=29))
    images += [BinaryImage(_SIDE, _SIDE, frozenset(c for i, c in enumerate(_CELLS) if mask >> i & 1))
               for mask in _square_class_masks()]
    seen: Counter = Counter()
    for img in images:
        graphs, context = _image_graphs(img, adjacency)
        stride = img.height + 2
        for g in graphs:
            for vert in g.vertices:
                if vert.kind != "junction":
                    continue
                pixels = frozenset(vert.pixels)
                attach = [(x, y) for x, y in vert.pixels if any(
                    (q := (x + dx, y + dy)) in img.foreground and q not in pixels
                    for dx, dy in NEIGHBOUR_OFFSETS[adjacency])] or [vert.pixels[0]]
                ids = [(x + 1) * stride + y + 1 for x, y in attach]
                for a, i in zip(attach, ids):
                    for b, j in zip(attach, ids):
                        want = junction_tree_walk_reference(pixels, a, b, adjacency)
                        assert _junction_walk(context, i, j) == want, (sorted(pixels), a, b)
                        if a != b:
                            want = junction_tree_walk_reference(pixels, a, b, adjacency, cover=False)
                            assert _junction_walk(context, i, j, cover=False) == want, \
                                (sorted(pixels), a, b)
                            seen["spines"] += 1
                seen["junctions"] += 1
                seen["several pixels"] += len(pixels) > 1
                seen["several attachments"] += len(attach) > 1
    assert min(seen.values()) >= 1000, seen


def test_all_branching_blob_covered():
    # 2x2 block under EIGHT: every pixel branching, no edges at all
    img = image_from_ascii("##\n##")
    tr = trace_component(img, EIGHT)
    assert validate_path(tr.path).ok
    assert set(tr.path.points) == set(img.foreground)


def test_eight_adjacency_diagonal_ring():
    img = image_from_ascii(".#.\n#.#\n.#.")
    tr = trace_component(img, EIGHT)
    assert tr.path.closed
    assert validate_path(tr.path).ok
    assert set(tr.path.points) == set(img.foreground)
