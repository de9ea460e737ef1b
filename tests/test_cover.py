import json
import random
import sys
from collections import Counter

import pytest

from fixtures import GRID_SPECS
from oracles import literal_cover
from satcover import synth
from satcover.arcs import build_arc_graph
from satcover.cover import (
    CoverCapError,
    SaturatedCover,
    brute_force_cover,
    complexity_probe,
    forward_cover,
    saturated_cover,
    segment_is_saturated,
)
from satcover.paths import (
    Adjacency,
    DigitalPath,
    middle_index,
    path_from_json,
    path_to_json,
    validate_path,
)
from satcover.pbm import BinaryImage
from satcover import cover as cover_module
from satcover.predicates import (
    DssRecognizer,
    MaxLenRecognizer,
    PredicateInfo,
    PredicateSpec,
    Recognizer,
    make_recognizer,
    register_predicate,
)
from satcover.trace import build_curve_graph, trace_image
from satcover.verify import (
    GRID_PREDICATES,
    VERIFIED_PREDICATES,
    applicable,
    check_cover_invariants,
    iter_corpus,
)


class _NeverRecognizer(Recognizer):
    def _on_reset(self, index, p):
        return False


register_predicate(PredicateInfo(
    "never", (), True, "false on everything (tests)",
    _NeverRecognizer,
))


class _GapsRecognizer(Recognizer):
    """At most 5 points, none at an index that is 3 mod 7: some singletons
    are false, so the sweeps seed afresh past them."""

    def _on_reset(self, index, p):
        return index % 7 != 3

    def _try_add(self, index, p, positive, closing):
        return index % 7 != 3 and self._length < 5

    def _on_remove(self, index, p, opening):
        pass


register_predicate(PredicateInfo(
    "gaps", (), True, "at most 5 points, none at an index 3 mod 7 (tests)",
    _GapsRecognizer,
))


def segs(cover):
    return [(s.start, s.length) for s in cover.segments]


def test_max_len_windows_on_open_run():
    path = DigitalPath(((0, 0), (1, 0), (2, 0), (3, 0), (4, 0)))
    cov = saturated_cover(path, PredicateSpec("max_len", {"k": 3}))
    assert segs(cov) == [(0, 3), (1, 3), (2, 3)]


def test_dss_on_collinear_points_is_one_segment():
    path = DigitalPath(tuple((x, 0) for x in range(100)))
    cov = saturated_cover(path, PredicateSpec("dss"))
    assert segs(cov) == [(0, 100)]


def test_max_len_one_gives_singletons():
    path = synth.random_walk_path(9, Adjacency.EIGHT, seed=1)
    cov = saturated_cover(path, PredicateSpec("max_len", {"k": 1}))
    assert segs(cov) == [(i, 1) for i in range(9)]


def test_single_point_path():
    path = DigitalPath(((3, 4),))
    for fn in (saturated_cover, forward_cover, brute_force_cover):
        cov = fn(path, PredicateSpec("dss"))
        assert segs(cov) == [(0, 1)]
        assert cov.predicate_calls >= 1


def test_always_true_open_path_is_whole_interval():
    path = synth.random_walk_path(17, Adjacency.FOUR, seed=2)
    spec = PredicateSpec("max_len", {"k": 50})
    for fn in (saturated_cover, forward_cover, brute_force_cover):
        assert segs(fn(path, spec)) == [(0, 17)]


def test_always_true_closed_path_is_one_full_turn():
    path = synth.random_closed_path(18, Adjacency.EIGHT, seed=3)
    n1 = path.n_points
    spec = PredicateSpec("max_len", {"k": 99})
    for fn in (saturated_cover, forward_cover, brute_force_cover):
        assert segs(fn(path, spec)) == [(0, n1)]
    assert segs(literal_cover(path, spec)) == [(0, n1)]


def test_never_true_predicate_gives_empty_cover():
    path = synth.random_walk_path(7, Adjacency.EIGHT, seed=4)
    for fn in (saturated_cover, forward_cover, brute_force_cover):
        cov = fn(path, PredicateSpec("never"))
        assert segs(cov) == []
        assert cov.predicate_calls >= path.n_points  # every singleton was probed


def test_random_closed_60_matches_brute_force():
    path = synth.random_closed_path(60, Adjacency.EIGHT, seed=60)
    spec = PredicateSpec("dss")
    assert segs(saturated_cover(path, spec)) == segs(brute_force_cover(path, spec))


def test_forward_on_digitized_circle_first_segment_handling():
    path = synth.digitized_circle_path(10)
    spec = PredicateSpec("dss")
    fwd = forward_cover(path, spec)
    ora = brute_force_cover(path, spec)
    assert segs(fwd) == segs(ora)
    # every reported segment really is saturated
    for seg in fwd.segments:
        assert segment_is_saturated(path, spec, seg)


def test_dss_cover_extends_the_core_at_most_3_times_per_point(monkeypatch):
    """A timing-free linearity guard: a removal that replays the core makes
    21, 44 and 64 extensions per point on these circles.  It reads the
    attempts to add a point that the DSS loop counts in each run, revisits
    and refusals included, over both recognizers of the cover; every point
    is added at least once."""
    made = []

    def recorded(spec, path):
        made.append(make_recognizer(spec, path))
        return made[-1]

    monkeypatch.setattr(cover_module, "make_recognizer", recorded)
    for size in (1_000, 10_000, 30_000):
        path = synth.circle_path_of_size(size)
        made.clear()
        saturated_cover(path, PredicateSpec("dss"))
        assert len(made) == 2 and all(isinstance(rec, DssRecognizer) for rec in made)
        extensions = sum(rec.extensions for rec in made)
        assert path.n_points <= extensions <= 3 * path.n_points, (path.n_points, extensions)


def profile_events(fn, *args) -> Counter:
    """The profile events made while `fn(*args)` runs, by kind: "call"
    counts Python-level function calls, generator resumptions included, and
    "c_call" calls of builtins and C methods."""
    events: Counter = Counter()

    def count(frame, event, arg):
        events[event] += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return events


@pytest.mark.parametrize("size, work, bound", [
    (1_000, "dss cover", 1.7),
    (10_000, "dss cover", 0.7),
    (10_000, "dss walk cover", 2.8),
    (10_000, "max_len walk cover", 4.1),
    (10_000, "bbox walk cover", 4.5),
    (10_000, "x_monotone walk cover", 5.4),
    (10_000, "path reader", 2),
])
def test_python_calls_per_point_on_the_hot_paths(size, work, bound):
    """A timing-free guard on the per-point constant: a window move costs
    one recognizer run, which the DSS and max_len recognizers make with no
    call per point, and reading a path costs none per point.  The covers
    run on a circle, or on a seeded 8-walk where the work names one.
    Counter misses, a helper call per adjacency test and a generator per
    point entry made 28.7 and 24.7 calls per point for the dss circle
    covers and 5.0 for the reader.  A frame for the shared extension code,
    one per core change and band-width calls made 15.0 and 13.8 for those
    covers and 14.6 for the dss walk cover, and a neighbour-reading helper
    made 12.5 for the x_monotone one.  One frame per hook read 7.41, 6.57,
    8.15, 9.00, 6.67 and 7.14 for the dss circles, the dss, max_len, bbox
    and x_monotone walks; one run per window move reads 1.60, 0.64, 2.70,
    4.00, 4.34 and 5.28."""
    if "walk" in work:
        path = synth.random_walk_path(size, Adjacency.EIGHT, seed=3)
    else:
        path = synth.circle_path_of_size(size)
    if work == "path reader":
        calls = profile_events(path_from_json, path_to_json(path))["call"]
    else:
        spec = {"max_len": PredicateSpec("max_len", {"k": 8}),
                "bbox": PredicateSpec("bbox", {"w": 5, "h": 5})}.get(work.split()[0])
        calls = profile_events(saturated_cover, path, spec or PredicateSpec(work.split()[0]))["call"]
    assert calls <= bound * path.n_points, (work, path.n_points, calls / path.n_points)


def _ring_image(radius: int, adjacency: Adjacency, spoke: bool = False) -> BinaryImage:
    """The digitized circle as a raster; a 4-connected ring also gets a
    corner pixel on every diagonal step.  A spoke runs from (1, radius) to
    the centre."""
    pts = synth.digitized_circle_path(radius).points
    fg = set()
    for (px, py), (qx, qy) in zip(pts, pts[1:] + pts[:1]):
        fg.add((radius + px, radius + py))
        if adjacency is Adjacency.FOUR and px != qx and py != qy:
            fg.add((radius + qx, radius + py))
    if spoke:
        fg.update((x, radius) for x in range(1, radius + 1))
    return BinaryImage(2 * radius + 1, 2 * radius + 1, frozenset(fg))


@pytest.mark.parametrize("radius, adjacency, spoke", [
    (300, Adjacency.EIGHT, False),  # 1,696 pixels
    (1_000, Adjacency.FOUR, False),  # 8,000 pixels
    (300, Adjacency.EIGHT, True),  # 1,996 pixels: one junction and one end
], ids=["300-Adjacency.EIGHT", "1000-Adjacency.FOUR", "300-Adjacency.EIGHT-spoke"])
def test_profile_events_per_pixel_of_the_trace(radius, adjacency, spoke):
    """A timing-free guard on the trace's per-pixel constant: one neighbour
    code byte per integer pixel id for the whole image and no component
    search, codes, degrees and tips made by loops and C iterators with no
    call per pixel, chains walked from their ends with one `list.append` per
    pixel, and a tour flattened by extending the stream with whole edges,
    then validated once.  A copied neighbour table, a keyed sort of every
    pixel and a comprehension per chain step made 5.0-5.1 calls and 7.0-7.1 C
    calls per pixel; a checking closure per emitted point made 2.0-2.05 and
    6.0-6.1; separate junction and tip scans, each with a `len` per pixel,
    made 1.0-1.05 and 5.0-5.1; a component search over the image followed
    by a neighbour table per component made 1.0-1.05 and 4.0-4.1; one
    neighbour table of tuple lists for the whole image made 1.0-1.05 and
    2.0-2.1; one code byte per integer id reads 0.006-0.044 and 1.0-1.08.
    The spoke sends its pixels through the open-chain walk instead of the
    cycle walk."""
    img = _ring_image(radius, adjacency, spoke)
    events = profile_events(trace_image, img, adjacency)
    pixels = len(img.foreground)
    assert events["call"] <= 0.25 * pixels, events["call"] / pixels
    assert events["c_call"] <= 1.5 * pixels, events["c_call"] / pixels


def test_profile_events_per_pixel_of_64_rings():
    """The same guard on an image of many small components: 8 x 8 rings of
    radius 9-12 (3,840 pixels, some rings with junctions), whose per-component
    work is spread over about 60 pixels each.  A component search over the
    image followed by a sub-image and a neighbour table per component made
    6.2 C calls per pixel; one neighbour table of tuple lists for the whole
    image read 4.0, and 3.67 once the Euler stage shared one adjacency list;
    one code byte per integer id reads 2.71."""
    cell = 28
    fg = set()
    for i in range(8):
        for j in range(8):
            r = 9 + (i + 2 * j) % 4
            shift = cell // 2 - 1 - r
            fg.update((x + i * cell + shift, y + j * cell + shift)
                      for x, y in _ring_image(r, Adjacency.EIGHT).foreground)
    img = BinaryImage(8 * cell, 8 * cell, frozenset(fg))
    assert len(trace_image(img, Adjacency.EIGHT)) == 64
    events = profile_events(trace_image, img, Adjacency.EIGHT)
    assert events["c_call"] <= 3.5 * len(fg), events["c_call"] / len(fg)


def test_profile_events_per_pixel_of_a_solid_bar():
    """The same guard on a raster that is one junction: under 8-adjacency
    every pixel of a solid 600 x 3 bar is branching, so the graph has no
    edge and the trace is the covering walk of the junction.  Grouping the
    junction by a flood fill on tuple pixels before the port pass over its
    ids made 14.0 C calls per pixel; grouping it in the port pass, with the
    walk's search on one list, reads 12.0."""
    img = BinaryImage(600, 3, frozenset((x, y) for x in range(600) for y in range(3)))
    events = profile_events(trace_image, img, Adjacency.EIGHT)
    pixels = len(img.foreground)
    assert events["c_call"] <= 13.5 * pixels, events["c_call"] / pixels


def _comb_image(teeth: int, seed: int) -> BinaryImage:
    """A spine along the top row with one-pixel-wide teeth hanging from it at
    seeded gaps of 2-4 pixels, each 1-11 pixels long: under 4-adjacency a
    tree with a junction at every tooth's base, and 2 * teeth + 2 odd
    vertices."""
    rng = random.Random(seed)
    xs = [1]
    for _ in range(teeth - 1):
        xs.append(xs[-1] + rng.randint(2, 4))
    width = xs[-1] + 2
    fg = {(x, 0) for x in range(width)}
    for x in xs:
        fg.update((x, y) for y in range(1, rng.randint(2, 12)))
    return BinaryImage(width, 12, frozenset(fg))


def test_profile_events_of_a_100_tooth_comb():
    """A timing-free guard on the Chinese-postman pairing: a comb is a tree,
    so its k = 202 odd vertices pair by bridge parity with a number of
    Python calls polynomial in k, and the comb traces.  The bitmask matching
    over all odd vertices was exponential in k and refused k > 20; this
    reads about 0.2 k^2 calls for the whole trace."""
    img = _comb_image(100, seed=31)
    k = len(build_curve_graph(img, Adjacency.FOUR).odd_vertices())
    assert k == 202
    events = profile_events(trace_image, img, Adjacency.FOUR)
    assert events["call"] <= k * k, events["call"] / (k * k)
    [trace] = trace_image(img, Adjacency.FOUR)
    assert validate_path(trace.path).ok
    assert set(trace.path.points) == img.foreground


@pytest.mark.parametrize("spec", [PredicateSpec("max_len", {"k": 8}), PredicateSpec("bbox", {"w": 5, "h": 5})],
                         ids=["max_len-k8", "bbox-w5-h5"])
def test_profile_events_per_node_of_the_arc_graph(spec):
    """A timing-free guard on the arc graph's per-node constant: one
    bisection per arc and list comprehensions, with no call per edge.  An
    `IndexInterval` and a sort key per arc, and a containment test, a set
    insertion and a `min` and `max` per edge, made 10.0 calls and 24.0 C
    calls per node on `max_len` (7 edges per node) and 7.0 and 15.0 on `bbox`
    (4); the bisection over start-sorted arcs reads 0.0 and 1.0 on both."""
    cover = saturated_cover(synth.circle_path_of_size(10_000), spec)
    events = profile_events(build_arc_graph, cover)
    nodes = len(cover.segments)
    assert events["call"] <= 1.0 * nodes, events["call"] / nodes
    assert events["c_call"] <= 2.0 * nodes, events["c_call"] / nodes


@pytest.mark.parametrize("path", [
    synth.circle_path_of_size(20_000),
    synth.random_walk_path(20_000, Adjacency.EIGHT, seed=41),
    synth.random_closed_path(40_000, Adjacency.FOUR, seed=42),  # 20,166 points
], ids=["circle", "open-8-walk", "closed-4-walk"])
def test_dss_sweep_equals_forward_at_scale(path):
    spec = PredicateSpec("dss")
    assert segs(saturated_cover(path, spec)) == segs(forward_cover(path, spec))


_ROUTE_WALKS = [
    synth.random_walk_path(4_000, Adjacency.FOUR, seed=51),
    synth.random_walk_path(4_000, Adjacency.EIGHT, seed=52),
    synth.random_index_path(4_000, seed=53),
    synth.random_closed_path(8_000, Adjacency.FOUR, seed=54),
    synth.random_closed_path(8_000, Adjacency.EIGHT, seed=55),
]


@pytest.mark.parametrize("path", _ROUTE_WALKS,
                         ids=["open-4-walk", "open-8-walk", "open-index-walk",
                              "closed-4-walk", "closed-8-walk"])
def test_routes_agree_on_every_predicate_at_scale(path):
    """The forward route grows its first window on the positive side only,
    so on a closed path that segment may be unsaturated and the end rule
    must drop it.  Rotations move the sweep's first segment."""
    assert 3_000 <= path.n_points <= 5_000, path.n_points
    n1 = path.n_points
    turns = (0, n1 // 3, n1 - 7) if path.closed else (0,)
    for k in turns:
        turned = DigitalPath(path.points[k:] + path.points[:k], closed=path.closed,
                             adjacency=path.adjacency)
        for spec in VERIFIED_PREDICATES:
            if applicable(spec, turned):
                assert segs(forward_cover(turned, spec)) == segs(saturated_cover(turned, spec)), (k, spec)


def _recognizer_classes(cls=Recognizer):
    yield cls
    for sub in cls.__subclasses__():
        yield from _recognizer_classes(sub)


def test_forward_route_never_grows_on_its_negative_side(monkeypatch):
    """Every `grow` that a recognizer class defines refuses the negative
    side; the two-sided sweep then fails, the forward route does not.
    Slides grow on the positive side by definition."""
    walks = [synth.random_walk_path(300, Adjacency.FOUR, seed=56),
             synth.random_closed_path(600, Adjacency.EIGHT, seed=57),
             synth.circle_path_of_size(300)]
    specs = VERIFIED_PREDICATES + (PredicateSpec("gaps"),)
    expected = [(path, spec, segs(brute_force_cover(path, spec))) for path in walks for spec in specs]

    def refusing(grow):
        def run(self, positive, limit):
            if not positive:
                raise AssertionError("the forward route grew a window on its negative side")
            return grow(self, positive, limit)
        return run

    patched = {cls for cls in _recognizer_classes() if "grow" in vars(cls)}
    assert {Recognizer, DssRecognizer, MaxLenRecognizer} <= patched
    for cls in patched:
        monkeypatch.setattr(cls, "grow", refusing(vars(cls)["grow"]))
    for spec in (PredicateSpec("dss"), PredicateSpec("max_len", {"k": 5}), PredicateSpec("x_monotone")):
        with pytest.raises(AssertionError, match="negative side"):
            saturated_cover(walks[1], spec)
    for path, spec, cover_segs in expected:
        assert segs(forward_cover(path, spec)) == cover_segs, (path.closed, spec)


def test_dss_cover_rotates_with_a_closed_path():
    path = synth.circle_path_of_size(20_000)
    n1 = path.n_points
    spec = PredicateSpec("dss")
    base = segs(saturated_cover(path, spec))
    for k in (1, 4_999, n1 // 2 + 3):
        turned = DigitalPath(path.points[k:] + path.points[:k], closed=True,
                             adjacency=path.adjacency)
        assert segs(saturated_cover(turned, spec)) == sorted(
            ((start - k) % n1, length) for start, length in base), k


@pytest.mark.parametrize("path", [
    synth.circle_path_of_size(2_000),
    synth.random_walk_path(2_000, Adjacency.EIGHT, seed=43),
], ids=["circle", "open-8-walk"])
def test_dss_sweep_equals_brute_force_at_2k(path):
    spec = PredicateSpec("dss")
    assert segs(saturated_cover(path, spec)) == segs(
        brute_force_cover(path, spec, max_points=2_500))


@pytest.mark.parametrize("path", [
    synth.random_walk_path(2_000, Adjacency.FOUR, seed=64),
    synth.random_walk_path(2_000, Adjacency.EIGHT, seed=65),
    synth.random_index_path(2_000, seed=66),
    synth.random_closed_path(4_000, Adjacency.FOUR, seed=67),
    synth.random_closed_path(4_000, Adjacency.EIGHT, seed=68),
], ids=["open-4-walk", "open-8-walk", "open-index-walk", "closed-4-walk", "closed-8-walk"])
def test_sweep_equals_brute_force_at_2k_for_every_other_predicate(path):
    assert 2_000 <= path.n_points <= 2_500, path.n_points
    for spec in GRID_SPECS:
        if spec.name != "dss" and applicable(spec, path):
            assert segs(saturated_cover(path, spec)) == segs(
                brute_force_cover(path, spec, max_points=2_500)), spec


@pytest.mark.parametrize("path", [
    synth.random_closed_path(5_000, Adjacency.FOUR, seed=61),
    synth.random_closed_path(5_000, Adjacency.EIGHT, seed=62),
], ids=["closed-4-walk", "closed-8-walk"])
def test_every_cover_rotates_with_a_closed_walk(path):
    n1 = path.n_points
    assert 2_000 <= n1 <= 3_000, n1
    rng = random.Random(n1)
    turns = [1, n1 - 1] + rng.sample(range(2, n1 - 1), 8)
    for spec in GRID_SPECS:
        base = segs(saturated_cover(path, spec))
        for k in turns:
            turned = DigitalPath(path.points[k:] + path.points[:k], closed=True,
                                 adjacency=path.adjacency)
            assert segs(saturated_cover(turned, spec)) == sorted(
                ((start - k) % n1, length) for start, length in base), (spec, k)


def test_corpus_equality_and_invariants():
    failures = []
    for path in iter_corpus(seed=11, count=120, max_points=80, with_index=True):
        for spec in GRID_PREDICATES:
            if not applicable(spec, path):
                continue
            problems = check_cover_invariants(path, spec)
            if problems:
                failures.append((spec.name, path.points, problems))
    assert not failures, failures[:3]


def test_covers_mirror_under_reversal_and_keep_under_translation():
    """Reversing a path mirrors its cover: every extension and removal
    moves to the opposite end of the interval.  Translating it changes
    neither the segments nor the predicate calls."""
    covers = 0
    for path in iter_corpus(seed=14, count=400, max_points=80, with_index=True):
        n1 = path.n_points
        reversed_path = DigitalPath(path.points[::-1], closed=path.closed,
                                    adjacency=path.adjacency)
        moved = DigitalPath(tuple((x + 13, y - 7) for x, y in path.points),
                            closed=path.closed, adjacency=path.adjacency)
        for spec in GRID_SPECS:
            if not applicable(spec, path):
                continue
            cov = saturated_cover(path, spec)
            mirrored = sorted(((n1 - start - length) % n1, length) for start, length in segs(cov))
            assert segs(saturated_cover(reversed_path, spec)) == mirrored, (spec, path.points)
            shifted = saturated_cover(moved, spec)
            assert segs(shifted) == segs(cov), (spec, path.points)
            assert shifted.predicate_calls == cov.predicate_calls, (spec, path.points)
            covers += 1
    assert covers > 3000, covers


def test_literal_brute_force_agrees_on_small_paths():
    for path in iter_corpus(seed=12, count=60, max_points=22, with_index=True):
        for spec in GRID_PREDICATES:
            if not applicable(spec, path):
                continue
            fast = brute_force_cover(path, spec)
            lit = literal_cover(path, spec)
            assert fast.segments == lit.segments, (spec, path.points)


def test_middle_indices_distinct_and_bounded():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 60)
        closed = rng.random() < 0.5 and n >= 4
        path = (synth.random_closed_path(n, Adjacency.EIGHT, rng=rng) if closed
                else synth.random_walk_path(n, Adjacency.EIGHT, rng=rng))
        cov = saturated_cover(path, PredicateSpec("dss"))
        assert len(cov.segments) <= path.n_points
        mids = [middle_index(s, path.n_points) for s in cov.segments]
        assert len(set(mids)) == len(mids)


def test_brute_force_cap():
    path = synth.random_walk_path(30, Adjacency.EIGHT, seed=5)
    with pytest.raises(CoverCapError):
        brute_force_cover(path, PredicateSpec("dss"), max_points=20)


def test_cover_json_schema_and_roundtrip():
    path = synth.random_closed_path(24, Adjacency.EIGHT, seed=6)
    cov = saturated_cover(path, PredicateSpec("bbox", {"w": 3, "h": 3}))
    doc = cov.to_json_dict()
    assert set(doc) == {"n", "closed", "predicate", "segments", "predicate_calls"}
    assert doc["n"] == path.n_points
    assert all(set(seg) == {"start", "len"} for seg in doc["segments"])
    text = json.dumps(doc, sort_keys=True)
    back = SaturatedCover.from_json_dict(json.loads(text))
    assert back == cov


def test_probe_rows():
    rows = complexity_probe(PredicateSpec("max_len", {"k": 4}), [50, 200],
                            lambda n: synth.digitized_line_path(n, 2, 5))
    assert [r.n_points for r in rows] == [50, 200]
    assert all(r.predicate_calls >= 1 for r in rows)
    one = complexity_probe(PredicateSpec("dss"), [1],
                           lambda n: DigitalPath(((0, 0),)))
    assert one[0].predicate_calls >= 1


def test_probe_max_len_calls_scale_linearly():
    rows = complexity_probe(PredicateSpec("max_len", {"k": 5}), [200, 2000],
                            lambda n: synth.digitized_line_path(n, 2, 5))
    ratios = [r.ratio for r in rows]
    assert max(ratios) / min(ratios) < 1.2
