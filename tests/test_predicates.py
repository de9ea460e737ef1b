import random
from collections import Counter

import pytest

from oracles import (
    ReferenceDssRecognizer,
    dss_feasible,
    dss_feasible_all_intervals,
    dss_replay,
    dss_state,
    interval_points,
)
from satcover import synth
from satcover.paths import Adjacency, DigitalPath, IndexInterval
from satcover.predicates import (
    DssRecognizer,
    MaxLenRecognizer,
    PredicateError,
    PredicateSpec,
    check_conservative,
    Recognizer,
    list_predicates,
    make_recognizer,
)

SHIPPED = [
    PredicateSpec("dss"),
    PredicateSpec("max_len", {"k": 3}),
    PredicateSpec("x_monotone"),
    PredicateSpec("y_monotone"),
    PredicateSpec("bbox", {"w": 3, "h": 3}),
]


def random_grid_path(rng, max_points=30):
    adjacency = rng.choice((Adjacency.FOUR, Adjacency.EIGHT))
    n = rng.randint(1, max_points)
    if rng.random() < 0.4 and n >= 4:
        return synth.random_closed_path(n, adjacency, rng=rng)
    return synth.random_walk_path(n, adjacency, rng=rng)


# ---------------------------------------------------------------------------
# DSS
# ---------------------------------------------------------------------------


def test_dss_holds_examples():
    run = DigitalPath(((0, 0), (1, 0), (2, 0), (3, 0)))
    assert DssRecognizer(run).holds(IndexInterval(0, 4))

    stairs = DigitalPath(((0, 0), (1, 0), (1, 1), (2, 1), (3, 1)), adjacency=Adjacency.FOUR)
    assert dss_feasible(stairs, IndexInterval(0, 5))  # oracle agrees it is a segment
    assert DssRecognizer(stairs).holds(IndexInterval(0, 5))

    hook = DigitalPath(((0, 0), (1, 0), (1, 1), (1, 2), (2, 2), (2, 1)), adjacency=Adjacency.FOUR)
    assert not dss_feasible(hook, IndexInterval(0, 6))
    assert not DssRecognizer(hook).holds(IndexInterval(0, 6))


def test_dss_rejects_index_adjacency():
    path = synth.random_index_path(5, seed=0)
    with pytest.raises(PredicateError):
        make_recognizer(PredicateSpec("dss"), path)


def test_dss_characteristics_convention():
    # a >= 0, and b > 0 when a = 0
    east = DigitalPath(((0, 3), (1, 3), (2, 3)))
    rec = DssRecognizer(east)
    rec.holds(IndexInterval(0, 3))
    assert rec.characteristics() == (0, 1, -3)

    west = DigitalPath(((2, 3), (1, 3), (0, 3)))
    rec = DssRecognizer(west)
    rec.holds(IndexInterval(0, 3))
    assert rec.characteristics() == (0, 1, -3)

    north = DigitalPath(((5, 0), (5, 1), (5, 2)))
    rec = DssRecognizer(north)
    rec.holds(IndexInterval(0, 3))
    a, b, mu = rec.characteristics()
    assert (a, b) == (1, 0) and mu == 5

    line = DigitalPath(tuple((x, (2 * x + 1) // 5) for x in range(40)))
    rec = DssRecognizer(line)
    assert rec.holds(IndexInterval(0, 40))
    a, b, mu = rec.characteristics()
    assert (a, b) == (2, 5)
    om = max(abs(a), abs(b))
    assert all(mu <= a * x - b * y <= mu + om - 1 for x, y in line.points)


def test_dss_long_digitized_line_all_extensions_succeed():
    pts = tuple((x, (2 * x + 1) // 5) for x in range(1000))
    path = DigitalPath(pts, adjacency=Adjacency.EIGHT)
    rec = DssRecognizer(path)
    assert rec.reset(0)
    for _ in range(999):
        assert rec.try_extend_positive()


def test_dss_matches_feasibility_oracle_exhaustively():
    rng = random.Random(2024)
    for _ in range(40):
        path = random_grid_path(rng, max_points=30)
        oracle = dss_feasible_all_intervals(path)
        rec = DssRecognizer(path)
        for (start, length), expected in oracle.items():
            assert rec.holds(IndexInterval(start, length)) == expected, (
                path.points, path.closed, path.adjacency, start, length)


def test_dss_accepts_revisits_within_a_band():
    # back and forth along a row stays inside one digital line
    path = DigitalPath(((0, 0), (1, 0), (2, 0), (1, 0), (0, 0)))
    assert DssRecognizer(path).holds(IndexInterval(0, 5))
    # but leaving the band is caught even after revisits
    bent = DigitalPath(((0, 0), (1, 0), (0, 0), (0, 1)))
    assert not DssRecognizer(bent).holds(IndexInterval(0, 4))


def octant_line(rng, n, adjacency):
    """The points of a digitized line of random slope, moved by a random
    symmetry of the grid into any of the eight octants."""
    a = rng.randint(0, 7)
    b = rng.randint(max(a, 1), 8)
    line = synth.digitized_line_path(n, a, b, adjacency).points
    sx, sy, swap = rng.choice((1, -1)), rng.choice((1, -1)), rng.random() < 0.5
    return [(sx * y, sy * x) if swap else (sx * x, sy * y) for x, y in line]


def wandering_line_path(rng, n, adjacency):
    """A walk back and forth along a digitized line of random slope and
    octant, forward more often than back, so that long segment cores lose
    points at both ends."""
    line = octant_line(rng, n, adjacency)
    i = 0
    pts = [line[0]]
    while len(pts) < n:
        i = min(max(i + (1 if rng.random() < 0.7 else -1), 0), n - 1)
        if line[i] != pts[-1]:
            pts.append(line[i])
    return DigitalPath(tuple(pts), adjacency=adjacency)


def test_dss_retraction_matches_replay():
    """After every removal, whichever core end it takes, and after every
    extension, the recognizer's state equals the replay of its core, its
    stored band width is that of its characteristics by definition, and
    the interval's distinct points, which its occurrence gaps decide, are
    the core's."""
    rng = random.Random(2026)
    seen = Counter()
    for _ in range(2000):
        adjacency = rng.choice((Adjacency.FOUR, Adjacency.EIGHT))
        n = rng.randint(2, 60)
        kind = rng.randrange(4)
        if kind == 0:
            path = synth.random_walk_path(n, adjacency, rng=rng)
        elif kind == 1:
            path = synth.random_closed_path(max(n, 4), adjacency, rng=rng)
        elif kind == 2:
            path = wandering_line_path(rng, n, adjacency)
        else:
            path = synth.digitized_circle_path(rng.randint(1, 10))
        rec = DssRecognizer(path)
        rec.reset(rng.randrange(path.n_points))
        for _ in range(3 * path.n_points):
            r = rng.random()
            if r < 0.3 and rec.length >= 2:
                first, size, chars = rec._core[0], len(rec._core), rec.characteristics()
                rec.remove_negative_end()
                if len(rec._core) < size:
                    seen["back" if rec._core[0] != first else "front"] += 1
                    seen["new line"] += rec.characteristics() not in (chars, None)
            elif not (rec.try_extend_positive() if r < 0.75 else rec.try_extend_negative()):
                continue
            assert dss_state(rec) == dss_replay(rec._core, path.adjacency), \
                (path.points, rec.interval)
            if rec._chars is not None:
                a, b, _ = rec._chars
                naive = path.adjacency is Adjacency.EIGHT
                width = max(abs(a), abs(b)) if naive else abs(a) + abs(b)
                assert rec._width == width, (path.points, rec.interval)
            assert sorted(set(interval_points(path, rec.interval))) == sorted(rec._core), \
                (path.points, rec.interval)
    assert min(seen.values()) > 1000, seen


def test_dss_replays_at_either_end_agree():
    """A core built by extensions at its back alone, last point first, has
    the same characteristics, leaning points and steps as one built at its
    front alone."""
    rng = random.Random(2027)
    for _ in range(10_000):
        adjacency = rng.choice((Adjacency.FOUR, Adjacency.EIGHT))
        line = octant_line(rng, 40, adjacency)
        i = rng.randrange(len(line))
        piece = line[i:rng.randint(i + 1, len(line))]
        assert dss_replay(piece, adjacency) == dss_replay(piece, adjacency, front=False), \
            (piece, adjacency)


def out_and_back_path(rng, n, adjacency):
    """A closed path out along a wandering line and back: the walk, then
    its reverse down to its second point, which is adjacent to the first."""
    pts = wandering_line_path(rng, n, adjacency).points
    return DigitalPath(pts + pts[-2:0:-1], closed=True, adjacency=adjacency)


class HookMaxLen(Recognizer):
    """max_len through the three hooks alone, run by the base class."""

    def __init__(self, path, k):
        super().__init__(path)
        self.k = k

    def _on_reset(self, index, p):
        return True

    def _try_add(self, index, p, positive, closing):
        return self._length < self.k

    def _on_remove(self, index, p, opening):
        pass


def run_view(rec) -> tuple:
    """What a run may change: the interval and the calls, and for a DSS
    recognizer its characteristics, leaning points and core."""
    view = (rec.interval, rec.length, rec.calls)
    if hasattr(rec, "_core"):
        lean = rec._lean
        view += (rec.characteristics(), lean and tuple(lean), tuple(rec._core))
    return view


def differential_paths(rng):
    """Circles, and wandering, random and out-and-back 4- and 8-paths, open
    and closed, most of them with revisits."""
    for _ in range(150):
        adjacency = rng.choice((Adjacency.FOUR, Adjacency.EIGHT))
        n = rng.randint(2, 40)
        yield synth.digitized_circle_path(rng.randint(1, 12))
        yield wandering_line_path(rng, n, adjacency)
        yield out_and_back_path(rng, max(n, 3), adjacency)
        yield synth.random_walk_path(n, adjacency, rng=rng)
        yield synth.random_closed_path(max(n, 4), adjacency, rng=rng)


def max_len_pair(path, rng):
    k = rng.randint(1, 9)
    return MaxLenRecognizer(path, k), HookMaxLen(path, k)


@pytest.mark.parametrize("make_pair", [
    lambda path, rng: (DssRecognizer(path), ReferenceDssRecognizer(path)),
    max_len_pair,
], ids=["dss", "max_len"])
def test_runs_match_the_hook_based_reference(make_pair):
    """The runs of the one-loop DSS recognizer and the O(1) max_len runs
    against recognizers driven one hook call per point by the base class,
    through the same random sequences of resets (unwrapped on closed
    paths), grows on either side with limits below and past the boundary,
    slides, removals and extensions of one: after every run the interval,
    the calls and, for dss, the characteristics, leaning points and core
    are the same, and so is what each grow returns."""
    rng = random.Random(2030)
    ops = Counter()
    for path in differential_paths(rng):
        n1 = path.n_points
        fast, ref = make_pair(path, rng)
        start = rng.randrange(n1)
        for rec in (fast, ref):
            rec.reset(start)
        for _ in range(30):
            r = rng.random()
            if r < 0.1:
                index = rng.randrange(-n1, 2 * n1) if path.closed else rng.randrange(n1)
                results = [rec.reset(index) for rec in (fast, ref)]
                ops["reset"] += 1
            elif r < 0.5:
                positive, limit = rng.random() < 0.6, rng.randint(-1, n1 + 1)
                results = [rec.grow(positive, limit) for rec in (fast, ref)]
                ops["grow"] += 1
            elif r < 0.8:
                if not (path.closed or ref._start + ref.length < n1):
                    continue
                removals = rng.randrange(ref.length)
                results = [rec.slide(removals) for rec in (fast, ref)]
                ops["slide"] += 1
            elif r < 0.9:
                if ref.length < 2:
                    continue
                results = [rec.remove_negative_end() for rec in (fast, ref)]
                ops["remove"] += 1
            else:
                results = [rec.try_extend_negative() for rec in (fast, ref)]
                ops["extend"] += 1
            assert results[0] == results[1], (path.points, path.closed, r)
            assert run_view(fast) == run_view(ref), (path.points, path.closed, r)
    assert min(ops.values()) > 500, ops


# ---------------------------------------------------------------------------
# Recognizer contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.name)
def test_extension_mechanics(spec):
    """Both extensions refuse past an open path's ends and once a closed
    path's interval is the full turn, and a negative extension past index 0
    of a closed path wraps to its last index.  Every attempt, refused or
    not, is one call, and a refusal leaves the interval as it was."""

    def attempt(rec, positive):
        calls, before = rec.calls, rec.interval
        ok = rec.try_extend_positive() if positive else rec.try_extend_negative()
        assert rec.calls == calls + 1
        if not ok:
            assert rec.interval == before
        return ok

    # runs along the axis that the predicate ignores, if any: it then holds
    # on every interval that max_len allows
    def run(coords, closed=False):
        pts = tuple((c, 0) if spec.name == "y_monotone" else (0, c) for c in coords)
        return DigitalPath(pts, closed=closed)

    rec = make_recognizer(spec, run(range(5)))
    rec.reset(0)
    assert not attempt(rec, positive=False)
    rec.reset(3)
    assert attempt(rec, positive=True)
    assert not attempt(rec, positive=True)
    assert rec.interval == IndexInterval(3, 2)

    rec = make_recognizer(spec, run((0, 1), closed=True))
    rec.reset(0)
    assert attempt(rec, positive=False)
    assert rec.interval == IndexInterval(1, 2)
    assert not attempt(rec, positive=False)
    assert not attempt(rec, positive=True)

    rec = make_recognizer(spec, run((0, 1, 2, 1), closed=True))
    rec.reset(3)
    assert attempt(rec, positive=True)
    assert rec.interval == IndexInterval(3, 2)
    rec.reset(0)
    assert attempt(rec, positive=False)
    assert attempt(rec, positive=False)
    assert rec.interval == IndexInterval(2, 3)
    full = attempt(rec, positive=True)
    assert full is (spec.name != "max_len")  # k = 3 refuses a fourth point
    if full:
        assert rec.interval == IndexInterval(2, 4)
        assert not attempt(rec, positive=True)
        assert not attempt(rec, positive=False)


@pytest.mark.parametrize("spec", SHIPPED, ids=lambda s: s.name)
def test_singletons_always_true(spec):
    rng = random.Random(5)
    for _ in range(20):
        path = random_grid_path(rng)
        rec = make_recognizer(spec, path)
        for i in range(path.n_points):
            assert rec.reset(i)


def test_recognizer_state_is_path_independent():
    rng = random.Random(99)
    for _ in range(120):
        path = random_grid_path(rng, max_points=50)
        spec = rng.choice(SHIPPED)
        rec = make_recognizer(spec, path)
        fresh = make_recognizer(spec, path)
        if not rec.reset(rng.randrange(path.n_points)):
            continue
        for _ in range(40):
            r = rng.random()
            if r < 0.45:
                rec.try_extend_positive()
            elif r < 0.8:
                rec.try_extend_negative()
            elif rec.length >= 2:
                rec.remove_negative_end()
            assert fresh.holds(rec.interval), (spec, path.points, rec.interval)


def test_removal_equivalent_to_fresh_recognizer():
    rng = random.Random(31)
    for _ in range(80):
        path = random_grid_path(rng, max_points=40)
        spec = rng.choice(SHIPPED)
        rec = make_recognizer(spec, path)
        if not rec.reset(rng.randrange(path.n_points)):
            continue
        for _ in range(rng.randint(1, 25)):
            if not rec.try_extend_positive():
                break
        removals = rng.randint(0, rec.length - 1)
        for _ in range(removals):
            rec.remove_negative_end()
        twin = make_recognizer(spec, path)
        assert twin.holds(rec.interval)
        for _ in range(6):
            a, b = rec.try_extend_positive(), twin.try_extend_positive()
            assert a == b
            a, b = rec.try_extend_negative(), twin.try_extend_negative()
            assert a == b


def test_extend_failure_leaves_state_unchanged():
    path = DigitalPath(((0, 0), (1, 0), (2, 0), (2, 1), (2, 2)), adjacency=Adjacency.FOUR)
    rec = make_recognizer(PredicateSpec("bbox", {"w": 2, "h": 2}), path)
    assert rec.reset(1)
    assert rec.try_extend_positive()
    iv = rec.interval
    assert not rec.try_extend_negative()  # (0,0) would make the box 3 wide
    assert rec.interval == iv


def test_boundary_blocks_extension():
    path = DigitalPath(((0, 0), (1, 0)))
    rec = make_recognizer(PredicateSpec("max_len", {"k": 5}), path)
    assert rec.reset(1)
    assert not rec.try_extend_positive()
    assert rec.reset(0)
    assert not rec.try_extend_negative()


def test_remove_from_singleton_is_an_error():
    path = DigitalPath(((0, 0), (1, 0)))
    rec = make_recognizer(PredicateSpec("max_len", {"k": 5}), path)
    rec.reset(0)
    with pytest.raises(ValueError):
        rec.remove_negative_end()


def test_max_len_window():
    path = synth.random_walk_path(10, Adjacency.EIGHT, seed=8)
    rec = make_recognizer(PredicateSpec("max_len", {"k": 3}), path)
    assert rec.reset(4)
    assert rec.try_extend_positive()
    assert rec.try_extend_negative()
    assert not rec.try_extend_positive()
    assert not rec.try_extend_negative()
    assert rec.calls == 5  # one per reset and per attempted extension
    rec.remove_negative_end()
    assert rec.calls == 5  # removal is not an evaluation
    assert rec.holds(IndexInterval(2, 3))
    assert rec.calls == 6  # one per holds, whatever it replays


def test_monotone_recognizer():
    path = DigitalPath(((0, 0), (1, 0), (2, 0), (1, 1)), adjacency=Adjacency.EIGHT)
    rec = make_recognizer(PredicateSpec("x_monotone"), path)
    assert rec.holds(IndexInterval(0, 3))
    assert not rec.holds(IndexInterval(0, 4))
    # flat runs count as monotone both ways
    flat = DigitalPath(((0, 0), (0, 1), (0, 2)))
    rec = make_recognizer(PredicateSpec("x_monotone"), flat)
    assert rec.holds(IndexInterval(0, 3))


def test_bad_specs_rejected():
    path = DigitalPath(((0, 0), (1, 0)))
    with pytest.raises(PredicateError):
        make_recognizer(PredicateSpec("no_such_predicate"), path)
    with pytest.raises(PredicateError):
        make_recognizer(PredicateSpec("max_len"), path)  # missing k
    with pytest.raises(PredicateError):
        make_recognizer(PredicateSpec("bbox", {"w": 0, "h": 2}), path)
    with pytest.raises(PredicateError):
        make_recognizer(PredicateSpec("bbox", {"w": 2}), path)
    # each refusal's text, in make_recognizer's order of checks: the name,
    # unknown parameters in sorted order, then each declared parameter in
    # turn; range checks are the recognizer's own
    refusals = [
        ("max_len", {"j": 1}, "predicate 'max_len' has no parameter 'j'"),
        ("dss", {"z": 1, "a": 1}, "predicate 'dss' has no parameter 'a'"),
        ("max_len", {}, "predicate 'max_len' needs parameter 'k'"),
        ("bbox", {"w": 2}, "predicate 'bbox' needs parameter 'h'"),
        ("bbox", {"h": "x"}, "predicate 'bbox' needs parameter 'w'"),
        ("max_len", {"k": "3"}, "parameter 'k' of 'max_len' must be an integer"),
        ("max_len", {"k": 1.5}, "parameter 'k' of 'max_len' must be an integer"),
        ("bbox", {"w": "x", "h": 0}, "parameter 'w' of 'bbox' must be an integer"),
        ("max_len", {"k": True}, "parameter 'k' of 'max_len' must be an integer"),
        ("max_len", {"k": 0}, "max_len requires k >= 1, got 0"),
        ("bbox", {"w": 0, "h": 2}, "bbox requires w >= 1 and h >= 1, got 0x2"),
    ]
    for name, params, message in refusals:
        with pytest.raises(PredicateError) as info:
            make_recognizer(PredicateSpec(name, params), path)
        assert str(info.value) == message, (name, params)
    with pytest.raises(PredicateError) as info:
        make_recognizer(PredicateSpec("no_such_predicate"), path)
    # the test suite may have registered predicates of its own
    known = str(info.value).removeprefix("unknown predicate 'no_such_predicate' (known: ")
    assert known.endswith(")")
    names = known[:-1].split(", ")
    assert names == sorted(names)
    assert {"bbox", "contains_start", "dss", "max_len", "x_monotone", "y_monotone"} <= set(names)


def test_registry_listing():
    names = [info.name for info in list_predicates()]
    assert {"dss", "max_len", "x_monotone", "y_monotone", "bbox", "contains_start"} <= set(names)
    flags = {info.name: info.conservative for info in list_predicates()}
    assert flags["contains_start"] is False
    assert flags["dss"] is True


# ---------------------------------------------------------------------------
# Conservativity
# ---------------------------------------------------------------------------


def _sample_paths(seed, count=25, max_points=40):
    rng = random.Random(seed)
    return [random_grid_path(rng, max_points) for _ in range(count)]


def test_max_len_is_conservative():
    rep = check_conservative(PredicateSpec("max_len", {"k": 3}), _sample_paths(1), trials=10_000)
    assert rep.ok, str(rep)


def test_dss_is_conservative_on_random_8_paths():
    paths = [synth.random_walk_path(random.Random(i).randint(2, 40), Adjacency.EIGHT, seed=i)
             for i in range(20)]
    rep = check_conservative(PredicateSpec("dss"), paths, trials=10_000)
    assert rep.ok, str(rep)


def test_planted_predicate_is_caught():
    rep = check_conservative(PredicateSpec("contains_start"), _sample_paths(2), trials=1000)
    assert not rep.ok
    i, x, y = rep.counterexample
    assert "NOT conservative" in str(rep)
