"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import random
import time

import pytest

from fixtures import fixture_image
from oracles import dss_feasible_all_intervals, min_matching_weight
from satcover import synth
from satcover.arcs import build_arc_graph
from satcover.cover import brute_force_cover, forward_cover, saturated_cover
from satcover.paths import Adjacency, IndexInterval, middle_index, validate_path
from satcover.predicates import DssRecognizer, PredicateSpec, check_conservative
from satcover.trace import _adjacency, _dijkstra, build_curve_graph, eulerize, trace_image
from satcover.verify import GRID_PREDICATES, VERIFIED_PREDICATES, iter_corpus

CORPUS_SEED = 2024
CORPUS_PATHS = 1000
MAX_POINTS = 200


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    assert ok, f"acceptance {num}: {detail}"


@pytest.fixture(scope="module")
def corpus_covers():
    """Covers of the seeded corpus by all three routes (criteria 1-3)."""
    t0 = time.monotonic()
    paths = list(iter_corpus(CORPUS_SEED, CORPUS_PATHS, MAX_POINTS, with_index=False))
    assert len(paths) >= 1000
    entries = []
    mismatches = []
    for path in paths:
        for spec in GRID_PREDICATES:
            cov = saturated_cover(path, spec)
            fwd = forward_cover(path, spec)
            ora = brute_force_cover(path, spec, max_points=MAX_POINTS)
            if not (cov.segments == fwd.segments == ora.segments):
                mismatches.append((spec, path, cov.segments, fwd.segments, ora.segments))
            entries.append((path, spec, cov))
    return {
        "paths": paths,
        "entries": entries,
        "mismatches": mismatches,
        "seconds": time.monotonic() - t0,
    }


def test_acceptance_1_oracle_equivalence(corpus_covers):
    n = len(corpus_covers["entries"])
    bad = corpus_covers["mismatches"]
    secs = corpus_covers["seconds"]
    detail = (f"sweep == forward == brute force on {n} covers over "
              f"{len(corpus_covers['paths'])} paths, {secs:.0f}s")
    if bad:
        spec, path, a, b, c = bad[0]
        detail = f"{len(bad)} mismatches; first: {spec} on {path.points[:8]}... {a} {b} {c}"
    _report(1, not bad and secs < 120, detail)


def test_acceptance_2_segment_bound_and_middles(corpus_covers):
    bad = []
    for path, spec, cov in corpus_covers["entries"]:
        n1 = path.n_points
        if len(cov.segments) > n1:
            bad.append(("bound", spec, path))
            continue
        mids = [middle_index(s, n1) for s in cov.segments]
        if len(set(mids)) != len(mids):
            bad.append(("middles", spec, path))
    _report(2, not bad,
            f"|segments| <= n+1 and distinct middles on {len(corpus_covers['entries'])} covers"
            if not bad else f"{len(bad)} violations, first {bad[0][:2]}")


def test_acceptance_3_proper_arc_graphs(corpus_covers):
    bad = []
    for path, spec, cov in corpus_covers["entries"]:
        graph = build_arc_graph(cov)
        if not graph.proper:
            bad.append(("proper", spec, path))
        if not path.closed and not graph.interval:
            bad.append(("interval", spec, path))
    _report(3, not bad,
            f"every arc graph proper (interval flag on open paths) across "
            f"{len(corpus_covers['entries'])} covers"
            if not bad else f"{len(bad)} violations, first {bad[0][:2]}")


def test_acceptance_4_linear_predicate_calls():
    t0 = time.monotonic()
    sizes = [1_000, 10_000, 100_000]
    rows = []
    for size in sizes:
        path = synth.circle_path_of_size(size)
        cov = saturated_cover(path, PredicateSpec("dss"))
        rows.append((path.n_points, cov.predicate_calls))
    secs = time.monotonic() - t0
    ratios = [calls / n for n, calls in rows]
    spread = max(ratios) / min(ratios)
    table = ", ".join(f"n={n}: {c} calls ({c / n:.2f}/pt)" for n, c in rows)
    _report(4, spread <= 1.5 and secs < 30,
            f"{table}; spread {spread:.3f} <= 1.5, {secs:.1f}s < 30s")


def test_acceptance_5_dss_recognizer_soundness():
    t0 = time.monotonic()
    rng = random.Random(5)
    paths = 0
    intervals = 0
    bad = []
    while paths < 100:
        n = rng.randint(1, 25)
        closed = rng.random() < 0.4 and n >= 4
        path = (synth.random_closed_path(n, Adjacency.EIGHT, rng=rng) if closed
                else synth.random_walk_path(n, Adjacency.EIGHT, rng=rng))
        paths += 1
        expected = dss_feasible_all_intervals(path)
        rec = DssRecognizer(path)
        for (start, length), want in expected.items():
            intervals += 1
            if rec.holds(IndexInterval(start, length)) != want:
                bad.append((path, start, length, want))
    secs = time.monotonic() - t0
    _report(5, not bad and secs < 60,
            f"recognizer == feasibility oracle on {intervals} intervals of {paths} "
            f"8-paths, {secs:.1f}s" if not bad else f"first mismatch {bad[0]}")


FIXTURES_6 = ["segment", "plus", "h_shape", "figure_eight",
              "two_junction_corridor", "pure_cycle", "two_components"]


def test_acceptance_6_trace_pixel_coverage():
    bad = []
    for name in FIXTURES_6:
        img = fixture_image(name)
        traces = trace_image(img, Adjacency.FOUR)
        covered = set()
        for tr in traces:
            rep = validate_path(tr.path)
            if not rep.ok:
                bad.append((name, "invalid path", rep.message))
            covered |= set(tr.path.points)
            if tr.graph is not None and tr.tour:
                used = sorted(r.edge for r in tr.runs)
                if used != list(range(len(tr.graph.edges))):
                    bad.append((name, "edges not used exactly once", used))
                for run in tr.runs:
                    e = tr.graph.edges[run.edge]
                    pix = e.pixels if run.forward else tuple(reversed(e.pixels))
                    got = tuple(tr.path.points[run.offset:run.offset + run.length])
                    if got != pix:
                        bad.append((name, "run is not contiguous", run))
        if covered != set(img.foreground):
            bad.append((name, "missing pixels", set(img.foreground) - covered))
    _report(6, not bad,
            f"validated, fully covering, contiguous-run traces on {len(FIXTURES_6)} fixtures"
            if not bad else f"{bad[:2]}")


def test_acceptance_7_chinese_postman_optimality():
    bad = []
    checked = 0
    for name in ("segment", "plus", "h_shape", "fat_junction", "theta",
                 "two_junction_corridor"):
        g = build_curve_graph(fixture_image(name), Adjacency.FOUR)
        odd = g.odd_vertices()
        if not odd or len(odd) > 8:
            continue
        checked += 1
        eg = eulerize(g)
        dup = sum(e.weight for e in eg.edges if e.duplicate_of is not None)
        dist = {s: _dijkstra(_adjacency(g), s)[0] for s in odd}
        want = min_matching_weight(odd, dist)
        if dup != want:
            bad.append((name, dup, want))
    _report(7, not bad and checked >= 4,
            f"duplicated weight equals enumerated minimum on {checked} fixtures"
            if not bad else f"{bad}")


def test_acceptance_8_conservativity():
    rng = random.Random(8)
    paths = []
    for _ in range(30):
        n = rng.randint(2, 40)
        adjacency = rng.choice((Adjacency.FOUR, Adjacency.EIGHT))
        if rng.random() < 0.4 and n >= 4:
            paths.append(synth.random_closed_path(n, adjacency, rng=rng))
        else:
            paths.append(synth.random_walk_path(n, adjacency, rng=rng))
    bad = []
    for spec in VERIFIED_PREDICATES:
        rep = check_conservative(spec, paths, trials=10_000, seed=80)
        if not rep.ok:
            bad.append((spec, rep))
    planted = check_conservative(PredicateSpec("contains_start"), paths,
                                 trials=1000, seed=81)
    detected = not planted.ok
    _report(8, not bad and detected,
            f"7 shipped predicates conservative over 10000 trials; planted "
            f"non-conservative predicate caught after {planted.trials} trials"
            if not bad and detected else f"failures {bad}, planted detected={detected}")
