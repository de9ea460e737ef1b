"""Randomized verification suite: the cover guarantees as executable checks.

Runs the three cover routes against each other over a seeded corpus of
random paths, and checks the structural guarantees on every cover: the
segment-count bound, distinct middles, the proper arc graph, the overlap
of consecutive segments, and conservativity of the shipped predicates
(including detection of the planted non-conservative one).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import synth
from .arcs import build_arc_graph
from .cover import brute_force_cover, forward_cover, saturated_cover, segment_is_saturated
from .paths import Adjacency, DigitalPath, IndexInterval, middle_index, path_to_json
from .predicates import PredicateSpec, check_conservative, make_recognizer

GRID_PREDICATES = (
    PredicateSpec("dss"),
    PredicateSpec("max_len", {"k": 1}),
    PredicateSpec("max_len", {"k": 2}),
    PredicateSpec("max_len", {"k": 5}),
    PredicateSpec("x_monotone"),
    PredicateSpec("bbox", {"w": 3, "h": 3}),
)
# what `run_verification` covers and probes for conservativity
VERIFIED_PREDICATES = GRID_PREDICATES + (PredicateSpec("y_monotone"),)


def iter_corpus(seed: int, count: int, max_points: int = 200, with_index: bool = False):
    """Deterministic mix of open/closed, 4-/8-connected random paths."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.randint(1, max_points)
        adjacency = rng.choice((Adjacency.FOUR, Adjacency.EIGHT))
        if with_index and rng.random() < 0.15:
            yield synth.random_index_path(max(1, size), rng=rng)
            continue
        if rng.random() < 0.5 and size >= 4:
            yield synth.random_closed_path(size, adjacency, rng=rng)
        else:
            yield synth.random_walk_path(size, adjacency, rng=rng)


def applicable(spec: PredicateSpec, path: DigitalPath) -> bool:
    return not (spec.name == "dss" and path.adjacency is Adjacency.INDEX)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        return f"[{'PASS' if self.ok else 'FAIL'}] {self.name}" + (f": {self.detail}" if self.detail else "")


def _pairs_all_true(path: DigitalPath, spec: PredicateSpec) -> bool:
    rec = make_recognizer(spec, path)
    n1 = path.n_points
    last = n1 if path.closed else n1 - 1
    for s in range(last):
        if not rec.holds(IndexInterval(s, 2)):
            return False
    return True


def check_cover_invariants(path: DigitalPath, spec: PredicateSpec) -> list[str]:
    """All structural checks on one (path, predicate) pair; returns failures."""
    problems = []
    n1 = path.n_points
    cov = saturated_cover(path, spec)
    fwd = forward_cover(path, spec)
    ora = brute_force_cover(path, spec, max_points=max(500, n1))
    if cov.segments != ora.segments:
        problems.append(f"sweep/oracle mismatch: {cov.segments} vs {ora.segments}")
    if fwd.segments != ora.segments:
        problems.append(f"forward/oracle mismatch: {fwd.segments} vs {ora.segments}")
    if len(cov.segments) > n1:
        problems.append(f"{len(cov.segments)} segments exceed the point count {n1}")
    middles = [middle_index(s, n1) for s in cov.segments]
    if len(set(middles)) != len(middles):
        problems.append(f"duplicate middle indices {middles}")
    for seg in cov.segments:
        if not segment_is_saturated(path, spec, seg):
            problems.append(f"segment {seg} is not saturated")
    graph = build_arc_graph(cov)
    if not graph.proper:
        problems.append("arc graph is not proper")
    if graph.interval == path.closed:
        problems.append("interval flag does not match openness")
    if len(cov.segments) >= 2 and _pairs_all_true(path, spec):
        segs = cov.segments
        m = len(segs)
        for a in range(m if path.closed else m - 1):
            s0, s1 = segs[a], segs[(a + 1) % m]
            end0 = s0.start + s0.length - 1
            start1 = s1.start if s1.start >= s0.start else s1.start + n1
            if start1 > end0:
                problems.append(f"consecutive segments {s0} and {s1} do not overlap")
    return problems


def run_verification(seed: int = 0, count: int = 120, max_points: int = 120,
                     conservativity_trials: int = 10_000) -> list[CheckResult]:
    results = []

    corpus = list(iter_corpus(seed, count, max_points, with_index=True))
    failures = []
    covers = 0
    for path in corpus:
        for spec in VERIFIED_PREDICATES:
            if not applicable(spec, path):
                continue
            problems = check_cover_invariants(path, spec)
            covers += 1
            if problems:
                failures.append((spec, path, problems))
    detail = f"{covers} covers over {len(corpus)} paths"
    if failures:
        spec, path, problems = failures[0]
        detail = (f"{len(failures)} failing pairs; first: predicate={spec.name} "
                  f"problems={problems} path={path_to_json(path)}")
    results.append(CheckResult("cover invariants (oracle equality, segment bound, "
                               "distinct middles, proper arc graph, overlap)",
                               not failures, detail))

    sample = [p for p in iter_corpus(seed + 1, 40, 40) if p.n_points >= 2]
    for spec in VERIFIED_PREDICATES:
        paths = [p for p in sample if applicable(spec, p)]
        rep = check_conservative(spec, paths, trials=conservativity_trials, seed=seed)
        results.append(CheckResult(f"conservativity of {spec.name} {spec.params or ''}".strip(),
                                   rep.ok, str(rep)))

    rep = check_conservative(PredicateSpec("contains_start"), sample, trials=1000, seed=seed)
    results.append(CheckResult("planted non-conservative predicate is detected",
                               not rep.ok, str(rep)))
    return results
