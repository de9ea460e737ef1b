"""Self-test of perfbench/checks.py: every check accepts the program's
output and rejects that output corrupted.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Corruptions: a cover segment dropped, a segment grown by one point, an
arc-graph edge removed, a circle cover rotated the wrong way, a pixel
missing from a traced path, and a pixel missing from a decoded image.
Exits 0 when each clean output passes and each corrupted one is rejected.
"""

from __future__ import annotations

import copy
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402
from satcover import arcs, cover, paths, pbm, predicates, synth, trace  # noqa: E402

FAILURES = []


def expect(ok_expected: bool, label: str, fn) -> None:
    try:
        fn()
        ok = True
        why = ""
    except checks.CheckError as exc:
        ok = False
        why = f" ({exc})"
    verdict = "accepted" if ok else "rejected"
    good = ok == ok_expected
    print(f"{'ok ' if good else 'BAD'} {label}: {verdict}{why}")
    if not good:
        FAILURES.append(label)


def cover_cases(label, path_input: inputs.PathInput, name: str, params: dict) -> None:
    path = paths.path_from_json(path_input.text)
    cov = cover.saturated_cover(path, predicates.PredicateSpec(name, params))
    doc = json.loads(json.dumps(cov.to_json_dict()))
    graph = json.loads(json.dumps(arcs.build_arc_graph(cov).to_json_dict()))
    args = (path_input.points, path_input.closed, path_input.adjacency, name, params, None,
            random.Random(0))
    segs = [(s["start"], s["len"]) for s in doc["segments"]]
    m = len(segs)

    expect(True, f"{label}: clean cover", lambda: checks.check_cover(doc, *args))
    for i in (0, m // 2, m - 1):
        dropped = copy.deepcopy(doc)
        del dropped["segments"][i]
        expect(False, f"{label}: segment {i} dropped", lambda d=dropped: checks.check_cover(d, *args))
        grown = copy.deepcopy(doc)
        grown["segments"][i]["len"] += 1
        expect(False, f"{label}: segment {i} grown by one point",
               lambda d=grown: checks.check_cover(d, *args))

    expect(True, f"{label}: clean arc graph",
           lambda: checks.check_arc_graph(graph, segs, path_input.n_points, path_input.closed))
    if graph["edges"]:
        cut = copy.deepcopy(graph)
        del cut["edges"][len(cut["edges"]) // 2]
        expect(False, f"{label}: arc-graph edge removed",
               lambda: checks.check_arc_graph(cut, segs, path_input.n_points, path_input.closed))


def main() -> int:
    circle = inputs.circle_round(synth, seed=0, round_no=0)[0]
    for name, params in (("dss", {}), ("max_len", {"k": 8}), ("bbox", {"w": 5, "h": 5}),
                         ("x_monotone", {})):
        cover_cases(f"circle {name}", circle, name, params)
    walks = inputs.walk_round(synth, paths, seed=0, n_points=300)
    for walk, (name, params, _, _) in zip(walks, inputs.WALK_OPS):
        cover_cases(f"walk closed={walk.closed} adj={walk.adjacency} {name}", walk, name, params)

    # rotation: a cover moved by the wrong offset differs from the reference
    path = paths.path_from_json(circle.text)
    segs = [(s.start, s.length) for s in
            cover.saturated_cover(path, predicates.PredicateSpec("dss", {})).segments]
    refs: dict = {}
    expect(True, "rotation: reference",
           lambda: checks.check_rotation(segs, circle.n_points, circle.rotation, refs, 0))
    expect(False, "rotation: off by one",
           lambda: checks.check_rotation(segs, circle.n_points, circle.rotation + 1, refs, 0))

    rasters = inputs.raster_round(synth, seed=0)
    for ri in rasters:
        if ri.expect_failure:
            continue
        pixels = checks.mask_pixels(ri.mask)
        img = pbm.load_pbm(ri.data)
        expect(True, f"{ri.name}: clean image", lambda: checks.check_image(img, ri.mask, pixels))
        holed = pbm.BinaryImage(img.width, img.height, img.foreground - {min(img.foreground)})
        expect(False, f"{ri.name}: image pixel missing",
               lambda: checks.check_image(holed, ri.mask, pixels))
        texts = [paths.path_to_json(tr.path)
                 for tr in trace.trace_image(img, paths.Adjacency.from_code(ri.adjacency))]
        expect(True, f"{ri.name}: clean traces",
               lambda: checks.check_traces(texts, paths, pixels, ri.adjacency))
        doc = json.loads(texts[-1])
        for k in (0, len(doc["points"]) // 2, len(doc["points"]) - 1):
            gone = doc["points"][k]
            short = dict(doc, points=[p for p in doc["points"] if p != gone])
            bad = texts[:-1] + [json.dumps(short)]
            expect(False, f"{ri.name}: pixel {tuple(gone)} missing from a path",
                   lambda b=bad: checks.check_traces(b, paths, pixels, ri.adjacency))

    print(f"{len(FAILURES)} case(s) wrong" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
