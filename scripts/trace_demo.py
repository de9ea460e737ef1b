#!/usr/bin/env python3
"""End-to-end demo: raster -> traced paths -> covers -> SVG renders.

Writes demo.pbm, one path JSON per component, cover JSON and two SVGs
into --out-dir (default ./demo_out).
"""

import argparse
import json
import sys
from pathlib import Path

from satcover.arcs import build_arc_graph
from satcover.cover import saturated_cover
from satcover.paths import Adjacency, path_to_json
from satcover.pbm import dump_p1, image_from_ascii
from satcover.predicates import PredicateSpec
from satcover.svg import render_cover_svg, render_trace_svg
from satcover.trace import trace_image

ART = """
.#.........###....
###........#.#....
.#.........#.#....
.#..........#.....
.############.....
.#............####
.#............#..#
.#............####
"""


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out-dir", default="demo_out")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    img = image_from_ascii(ART)
    (out / "demo.pbm").write_bytes(dump_p1(img))

    traces = trace_image(img, Adjacency.FOUR)
    junction_pixels = {p for tr in traces if tr.graph is not None
                       for v in tr.graph.vertices if v.kind == "junction" for p in v.pixels}
    (out / "demo_trace.svg").write_text(
        render_trace_svg(img, junction_pixels, [t.path for t in traces]))

    spec = PredicateSpec("dss")
    for i, tr in enumerate(traces):
        (out / f"demo_c{i}.json").write_text(path_to_json(tr.path) + "\n")
        cover = saturated_cover(tr.path, spec)
        (out / f"demo_c{i}.cover.json").write_text(
            json.dumps(cover.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n")
        graph = build_arc_graph(cover)
        print(f"component {i}: {tr.path.n_points} points, "
              f"{len(cover.segments)} maximal segments, "
              f"{cover.predicate_calls} predicate calls, proper={graph.proper}")
        (out / f"demo_c{i}.cover.svg").write_text(render_cover_svg(tr.path, cover))
    print(f"wrote {len(traces)} components to {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
