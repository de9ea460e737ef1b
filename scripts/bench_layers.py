#!/usr/bin/env python3
"""Layer timings: the saturated cover of each shipped predicate on
digitized circles and seeded random walks of about 1k, 10k and 100k
points, and the trace of rasters of about as many pixels.

A cover row is one predicate's cover.  It gives the best time per point
over --repeat runs at each size, with the sizes interleaved; the spread of
those times across the sizes (largest over smallest); and the predicate
calls per point.  The times and counts come from `cover.complexity_probe`.
`cover.<pred>` rows run on circles, where windows are long;
`cover.<pred>.walk` rows run on 8-connected random walks (seed 7), where
most windows hold a point or two.

A trace row gives the best time per pixel of `trace.trace_image` under
8-adjacency and its spread, in the same way.  `trace.ring` traces the
pixels of the circle of each size, one cycle; `trace.bar` traces a solid
bar of 3 rows and about as many pixels, all of them branching, so one
junction and no edge.

The raster rows start from P4 bytes.  `pbm.load` times `pbm.load_pbm` on
a grid of 1k-pixel rings with about as many pixels as each size, per
pixel and per cell of the image (a single 100k-pixel ring would need a
box of over a billion cells).  `trace.pbm.ring`, `trace.pbm.bar` and
`trace.pbm.comb` time what the `trace` command does without the disk:
`load_pbm`, `trace_image` and `paths.path_to_json` of every component, per
pixel, on that grid of rings, on the bar, and on a comb (a one-pixel spine
with a 19-pixel tooth every 4 columns, whose junctions are small).

Every row also gives, at each size, the garbage collector's gen 0, 1 and
2 collections during one untimed call made after a full collection.

The program is imported from --src (default ./src), so a second checkout
can be measured in alternation with this one.  --out appends the run to a
JSON list, with the git revision of --src, the Python version, the machine
and the date.  --alternate PARENT_SRC measures PARENT_SRC, then --src,
each in a fresh process, and appends both runs, each with its side,
"parent" or "change".

    python3 scripts/bench_layers.py --out BENCH_layers.json
    python3 scripts/bench_layers.py --src ../other/src --out BENCH_layers.json
    python3 scripts/bench_layers.py --alternate ../parent/src --out BENCH_layers.json
"""

import argparse
import datetime
import gc
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

COVERS = (
    ("dss", {}),
    ("max_len", {"k": 8}),
    ("bbox", {"w": 5, "h": 5}),
    ("x_monotone", {}),
)
SIZES = (1_000, 10_000, 100_000)


def git_revision(src: Path):
    """The short commit of the checkout holding `src`, with "-dirty" when
    files under `src` differ from it; None outside a git checkout."""
    def git(*args):
        return subprocess.run(["git", "-C", str(src), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        rev = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--", ".")
    except (OSError, subprocess.CalledProcessError):
        return None
    return rev + ("-dirty" if dirty else "")


def collections(call) -> list:
    """The gen 0, 1 and 2 collections during one call of `call`, made
    after a full collection, counted through `gc.callbacks`."""
    counts = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            counts[info["generation"]] += 1

    gc.collect()
    gc.callbacks.append(count)
    try:
        call()
    finally:
        gc.callbacks.remove(count)
    return counts


def cover_rows(sizes, repeat: int) -> list:
    from satcover import synth
    from satcover.cover import complexity_probe
    from satcover.paths import Adjacency
    from satcover.predicates import PredicateSpec

    shapes = {
        "": lambda size: synth.circle_path_of_size(size),
        ".walk": lambda size: synth.random_walk_path(size, Adjacency.EIGHT, seed=7),
    }
    paths = {(shape, size): make(size) for shape, make in shapes.items() for size in sizes}

    def cover(name, params, shape, size):
        (row,) = complexity_probe(PredicateSpec(name, params), [size],
                                  lambda size: paths[shape, size])
        return row

    best = {}
    for _ in range(repeat):
        for size in sizes:
            for shape in shapes:
                for name, params in COVERS:
                    row = cover(name, params, shape, size)
                    key = name, shape, size
                    if key not in best or row.seconds < best[key].seconds:
                        best[key] = row
    rows = []
    for shape in shapes:
        for name, params in COVERS:
            probe = [best[name, shape, size] for size in sizes]
            us = [r.us_per_point for r in probe]
            rows.append({
                "layer": f"cover.{name}{shape}",
                "params": params,
                "n": [r.n_points for r in probe],
                "us_per_point": [round(u, 3) for u in us],
                "spread": round(max(us) / min(us), 3),
                "calls_per_point": [round(r.ratio, 4) for r in probe],
                "gc": [collections(lambda size=size: cover(name, params, shape, size))
                       for size in sizes],
            })
    return rows


def best_seconds(cases: dict, repeat: int) -> tuple:
    """The best time of each case's call over `repeat` rounds, the cases
    interleaved within each round, and the collections of each case's call
    (see `collections`)."""
    best = {}
    for _ in range(repeat):
        for key, call in cases.items():
            t0 = time.perf_counter()
            call()
            seconds = time.perf_counter() - t0
            best[key] = min(best.get(key, seconds), seconds)
    return best, {key: collections(call) for key, call in cases.items()}


def per_pixel_row(layer: str, n: list, seconds: list, gcs: list) -> dict:
    us = [1e6 * s / pixels for s, pixels in zip(seconds, n)]
    return {"layer": layer, "n": n, "us_per_pixel": [round(u, 3) for u in us],
            "spread": round(max(us) / min(us), 3), "gc": gcs}


def moved_in(pixels) -> tuple:
    """The size of the image that holds `pixels` moved to touch its top and
    left borders, and the moved pixels."""
    x0 = min(x for x, _ in pixels)
    y0 = min(y for _, y in pixels)
    fg = frozenset((x - x0, y - y0) for x, y in pixels)
    return max(x for x, _ in fg) + 1, max(y for _, y in fg) + 1, fg


def ring_grid(size: int) -> tuple:
    """About `size` pixels as a square grid of 1k-pixel rings, 2 cells
    apart."""
    from satcover import synth

    w, h, ring = moved_in(synth.circle_path_of_size(1_000).points)
    count = max(1, round(size / len(ring)))
    side = math.isqrt(count - 1) + 1
    fg = frozenset((x + (w + 2) * (k % side), y + (h + 2) * (k // side))
                   for k in range(count) for x, y in ring)
    return side * (w + 2) - 2, (count - 1) // side * (h + 2) + h, fg


def bar(size: int) -> tuple:
    """A solid bar of 3 rows and about `size` pixels."""
    width = max(1, size // 3)
    return width, 3, frozenset((x, y) for x in range(width) for y in range(3))


def comb(size: int) -> tuple:
    """A one-pixel spine along the top row with a 19-pixel tooth every 4
    columns, about `size` pixels."""
    teeth = max(1, size // 23)
    fg = {(x, 0) for x in range(4 * teeth)}
    fg.update((4 * i + 2, y) for i in range(teeth) for y in range(1, 20))
    return 4 * teeth, 20, frozenset(fg)


def p4(width: int, height: int, fg) -> bytes:
    """The P4 file of the image, set pixel by pixel.  It is written here,
    not by `pbm.dump_p4`, so that the inputs do not depend on the code
    under measurement."""
    row_bytes = (width + 7) // 8
    raster = bytearray(row_bytes * height)
    for x, y in fg:
        raster[y * row_bytes + (x >> 3)] |= 0x80 >> (x & 7)
    return b"P4\n%d %d\n" % (width, height) + bytes(raster)


def trace_rows(sizes, repeat: int) -> list:
    from satcover import synth
    from satcover.paths import Adjacency
    from satcover.pbm import BinaryImage
    from satcover.trace import trace_image

    images = {}
    for size in sizes:
        images["trace.ring", size] = BinaryImage(*moved_in(synth.circle_path_of_size(size).points))
        images["trace.bar", size] = BinaryImage(*bar(size))
    best, gcs = best_seconds({key: lambda img=img: trace_image(img, Adjacency.EIGHT)
                              for key, img in images.items()}, repeat)
    return [per_pixel_row(layer, [len(images[layer, size].foreground) for size in sizes],
                          [best[layer, size] for size in sizes],
                          [gcs[layer, size] for size in sizes])
            for layer in ("trace.ring", "trace.bar")]


def raster_rows(sizes, repeat: int) -> list:
    from satcover.paths import Adjacency, path_to_json
    from satcover.pbm import load_pbm
    from satcover.trace import trace_image

    def traced(data: bytes) -> list:
        return [path_to_json(tr.path) for tr in trace_image(load_pbm(data), Adjacency.EIGHT)]

    shapes = {"ring": ring_grid, "bar": bar, "comb": comb}
    rasters = {}  # (shape, size) -> (P4 bytes, pixels, cells)
    for size in sizes:
        for shape, make in shapes.items():
            w, h, fg = make(size)
            rasters[shape, size] = (p4(w, h, fg), len(fg), w * h)
    cases = {("pbm.load", size): lambda data=rasters["ring", size][0]: load_pbm(data)
             for size in sizes}
    cases.update({(f"trace.pbm.{shape}", size): lambda data=data: traced(data)
                  for (shape, size), (data, _, _) in rasters.items()})
    best, gcs = best_seconds(cases, repeat)
    rings = [rasters["ring", size] for size in sizes]
    load = per_pixel_row("pbm.load", [pixels for _, pixels, _ in rings],
                         [best["pbm.load", size] for size in sizes],
                         [gcs["pbm.load", size] for size in sizes])
    load["cells"] = [cells for _, _, cells in rings]
    load["ns_per_cell"] = [round(1e9 * best["pbm.load", size] / cells, 3)
                           for size, (_, _, cells) in zip(sizes, rings)]
    return [load] + [per_pixel_row(f"trace.pbm.{shape}", [rasters[shape, size][1] for size in sizes],
                                   [best[f"trace.pbm.{shape}", size] for size in sizes],
                                   [gcs[f"trace.pbm.{shape}", size] for size in sizes])
                     for shape in shapes]


def alternate(args) -> int:
    """Measure the parent's sources, then --src, each in a fresh process,
    and record each run's side in --out."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--sizes", args.sizes,
           "--repeat", str(args.repeat)] + (["--out", args.out] if args.out else [])
    for side, src in (("parent", args.alternate), ("change", args.src)):
        print(f"{side}: {src}", flush=True)
        subprocess.run(cmd + ["--src", src], check=True)
        if args.out:
            out = Path(args.out)
            runs = json.loads(out.read_text())
            runs[-1]["side"] = side
            out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="directory holding the satcover package")
    ap.add_argument("--sizes", default=",".join(map(str, SIZES)),
                    help="comma-separated circle, walk and raster sizes (default %(default)s)")
    ap.add_argument("--repeat", type=int, default=5, help="runs per size; the best counts")
    ap.add_argument("--out", help="JSON file to append this run to")
    ap.add_argument("--alternate", metavar="PARENT_SRC",
                    help="measure PARENT_SRC, then --src, each in a fresh process")
    args = ap.parse_args()
    sizes = args.sizes.split(",")
    if args.repeat < 1 or not all(s.isdigit() and int(s) > 0 for s in sizes):
        ap.error("--repeat and every size must be positive integers")
    sizes = [int(s) for s in sizes]
    for src in [args.src] + ([args.alternate] if args.alternate else []):
        if not (Path(src).resolve() / "satcover" / "__init__.py").is_file():
            ap.error(f"no satcover package under {Path(src).resolve()}")
    if args.alternate:
        return alternate(args)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    run = {
        "revision": git_revision(src),
        "python": platform.python_version(),
        "machine": {"arch": platform.machine(), "system": platform.system(),
                    "cpus": os.cpu_count()},
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "repeat": args.repeat,
        "rows": (cover_rows(sizes, args.repeat) + trace_rows(sizes, args.repeat)
                 + raster_rows(sizes, args.repeat)),
    }
    print(f"revision {run['revision']}, Python {run['python']}, best of {args.repeat}")
    for row in run["rows"]:
        gcs = "  gc " + " / ".join(",".join(map(str, counts)) for counts in row["gc"])
        if "us_per_pixel" in row:
            us = " / ".join(f"{u:.2f}" for u in row["us_per_pixel"])
            cells = ""
            if "ns_per_cell" in row:
                cells = "  ns/cell " + " / ".join(f"{c:.2f}" for c in row["ns_per_cell"])
            print(f"{row['layer']:<22} us/pixel {us}  spread {row['spread']:.2f}{cells}{gcs}")
            continue
        us = " / ".join(f"{u:.2f}" for u in row["us_per_point"])
        calls = " / ".join(f"{c:.2f}" for c in row["calls_per_point"])
        print(f"{row['layer']:<22} us/point {us}  spread {row['spread']:.2f}  calls/n {calls}{gcs}")
    if args.out:
        out = Path(args.out)
        runs = json.loads(out.read_text()) if out.exists() else []
        runs.append(run)
        out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
