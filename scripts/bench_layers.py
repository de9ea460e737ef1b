#!/usr/bin/env python3
"""Layer timings: the saturated cover of each shipped predicate on
digitized circles of about 1k, 10k and 100k points, and the trace of
rasters of about as many pixels.

A cover row is one predicate's cover.  It gives the best time per point
over --repeat runs at each size, with the sizes interleaved; the spread of
those times across the sizes (largest over smallest); and the predicate
calls per point.  The times and counts come from `cover.complexity_probe`.

A trace row gives the best time per pixel of `trace.trace_image` under
8-adjacency and its spread, in the same way.  `trace.ring` traces the
pixels of the circle of each size, one cycle; `trace.bar` traces a solid
bar of 3 rows and about as many pixels, all of them branching, so one
junction and no edge.

The program is imported from --src (default ./src), so a second checkout
can be measured in alternation with this one.  --out appends the run to a
JSON list, with the git revision of --src, the Python version, the machine
and the date.

    python3 scripts/bench_layers.py --out BENCH_layers.json
    python3 scripts/bench_layers.py --src ../other/src --out BENCH_layers.json
"""

import argparse
import datetime
import json
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


def cover_rows(sizes, repeat: int) -> list:
    from satcover import synth
    from satcover.cover import complexity_probe
    from satcover.predicates import PredicateSpec

    paths = {size: synth.circle_path_of_size(size) for size in sizes}
    best = {}
    for _ in range(repeat):
        for size in sizes:
            for name, params in COVERS:
                (row,) = complexity_probe(PredicateSpec(name, params), [size], paths.__getitem__)
                if (name, size) not in best or row.seconds < best[name, size].seconds:
                    best[name, size] = row
    rows = []
    for name, params in COVERS:
        probe = [best[name, size] for size in sizes]
        us = [r.us_per_point for r in probe]
        rows.append({
            "layer": f"cover.{name}",
            "params": params,
            "n": [r.n_points for r in probe],
            "us_per_point": [round(u, 3) for u in us],
            "spread": round(max(us) / min(us), 3),
            "calls_per_point": [round(r.ratio, 4) for r in probe],
        })
    return rows


def trace_rows(sizes, repeat: int) -> list:
    from satcover import synth
    from satcover.paths import Adjacency
    from satcover.pbm import BinaryImage
    from satcover.trace import trace_image

    def image(pixels) -> BinaryImage:
        x0 = min(x for x, _ in pixels)
        y0 = min(y for _, y in pixels)
        fg = frozenset((x - x0, y - y0) for x, y in pixels)
        return BinaryImage(max(x for x, _ in fg) + 1, max(y for _, y in fg) + 1, fg)

    images = {}
    for size in sizes:
        images["trace.ring", size] = image(synth.circle_path_of_size(size).points)
        images["trace.bar", size] = image([(x, y) for x in range(max(1, size // 3))
                                           for y in range(3)])
    best = {}
    for _ in range(repeat):
        for key, img in images.items():
            t0 = time.perf_counter()
            trace_image(img, Adjacency.EIGHT)
            seconds = time.perf_counter() - t0
            best[key] = min(best.get(key, seconds), seconds)
    rows = []
    for layer in ("trace.ring", "trace.bar"):
        n = [len(images[layer, size].foreground) for size in sizes]
        us = [1e6 * best[layer, size] / pixels for size, pixels in zip(sizes, n)]
        rows.append({
            "layer": layer,
            "n": n,
            "us_per_pixel": [round(u, 3) for u in us],
            "spread": round(max(us) / min(us), 3),
        })
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default="src", help="directory holding the satcover package")
    ap.add_argument("--sizes", default=",".join(map(str, SIZES)),
                    help="comma-separated circle and raster sizes (default %(default)s)")
    ap.add_argument("--repeat", type=int, default=5, help="runs per size; the best counts")
    ap.add_argument("--out", help="JSON file to append this run to")
    args = ap.parse_args()
    sizes = args.sizes.split(",")
    if args.repeat < 1 or not all(s.isdigit() and int(s) > 0 for s in sizes):
        ap.error("--repeat and every size must be positive integers")
    sizes = [int(s) for s in sizes]
    src = Path(args.src).resolve()
    if not (src / "satcover" / "__init__.py").is_file():
        ap.error(f"no satcover package under {src}")
    sys.path.insert(0, str(src))
    run = {
        "revision": git_revision(src),
        "python": platform.python_version(),
        "machine": {"arch": platform.machine(), "system": platform.system(),
                    "cpus": os.cpu_count()},
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "repeat": args.repeat,
        "rows": cover_rows(sizes, args.repeat) + trace_rows(sizes, args.repeat),
    }
    print(f"revision {run['revision']}, Python {run['python']}, best of {args.repeat}")
    for row in run["rows"]:
        if "us_per_pixel" in row:
            us = " / ".join(f"{u:.2f}" for u in row["us_per_pixel"])
            print(f"{row['layer']:<18} us/pixel {us}  spread {row['spread']:.2f}")
            continue
        us = " / ".join(f"{u:.2f}" for u in row["us_per_point"])
        calls = " / ".join(f"{c:.2f}" for c in row["calls_per_point"])
        print(f"{row['layer']:<18} us/point {us}  spread {row['spread']:.2f}  calls/n {calls}")
    if args.out:
        out = Path(args.out)
        runs = json.loads(out.read_text()) if out.exists() else []
        runs.append(run)
        out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
