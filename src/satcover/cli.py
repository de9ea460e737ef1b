"""Command-line front end: trace, cover, graph, verify, probe."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path as FsPath

from . import synth
from .arcs import build_arc_graph
from .cover import CoverCapError, brute_force_cover, complexity_probe, forward_cover, saturated_cover
from .paths import Adjacency, PathFormatError, path_from_json, path_to_json
from .pbm import PbmError, load_pbm
from .predicates import PredicateError, PredicateSpec, list_predicates
from .svg import render_cover_svg, render_trace_svg
from .trace import OddVerticesError, TraceError, trace_image
from .verify import run_verification

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_CPP_CAP = 3


class UsageError(ValueError):
    """A command-line value outside its allowed range."""


def _positive(option: str, value: int, least: int = 1) -> int:
    if value < least:
        bound = f" of at least {least}" if least > 1 else ""
        raise UsageError(f"{option} must be a positive integer{bound}, got {value}")
    return value


def _atomic_write(path: FsPath, data: str | bytes) -> None:
    """Write `data` to `path` through a temporary file beside it; an OSError
    names `path`, not the temporary file, which never stays behind."""
    mode = "wb" if isinstance(data, bytes) else "w"
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=path.name + ".")
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _emit(doc: str, output) -> None:
    """Write a document to the file `output`, or to stdout when there is none."""
    if output:
        _atomic_write(FsPath(output), doc)
    else:
        sys.stdout.write(doc)


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _parse_params(items) -> dict:
    params = {}
    for item in items or ():
        if "=" not in item:
            raise PredicateError(f"--param wants k=v, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in params:
            raise PredicateError(f"--param {key} given more than once")
        try:
            params[key] = int(value)
        except ValueError:
            raise PredicateError(f"parameter {key!r} must be an integer, got {value!r}") from None
    return params


def _spec_from_args(args) -> PredicateSpec:
    if any(info.name == args.predicate and not info.conservative for info in list_predicates()):
        raise PredicateError(f"predicate {args.predicate!r} is not conservative; "
                             "covers need a conservative predicate")
    return PredicateSpec(args.predicate, _parse_params(args.param))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satcover",
                                     description="saturated subpath covers of digital paths")
    parser.add_argument("--list-predicates", action="store_true",
                        help="list registered predicates and exit")
    sub = parser.add_subparsers(dest="command")

    p_trace = sub.add_parser("trace", help="binary image (PBM) to one path JSON per component")
    p_trace.add_argument("image", help="PBM file (P1 or P4)")
    p_trace.add_argument("--adjacency", choices=("4", "8"), default="8")
    p_trace.add_argument("--out-dir", default=None, help="output directory (default: alongside input)")
    p_trace.add_argument("--emit-graph", action="store_true", help="also write curve-graph JSON")
    p_trace.add_argument("--svg", default=None, help="render image, junctions and paths to SVG")
    p_trace.set_defaults(run=_cmd_trace)

    p_cover = sub.add_parser("cover", help="saturated cover of a path JSON")
    p_cover.add_argument("path", help="path JSON file")
    p_cover.add_argument("--predicate", required=True)
    p_cover.add_argument("--param", action="append", metavar="K=V")
    p_cover.add_argument("--forward", action="store_true", help="use the forward-only sweep")
    p_cover.add_argument("--oracle", action="store_true",
                         help="cross-check against the brute-force cover; nonzero exit on mismatch")
    p_cover.add_argument("--svg", default=None, help="render path, segments and arc diagram")
    p_cover.add_argument("-o", "--output", default=None, help="write cover JSON here (default stdout)")
    p_cover.set_defaults(run=_cmd_cover)

    p_graph = sub.add_parser("graph", help="circular-arc graph of a cover")
    p_graph.add_argument("path", help="path JSON file")
    p_graph.add_argument("--predicate", required=True)
    p_graph.add_argument("--param", action="append", metavar="K=V")
    p_graph.add_argument("--forward", action="store_true", help="use the forward-only sweep")
    p_graph.add_argument("--dot", default=None, help="also write Graphviz DOT here")
    p_graph.add_argument("-o", "--output", default=None)
    p_graph.set_defaults(run=_cmd_graph)

    p_verify = sub.add_parser("verify", help="run the randomized invariant suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--count", type=int, default=120, help="number of random paths")
    p_verify.add_argument("--max-points", type=int, default=120)
    p_verify.add_argument("--trials", type=int, default=10_000, help="conservativity trials")
    p_verify.set_defaults(run=_cmd_verify)

    p_probe = sub.add_parser("probe", help="predicate-call counts across path sizes")
    p_probe.add_argument("--predicate", required=True)
    p_probe.add_argument("--param", action="append", metavar="K=V")
    p_probe.add_argument("--sizes", default="1000,10000,100000",
                         help="comma-separated path sizes; each row's n is the point "
                              "count of the path generated for that size")
    p_probe.add_argument("--shape", choices=("circle", "line", "walk"), default="circle")
    p_probe.add_argument("--adjacency", choices=("4", "8", "index"), default="8",
                         help="adjacency of lines and walks (circles are 8-connected)")
    p_probe.add_argument("--closed", action="store_true",
                         help="generate closed walks (circles are always closed)")
    p_probe.add_argument("--seed", type=int, default=0)
    p_probe.add_argument("-o", "--output", default=None)
    p_probe.set_defaults(run=_cmd_probe)
    return parser


def _cmd_trace(args) -> int:
    src = FsPath(args.image)
    img = load_pbm(src.read_bytes())
    traces = trace_image(img, Adjacency.from_code(args.adjacency))
    # the side file first, as `cover` and `graph` write theirs, and the
    # listing only once every file is written
    if args.svg:
        junction_pixels = {p for tr in traces if tr.graph is not None
                           for v in tr.graph.vertices if v.kind == "junction" for p in v.pixels}
        svg = render_trace_svg(img, junction_pixels, [tr.path for tr in traces])
        _atomic_write(FsPath(args.svg), svg)
    out_dir = FsPath(args.out_dir) if args.out_dir else src.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = src.stem
    written = []
    for i, tr in enumerate(traces):
        target = out_dir / f"{stem}_c{i}.json"
        _atomic_write(target, path_to_json(tr.path) + "\n")
        written.append(target)
        if args.emit_graph and tr.graph is not None:
            gtarget = out_dir / f"{stem}_c{i}.graph.json"
            _atomic_write(gtarget, _dump(tr.graph.to_json_dict()))
            written.append(gtarget)
    for target in written:
        print(target)
    return EXIT_OK


def _cover_of(args):
    """The path, predicate spec and cover that `cover` and `graph` read from
    `args`, on the route `--forward` picks."""
    path = path_from_json(FsPath(args.path).read_bytes())
    spec = _spec_from_args(args)
    route = forward_cover if args.forward else saturated_cover
    return path, spec, route(path, spec)


def _cmd_cover(args) -> int:
    path, spec, cover = _cover_of(args)
    if args.oracle:
        oracle = brute_force_cover(path, spec)
        if oracle.segments != cover.segments:
            print(f"oracle mismatch: sweep {list(cover.segments)} vs brute force "
                  f"{list(oracle.segments)}", file=sys.stderr)
            return EXIT_FAIL
    if args.svg:
        _atomic_write(FsPath(args.svg), render_cover_svg(path, cover))
    _emit(_dump(cover.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_graph(args) -> int:
    graph = build_arc_graph(_cover_of(args)[2])
    if args.dot:
        _atomic_write(FsPath(args.dot), graph.to_dot())
    _emit(_dump(graph.to_json_dict()), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    for option, value in (("--count", args.count), ("--max-points", args.max_points),
                          ("--trials", args.trials)):
        _positive(option, value)
    results = run_verification(seed=args.seed, count=args.count,
                               max_points=args.max_points,
                               conservativity_trials=args.trials)
    ok = True
    for res in results:
        print(res.line())
        ok = ok and res.ok
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_probe(args) -> int:
    spec = _spec_from_args(args)
    # no digitized circle has fewer than 4 points
    least = 4 if args.shape == "circle" else 1
    try:
        sizes = [_positive(f"--sizes entry for --shape {args.shape}", int(s), least)
                 for s in args.sizes.split(",") if s]
        if not sizes:
            raise UsageError("--sizes must list at least one positive integer")
        factory = synth.shape_factory(args.shape, Adjacency.from_code(args.adjacency),
                                      seed=args.seed, closed=args.closed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    rows = complexity_probe(spec, sizes, factory)
    # the file first, so a refused -o prints no table
    if args.output:
        doc = _dump([{"n": r.n_points, "calls": r.predicate_calls, "ratio": r.ratio,
                      "seconds": r.seconds} for r in rows])
        _atomic_write(FsPath(args.output), doc)
    print(f"{'n':>10} {'calls':>12} {'calls/n':>10} {'seconds':>10} {'us/n':>10}")
    for row in rows:
        print(f"{row.n_points:>10} {row.predicate_calls:>12} {row.ratio:>10.3f} "
              f"{row.seconds:>10.3f} {row.us_per_point:>10.2f}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_predicates:
        for info in list_predicates():
            params = ", ".join(info.params) if info.params else "-"
            flag = "" if info.conservative else "  [non-conservative]"
            print(f"{info.name:<16} params: {params:<8} {info.doc}{flag}")
        return EXIT_OK
    if not args.command:
        parser.print_help()
        return EXIT_BAD_INPUT
    try:
        return args.run(args)
    except OddVerticesError as exc:
        code, message = EXIT_CPP_CAP, str(exc)
    except PbmError as exc:
        code, message = EXIT_BAD_INPUT, f"malformed PBM: {exc}"
    except (OSError, PathFormatError, PredicateError, TraceError, CoverCapError,
            UsageError) as exc:
        code, message = EXIT_BAD_INPUT, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
