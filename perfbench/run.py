"""Benchmark of the satcover pipeline: raster -> path -> cover -> arc graph.

Run from the root of a source checkout (the program is imported from
./src, nothing is installed):

    python3 perfbench/run.py --workload circle-dss --seed 1 --seconds 30 --trace 0

Workloads (see README.md): circle-dss, walk-graph, raster-trace.  With
``--trace 0`` the last line of standard output is one JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  Every op's output is checked by perfbench/checks.py.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # the checks' numpy stays single-threaded

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import inputs  # noqa: E402
from spans import Tracer  # noqa: E402

SETUPS = 9  # set-ups per run; setup_s is their median
PROGRAM_MODULES = ("paths", "pbm", "trace", "predicates", "cover", "arcs", "synth")
TRACED = (
    ("pbm", "load_pbm"),
    ("trace", "components"), ("trace", "find_junctions"), ("trace", "build_curve_graph"),
    ("trace", "eulerize"), ("trace", "euler_tour"), ("trace", "euler_open_trail"),
    ("trace", "emit_path"),
    ("cover", "saturated_cover"), ("cover", "forward_cover"),
    ("arcs", "build_arc_graph"),
    ("paths", "path_from_json"), ("paths", "path_to_json"),
)
COVER_SPANS = ("cover.saturated_cover", "cover.forward_cover")
DSS_SAMPLE = 4  # dss segments checked per op by the exhaustive slope search


def load_program(src: Path) -> SimpleNamespace:
    """A fresh import of the program's modules from ``src``."""
    for name in [m for m in sys.modules if m == "satcover" or m.startswith("satcover.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    prog = SimpleNamespace(**{m: importlib.import_module(f"satcover.{m}") for m in PROGRAM_MODULES})
    if Path(prog.paths.__file__).resolve().parent != (src / "satcover").resolve():
        raise SystemExit(f"error: satcover was imported from {prog.paths.__file__}, not {src}")
    return prog


# --------------------------------------------------------------------------
# workloads
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PathOp:
    inp: inputs.PathInput
    predicate: str
    params: dict
    route: str  # "saturated" | "forward"
    expect_failure = ""

    @property
    def points(self) -> int:
        return self.inp.n_points

    @property
    def size_class(self) -> int:
        return self.inp.size_class


def run_path_op(prog, op: PathOp, tracer):
    """The ``graph`` command without disk: parse, cover, arc graph, JSON."""
    path = prog.paths.path_from_json(op.inp.text)
    spec = prog.predicates.PredicateSpec(op.predicate, dict(op.params))
    route = prog.cover.saturated_cover if op.route == "saturated" else prog.cover.forward_cover
    cov = route(path, spec)
    graph = prog.arcs.build_arc_graph(cov)
    with tracer.span("json"):
        cover_json = json.dumps(cov.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
        graph_json = json.dumps(graph.to_json_dict(), sort_keys=True, separators=(",", ":")) + "\n"
    return cover_json, graph_json


def check_path_op(prog, op: PathOp, out, rng: random.Random, state: dict) -> dict:
    cover_doc = json.loads(out[0])
    graph_doc = json.loads(out[1])
    inp = op.inp
    sample = DSS_SAMPLE if op.predicate == "dss" else None
    segs = checks.check_cover(cover_doc, inp.points, inp.closed, inp.adjacency,
                              op.predicate, op.params, sample, rng)
    if inp.size_class >= 0:
        checks.check_rotation(segs, inp.n_points, inp.rotation, state, inp.size_class)
    checks.check_arc_graph(graph_doc, segs, inp.n_points, inp.closed)
    return {"predicate_calls": cover_doc["predicate_calls"], "segments": len(segs),
            "nodes": len(graph_doc["nodes"]), "edges": len(graph_doc["edges"])}


@dataclass(frozen=True)
class RasterOp:
    inp: inputs.RasterInput
    pixels: frozenset = field(compare=False)
    predicate = ""
    size_class = -1

    @property
    def points(self) -> int:
        return len(self.pixels)

    @property
    def expect_failure(self) -> str:
        return self.inp.expect_failure


def run_raster_op(prog, op: RasterOp, tracer):
    """The ``trace`` command without disk: decode, trace, one path JSON each."""
    img = prog.pbm.load_pbm(op.inp.data)
    traces = prog.trace.trace_image(img, prog.paths.Adjacency.from_code(op.inp.adjacency))
    texts = [prog.paths.path_to_json(tr.path) for tr in traces]
    return img, traces, texts


def check_raster_op(prog, op: RasterOp, out, rng: random.Random, state: dict) -> dict:
    img, traces, texts = out
    checks.check_image(img, op.inp.mask, op.pixels)
    checks.check_traces(texts, prog.paths, op.pixels, op.inp.adjacency)
    odd = dup = 0
    for tr in traces:
        if tr.graph is None:
            continue
        deg = [0] * len(tr.graph.vertices)
        for e in tr.graph.edges:
            if e.duplicate_of is None:
                deg[e.u] += 1
                deg[e.v] += 1
            else:
                dup += 1
        odd += sum(d % 2 for d in deg)
    return {"bytes": len(op.inp.data), "cells": img.width * img.height,
            "odd_vertices": odd, "duplicated_edges": dup,
            "emitted_points": sum(tr.path.n_points for tr in traces)}


def circle_round(prog, seed: int, r: int) -> list:
    return [PathOp(inp, "dss", {}, "saturated") for inp in inputs.circle_round(prog.synth, seed, r)]


def walk_round(prog, seed: int, r: int) -> list:
    walks = inputs.walk_round(prog.synth, prog.paths, seed)
    return [PathOp(inp, name, params, route)
            for inp, (name, params, route, _) in zip(walks, inputs.WALK_OPS)]


def raster_round(prog, seed: int, r: int) -> list:
    return [RasterOp(inp, checks.mask_pixels(inp.mask))
            for inp in inputs.raster_round(prog.synth, seed)]


@dataclass(frozen=True)
class Workload:
    make_round: object
    run_op: object
    check_op: object
    warmup: int  # index in round 0 of the (cheap) untimed warm-up op


WORKLOADS = {
    "circle-dss": Workload(circle_round, run_path_op, check_path_op, 0),
    "walk-graph": Workload(walk_round, run_path_op, check_path_op, 2),
    "raster-trace": Workload(raster_round, run_raster_op, check_raster_op, 8),
}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


class NoTracer:
    """Stands in for Tracer in untraced phases."""

    op = -1

    def span(self, name):
        return contextlib.nullcontext()


@dataclass
class OpRecord:
    round: int
    points: int
    size_class: int
    predicate: str
    seconds: float
    failed: bool
    counts: dict


class Run:
    def __init__(self, wl: Workload, prog, seed: int):
        self.tracer = NoTracer()
        self.wl = wl
        self.prog = prog
        self.seed = seed
        self.log: list[OpRecord] = []
        self.correct = True
        self.rotation_refs: dict = {}

    def phase(self, first_round: int, until: float) -> int:
        """Whole rounds from ``first_round`` until the clock passes ``until``;
        returns the next round number."""
        r = first_round
        while True:
            for k, op in enumerate(self.wl.make_round(self.prog, self.seed, r)):
                self.tracer.op = len(self.log)
                t = time.perf_counter()
                try:
                    with self.tracer.span("op"):
                        out = self.wl.run_op(self.prog, op, self.tracer)
                    error = None
                except Exception as exc:  # a failed op is counted, not fatal
                    out, error = None, exc
                dt = time.perf_counter() - t
                counts = {}
                if error is not None:
                    if type(error).__name__ != op.expect_failure:
                        print(f"warning: round {r} op {k} failed: {error!r}", file=sys.stderr)
                else:
                    rng = random.Random(f"check-{self.seed}-{r}-{k}")
                    try:
                        counts = self.wl.check_op(self.prog, op, out, rng, self.rotation_refs)
                    except Exception as exc:
                        self.correct = False
                        print(f"check failed: round {r} op {k}: {exc!r}", file=sys.stderr)
                del out
                self.log.append(OpRecord(r, op.points, op.size_class, op.predicate, dt,
                                         error is not None, counts))
            r += 1
            if time.perf_counter() >= until:
                return r


def throughput(records) -> float:
    """Input points of the successful ops over their summed time."""
    ok = [rec for rec in records if not rec.failed]
    return sum(rec.points for rec in ok) / sum(rec.seconds for rec in ok)


def setup(name: str, seed: int, src: Path):
    """Import the program, make round 0's inputs and run one untimed op."""
    wl = WORKLOADS[name]
    prog = load_program(src)
    ops = wl.make_round(prog, seed, 0)
    wl.run_op(prog, ops[wl.warmup], NoTracer())
    return wl, prog


def interquartile_mean(values) -> float:
    """Mean of the middle half of the values (the first and last quarter,
    rounded down, are dropped)."""
    v = sorted(values)
    cut = len(v) // 4
    return statistics.fmean(v[cut:len(v) - cut])


def end_to_end(run: Run, setups) -> dict:
    ok = [rec.seconds for rec in run.log if not rec.failed]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "points_per_s": {"value": throughput(run.log), "unit": "1/s"},
        "op_iqm_ms": {"value": interquartile_mean(ok) * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def per_layer(run: Run, tracer: Tracer, traced_rounds: int, traced_ops: int,
              overhead: float) -> dict:
    """Per-layer metrics of the traced phase.  Times are seconds per round
    (or per point, node, cell); counts are those of round 0, which the seed
    fixes.  A layer that the workload does not run reads 0."""
    total, own = tracer.totals()
    log = run.log
    per_round = 1.0 / traced_rounds
    round0 = [i for i, rec in enumerate(log) if rec.round == 0]

    def count(key):
        return sum(log[i].counts.get(key, 0) for i in round0)

    cover_time: dict = {}
    for s in tracer.spans:
        if s.name in COVER_SPANS:
            rec = log[s.op]
            key = (rec.predicate, rec.size_class)
            t, pts = cover_time.get(key, (0.0, 0))
            cover_time[key] = (t + s.end - s.start, pts + rec.points)

    def ns_per_point(pred, size_class=None):
        items = [v for (p, c), v in cover_time.items()
                 if p == pred and (size_class is None or c == size_class)]
        pts = sum(v[1] for v in items)
        return sum(v[0] for v in items) / pts * 1e9 if pts else 0.0

    dss_classes = sorted(c for p, c in cover_time if p == "dss")
    spread = (ns_per_point("dss", dss_classes[-1]) / ns_per_point("dss", dss_classes[0])
              if dss_classes else 0.0)
    n_points = sum(log[i].points for i in round0 if "predicate_calls" in log[i].counts)
    nodes_traced = sum(rec.counts.get("nodes", 0) for rec in log[:traced_ops])
    cells_traced = sum(rec.counts.get("cells", 0) for rec in log[:traced_ops])
    load_ok = sum(s.end - s.start for s in tracer.spans
                  if s.name == "pbm.load_pbm" and not log[s.op].failed)
    pixels0 = sum(log[i].points for i in round0 if "emitted_points" in log[i].counts)
    components_calls0 = sum(1 for s in tracer.spans
                            if s.name == "trace.components" and log[s.op].round == 0)

    def m(value, unit):
        return {"value": value, "unit": unit}

    return {
        "cover.dss.ns_per_point": m(ns_per_point("dss"), "ns/point"),
        "cover.dss.time_spread": m(spread, "ratio"),
        "cover.max_len.ns_per_point": m(ns_per_point("max_len"), "ns/point"),
        "cover.bbox.ns_per_point": m(ns_per_point("bbox"), "ns/point"),
        "cover.x_monotone.ns_per_point": m(ns_per_point("x_monotone"), "ns/point"),
        "cover.forward_s": m(total["cover.forward_cover"] * per_round, "s"),
        "cover.predicate_calls": m(count("predicate_calls"), "count"),
        "cover.calls_per_point": m(count("predicate_calls") / n_points if n_points else 0.0,
                                   "calls/point"),
        "cover.segments": m(count("segments"), "count"),
        "arcs.s": m(total["arcs.build_arc_graph"] * per_round, "s"),
        "arcs.us_per_node": m(total["arcs.build_arc_graph"] / nodes_traced * 1e6
                              if nodes_traced else 0.0, "us/node"),
        "arcs.nodes": m(count("nodes"), "count"),
        "arcs.edges": m(count("edges"), "count"),
        "pbm.load_s": m(total["pbm.load_pbm"] * per_round, "s"),
        "pbm.bytes": m(count("bytes"), "B"),
        "pbm.load_ns_per_cell": m(load_ok / cells_traced * 1e9 if cells_traced else 0.0,
                                  "ns/cell"),
        "trace.components_s": m(total["trace.components"] * per_round, "s"),
        "trace.components_calls": m(components_calls0, "count"),
        "trace.junctions_s": m(total["trace.find_junctions"] * per_round, "s"),
        "trace.curve_graph_s": m(own["trace.build_curve_graph"] * per_round, "s"),
        "trace.eulerize_s": m(total["trace.eulerize"] * per_round, "s"),
        "trace.odd_vertices": m(count("odd_vertices"), "count"),
        "trace.duplicated_edges": m(count("duplicated_edges"), "count"),
        "trace.tour_s": m((total["trace.euler_tour"] + total["trace.euler_open_trail"])
                          * per_round, "s"),
        "trace.emit_s": m(total["trace.emit_path"] * per_round, "s"),
        "trace.emitted_points": m(count("emitted_points"), "count"),
        "trace.revisit_ratio": m(count("emitted_points") / pixels0 if pixels0 else 0.0, "ratio"),
        "paths.parse_s": m(total["paths.path_from_json"] * per_round, "s"),
        "paths.dump_s": m(total["paths.path_to_json"] * per_round, "s"),
        "json.s": m(total["json"] * per_round, "s"),
        "tracing.overhead": m(overhead, "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "satcover" / "__init__.py").is_file():
        print(f"error: no satcover sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    setups = []
    start = _T0
    for _ in range(SETUPS):
        wl, prog = setup(args.workload, args.seed, src)
        now = time.perf_counter()
        setups.append(now - start)
        start = now

    run = Run(wl, prog, args.seed)
    if not args.trace:
        run.phase(0, time.perf_counter() + args.seconds)
        metrics = end_to_end(run, setups)
    else:
        half = time.perf_counter() + args.seconds / 2
        tracer = Tracer()
        for module, attr in TRACED:
            tracer.wrap(getattr(prog, module), attr)
        run.tracer = tracer
        try:
            next_round = run.phase(0, half)
        finally:
            tracer.unwrap_all()
            run.tracer = NoTracer()
        traced = len(run.log)
        run.phase(next_round, half + args.seconds / 2)
        overhead = throughput(run.log[traced:]) / throughput(run.log[:traced])
        metrics = per_layer(run, tracer, next_round, traced, overhead)

    busy = sum(rec.seconds for rec in run.log)
    print(f"{args.workload} seed {args.seed}: {len(run.log)} ops in {run.log[-1].round + 1} rounds, "
          f"{busy:.2f} s in ops, {time.perf_counter() - _T0:.2f} s in all", file=sys.stderr)
    result = {
        "correct": run.correct,
        "attempted": len(run.log),
        "failed": sum(rec.failed for rec in run.log),
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
