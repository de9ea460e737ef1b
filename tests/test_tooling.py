"""Checks on the repository around the program: the benchmark harness
wraps program functions by name, and a function it names must exist, or
only a traced benchmark run would notice; the program has no runtime
dependencies (`pyproject.toml` lists none), so it imports only the
standard library and itself, and every name it imports is read; and the
layer-timing script runs and writes the keys its readers expect."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
BENCH_LAYERS = ROOT / "scripts" / "bench_layers.py"


def _assigned(name: str):
    """The literal value assigned to `name` at the top of perfbench/run.py."""
    for node in ast.parse(RUN.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {RUN.name}")


def test_traced_spans_resolve():
    traced = _assigned("TRACED")
    assert traced
    for module, attr in traced:
        assert callable(getattr(importlib.import_module(f"satcover.{module}"), attr, None)), \
            f"satcover.{module}.{attr}"


def _imports(source: Path):
    """(line, imported module names) of each absolute import in `source`."""
    for node in ast.walk(ast.parse(source.read_text(), str(source))):
        if isinstance(node, ast.Import):
            yield node.lineno, [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.lineno, [node.module]


def test_program_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "satcover").glob("*.py"))
    assert sources
    for source in sources:
        for lineno, names in _imports(source):
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, \
                    f"{source.name}:{lineno} imports {name}"


def test_program_has_no_unused_imports():
    """Every name a module of the program imports is read in that module;
    `__init__.py` is left out, since its imports are the package's exports."""
    sources = sorted(set((ROOT / "src" / "satcover").glob("*.py"))
                     - {ROOT / "src" / "satcover" / "__init__.py"})
    assert sources
    for source in sources:
        tree = ast.parse(source.read_text(), str(source))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    assert name in read, f"{source.name}:{node.lineno} imports {name} unread"


def test_bench_layers_smoke(tmp_path):
    """One run on the 1k circle, the 1k walk and the 1k rasters only, then
    an --alternate pair of this checkout against itself, all appended to the
    same file: every row, the walk and P4 rows included, has its keys, and
    each run of the pair its side; no timing and no collection count is
    asserted."""
    for lineno, names in _imports(BENCH_LAYERS):
        for name in names:
            top = name.partition(".")[0]
            assert top in sys.stdlib_module_names or top == "satcover", f"{lineno}: {name}"
    out = tmp_path / "BENCH_layers.json"
    cmd = [sys.executable, str(BENCH_LAYERS), "--src", str(ROOT / "src"),
           "--sizes", "1000", "--repeat", "1", "--out", str(out)]
    subprocess.run(cmd, check=True, capture_output=True, timeout=60)
    subprocess.run(cmd + ["--alternate", str(ROOT / "src")], check=True, capture_output=True,
                   timeout=120)
    runs = json.loads(out.read_text())
    assert len(runs) == 3
    keys = {"revision", "python", "machine", "date", "repeat", "rows"}
    assert set(runs[0]) == keys
    assert [set(run) for run in runs[1:]] == [keys | {"side"}] * 2
    assert [run["side"] for run in runs[1:]] == ["parent", "change"]
    covers = [f"cover.{name}{shape}" for shape in ("", ".walk")
              for name in ("dss", "max_len", "bbox", "x_monotone")]
    for run in runs:
        assert [row["layer"] for row in run["rows"]] == covers + \
            ["trace.ring", "trace.bar", "pbm.load", "trace.pbm.ring", "trace.pbm.bar",
             "trace.pbm.comb"]
        for row in run["rows"][:8]:
            assert set(row) == {"layer", "params", "n", "us_per_point", "spread",
                                "calls_per_point", "gc"}
            assert len(row["n"]) == len(row["us_per_point"]) == len(row["calls_per_point"]) == 1
            assert row["n"][0] > 900 and row["calls_per_point"][0] > 0
        load = run["rows"][10]
        assert set(load) == {"layer", "n", "us_per_pixel", "spread", "cells", "ns_per_cell", "gc"}
        assert len(load["cells"]) == len(load["ns_per_cell"]) == 1
        assert load["cells"][0] > load["n"][0]
        for row in run["rows"][8:10] + run["rows"][11:]:
            assert set(row) == {"layer", "n", "us_per_pixel", "spread", "gc"}
        for row in run["rows"][8:]:
            assert len(row["n"]) == len(row["us_per_pixel"]) == 1
            assert row["n"][0] > 900
        for row in run["rows"]:
            # the gen 0, 1 and 2 collections of one call at each size
            assert len(row["gc"]) == 1 and len(row["gc"][0]) == 3
            assert all(isinstance(c, int) and c >= 0 for c in row["gc"][0])
