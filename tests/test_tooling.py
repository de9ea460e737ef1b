"""Checks on the repository around the program: the benchmark harness
wraps program functions by name, and a function it names must exist, or
only a traced benchmark run would notice; and the program has no runtime
dependencies (`pyproject.toml` lists none), so it imports only the
standard library and itself."""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


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


def test_program_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "satcover").glob("*.py"))
    assert sources
    for source in sources:
        for node in ast.walk(ast.parse(source.read_text(), str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, \
                    f"{source.name}:{node.lineno} imports {name}"
