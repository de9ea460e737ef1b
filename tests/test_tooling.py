"""The benchmark harness wraps program functions by name; a function it
names must exist, or only a traced benchmark run would notice."""

import ast
import importlib
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


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
