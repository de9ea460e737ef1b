"""Allocation guards: the gen-2 garbage collections of whole layers.

A gen-2 collection scans every live object, the pipeline's earlier outputs
included, so its cost grows with the heap and not with the layer's input.
The counts are deterministic for a fixed program and input, but they
depend on what the interpreter already holds, so each case runs in a
fresh interpreter.  It builds its input, makes a full collection, and
counts the collections of the case alone through `gc.callbacks`.  The
bounds are the counts the program makes today, as upper bounds: they
catch a change that allocates more tracked containers per element.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CASES = {
    # the max_len k=8 cover of a 19,992-point circle, its arc graph and the
    # graph JSON as the CLI writes it: 284, 25 and 1 collections of
    # generations 0, 1 and 2 on CPython 3.11
    "max_len graph of a 20k circle": ("""
from satcover import synth
from satcover.arcs import build_arc_graph
from satcover.cli import _dump
from satcover.cover import saturated_cover
from satcover.predicates import PredicateSpec
path = synth.circle_path_of_size(20_000)
def case():
    cover = saturated_cover(path, PredicateSpec("max_len", {"k": 8}))
    _dump(build_arc_graph(cover).to_json_dict())
""", 1),
    # a solid bar of 3 rows and 19,998 pixels, all of them branching: 70,
    # 6 and 0 collections
    "trace of a 20k-pixel bar": ("""
from satcover.paths import Adjacency
from satcover.pbm import BinaryImage
from satcover.trace import trace_image
img = BinaryImage(6_666, 3, frozenset((x, y) for x in range(6_666) for y in range(3)))
def case():
    trace_image(img, Adjacency.EIGHT)
""", 0),
}

COUNT = """
import gc, json
counts = [0, 0, 0]
def count(phase, info):
    if phase == "start":
        counts[info["generation"]] += 1
gc.collect()
gc.callbacks.append(count)
case()
gc.callbacks.remove(count)
print(json.dumps(counts))
"""


@pytest.mark.parametrize("name", sorted(CASES))
def test_gen2_collections_stay_within_todays_counts(name):
    setup, bound = CASES[name]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", setup + COUNT], env=env, check=True,
                          capture_output=True, text=True, timeout=120)
    gen0, gen1, gen2 = json.loads(done.stdout)
    assert gen2 <= bound, (name, gen0, gen1, gen2)
