"""Raster fixtures shared by the trace tests and the acceptance suite, and
the predicates and specs shared by the predicate, cover, arc-graph and
command-line tests."""

from contextlib import contextmanager

from satcover import predicates
from satcover.pbm import image_from_ascii
from satcover.predicates import PredicateInfo, PredicateSpec, Recognizer, register_predicate
from satcover.verify import VERIFIED_PREDICATES

# every verified predicate, and a non-square box
GRID_SPECS = VERIFIED_PREDICATES + (PredicateSpec("bbox", {"w": 5, "h": 2}),)


class HookMaxLen(Recognizer):
    """max_len through the three hooks alone, run by the base class."""

    def __init__(self, path, k):
        super().__init__(path)
        self.k = k

    def _on_reset(self, index, p):
        pass

    def _try_add(self, index, p, positive):
        return self._length < self.k

    def _on_remove(self, index, p):
        pass


@contextmanager
def unflagged_max_len():
    """Registers `HookMaxLen` as "hook_max_len", flagged not conservative
    although it is, and yields its spec with k = 3; unregisters it on
    exit."""
    register_predicate(PredicateInfo("hook_max_len", ("k",), False,
                                     "at most k points, flagged not conservative", HookMaxLen))
    try:
        yield PredicateSpec("hook_max_len", {"k": 3})
    finally:
        predicates._REGISTRY.pop("hook_max_len", None)


SEGMENT = "#####"

PLUS = """
.#.
###
.#.
"""

H_SHAPE = """
#...#
#...#
#####
#...#
#...#
"""

FIGURE_EIGHT = """
###..
#.#..
#####
..#.#
..###
"""

TWO_JUNCTION_CORRIDOR = """
.#.....#.
#########
.#.....#.
"""

PURE_CYCLE = """
###
#.#
###
"""

TWO_COMPONENTS = """
###..
.....
..###
"""

FAT_JUNCTION = """
.##.
####
.##.
"""

THETA = """
###
#.#
###
#.#
###
"""

ALL_FIXTURES = {
    "segment": SEGMENT,
    "plus": PLUS,
    "h_shape": H_SHAPE,
    "figure_eight": FIGURE_EIGHT,
    "two_junction_corridor": TWO_JUNCTION_CORRIDOR,
    "pure_cycle": PURE_CYCLE,
    "two_components": TWO_COMPONENTS,
    "fat_junction": FAT_JUNCTION,
    "theta": THETA,
}


def fixture_image(name: str):
    return image_from_ascii(ALL_FIXTURES[name])
