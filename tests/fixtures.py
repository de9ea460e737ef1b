"""Raster fixtures shared by the trace tests and the acceptance suite, and
the predicate specs shared by the cover and arc-graph tests."""

from satcover.pbm import image_from_ascii
from satcover.predicates import PredicateSpec
from satcover.verify import VERIFIED_PREDICATES

# every verified predicate, and a non-square box
GRID_SPECS = VERIFIED_PREDICATES + (PredicateSpec("bbox", {"w": 5, "h": 2}),)

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
