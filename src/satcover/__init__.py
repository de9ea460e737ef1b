"""satcover: saturated subpath covers of digital paths under conservative
predicates, with raster curve tracing to produce the paths."""

from .arcs import ArcGraph, build_arc_graph
from .cover import (
    CoverCapError,
    SaturatedCover,
    brute_force_cover,
    complexity_probe,
    forward_cover,
    saturated_cover,
    segment_is_saturated,
)
from .paths import (
    Adjacency,
    DigitalPath,
    IndexInterval,
    PathFormatError,
    is_adjacent,
    middle_index,
    path_from_json,
    path_to_json,
    validate_path,
)
from .pbm import BinaryImage, PbmError, dump_p1, dump_p4, image_from_ascii, load_pbm
from .predicates import (
    ConservativityReport,
    PredicateError,
    PredicateSpec,
    Recognizer,
    check_conservative,
    list_predicates,
    make_recognizer,
    register_predicate,
)
from .trace import (
    CurveGraph,
    EmitError,
    OddVerticesError,
    TraceError,
    build_curve_graph,
    emit_path,
    euler_open_trail,
    euler_tour,
    eulerize,
    find_junctions,
    trace_image,
)

__version__ = "0.1.0"
