"""Golden outputs: sha256 digests of the byte-exact JSON and DOT output.

The cover, graph and trace modules may be restructured freely as long as
these digests hold.  Cover JSON includes `predicate_calls`, so the digests
also pin the exact number of predicate evaluations of every route.  The
at-scale rows pin the arc graphs of covers with hundreds to thousands of
overlapping arcs, wrapping ones included, which the small corpus never
produces.  To re-pin after an intended output change, run this file as a
script and paste the printed dictionaries.
"""

import hashlib
import json

from fixtures import ALL_FIXTURES
from satcover import synth
from satcover.arcs import build_arc_graph
from satcover.cover import brute_force_cover, forward_cover, saturated_cover
from satcover.paths import Adjacency, path_to_json
from satcover.pbm import BinaryImage, image_from_ascii
from satcover.predicates import PredicateSpec
from satcover.trace import trace_image
from satcover.verify import VERIFIED_PREDICATES, applicable, iter_corpus

ROUTES = {"sweep": saturated_cover, "forward": forward_cover, "brute": brute_force_cover}
SPECS = VERIFIED_PREDICATES

COVER_DIGESTS = {
    "dss sweep": ("67d9dc0689757d48", "e4e09c8a50f1aa7e", "c65434df9256e559"),
    "dss forward": ("8291c150883a699a", "e4e09c8a50f1aa7e", "c65434df9256e559"),
    "dss brute": ("10a632fec6d18467", "e4e09c8a50f1aa7e", "c65434df9256e559"),
    "max_len[k=1] sweep": ("8ab3a6107c992f0a", "1958e86c2e3d9f79", "5d5b776da975364f"),
    "max_len[k=1] forward": ("ff3086feb931ae5b", "1958e86c2e3d9f79", "5d5b776da975364f"),
    "max_len[k=1] brute": ("6ac9cd93d6fb12a5", "1958e86c2e3d9f79", "5d5b776da975364f"),
    "max_len[k=2] sweep": ("2494f750cb6b07ee", "f54874c4f3f1987f", "2e1ba32f195aacc0"),
    "max_len[k=2] forward": ("ddf342725800714d", "f54874c4f3f1987f", "2e1ba32f195aacc0"),
    "max_len[k=2] brute": ("eda189060ae5f37b", "f54874c4f3f1987f", "2e1ba32f195aacc0"),
    "max_len[k=5] sweep": ("0af599a02c5e719d", "b08975cf9bcafe72", "9eae624acda39b7b"),
    "max_len[k=5] forward": ("e16bcd77667bb54e", "b08975cf9bcafe72", "9eae624acda39b7b"),
    "max_len[k=5] brute": ("949dc0b04f2e4d43", "b08975cf9bcafe72", "9eae624acda39b7b"),
    "x_monotone sweep": ("38bda126117c913e", "24dacb30372d1848", "5078319707d9ecfc"),
    "x_monotone forward": ("3d3885b657b9b034", "24dacb30372d1848", "5078319707d9ecfc"),
    "x_monotone brute": ("15791c59dc360856", "24dacb30372d1848", "5078319707d9ecfc"),
    "bbox[h=3,w=3] sweep": ("f2c5a8cd6a996866", "75becd6fa01c0d02", "6841527c5d851e6e"),
    "bbox[h=3,w=3] forward": ("575f591e649a9df4", "75becd6fa01c0d02", "6841527c5d851e6e"),
    "bbox[h=3,w=3] brute": ("0ad7e347b034f4c9", "75becd6fa01c0d02", "6841527c5d851e6e"),
    "y_monotone sweep": ("2a91c04c29f3a958", "cbebd21398ab99a6", "cfcaa87f01325dea"),
    "y_monotone forward": ("ccad1c66a5c49250", "cbebd21398ab99a6", "cfcaa87f01325dea"),
    "y_monotone brute": ("215ff771f456ff8b", "cbebd21398ab99a6", "cfcaa87f01325dea"),
}

SCALE_DIGESTS = {
    "max_len[k=8] open 4-walk": (1493, 10423, "565fa64e23f28f09", "902366f1dc7ec37b"),
    "max_len[k=8] closed 8-walk": (1537, 10759, "402fac2ddecaef96", "1cf103f154a681f5"),
    "dss circle r=700": (360, 880, "3595c342482519dc", "d6558fcb8087fbfb"),
}

TRACE_DIGESTS = {
    "segment 4": "576c84a8b3ba1898",
    "segment 8": "2ce47aa69ca4147c",
    "plus 4": "2b1dda5d5e8518a1",
    "plus 8": "d33d353a25e658e9",
    "h_shape 4": "b6f03f7a16bfe11b",
    "h_shape 8": "c443145d683ae27a",
    "figure_eight 4": "496edb71d452f906",
    "figure_eight 8": "57b57a0f4803f3b1",
    "two_junction_corridor 4": "c14b9bbbdfb642e4",
    "two_junction_corridor 8": "a540920cb00849d4",
    "pure_cycle 4": "6563f4ceb820f0ab",
    "pure_cycle 8": "2e0b6ac675e9ed11",
    "two_components 4": "25c14aca18f203dd",
    "two_components 8": "69ddc2f003f417d3",
    "fat_junction 4": "700c5548ac67d40f",
    "fat_junction 8": "81f156edb1f740c0",
    "theta 4": "cd9c10059780581a",
    "theta 8": "e1c1744f163feda4",
    "solid-9x4 4": "951dde600dc2ca66",
    "solid-9x4 8": "1f1001ba83e68a8a",
    "rings-3 4": "7f6f0da99d0e3570",
    "rings-3 8": "c0377b59d9c0d024",
    "comb-6 4": "5f3af3ebdf8a1fea",
    "comb-6 8": "85b846a4a70fadf4",
    "mixed 4": "a565dc0b3817f923",
    "mixed 8": "51cc4bfa3def6913",
}


def _label(spec: PredicateSpec) -> str:
    params = ",".join(f"{k}={v}" for k, v in sorted(spec.params.items()))
    return f"{spec.name}[{params}]" if params else spec.name


def _compact(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


def cover_digests() -> dict:
    corpus = list(iter_corpus(seed=11, count=60, max_points=90, with_index=True))
    out = {}
    for spec in SPECS:
        for route_name, route in ROUTES.items():
            covers, graphs, dots = [], [], []
            for path in corpus:
                if not applicable(spec, path):
                    continue
                cov = route(path, spec)
                graph = build_arc_graph(cov)
                covers.append(_compact(cov.to_json_dict()))
                graphs.append(_compact(graph.to_json_dict()))
                dots.append(graph.to_dot())
            out[f"{_label(spec)} {route_name}"] = (
                _sha(covers), _sha(graphs), _sha(dots))
    return out


def scale_inputs() -> dict:
    return {
        "max_len[k=8] open 4-walk": (synth.random_walk_path(1500, Adjacency.FOUR, seed=31),
                                     PredicateSpec("max_len", {"k": 8})),
        "max_len[k=8] closed 8-walk": (synth.random_closed_path(3000, Adjacency.EIGHT, seed=32),
                                       PredicateSpec("max_len", {"k": 8})),
        "dss circle r=700": (synth.digitized_circle_path(700), PredicateSpec("dss")),
    }


def scale_digests() -> dict:
    out = {}
    for name, (path, spec) in scale_inputs().items():
        graph = build_arc_graph(saturated_cover(path, spec))
        out[name] = (len(graph.nodes), len(graph.edges), _sha([_compact(graph.to_json_dict())]),
                     _sha([graph.to_dot()]))
    return out


def _solid(width: int, height: int) -> BinaryImage:
    return BinaryImage(width, height,
                       frozenset((x, y) for x in range(width) for y in range(height)))


def _ring(radius: int, copies: int) -> BinaryImage:
    ring = synth.digitized_circle_path(radius).points
    pixels = set()
    for c in range(copies):
        dx = c * (2 * radius + 3) + radius + 1
        pixels.update((x + dx, y + radius + 1) for x, y in ring)
    return BinaryImage(copies * (2 * radius + 3), 2 * radius + 3, frozenset(pixels))


def _comb(teeth: int) -> BinaryImage:
    pixels = {(x, 0) for x in range(3 * teeth)}
    pixels |= {(3 * t, y) for t in range(teeth) for y in range(1, 5 + t % 3)}
    return BinaryImage(3 * teeth, 8, frozenset(pixels))


# Lone pixels, pure cycles (a diamond under 8-adjacency, two boxes under
# 4-adjacency) beside a comb, strokes and a solid blob in one raster.
MIXED = """
#.....###.....#.........#.....#
.....#.#.#...#.#..............#
......###...#...#..####.......#
#......#.....#.#...####..######
..............#....####........
...............................
########.....####..........##..
.#...#.......#..#............#.
.#...#..#....####......#.....#.
.#...#.....................#...
.#.......#......###............
................#.#............
................###.....#......
"""


def rasters() -> dict:
    out = {name: image_from_ascii(art) for name, art in ALL_FIXTURES.items()}
    out["solid-9x4"] = _solid(9, 4)
    out["rings-3"] = _ring(7, 3)
    out["comb-6"] = _comb(6)
    out["mixed"] = image_from_ascii(MIXED)
    return out


def trace_digests() -> dict:
    out = {}
    for name, img in rasters().items():
        for adjacency in (Adjacency.FOUR, Adjacency.EIGHT):
            try:
                texts = [path_to_json(tr.path) for tr in trace_image(img, adjacency)]
            except ValueError as exc:
                texts = [f"error {type(exc).__name__}"]
            out[f"{name} {adjacency.value}"] = _sha(texts)
    return out


def test_cover_graph_and_dot_digests():
    assert cover_digests() == COVER_DIGESTS


def test_arc_graph_digests_at_scale():
    assert scale_digests() == SCALE_DIGESTS


def test_trace_path_digests():
    assert trace_digests() == TRACE_DIGESTS


if __name__ == "__main__":
    import pprint

    pprint.pprint(cover_digests(), width=100, sort_dicts=False)
    pprint.pprint(scale_digests(), width=100, sort_dicts=False)
    pprint.pprint(trace_digests(), width=100, sort_dicts=False)
