"""Seeded fuzzing of the command line.

Mutated path JSON and PBM files and bad option values must end in a
documented exit code (0 success, 2 bad input, 3 Chinese-Postman cap, or
argparse's own exit 2), never in a Python traceback.
"""

import json
import random

from fixtures import ALL_FIXTURES
from satcover import synth
from satcover.cli import main
from satcover.paths import Adjacency, path_to_json
from satcover.pbm import BinaryImage, dump_p1, dump_p4, image_from_ascii

BAD_JSON = [
    b"\xff\xfe",  # not UTF-8
    b"[" * 100_000,  # nested deeper than the decoder's recursion limit
    b'{"closed":false,"adjacency":"8","points":[[' + b"7" * 5_000 + b",0]]}",  # past int's digit limit
]
TOKENS = [b"[", b"]", b"{", b"}", b",", b":", b'"', b"-", b"0", b"1e999", b"null", b"true",
          b"0.5", b"\x00", b"\xc3", b"\xff", b"9" * 20, b'"index"', b"[[0,0]]"]
PATHS = [
    synth.random_walk_path(12, Adjacency.FOUR, seed=1),
    synth.random_closed_path(16, Adjacency.EIGHT, seed=2),
    synth.random_index_path(8, seed=3),
    synth.digitized_line_path(9, 2, 5, Adjacency.EIGHT),
]
PREDICATES = [["--predicate", "dss"], ["--predicate", "max_len", "--param", "k=3"],
              ["--predicate", "bbox", "--param", "w=2", "--param", "h=3"],
              ["--predicate", "x_monotone"], ["--predicate", "y_monotone"]]
BAD_PARAMS = ["k", "k=", "=3", "k=x", "k=1=2", "k=-1", "k=0", "w=0", "h=-3", "j=1",
              "k=" + "9" * 5_000]
BAD_SIZES = ["", ",", "x", "-1", "0", "1e3", "10,,20", "3", "12,x", "9" * 5_000]
BAD_COUNTS = ["0", "-1", "x", "1.5"]


def _byte_mutant(rng, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(out) + 1)
        op = rng.randrange(4)
        if op == 0 and out:
            out[min(pos, len(out) - 1)] = rng.randrange(256)
        elif op == 1:
            del out[pos:pos + rng.randint(1, 8)]
        elif op == 2:
            out[pos:pos] = rng.choice(TOKENS)
        else:
            out[pos:pos] = out[pos:pos + rng.randint(1, 16)]
    return bytes(out)


def _doc_mutant(rng, path) -> bytes:
    """Well-formed JSON that may break a path invariant."""
    doc = json.loads(path_to_json(path))
    pts = doc["points"]
    op = rng.randrange(6)
    if op == 0:
        doc["closed"] = not doc["closed"]
    elif op == 1:
        doc["adjacency"] = rng.choice(["4", "8", "index", 4, None, ""])
    elif op == 2:
        doc["points"] = pts[:rng.randint(0, 3)]
    elif op == 3:
        shift = rng.choice([10**100, -(2**63)])
        doc["points"] = [[x + shift, y - shift] for x, y in pts]
    elif op == 4:
        i = rng.randrange(len(pts))
        pts.insert(i, list(pts[i]))
    else:
        doc["points"] = pts[::-1] + pts
    return json.dumps(doc).encode()


def _pixel_mutant(rng, img: BinaryImage) -> bytes:
    """A valid PBM of the image with a few pixels flipped."""
    fg = set(img.foreground)
    for _ in range(rng.randint(1, 5)):
        fg ^= {(rng.randrange(img.width), rng.randrange(img.height))}
    flipped = BinaryImage(img.width, img.height, frozenset(fg))
    return (dump_p1 if rng.random() < 0.5 else dump_p4)(flipped)


def _fuzz_argvs(rng, tmp_path):
    """Yield argument lists; each input file is written just before its yield."""
    src = tmp_path / "in.json"
    for data in BAD_JSON:
        src.write_bytes(data)
        for cmd in ("cover", "graph"):
            yield [cmd, str(src), "--predicate", "dss"]
    images = [image_from_ascii(ALL_FIXTURES[name]) for name in sorted(ALL_FIXTURES)]
    pbm = tmp_path / "in.pbm"
    for _ in range(60):
        img = rng.choice(images)
        pbm.write_bytes(_pixel_mutant(rng, img) if rng.random() < 0.5
                        else _byte_mutant(rng, rng.choice((dump_p1, dump_p4))(img)))
        yield ["trace", str(pbm), "--adjacency", rng.choice("48"),
               "--out-dir", str(tmp_path / "out")]
    for _ in range(120):
        path = rng.choice(PATHS)
        src.write_bytes(_doc_mutant(rng, path) if rng.random() < 0.5
                        else _byte_mutant(rng, path_to_json(path).encode()))
        argv = [rng.choice(("cover", "graph")), str(src), *rng.choice(PREDICATES)]
        if rng.random() < 0.3:
            argv += ["--param", rng.choice(BAD_PARAMS)]
        yield argv + (["--forward"] if rng.random() < 0.5 else [])
    for _ in range(40):
        argv = ["probe", *rng.choice(PREDICATES), "--sizes", rng.choice(BAD_SIZES + ["20"]),
                "--shape", rng.choice(("circle", "line", "walk")),
                "--adjacency", rng.choice(("4", "8", "index"))]
        if rng.random() < 0.3:
            argv += ["--param", rng.choice(BAD_PARAMS)]
        yield argv + (["--closed"] if rng.random() < 0.5 else [])
    for option in ("--count", "--max-points", "--trials"):
        for value in BAD_COUNTS:
            yield ["verify", option, value]


def test_cli_fuzz_ends_in_documented_exit_codes(tmp_path, capsys):
    rng = random.Random(20)
    failures = []
    for argv in _fuzz_argvs(rng, tmp_path):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing an option value
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {str(exc)[:80]}"
        if code not in (0, 2, 3):
            files = [arg for arg in argv if arg.startswith(str(tmp_path))]
            failures.append((argv, code, [open(f, "rb").read(80) for f in files[:1]]))
    capsys.readouterr()
    assert not failures, failures[:3]
