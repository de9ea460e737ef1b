import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fixtures import ALL_FIXTURES
from satcover.cli import main
from satcover.paths import Adjacency, PathFormatError, path_from_json, path_to_json
from satcover.pbm import BinaryImage, dump_p1, dump_p4, image_from_ascii
from satcover.svg import render_trace_svg
from satcover.trace import find_junctions, trace_image
from satcover import synth

ROOT = Path(__file__).resolve().parent.parent


def write_pbm(tmp_path, name, art, raw=False):
    img = image_from_ascii(art)
    target = tmp_path / name
    target.write_bytes(dump_p4(img) if raw else dump_p1(img))
    return target


def write_path(tmp_path, path, name="path.json"):
    target = tmp_path / name
    target.write_text(path_to_json(path) + "\n")
    return target


def test_trace_plus(tmp_path, capsys):
    src = write_pbm(tmp_path, "plus.pbm", ALL_FIXTURES["plus"])
    assert main(["trace", str(src), "--adjacency", "4"]) == 0
    out = tmp_path / "plus_c0.json"
    assert out.exists()
    path = path_from_json(out.read_text())
    assert len(set(path.points)) == 5


def test_trace_blank_writes_nothing(tmp_path, capsys):
    target = tmp_path / "blank.pbm"
    target.write_bytes(b"P1\n3 3\n0 0 0\n0 0 0\n0 0 0\n")
    assert main(["trace", str(target)]) == 0
    assert list(tmp_path.glob("blank_c*.json")) == []


def test_trace_two_components(tmp_path):
    src = write_pbm(tmp_path, "two.pbm", ALL_FIXTURES["two_components"], raw=True)
    assert main(["trace", str(src), "--adjacency", "4", "--emit-graph",
                 "--svg", str(tmp_path / "two.svg")]) == 0
    assert (tmp_path / "two_c0.json").exists()
    assert (tmp_path / "two_c1.json").exists()
    assert (tmp_path / "two_c0.graph.json").exists()
    doc = json.loads((tmp_path / "two_c0.graph.json").read_text())
    assert set(doc) == {"vertices", "edges"}
    svg = (tmp_path / "two.svg").read_text()
    assert svg.startswith("<svg")


def test_trace_refused_svg_writes_nothing(tmp_path, capsys):
    """An --svg in a missing directory is refused before any component file
    is written or listed: exit 2, nothing on stdout, no `_c0.json` left."""
    src = write_pbm(tmp_path, "ok2.pbm", "##.\n#..\n...")
    out_dir = tmp_path / "outx"
    svg = tmp_path / "nodir" / "t.svg"
    assert main(["trace", str(src), "--out-dir", str(out_dir), "--svg", str(svg)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and f"'{svg}'" in err, err
    assert list(tmp_path.glob("**/*_c0.json")) == []


@pytest.mark.parametrize("adjacency", ["4", "8"])
@pytest.mark.parametrize("name", sorted(ALL_FIXTURES))
def test_trace_svg_marks_every_junction(tmp_path, name, adjacency):
    src = write_pbm(tmp_path, "f.pbm", ALL_FIXTURES[name])
    svg = tmp_path / "f.svg"
    assert main(["trace", str(src), "--adjacency", adjacency, "--svg", str(svg)]) == 0
    img = image_from_ascii(ALL_FIXTURES[name])
    adj = Adjacency.from_code(adjacency)
    junction_pixels = set().union(*find_junctions(img, adj))
    paths = [tr.path for tr in trace_image(img, adj)]
    assert svg.read_text() == render_trace_svg(img, junction_pixels, paths)


def test_trace_malformed_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pbm"
    bad.write_bytes(b"P1\n2 2\n1 0\n")
    assert main(["trace", str(bad)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_trace_odd_cap_exits_3(tmp_path, capsys):
    # comb: spine with 21 teeth -> 44 odd vertices, but a tree, which pairs
    # its odd vertices by parity whatever their number
    spine = ["#" * 43]
    teeth = "".join("#" if x % 2 == 1 else "." for x in range(43))
    art = teeth + "\n" + spine[0]
    src = write_pbm(tmp_path, "comb.pbm", art)
    assert main(["trace", str(src), "--adjacency", "4"]) == 0
    assert [p.name for p in tmp_path.glob("comb_c*.json")] == ["comb_c0.json"]
    path = path_from_json((tmp_path / "comb_c0.json").read_text())
    assert set(path.points) == image_from_ascii(art).foreground

    # 12x12 cells of one-pixel lines: 44 odd T-junctions in one
    # 2-edge-connected block, above the matching cap
    side = 12 * 4 + 1
    lattice = BinaryImage(side, side, frozenset(
        (x, y) for y in range(side) for x in range(side) if x % 4 == 0 or y % 4 == 0))
    src = tmp_path / "lattice.pbm"
    src.write_bytes(dump_p1(lattice))
    assert main(["trace", str(src), "--adjacency", "4"]) == 3
    assert "odd" in capsys.readouterr().err


def test_trace_solid_bar_exits_0(tmp_path):
    # every pixel of a 3-pixel-thick bar is branching: one 4500-pixel junction
    bar = BinaryImage(1500, 3, frozenset((x, y) for x in range(1500) for y in range(3)))
    src = tmp_path / "bar.pbm"
    src.write_bytes(dump_p1(bar))
    assert main(["trace", str(src)]) == 0
    assert [p.name for p in tmp_path.glob("bar_c*.json")] == ["bar_c0.json"]
    path = path_from_json((tmp_path / "bar_c0.json").read_text())
    assert set(path.points) == bar.foreground


def test_cover_line_dss(tmp_path, capsys):
    src = write_path(tmp_path, synth.digitized_line_path(50, 1, 3))
    assert main(["cover", str(src), "--predicate", "dss"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["segments"] == [{"start": 0, "len": 50}]
    assert doc["n"] == 50 and doc["closed"] is False
    assert doc["predicate"] == {"name": "dss", "params": {}}
    assert doc["predicate_calls"] >= 50


def test_cover_max_len_windows(tmp_path, capsys):
    src = write_path(tmp_path, synth.digitized_line_path(5, 0, 1))
    assert main(["cover", str(src), "--predicate", "max_len", "--param", "k=3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [s["start"] for s in doc["segments"]] == [0, 1, 2]


def test_cover_oracle_and_forward_agree(tmp_path, capsys):
    path = synth.random_closed_path(60, seed=17)
    src = write_path(tmp_path, path)
    assert main(["cover", str(src), "--predicate", "dss", "--oracle"]) == 0
    base = capsys.readouterr().out
    assert main(["cover", str(src), "--predicate", "dss", "--forward", "--oracle"]) == 0
    fwd = capsys.readouterr().out
    assert json.loads(base)["segments"] == json.loads(fwd)["segments"]
    big = write_path(tmp_path, synth.circle_path_of_size(600), "big.json")
    assert main(["cover", str(big), "--predicate", "dss", "--oracle"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "above the brute-force cap 500" in err


def test_cover_deterministic_output(tmp_path):
    src = write_path(tmp_path, synth.random_walk_path(40, seed=3))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    svg1, svg2 = tmp_path / "a.svg", tmp_path / "b.svg"
    for out, svg in ((out1, svg1), (out2, svg2)):
        assert main(["cover", str(src), "--predicate", "bbox", "--param", "w=3",
                     "--param", "h=3", "-o", str(out), "--svg", str(svg)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert svg1.read_bytes() == svg2.read_bytes()


def test_cover_bad_predicate_exits_2(tmp_path, capsys):
    src = write_path(tmp_path, synth.digitized_line_path(5, 0, 1))
    assert main(["cover", str(src), "--predicate", "nope"]) == 2
    assert main(["cover", str(src), "--predicate", "max_len"]) == 2  # missing k
    index_path = synth.random_index_path(6, seed=0)
    src2 = write_path(tmp_path, index_path, "idx.json")
    assert main(["cover", str(src2), "--predicate", "dss"]) == 2
    capsys.readouterr()
    refused = [
        ["cover", str(src), "--predicate", "dss", "--param", "foo=1"],
        ["cover", str(src), "--predicate", "max_len", "--param", "k=3", "--param", "j=1"],
        ["graph", str(src), "--predicate", "x_monotone", "--param", "k=2"],
        ["probe", "--predicate", "dss", "--param", "foo=1", "--sizes", "10"],
        ["cover", str(src), "--predicate", "contains_start"],
        ["graph", str(src), "--predicate", "contains_start"],
        ["probe", "--predicate", "contains_start", "--sizes", "10"],
        ["cover", str(src), "--predicate", "max_len", "--param", "k=2", "--param", "k=5"],
        ["graph", str(src), "--predicate", "bbox", "--param", "w=2", "--param", "h=2",
         "--param", "w=3"],
        ["probe", "--predicate", "max_len", "--param", "k=2", "--param", " k=2",
         "--sizes", "10"],
        ["probe", "--predicate", "dss", "--shape", "circle", "--adjacency", "4", "--sizes", "100"],
        ["probe", "--predicate", "dss", "--shape", "circle", "--adjacency", "index",
         "--sizes", "100"],
        ["cover", str(src), "--predicate", ""],
        ["graph", str(src), "--predicate", ""],
        ["probe", "--predicate", "", "--sizes", "10"],
        ["trace", str(tmp_path / "missing.pbm")],
        ["cover", str(tmp_path / "missing.json"), "--predicate", "dss"],
        ["graph", str(tmp_path / "missing.json"), "--predicate", "dss"],
    ]
    for argv in refused:
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), (argv, out, err)


def test_cover_rejects_invalid_path_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for data, message in [
        (b'{"closed": false, "adjacency": "4", "points": [[0,0],[5,5]]}', "non-adjacent"),
        (b"\xff\xfe", "invalid JSON"),  # not UTF-8
        (b"[" * 100_000, "invalid JSON"),  # nested past the decoder's recursion limit
        (b'{"closed":false,"adjacency":"8","points":[[' + b"7" * 5_000 + b",0]]}",
         "invalid JSON"),  # past int's digit limit
    ]:
        bad.write_bytes(data)
        for command in ("cover", "graph"):
            assert main([command, str(bad), "--predicate", "dss"]) == 2, (command, data[:20])
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and message in err, (command, err)


@pytest.mark.parametrize("entry, shown", [
    ("true", "True"),
    ("1.5", "1.5"),
    ('"7"', "'7'"),
    ("[0]", "[0]"),
    ("[0, 1, 2]", "[0, 1, 2]"),
    ("[[0, 1], 2]", "[[0, 1], 2]"),
    ("[0, [1]]", "[0, [1]]"),
    ("[false, 1]", "[False, 1]"),
    ("[0, 1.0]", "[0, 1.0]"),
    ("[0, null]", "[0, None]"),
], ids=["bool", "float", "string", "one", "three", "nested-first", "nested-second",
        "bool-coordinate", "float-coordinate", "null-coordinate"])
def test_bad_point_entry_message_and_exit_code(tmp_path, capsys, entry, shown):
    text = '{"closed": false, "adjacency": "8", "points": [[0, 0], %s]}' % entry
    message = f"point 1 must be a pair of integers, got {shown}"
    with pytest.raises(PathFormatError) as info:
        path_from_json(text)
    assert str(info.value) == message
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    for command in ("cover", "graph"):
        assert main([command, str(bad), "--predicate", "dss"]) == 2, command
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n", (command, err)


def test_probe_bad_sizes_exits_2(capsys):
    assert main(["probe", "--predicate", "dss", "--sizes", "abc"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "--max-points", "0"],
    ["verify", "--count", "-1"],
    ["verify", "--trials", "0"],
    ["probe", "--predicate", "dss", "--sizes", "0"],
    ["probe", "--predicate", "dss", "--sizes", "100,-5"],
    ["probe", "--predicate", "dss", "--shape", "line", "--sizes", "0"],
    ["probe", "--predicate", "dss", "--sizes", ","],
    ["probe", "--predicate", "dss", "--sizes", ""],
    ["probe", "--predicate", "dss", "--sizes", "3"],
    ["probe", "--predicate", "dss", "--shape", "circle", "--sizes", "100,1"],
])
def test_non_positive_count_exits_2(argv, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "positive integer" in err


def test_graph_command(tmp_path, capsys):
    src = write_path(tmp_path, synth.digitized_line_path(5, 0, 1))
    dot = tmp_path / "g.dot"
    assert main(["graph", str(src), "--predicate", "max_len", "--param", "k=3",
                 "--dot", str(dot)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["proper"] is True
    assert doc["interval"] is True
    assert doc["nodes"] == [{"start": 0, "len": 3}, {"start": 1, "len": 3},
                            {"start": 2, "len": 3}]
    assert dot.read_text().startswith("graph cover {")
    # an output in a missing directory, or onto a directory, is refused by
    # its own name, and its temporary file does not stay behind
    (tmp_path / "taken").mkdir()
    for command in ("cover", "graph"):
        for target in (tmp_path / "nodir" / "x.json", tmp_path / "taken"):
            assert main([command, str(src), "--predicate", "dss", "-o", str(target)]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and f"'{target}'" in err, err
    # probe writes -o before its table, so a refused file prints no table
    for target in (tmp_path / "nodir" / "x.json", tmp_path / "taken"):
        assert main(["probe", "--predicate", "dss", "--sizes", "100", "-o", str(target)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and f"'{target}'" in err, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.dot", "path.json", "taken"]
    assert list((tmp_path / "taken").iterdir()) == []


def test_verify_passes(capsys):
    assert main(["verify", "--count", "25", "--max-points", "40",
                 "--trials", "1500"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "detected" in out
    assert "[PASS] conservativity of y_monotone: conservative over" in out


def test_probe_table(tmp_path, capsys):
    out = tmp_path / "probe.json"
    assert main(["probe", "--predicate", "dss", "--sizes", "200,400",
                 "--shape", "circle", "-o", str(out)]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "calls", "calls/n", "seconds", "us/n"]
    rows = json.loads(out.read_text())
    assert len(rows) == 2 and rows[0]["n"] > 0
    assert all(set(row) == {"n", "calls", "ratio", "seconds"} and row["seconds"] > 0
               for row in rows)
    assert [int(line.split()[0]) for line in lines] == [row["n"] for row in rows]


def test_list_predicates(capsys):
    assert main(["--list-predicates"]) == 0
    out = capsys.readouterr().out
    for name in ("dss", "max_len", "x_monotone", "y_monotone", "bbox", "contains_start"):
        assert name in out
    assert "non-conservative" in out


def test_trace_demo_script_runs(tmp_path, capsys):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "trace_demo.py"),
                           "--out-dir", str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "demo_trace.svg").is_file()
    # the demo's cover JSON is the CLI's: compact, key-sorted, byte-stable
    assert main(["cover", str(tmp_path / "demo_c0.json"), "--predicate", "dss"]) == 0
    assert (tmp_path / "demo_c0.cover.json").read_bytes() == capsys.readouterr().out.encode()
