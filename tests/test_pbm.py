import random

import pytest

from oracles import dump_p1_reference, dump_p4_reference, load_pbm_reference
from satcover.pbm import BinaryImage, PbmError, dump_p1, dump_p4, image_from_ascii, load_pbm


def test_p1_basic():
    img = load_pbm(b"P1\n3 1\n1 1 1\n")
    assert img.width == 3 and img.height == 1
    assert img.foreground == {(0, 0), (1, 0), (2, 0)}


def test_p1_empty_image():
    img = load_pbm(b"P1\n4 2\n0 0 0 0\n0 0 0 0\n")
    assert img.foreground == frozenset()


def test_p1_comments_and_dense_digits():
    img = load_pbm(b"P1\n# a comment\n3 2 # trailing\n101\n010\n")
    assert img.foreground == {(0, 0), (2, 0), (1, 1)}


def test_p4_matches_p1_roundtrip():
    rng = random.Random(42)
    for _ in range(25):
        w, h = rng.randint(1, 21), rng.randint(1, 13)
        fg = frozenset((x, y) for x in range(w) for y in range(h) if rng.random() < 0.4)
        img = BinaryImage(w, h, fg)
        assert load_pbm(dump_p1(img)) == img
        assert load_pbm(dump_p4(img)) == img
        assert load_pbm(dump_p4(load_pbm(dump_p1(img)))) == img
        assert dump_p1(img) == dump_p1_reference(img)
        assert dump_p4(img) == dump_p4_reference(img)


def test_writers_equal_the_cell_by_cell_writers():
    """Seeded images of every density, widths across the P4 byte edges, and
    images with no cell at all."""
    rng = random.Random(7)
    images = [BinaryImage(w, h, frozenset()) for w, h in ((0, 0), (0, 3), (5, 0))]
    for _ in range(400):
        w, h = rng.randint(1, 25), rng.randint(1, 9)
        density = rng.random()
        images.append(BinaryImage(w, h, frozenset(
            (x, y) for x in range(w) for y in range(h) if rng.random() < density)))
    for img in images:
        assert dump_p1(img) == dump_p1_reference(img), img
        assert dump_p4(img) == dump_p4_reference(img), img


def test_malformed_inputs():
    with pytest.raises(PbmError):
        load_pbm(b"")
    with pytest.raises(PbmError):
        load_pbm(b"P5\n2 2\n")
    with pytest.raises(PbmError):
        load_pbm(b"P1\n0 3\n")
    with pytest.raises(PbmError):
        load_pbm(b"P1\n2 2\n1 0 1\n")  # missing a pixel
    with pytest.raises(PbmError):
        load_pbm(b"P1\n2 2\n1 0 1 0 1\n")  # one too many
    with pytest.raises(PbmError):
        load_pbm(b"P1\n2 2\n1 0 2 0\n")
    with pytest.raises(PbmError):
        load_pbm(b"P4\n9 2\n\x00")  # truncated raster
    with pytest.raises(PbmError):
        load_pbm(b"P1\nx 2\n1 0\n")
    with pytest.raises(PbmError):
        load_pbm(b"P4\n2 2")  # no whitespace byte ends the header
    with pytest.raises(PbmError):
        load_pbm(b"P1\n2\n")  # missing height
    with pytest.raises(PbmError):
        load_pbm(b"P4\n8 # 1\n\n\n")  # missing height: a comment's tail is no token
    with pytest.raises(PbmError):
        load_pbm(b"P1\n-2 2\n1 0 1 0\n")
    with pytest.raises(PbmError):
        load_pbm(b"P1\n2 1\n1 \xff\n")
    for magic in (b"P1", b"P4"):
        with pytest.raises(PbmError):  # must fail before sizing anything by the header
            load_pbm(magic + b"\n100000 100000\n")


@pytest.mark.parametrize("data, foreground", [
    (b"P4\n3 2\n\xbf\x5f", {(0, 0), (2, 0), (1, 1)}),  # padding bits set
    (b"P1\r\n3 2\r\n1 0 1\r\n0 1 0\r\n", {(0, 0), (2, 0), (1, 1)}),
    (b"P1\n3 2\n1 0 # first row\n1\n0 1 0\n", {(0, 0), (2, 0), (1, 1)}),
    (bytearray(b"P1\n3 2\n101 010\n"), {(0, 0), (2, 0), (1, 1)}),
])
def test_accepted_variants(data, foreground):
    assert load_pbm(data) == BinaryImage(3, 2, frozenset(foreground))


_INSERTS = (b"0", b"1", b"#", b"P", b"4", b" ", b"\t", b"\r", b"\n", b"\x00", b"\xff")


def _mutate(rng: random.Random, data: bytes) -> bytes:
    i = rng.randint(0, len(data))
    kind = rng.randrange(4)
    if kind == 0:
        return data[:i] + rng.choice(_INSERTS) + data[i:]
    if kind == 1:
        return data[:i] + data[i + rng.randint(1, 3):]
    if kind == 2:
        return data[:i]
    comment = b"#" + rng.choice((b"", b" 1 0", b"P4 2 2", b"#")) + rng.choice((b"\n", b"\r", b""))
    return data[:i] + comment + data[i:]


def _decode(decoder, data):
    try:
        return decoder(data)
    except PbmError:
        return None


def test_matches_reference_decoder():
    """Seeded mutations of valid files: the decoder accepts and rejects
    exactly the files the reference decoder does, with equal images."""
    rng = random.Random(7)
    accepted = rejected = 0
    for case in range(2400):
        w, h = rng.randint(1, 19), rng.randint(1, 6)
        img = BinaryImage(w, h, frozenset(
            (x, y) for x in range(w) for y in range(h) if rng.random() < 0.4))
        raw = case % 2 == 1
        data = bytearray(dump_p4(img) if raw else dump_p1(img))
        if raw and w % 8 and rng.random() < 0.5:
            row_bytes = (w + 7) // 8
            body = len(data) - row_bytes * h
            for y in range(h):
                data[body + (y + 1) * row_bytes - 1] |= rng.randrange(256) >> (w % 8)
        data = bytes(data)
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            data = _mutate(rng, data)
        if rng.random() < 0.1:
            data = bytearray(data)
        got = _decode(load_pbm, data)
        assert got == _decode(load_pbm_reference, data), data
        if got is None:
            rejected += 1
        else:
            accepted += 1
    assert accepted > 500 and rejected > 500, (accepted, rejected)


def test_sparse_p4_matches_reference_decoder():
    """Seeded sparse P4 rasters 64-300 pixels wide, with empty rows, runs of
    zero bytes and padding bits set in every row's last byte: the decoder,
    which reads only the non-zero bytes, returns the reference's image."""
    rng = random.Random(11)
    padded = 0
    for _ in range(300):
        w, h = rng.randint(64, 300), rng.randint(1, 40)
        density = rng.choice((0.0, 0.002, 0.01, 0.05, 0.3))
        fg = frozenset((x, y) for y in range(h) if rng.random() < 0.7
                       for x in range(w) if rng.random() < density)
        data = bytearray(dump_p4(BinaryImage(w, h, fg)))
        row_bytes = (w + 7) // 8
        body = len(data) - row_bytes * h
        if w % 8:
            padded += 1
            for y in range(h):
                data[body + (y + 1) * row_bytes - 1] |= 0xFF >> (w % 8)
        data = bytes(data)
        assert load_pbm(data) == load_pbm_reference(data) == BinaryImage(w, h, fg)
    assert padded > 200


def _encodings(img: BinaryImage, rng: random.Random):
    """P1 with dense rows, with comments and with other whitespace, and P4
    with its row-padding bits clear and set."""
    yield dump_p1(img)
    rows = [b"".join(b"1" if (x, y) in img.foreground else b"0" for x in range(img.width))
            for y in range(img.height)]
    head = f"P1\n{img.width} {img.height}\n".encode()
    yield head + b"".join(b"# row %d\n" % y + row + b"\n" for y, row in enumerate(rows))
    sep = rng.choice((b" ", b"\t", b"\r\n", b"\x0b", b"\x0c"))
    yield b"P1\r\n%d\t%d\r\n" % (img.width, img.height) + sep.join(
        sep.join(row[x:x + 1] for x in range(img.width)) for row in rows) + sep
    yield dump_p4(img)
    if img.width % 8:
        data = bytearray(dump_p4(img))
        row_bytes = (img.width + 7) // 8
        body = len(data) - row_bytes * img.height
        for y in range(img.height):
            data[body + (y + 1) * row_bytes - 1] |= 0xFF >> (img.width % 8)
        yield bytes(data)


def test_decoded_ids_equal_a_built_image_and_keep_scan_order():
    """The decoder numbers each pixel as it reads it: on every encoding of
    the round-trip corpus its id map equals that of an image built from the
    same pixel set, lists the pixels in scan order (row by row), and the
    image keeps the equality, hash and repr of the built one."""
    rng = random.Random(42)
    images = [BinaryImage(3, 2, frozenset({(0, 0), (2, 0), (1, 1)})), BinaryImage(4, 2, frozenset())]
    for _ in range(25):
        w, h = rng.randint(1, 21), rng.randint(1, 13)
        images.append(BinaryImage(w, h, frozenset(
            (x, y) for x in range(w) for y in range(h) if rng.random() < 0.4)))
    decoded = 0
    for img in images:
        for data in _encodings(img, rng):
            got = load_pbm(data)
            built = BinaryImage(got.width, got.height, got.foreground)
            assert got == built == img and hash(got) == hash(built) and repr(got) == repr(built)
            assert got._ids() == built._ids(), data
            assert list(got._ids().values()) == sorted(img.foreground, key=lambda p: (p[1], p[0]))
            decoded += 1
    assert decoded > 120, decoded


def test_image_bounds_enforced():
    with pytest.raises(ValueError, match=r"^foreground pixel \(2,0\) outside 2x2$"):
        BinaryImage(2, 2, frozenset({(2, 0)}))


def test_image_from_ascii():
    img = image_from_ascii(".#.\n###\n.#.")
    assert img.width == 3 and img.height == 3
    assert (1, 1) in img and (0, 0) not in img
    assert len(img.foreground) == 5
