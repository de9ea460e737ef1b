"""Plain (P1) and raw (P4) PBM bitmap reading and writing.

Foreground pixels are the 1-bits.  Coordinates are image coordinates:
origin top-left, x rightward, y downward, row-major storage.

Each foreground pixel (x, y) also has an integer id, (x + 1) * (height + 2)
+ y + 1: its cell number, column by column, in the image padded by one cell
on every side.  So id order is tuple order, and the neighbour at (dx, dy)
is at id + dx * (height + 2) + dy, with no wrap between columns.  The
decoder numbers the pixels as it reads them; the trace reads those ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Optional

from .paths import Point


class PbmError(ValueError):
    """Malformed PBM header or truncated pixel data."""


@dataclass(frozen=True)
class BinaryImage:
    width: int
    height: int
    foreground: frozenset[Point]
    # each foreground pixel by its id, in scan order when decoded (see `_ids`)
    _point: Optional[dict[int, Point]] = field(default=None, init=False, compare=False,
                                               repr=False)

    def __post_init__(self):
        for x, y in self.foreground:
            if not (0 <= x < self.width and 0 <= y < self.height):
                raise ValueError(f"foreground pixel ({x},{y}) outside {self.width}x{self.height}")

    def __contains__(self, p: Point) -> bool:
        return p in self.foreground

    def _ids(self) -> dict[int, Point]:
        """Each foreground pixel by its id (see the module docstring).  The
        decoder makes this map as it reads; an image built from a pixel set
        makes it here, on first use."""
        if self._point is None:
            object.__setattr__(self, "_point", _id_map(self.foreground, self.height + 2))
        return self._point


def _id_map(pixels, stride: int) -> dict[int, Point]:
    """`pixels` by the id (x + 1) * stride + y + 1, in the order given.  Ids
    keep tuple order, and neighbours are dx * stride + dy apart with no wrap
    between columns, whenever stride is at least max y - min y + 3."""
    return {(x + 1) * stride + y + 1: (x, y) for x, y in pixels}


def _decoded(width: int, height: int, point: dict[int, Point]) -> BinaryImage:
    """The image of the pixels in `point`, keyed by their ids.  The decoder
    has placed every pixel inside the image, so no bounds loop runs."""
    img = object.__new__(BinaryImage)
    for name, value in (("width", width), ("height", height),
                        ("foreground", frozenset(point.values())), ("_point", point)):
        object.__setattr__(img, name, value)
    return img


# One header token after any whitespace and '#' comments.  A comment runs
# through its line end, so a failed match cannot re-read its tail as a token.
_TOKEN = re.compile(rb"(?:\s|#[^\n\r]*(?:[\n\r]|\Z))*([^\s#]+)")
_COMMENT = re.compile(rb"#[^\n\r]*")
_WHITESPACE = b" \t\n\r\x0b\x0c"  # what bytes.isspace() and rb"\s" accept
_NONZERO = bytes([0] + [1] * 255)  # translates every non-zero byte to 1
# the x of each 1-bit of a P4 byte, most significant bit first: the bytes
# below 0x80 >> b followed by each of them with that bit set
_BIT_XS = [()]
for _b in range(7, -1, -1):
    _BIT_XS += [(_b,) + xs for xs in _BIT_XS]


def load_pbm(data: bytes) -> BinaryImage:
    """Decode a P1 or P4 file; any malformed input raises PbmError."""
    if not isinstance(data, (bytes, bytearray)):
        raise PbmError("load_pbm expects bytes")
    data = bytes(data)
    head = _TOKEN.match(data)
    if head is None:
        raise PbmError("empty file")
    magic = head[1]
    if magic not in (b"P1", b"P4"):
        raise PbmError(f"unsupported magic {magic!r} (want P1 or P4)")
    dims = []
    for _ in range(2):
        head = _TOKEN.match(data, head.end())
        if head is None:
            raise PbmError("truncated header: missing dimensions")
        try:
            dims.append(int(head[1]))
        except ValueError:
            raise PbmError(f"bad dimension token {head[1]!r}") from None
    width, height = dims
    if width <= 0 or height <= 0:
        raise PbmError(f"dimensions must be positive, got {width}x{height}")

    start = head.end()
    # each pixel by its id, in scan order; the divmod by the width (P1) or
    # a test on every bit (P4) keeps x < width, and the length of the pixel
    # data bounds y
    point: dict[int, Point] = {}
    stride = height + 2
    if magic == b"P1":
        body = data[start:]
        if b"#" in body:
            body = _COMMENT.sub(b"", body)
        if body.translate(None, b"01" + _WHITESPACE):
            raise PbmError("P1 pixels must be 0 or 1")
        # one replace per whitespace byte present: faster than a translate
        # that deletes, which visits every byte in a slower loop
        for ws in _WHITESPACE:
            if ws in body:
                body = body.replace(bytes((ws,)), b"")
        if len(body) != width * height:
            raise PbmError(f"expected {width * height} pixels, got {len(body)}")
        pos = body.find(b"1")
        while pos >= 0:
            y, x = divmod(pos, width)
            point[(x + 1) * stride + y + 1] = (x, y)
            pos = body.find(b"1", pos + 1)
    else:
        # raw rows start after the single whitespace byte ending the header
        if start >= len(data) or not data[start:start + 1].isspace():
            raise PbmError("P4 header must end with one whitespace byte")
        start += 1
        row_bytes = (width + 7) // 8
        need = row_bytes * height
        raw = data[start:start + need]
        if len(raw) < need:
            raise PbmError(f"truncated raster: need {need} bytes, have {len(raw)}")
        # only the non-zero bytes hold pixels, found by memchr on a 0/1 copy;
        # the bits at x >= width are row padding
        find = raw.translate(_NONZERO).find
        pos = find(1)
        while pos >= 0:
            y, x = divmod(pos, row_bytes)
            x *= 8
            for b in _BIT_XS[raw[pos]]:
                if (xb := x + b) < width:
                    point[(xb + 1) * stride + y + 1] = (xb, y)
            pos = find(1, pos + 1)
    return _decoded(width, height, point)


def dump_p1(img: BinaryImage) -> bytes:
    """The plain PBM file of the image: rows of 0s, then a 1 at each
    foreground pixel's digit."""
    row = b" ".join([b"0"] * img.width) + b"\n"
    body = bytearray(row * img.height)
    for x, y in img.foreground:
        body[y * len(row) + 2 * x] = 0x31  # b"1"
    return b"P1\n%d %d\n" % (img.width, img.height) + bytes(body)


def dump_p4(img: BinaryImage) -> bytes:
    """The raw PBM file of the image: a zero raster, then one bit set per
    foreground pixel."""
    row_bytes = (img.width + 7) // 8
    raster = bytearray(row_bytes * img.height)
    for x, y in img.foreground:
        raster[y * row_bytes + (x >> 3)] |= 0x80 >> (x & 7)
    return b"P4\n%d %d\n" % (img.width, img.height) + bytes(raster)


def image_from_ascii(art: str) -> BinaryImage:
    """Build an image from lines of '.'/'#' characters (test fixtures)."""
    rows = [line for line in art.splitlines() if line.strip()]
    width = max(len(r) for r in rows)
    fg = {(x, y) for y, row in enumerate(rows) for x, ch in enumerate(row) if ch == "#"}
    return BinaryImage(width, len(rows), frozenset(fg))
