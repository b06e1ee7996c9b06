"""The instance-file grammar (docs/instance_format.md), read into plain
Python data.

``read`` checks a whole file, every line in order, before any instance
exists: indices lie in 0..n-1, distances are finite floats, builder
arguments are named in ``BUILDER_ARGS``.  It returns a ``Coordinate`` or a
``Tabulated`` record that ``instances.build`` turns into an instance.  This
module imports no numpy, so the command line rejects a bad file before it
imports any numeric code.  ``instances.dumps`` checks what it writes by the
same rules, ``index_error`` and ``MAP_TABLES``.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Optional

from ._constants import COMPLETE, DIAGONAL, EXPLICIT
from .errors import ParseError

FORMAT_HEADER = "gproximity-instance v1"

#: The parameters of each coordinate builder, by its name in a file; a
#: test holds this table to the builders' signatures.
BUILDER_ARGS = {
    "interval": ("grid_step",),
    "ellipse": ("grid_step",),
    "segments": ("grid_step",),
    "affine-segments": ("factor", "shift", "grid_step"),
}

#: The table lines after each ``map:`` word, read, named and written by these keys.
MAP_TABLES = {"table": ("table",), "pair": ("table-t", "table-s"), "none": ()}


class Coordinate(NamedTuple):
    name: str
    builder: str
    kwargs: dict
    line: int  # of the ``builder:`` line, where a rejection of the arguments is reported


class Tabulated(NamedTuple):
    name: str
    n: int
    a: tuple
    b: tuple
    graph: str  # COMPLETE, DIAGONAL or EXPLICIT
    edges: Optional[tuple]  # (I, J): the ends of an EXPLICIT graph's edge: lines, as int lists
    tables: dict  # each table of the map, by its line's key in MAP_TABLES
    rows: list  # row i = 1..n-1 of the strict lower triangle, as i floats


class _Reader:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def more(self) -> bool:
        """Skip blank lines; True while a line is left."""
        while self.pos < len(self.lines) and not self.lines[self.pos].strip():
            self.pos += 1
        return self.pos < len(self.lines)

    def next(self, expect_key: str = None) -> str:
        if not self.more():
            raise ParseError("unexpected end of file", line=self.pos + 1)
        line = self.lines[self.pos].strip()
        self.pos += 1
        if expect_key is not None:
            prefix = expect_key + ":"
            if not line.startswith(prefix):
                raise ParseError(f"expected {prefix!r}, got {line!r}", line=self.pos)
            return line[len(prefix):].strip()
        return line

    def error(self, message: str):
        raise ParseError(message, line=self.pos)

    def ints(self, text: str, what: str) -> tuple:
        try:
            return tuple(int(tok) for tok in text.split())
        except ValueError:
            self.error(f"malformed {what} list {text!r}")

    def indices(self, what: str, n: int, count: int = None, unique: bool = False) -> tuple:
        """The next line, ``what: <i> ...``, as an index list that
        ``index_error`` passes."""
        idx = self.ints(self.next(what), what)
        if message := index_error(idx, n, what, count, unique):
            self.error(message)
        return idx

    def columns(self, count: int, n: int):
        """The next ``count`` lines as ``edge: <i> <j>`` pairs with both ends
        in 0..n-1, read in one pass into the lists (I, J); None (``pos``
        unmoved) for the caller to read them line by line instead.  Every
        line must start with ``edge: ``, and the tokens must come in threes,
        so a token moved across a line break puts a key among the ends and
        fails them."""
        text = "\n".join(self.lines[self.pos:self.pos + count])
        toks = text.split()
        if ("\n" + text).count("\nedge: ") != count or len(toks) != 3 * count:
            return None
        try:
            ends = _indices_below(n, toks[1::3] + toks[2::3])
        except (KeyError, ValueError):
            return None
        self.pos += count
        return ends[:count], ends[count:]


def index_error(idx, n: int, what: str, count: int = None, unique: bool = False):
    """What is wrong with the index list ``idx`` of a ``what:`` line, or None:
    it holds ``count`` entries (at least one when None), each of type int in
    0..n-1, and none twice when ``unique``; checked in that order."""
    if not idx or count is not None and len(idx) != count:
        return f"{what} needs {count or 'at least one'} entries, got {len(idx)}"
    bad = [i for i in idx if type(i) is not int or not 0 <= i < n]
    if bad:
        return (f"{what} index {bad[0]} outside 0..{n - 1}" if type(bad[0]) is int
                else f"{what} index {bad[0]!r} is not of type int")
    if unique and len(set(idx)) < len(idx):
        repeated = next(i for k, i in enumerate(idx) if i in idx[:k])
        return f"{what} index {repeated} repeated"
    return None


def _indices_below(n: int, toks) -> list:
    """int of each token, once per distinct one: ValueError for a token that
    is no int, KeyError for an index outside 0..n-1."""
    index = {tok: i for tok in set(toks) if 0 <= (i := int(tok)) < n}
    return list(map(index.__getitem__, toks))


def _parse_value(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read(text: str) -> Coordinate | Tabulated:
    """The checked contents of an instance file's text; ParseError, with
    the 1-based line, at the first line the grammar rejects."""
    r = _Reader(text)
    if r.next() != FORMAT_HEADER:
        raise ParseError(f"missing header {FORMAT_HEADER!r}", line=1)
    name = r.next("name")
    kind = r.next("kind")
    if kind == "coordinate":
        builder = r.next("builder")
        if builder not in BUILDER_ARGS:
            r.error(f"unknown builder {builder!r}")
        builder_line = r.pos
        kwargs = {}
        while r.more():
            body = r.next("arg")
            if "=" not in body:
                r.error(f"malformed arg {body!r}")
            key, value = body.split("=", 1)
            key = key.strip()
            if key not in BUILDER_ARGS[builder]:
                r.error(f"builder {builder!r} takes no argument {key!r}")
            if key in kwargs:
                r.error(f"argument {key!r} repeated")
            kwargs[key] = _parse_value(value.strip())
        return Coordinate(name, builder, kwargs, builder_line)
    if kind != "tabulated":
        r.error(f"unknown kind {kind!r}")
    try:
        n = int(r.next("n"))
    except ValueError:
        r.error("malformed point count")
    if n < 1:
        r.error(f"point count {n} is not positive")
    a = r.indices("A", n, unique=True)
    b = r.indices("B", n, unique=True)
    gspec = r.next("graph")
    words = gspec.split()
    edges = None
    if gspec in (COMPLETE, DIAGONAL):
        graph = gspec
    elif words[:1] == ["edges"]:
        graph = EXPLICIT
        try:
            (count,) = map(int, words[1:])
        except ValueError:
            r.error(f"malformed edge count in {gspec!r}")
        if count < 0:
            r.error(f"edge count {count} is negative")
        edges = r.columns(count, n)
        if edges is None:
            edges = [], []
            for _ in range(count):
                body = r.next("edge")
                pair = r.ints(body, "edge")
                if len(pair) != 2:
                    r.error(f"malformed edge {body!r}")
                if message := index_error(pair, n, "edge"):
                    r.error(message)
                edges[0].append(pair[0])
                edges[1].append(pair[1])
    else:
        r.error(f"unknown graph spec {gspec!r}")
    mspec = r.next("map")
    if mspec not in MAP_TABLES:
        r.error(f"unknown map spec {mspec!r}")
    tables = {key: r.indices(key, n, n) for key in MAP_TABLES[mspec]}
    if r.next() != "dist:":
        r.error("expected 'dist:' section")
    rows = []
    for i in range(1, n):
        row = r.next("row").split()
        if len(row) != i:
            r.error(f"row {i} must carry {i} entries, got {len(row)}")
        try:
            rows.append(list(map(float, row)))
        except ValueError:
            r.error(f"malformed distance in row {i}")
        if not all(map(math.isfinite, rows[-1])):
            r.error(f"non-finite distance in row {i}")
    if r.more():
        extra = r.next()
        r.error(f"unexpected line {extra!r} after the distance rows")
    return Tabulated(name, n, a, b, graph, edges, tables, rows)


def read_file(path) -> Coordinate | Tabulated:
    """``read`` of the file at ``path``; a file that is not UTF-8 text is a
    ParseError on the line of its first undecodable byte."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}",
                         line=data.count(b"\n", 0, exc.start) + 1) from None
    return read(text)
