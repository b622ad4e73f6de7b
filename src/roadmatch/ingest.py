"""Reading and writing graph snapshots.

Two inputs are supported: the native ERG interchange format, which carries
the rotation system verbatim, and a geographic segment format from which
rotations are derived by clockwise bearing sort.  Polyline inputs are first
collapsed to their endpoints so curved roads do not introduce chains of
degree-2 vertices.  A file must be UTF-8 text; any other is an
``InputError`` naming the file and the byte (``read_utf8``, which also
reads matching files).  One leading byte-order mark is dropped.

Matching is topological, so most commands never read a coordinate.  The
readers take ``coords``: when it is false, every coordinate is still
parsed and checked, and a file is refused with the same error either way,
but the graph carries none (an ERG file's coordinates are never stored,
a segment file's are dropped once they have given the rotations).
``match``, ``tune-k``, ``oracle`` and ``label`` read without them;
``validate`` and ``perturb`` keep them.

A parsed rotation system names each vertex id with one int object:
reading a number makes a fresh int for every mention of a neighbour,
and ``parse_erg`` keeps one per id instead, from a list that grows to
the largest id the file names.  ``emit_erg``
writes a graph back; ``erg_lines`` gives the same text a line at a
time, for writers that need not hold it whole.

``load_pair`` reads the two snapshots of a pair.  When the second file
holds at least ``PARSE_WORKER_MIN_BYTES`` and ``worker.job`` can fork (two
usable CPUs among its conditions), a worker forked from this process
reads and parses the second file while this process parses the first,
sends the graph back as ``load_graph`` would return it, so with no
coordinates unless they are asked for, and is reaped as soon as it is
received; otherwise both are parsed here, one after the other.  A
graph received from the worker has its vertex ids shared again here,
since unpickling makes an int for every mention.  The graphs and the
errors are the same either way: the first file's error wins, and the
second file's is raised only once the first has parsed.  Labeling is no
part of it: a pair command labels the graphs it holds
(``labeling.labeling_job``).
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

from . import worker
from .errors import InputError
from .graph import EmbeddedGraph, coords_error, lonlat_ok

ERG_HEADER = "ERG 1"

# The most vertices an ERG file may declare.  Parsing makes a rotation
# entry for each declared vertex, the file's lines or not, so a larger
# ``n`` is an input error rather than an allocation that hangs or fails.
# Ten times a 1000 x 1000 grid.
MAX_VERTICES = 10_000_000


@dataclass
class SegmentSet:
    """Polylines of (lon, lat) points, one per road."""

    polylines: list[list[tuple[float, float]]]

    def __post_init__(self):
        for i, line in enumerate(self.polylines):
            if len(line) < 2:
                raise InputError(f"polyline {i} has fewer than 2 points")


# --- ERG format ---------------------------------------------------------


def parse_erg(text: str, coords: bool = True) -> EmbeddedGraph:
    """The graph of an ERG document; InputError naming the first fault.

    With ``coords`` false the graph has no coordinates, and none is stored
    while parsing, but the document is checked as it would be with them:
    each ``v`` line's id and numbers, then, after the rotation checks, the
    coordinate rule (``graph.lonlat_ok``) at the lowest vertex id.  Every
    mention of a vertex id in the rotations is one int object.
    """
    n = None
    kept: dict[int, tuple[float, float]] = {}
    bad = None  # (id, (lon, lat)) of the lowest invalid coordinates not kept
    adjacency: dict[int, tuple[int, ...]] = {}
    ids: list[int] = []  # ids[u] is u, the one int object the rotations use
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != ERG_HEADER:
                raise InputError(f"line {lineno}: expected '{ERG_HEADER}' header")
            header_seen = True
            continue
        parts = line.split()
        tag = parts[0]
        try:
            if tag == "n":
                if n is not None:
                    raise InputError(f"line {lineno}: duplicate 'n' line")
                n = int(parts[1])
                if n < 0 or len(parts) != 2:
                    raise ValueError
                if n > MAX_VERTICES:
                    raise InputError(
                        f"line {lineno}: n = {n} is above the limit of {MAX_VERTICES} vertices"
                    )
                listed = bytearray(n)  # 1 at each id whose 'v' line has been read
            elif tag == "v":
                if n is None:
                    raise InputError(f"line {lineno}: 'v' before 'n'")
                vid = int(parts[1])
                if not 0 <= vid < n:
                    raise InputError(f"line {lineno}: undeclared vertex {vid}")
                if listed[vid]:
                    raise InputError(f"line {lineno}: duplicate vertex id {vid}")
                listed[vid] = 1
                if len(parts) == 4:
                    lon, lat = float(parts[2]), float(parts[3])
                    if coords:
                        kept[vid] = (lon, lat)
                    elif not lonlat_ok(lon, lat) and (bad is None or vid < bad[0]):
                        bad = vid, (lon, lat)
                elif len(parts) != 2:
                    raise ValueError
            elif tag == "a":
                if n is None:
                    raise InputError(f"line {lineno}: 'a' before 'n'")
                vid = int(parts[1])
                if not 0 <= vid < n:
                    raise InputError(f"line {lineno}: undeclared vertex {vid}")
                if vid in adjacency:
                    raise InputError(f"line {lineno}: duplicate adjacency for vertex {vid}")
                nbrs = tuple(map(int, parts[2:]))
                if nbrs:
                    top = max(nbrs)
                    if top >= n or min(nbrs) < 0:
                        u = next(u for u in nbrs if not 0 <= u < n)
                        raise InputError(f"line {lineno}: undeclared vertex {u} in adjacency")
                    if top >= len(ids):
                        ids += range(len(ids), top + 1)
                    nbrs = _picked(ids, nbrs)
                adjacency[vid] = nbrs
            else:
                raise InputError(f"line {lineno}: unknown record '{tag}'")
        except (ValueError, IndexError):
            raise InputError(f"line {lineno}: malformed record: {line!r}") from None
    if not header_seen:
        if text.strip():
            raise InputError("line 1: missing ERG header")
        raise InputError("empty document: missing ERG header")
    if n is None:
        raise InputError("missing 'n' line")
    rotation = tuple(adjacency.get(v, ()) for v in range(n))
    graph_coords = tuple(kept.get(v) for v in range(n)) if kept else None
    try:
        g = EmbeddedGraph(rotation, graph_coords)
        if bad is not None:
            raise coords_error(*bad)
    except InputError as e:
        raise InputError(f"invalid graph: {e}") from None
    return g


def _picked(ids: list[int], nbrs: tuple[int, ...]) -> tuple[int, ...]:
    """The items of ``ids`` at the positions nbrs, at least one, as a tuple."""
    # One position would give its item bare rather than in a tuple.
    return itemgetter(*nbrs)(ids) if len(nbrs) > 1 else (ids[nbrs[0]],)


def share_ids(rotation: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The rotation system of a valid graph with each vertex id one int object.

    Unpickling makes a fresh int for every mention of a vertex; shared, a
    vertex costs one int however many rotations name it.  Adjacency is
    symmetric, so the last vertex with neighbours is the largest id named,
    and the list of shared ids stops there, as ``parse_erg``'s does.
    ``parse_erg`` shares each line's ids as it reads them rather than
    calling this: a pass over the built rotation would cost a 40k-vertex
    parse 12 ms more and hold a fresh int per mention until it ends.
    """
    named = len(rotation)
    while named and not rotation[named - 1]:
        named -= 1
    ids = list(range(named))
    return tuple([_picked(ids, rot) if rot else rot for rot in rotation])


def erg_lines(g: EmbeddedGraph) -> Iterator[str]:
    """The ERG document of g, a line at a time, each with its newline, so
    that a writer never holds the whole document; ``emit_erg`` joins them."""
    yield f"{ERG_HEADER}\nn {g.vertex_count}\n"
    if g.coords is not None:
        for v, c in enumerate(g.coords):
            if c is not None:
                yield f"v {v} {c[0]!r} {c[1]!r}\n"
    for v, rot in enumerate(g.rotation):
        if rot:
            yield f"a {v} {' '.join(map(str, rot))}\n"


def emit_erg(g: EmbeddedGraph) -> str:
    """Deterministic inverse of parse_erg: vertices ascending, rotations as stored."""
    return "".join(erg_lines(g))


# --- segment format -----------------------------------------------------


def parse_segments(text: str) -> SegmentSet:
    polylines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "s":
            raise InputError(f"line {lineno}: expected 's' record")
        points = []
        try:
            for p in parts[1:]:
                lon, lat = p.split(",")
                points.append((float(lon), float(lat)))
        except ValueError:
            raise InputError(f"line {lineno}: malformed point in {line!r}") from None
        if len(points) < 2:
            raise InputError(f"line {lineno}: polyline needs at least 2 points")
        polylines.append(points)
    return SegmentSet(polylines)


def collapse_polylines(s: SegmentSet) -> SegmentSet:
    """Reduce every polyline to its two endpoints."""
    return SegmentSet([[line[0], line[-1]] for line in s.polylines])


def bearing_degrees(src: tuple[float, float], dst: tuple[float, float]) -> float:
    """Compass bearing of dst as seen from src: 0 = due north, clockwise positive.

    The longitude difference is taken the short way round, in [-180, 180),
    so a road that crosses the antimeridian points the way it runs.
    """
    dlon = dst[0] - src[0]
    # One shift suffices for longitudes in [-180, 180]; a difference already
    # in range is left exactly as it is.
    if dlon >= 180.0:
        dlon -= 360.0
    elif dlon < -180.0:
        dlon += 360.0
    dlat = dst[1] - src[1]
    return math.degrees(math.atan2(dlon, dlat)) % 360.0


def rotation_from_coords(coords, neighbor_lists) -> tuple[tuple[int, ...], ...]:
    """Sort each vertex's neighbors by compass bearing (clockwise from north).

    Bearing ties break by ascending neighbor id so construction stays
    deterministic.  ``bearing_degrees`` is called once per dart.
    """
    rotation = []
    for src, nbrs in zip(coords, neighbor_lists):
        darts = [(bearing_degrees(src, coords[u]), u) for u in nbrs]
        darts.sort()
        rotation.append(tuple([dart[1] for dart in darts]))
    return tuple(rotation)


def build_graph_from_segments(s: SegmentSet) -> EmbeddedGraph:
    """One vertex per distinct endpoint, one edge per segment; endpoints
    are identified exactly."""
    collapsed = collapse_polylines(s)
    vertex_of: dict[tuple[float, float], int] = {}
    coords: list[tuple[float, float]] = []
    edges = []
    for i, (a, b) in enumerate(collapsed.polylines):
        if a == b:
            raise InputError(f"segment {i} has identical endpoints {a}")
        for p in (a, b):
            if p not in vertex_of:
                vertex_of[p] = len(coords)
                coords.append(p)
        edges.append((vertex_of[a], vertex_of[b]))

    nbrs: list[set[int]] = [set() for _ in coords]
    for i, (u, v) in enumerate(edges):
        if v in nbrs[u]:
            raise InputError(f"segment {i} duplicates an existing edge ({u},{v})")
        nbrs[u].add(v)
        nbrs[v].add(u)
    rotation = rotation_from_coords(coords, nbrs)
    return EmbeddedGraph(rotation, tuple(coords))


def read_utf8(path: str) -> str:
    """The text of the file at path without one leading byte-order mark;
    InputError naming the file and the offset of the first byte that is
    not UTF-8, counted from the start of the file, a mark included."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not UTF-8 text at byte {e.start}") from None
    return text.removeprefix("\ufeff")


def load_graph(path: str, fmt: str = "erg", coords: bool = True) -> EmbeddedGraph:
    """The graph in the file at path (``read_utf8``), in format fmt, with
    its coordinates only if ``coords``; the same InputError either way."""
    text = read_utf8(path)
    if fmt == "erg":
        return parse_erg(text, coords)
    if fmt == "segments":
        g = build_graph_from_segments(parse_segments(text))
        return g if coords else g.without_coords()
    raise InputError(f"unknown format {fmt!r}")


# --- both snapshots of a pair -------------------------------------------

# Below this size of the second file, parsing it in a worker costs more
# than it saves (forking it, sending the graph back).  Timed alone
# (``load_pair``, medians of 15-21 alternating runs, ERG files of irregular
# grids, 2 vCPUs, Python 3.11.7), the two ways tie at 37-80 kB from a small
# heap and at 80-125 kB from a 68 MB one; at 125 kB (3k vertices) the
# worker saves 5-28%, at 0.31 MB (7k) 40%.
PARSE_WORKER_MIN_BYTES = 100_000


def _snapshot_job(path: str, fmt: str, coords: bool) -> Iterator:
    """The pair worker's job: one reply, ``load_graph(path, fmt, coords)``."""
    yield load_graph(path, fmt, coords)


def load_pair(
    path1: str, path2: str, fmt: str = "erg", coords: bool = True
) -> tuple[EmbeddedGraph, EmbeddedGraph]:
    """``(load_graph(path1, fmt, coords), load_graph(path2, fmt, coords))``.

    When the second file holds at least ``PARSE_WORKER_MIN_BYTES`` bytes,
    a worker process (when ``worker.job`` can fork one) reads and parses
    the second file while this one parses the first; it is killed and
    reaped once its graph is received, and the ids of that unpickled
    graph are shared again (``share_ids``).  Errors are those of the
    two ``load_graph`` calls made in order: the second file's ``InputError``
    or ``OSError`` is raised only once the first file has parsed cleanly.
    """
    try:
        big = os.path.getsize(path2) >= PARSE_WORKER_MIN_BYTES
    except OSError:
        big = False  # parsing it raises the error, in order
    with worker.job(_snapshot_job, path2, fmt, coords, in_worker=big) as second:
        g1 = load_graph(path1, fmt, coords)
        g2 = second.receive()
    if second.forked:
        g2.rotation = share_ids(g2.rotation)
    return g1, g2
