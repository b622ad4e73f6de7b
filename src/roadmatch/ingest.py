"""Reading and writing graph snapshots.

Two inputs are supported: the native ERG interchange format, which carries
the rotation system verbatim, and a geographic segment format from which
rotations are derived by clockwise bearing sort.  Polyline inputs are first
collapsed to their endpoints so curved roads do not introduce chains of
degree-2 vertices.  A file must be UTF-8 text; any other is an
``InputError`` naming the file.

Matching is topological, so most commands never read a coordinate.  The
readers take ``coords``: when it is false, every coordinate is still
parsed and checked, and a file is refused with the same error either way,
but the graph carries none (an ERG file's coordinates are never stored,
a segment file's are dropped once they have given the rotations).
``match``, ``tune-k``, ``oracle`` and ``label`` read without them;
``validate`` and ``perturb`` keep them.

``load_pair`` reads the two snapshots of a pair.  When the second file
holds at least ``PARSE_WORKER_MIN_BYTES`` and ``worker.job`` can fork (two
usable CPUs among its conditions), a worker forked from this process
reads and parses the second file while this process parses the first,
sends the graph back as ``load_graph`` would return it, so with no
coordinates unless they are asked for, and is reaped as soon as it is
received; otherwise both are parsed here, one after the other.  The
graphs and the errors are the same either way: the first file's error
wins, and the second file's is raised only once the first has parsed.
Labeling is no part of it: a pair command labels the graphs it holds
(``labeling.labeling_job``).
"""

from __future__ import annotations

import math
import os
from collections.abc import Iterator
from dataclasses import dataclass

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
    coordinate rule (``graph.lonlat_ok``) at the lowest vertex id.
    """
    n = None
    kept: dict[int, tuple[float, float]] = {}
    bad = None  # (id, (lon, lat)) of the lowest invalid coordinates not kept
    adjacency: dict[int, tuple[int, ...]] = {}
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
                nbrs = tuple(int(p) for p in parts[2:])
                for u in nbrs:
                    if not 0 <= u < n:
                        raise InputError(f"line {lineno}: undeclared vertex {u} in adjacency")
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


def emit_erg(g: EmbeddedGraph) -> str:
    """Deterministic inverse of parse_erg: vertices ascending, rotations as stored."""
    lines = [ERG_HEADER, f"n {g.vertex_count}"]
    if g.coords is not None:
        lines += [f"v {v} {c[0]!r} {c[1]!r}" for v, c in enumerate(g.coords) if c is not None]
    lines += [f"a {v} {' '.join(map(str, rot))}" for v, rot in enumerate(g.rotation) if rot]
    return "\n".join(lines) + "\n"


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


def load_graph(path: str, fmt: str = "erg", coords: bool = True) -> EmbeddedGraph:
    """The graph in the file at path, in format fmt, with its coordinates
    only if ``coords``; the same InputError either way."""
    with open(path, "rb") as fh:
        try:
            text = fh.read().decode("utf-8")
        except UnicodeDecodeError as e:
            raise InputError(f"{path}: not UTF-8 text at byte {e.start}") from None
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
    reaped once its graph is received.  Errors are those of the two
    ``load_graph`` calls made in order: the second file's ``InputError``
    or ``OSError`` is raised only once the first file has parsed cleanly.
    """
    try:
        big = os.path.getsize(path2) >= PARSE_WORKER_MIN_BYTES
    except OSError:
        big = False  # parsing it raises the error, in order
    with worker.job(_snapshot_job, path2, fmt, coords, in_worker=big) as second:
        g1 = load_graph(path1, fmt, coords)
        return g1, second.receive()
