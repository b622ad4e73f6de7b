import os
import re
import tempfile
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadmatch import ingest
from roadmatch.errors import InputError
from roadmatch.generator import gen_irregular_grid
from roadmatch.graph import EmbeddedGraph
from roadmatch.ingest import (
    SegmentSet,
    bearing_degrees,
    build_graph_from_segments,
    collapse_polylines,
    emit_erg,
    load_graph,
    load_pair,
    parse_erg,
    parse_segments,
    read_utf8,
    rotation_from_coords,
)

from conftest import (
    assert_no_children,
    edge_count,
    embedded_graphs,
    forced_worker,
    no_worker,
    reference_rotation_from_coords,
    segments_text,
)
from test_labeling import scattered_graphs

TRIANGLE = """\
ERG 1
n 3
a 0 1 2
a 1 2 0
a 2 0 1
"""


def erg_error(text: str) -> str:
    """The InputError message of ``parse_erg(text)``, which must be the same
    whether coordinates are kept or not."""
    messages = []
    for coords in (True, False):
        with pytest.raises(InputError) as info:
            parse_erg(text, coords)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    return messages[0]


class TestParseErg:
    def test_triangle(self):
        g = parse_erg(TRIANGLE)
        assert g.vertex_count == 3
        assert edge_count(g) == 3
        assert g.rotation[0] == (1, 2)

    def test_empty_graph(self):
        g = parse_erg("ERG 1\nn 0\n")
        assert g.vertex_count == 0

    def test_comments_and_blank_lines_ignored(self):
        g = parse_erg("# hello\n\nERG 1\nn 1\n# trailing\n")
        assert g.vertex_count == 1

    def test_undeclared_vertex_names_line(self):
        text = "ERG 1\nn 2\na 0 1\na 1 0 5\n"
        assert re.search("line 4", erg_error(text))

    def test_missing_header(self):
        assert re.search("header", erg_error("n 3\n"))

    def test_duplicate_vertex_id(self):
        assert re.search("duplicate vertex id", erg_error("ERG 1\nn 1\nv 0 1.0 2.0\nv 0 1.0 2.0\n"))

    @pytest.mark.parametrize(
        "first, second",
        [("v 0", "v 0"), ("v 0", "v 0 1 2"), ("v 0 1 2", "v 0")],
        ids=["bare-bare", "bare-coords", "coords-bare"],
    )
    def test_duplicate_vertex_id_with_or_without_coordinates(self, first, second):
        text = f"ERG 1\nn 1\n{first}\n{second}\n"
        assert erg_error(text) == "line 4: duplicate vertex id 0"

    def test_symmetry_violation_rejected(self):
        assert re.search("asymmetric", erg_error("ERG 1\nn 2\na 0 1\n"))

    def test_coords_parsed(self):
        g = parse_erg("ERG 1\nn 2\nv 0 -122.5 37.5\na 0 1\na 1 0\n")
        assert g.coords[0] == (-122.5, 37.5)
        assert g.coords[1] is None

    @pytest.mark.parametrize("n", [ingest.MAX_VERTICES + 1, 10**10])
    def test_vertex_count_above_limit_names_line(self, n):
        # Rejected at the 'n' line, before a rotation entry is made for
        # any vertex.
        tracemalloc.start()
        try:
            message = erg_error(f"ERG 1\n# declared\nn {n}\na 0 1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert re.search(f"line 3: n = {n} is above the limit", message)
        assert peak < 1 << 20


class TestEmitErg:
    def test_empty_graph_is_header_only(self):
        g = parse_erg("ERG 1\nn 0\n")
        assert emit_erg(g) == "ERG 1\nn 0\n"

    def test_deterministic(self):
        g = parse_erg(TRIANGLE)
        assert emit_erg(g) == emit_erg(g)

    @given(embedded_graphs())
    def test_round_trip(self, g):
        g2 = parse_erg(emit_erg(g))
        assert g2.rotation == g.rotation
        assert g2.coords == g.coords

    @given(embedded_graphs())
    def test_round_trip_up_to_the_vertex_limit(self, g):
        # A limit of exactly g's vertex count still reads it back; one
        # below rejects it.
        text = emit_erg(g)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ingest, "MAX_VERTICES", g.vertex_count)
            assert parse_erg(text).rotation == g.rotation
            mp.setattr(ingest, "MAX_VERTICES", g.vertex_count - 1)
            with pytest.raises(InputError, match="line 2: .* above the limit"):
                parse_erg(text)


def shifted(g: EmbeddedGraph, shift: int) -> EmbeddedGraph:
    """g with every vertex id raised by ``shift``, isolated vertices below:
    ids past 256, which CPython does not keep one int object for."""
    return EmbeddedGraph(((),) * shift + tuple(tuple(u + shift for u in rot) for rot in g.rotation))


def assert_ids_shared(g: EmbeddedGraph) -> None:
    """Every mention of a vertex id in g's rotation is the same int object."""
    seen: dict[int, int] = {}
    for rot in g.rotation:
        for u in rot:
            assert seen.setdefault(u, u) is u


class TestSharedIds:
    """A parsed graph names each vertex id with one int object, however it
    reached this process."""

    @given(scattered_graphs(), st.integers(300, 1000))
    @settings(max_examples=30, deadline=None)
    def test_parse_erg(self, g, shift):
        g = shifted(g, shift)
        for coords in (True, False):
            got = parse_erg(emit_erg(g), coords)
            assert got == g
            assert_ids_shared(got)

    @pytest.mark.usefixtures("deadline")
    @given(scattered_graphs(), scattered_graphs(), st.integers(300, 1000), st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_load_pair(self, g1, g2, shift, in_worker):
        graphs = shifted(g1, shift), shifted(g2, shift + 7)
        with tempfile.TemporaryDirectory() as d:
            paths = [os.path.join(d, name) for name in ("g1.erg", "g2.erg")]
            for path, g in zip(paths, graphs):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(emit_erg(g))
            if in_worker:
                with forced_worker() as started:
                    got = load_pair(*paths)
                assert len(started) == 1
            else:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(os, "fork", no_worker)
                    got = load_pair(*paths)
        assert got == graphs
        for g in got:
            assert_ids_shared(g)
        assert_no_children()


class TestSegments:
    def test_collapse_keeps_endpoints(self):
        s = SegmentSet([[(float(i), float(i)) for i in range(7)]])
        out = collapse_polylines(s)
        assert out.polylines == [[(0.0, 0.0), (6.0, 6.0)]]

    def test_collapse_two_point_unchanged(self):
        s = SegmentSet([[(0.0, 0.0), (1.0, 1.0)]])
        assert collapse_polylines(s).polylines == s.polylines

    def test_short_polyline_rejected(self):
        with pytest.raises(InputError):
            SegmentSet([[(0.0, 0.0)]])

    def test_parse_segments(self):
        s = parse_segments("s 0,0 1,0 2,0\ns 2,0 2,1\n")
        assert len(s.polylines) == 2

    def test_bearing_north_is_zero(self):
        assert bearing_degrees((0.0, 0.0), (0.0, 1.0)) == 0.0
        assert bearing_degrees((0.0, 0.0), (1.0, 0.0)) == 90.0


@st.composite
def shiftable_segments(draw):
    """Segments between distinct points at whole degrees, longitudes in
    [-180, 180), no edge twice: any longitudes, so roads may run across
    the antimeridian."""
    points = draw(
        st.lists(
            st.tuples(st.integers(-180, 179), st.integers(-90, 90)),
            min_size=2, max_size=12, unique=True,
        )
    )
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, len(points) - 1), st.integers(0, len(points) - 1))
            .filter(lambda e: e[0] != e[1])
            .map(lambda e: (min(e), max(e))),
            min_size=1, max_size=20, unique=True,
        )
    )
    as_float = [(float(lon), float(lat)) for lon, lat in points]
    return SegmentSet([[as_float[a], as_float[b]] for a, b in pairs])


class TestBuildFromSegments:
    def test_plus_junction_rotation(self):
        # Four arms north, east, south, west: clockwise from north.
        s = parse_segments("s 0,0 0,1\ns 0,0 1,0\ns 0,0 0,-1\ns 0,0 -1,0\n")
        g = build_graph_from_segments(s)
        center = g.coords.index((0.0, 0.0))
        arms = [g.coords[u] for u in g.rotation[center]]
        assert arms == [(0.0, 1.0), (1.0, 0.0), (0.0, -1.0), (-1.0, 0.0)]

    def test_l_corner_degree(self):
        s = parse_segments("s 0,0 1,0\ns 1,0 1,1\n")
        g = build_graph_from_segments(s)
        corner = g.coords.index((1.0, 0.0))
        assert g.degree(corner) == 2

    def test_shared_endpoint_merges(self):
        s = SegmentSet([[(0.0, 0.0), (1.0, 0.0)], [(1.0, 0.0), (2.0, 0.0)]])
        g = build_graph_from_segments(s)
        assert g.vertex_count == 3

    def test_curved_road_collapses(self):
        s = parse_segments("s 0,0 0.4,0.1 0.6,0.2 1,0\n")
        g = build_graph_from_segments(s)
        assert g.vertex_count == 2
        assert edge_count(g) == 1

    def test_zero_length_segment_rejected(self):
        s = SegmentSet([[(0.0, 0.0), (0.0, 0.0)]])
        with pytest.raises(InputError, match="segment 0"):
            build_graph_from_segments(s)

    def test_snap_epsilon(self):
        # Endpoints are identified exactly: near-coincident ones stay distinct.
        s = SegmentSet([[(0.0, 0.0), (1.0, 0.0)], [(1.0000001, 0.0), (2.0, 0.0)]])
        assert build_graph_from_segments(s).vertex_count == 4

    def test_validates(self):
        s = parse_segments("s 0,0 1,0\ns 0,0 0,1\ns 1,0 0,1\n")
        g = build_graph_from_segments(s)  # construction runs full validation
        assert edge_count(g) == 3

    def test_antimeridian_crossing(self):
        # Vertex 0 sits just west of the antimeridian; its east arm crosses
        # it.  Clockwise from north: north, east, south, west.
        s = parse_segments(
            "s 179.9,0 -179.9,0\ns 179.9,0 179.9,0.1\ns 179.9,0 179.9,-0.1\ns 179.9,0 179.8,0\n"
        )
        g = build_graph_from_segments(s)
        assert g.rotation[0] == (2, 1, 3, 4)
        assert bearing_degrees((179.9, 0.0), (-179.9, 0.0)) == 90.0
        assert bearing_degrees((-179.9, 0.0), (179.9, 0.0)) == 270.0

    @given(shiftable_segments(), st.integers(-360, 360))
    @settings(max_examples=200, deadline=None)
    def test_rotations_invariant_under_longitude_shift(self, segments, shift):
        # Integer degrees keep every difference exact, so the bearings
        # before and after the shift are the same floats.
        def wrapped(p):
            return (float((p[0] + shift + 180) % 360 - 180), p[1])

        moved = SegmentSet([[wrapped(a), wrapped(b)] for a, b in segments.polylines])
        assert build_graph_from_segments(moved).rotation == (
            build_graph_from_segments(segments).rotation
        )


@st.composite
def neighbourhoods(draw):
    """(coords, neighbour lists): points at whole degrees either side of
    the antimeridian, in a box small enough that many neighbours of a
    vertex lie on one ray from it, and for each vertex any other vertices
    as its neighbours, in any order."""
    lons = list(range(176, 180)) + list(range(-180, -176))
    points = st.tuples(st.sampled_from(lons), st.integers(-2, 2)).map(
        lambda p: (float(p[0]), float(p[1]))
    )
    coords = draw(st.lists(points, min_size=1, max_size=10))
    ids = range(len(coords))
    nbrs = []
    for v in ids:
        others = draw(st.permutations([u for u in ids if u != v]))
        nbrs.append(others[: draw(st.integers(0, len(others)))])
    return coords, nbrs


class TestRotationFromCoords:
    @given(neighbourhoods())
    @example(
        # Vertex 0's neighbours 4, 1 and 2 lie due east of it on one ray,
        # 1 and 2 across the antimeridian, so they go by id; 3 lies
        # north-east.
        ([(179.0, 0.0), (-179.0, 0.0), (-178.0, 0.0), (-179.0, 2.0), (180.0, 0.0)],
         [[4, 3, 2, 1], [], [], [], []]),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        coords, nbrs = case
        assert rotation_from_coords(coords, nbrs) == reference_rotation_from_coords(coords, nbrs)

    def test_equal_bearings_break_by_id(self):
        coords = [(0.0, 0.0), (2.0, 2.0), (1.0, 1.0), (0.0, 1.0), (-179.0, 0.0), (179.0, 0.0)]
        assert rotation_from_coords(coords, [[4, 2, 1, 3], [], [], [], [], []])[0] == (3, 1, 2, 4)
        # Across the antimeridian, due east and due west of vertex 5.
        assert rotation_from_coords(coords, [[], [], [], [], [], [0, 4]])[5] == (4, 0)


# --- malformed input ----------------------------------------------------


@st.composite
def mutated_documents(draw):
    """(format, bytes): a valid ERG or segment document of a small grid,
    with one to four tokens inserted, deleted or swapped, or random bytes
    added."""
    fmt = draw(st.sampled_from(["erg", "segments"]))
    g = gen_irregular_grid(3, draw(st.integers(2, 4)), 0.2, draw(st.integers(0, 3)))
    doc = emit_erg(g).encode() if fmt == "erg" else segments_text(g).encode()
    tokens = re.findall(rb"\S+|\s+", doc)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(tokens)))
        how = draw(st.sampled_from(["insert", "delete", "swap", "bytes"]))
        if how == "insert" and tokens:
            tokens.insert(i, draw(st.sampled_from(tokens)))
        elif how == "delete" and i < len(tokens):
            del tokens[i]
        elif how == "swap" and i < len(tokens):
            j = draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens.insert(i, draw(st.binary(min_size=1, max_size=8)))
    return fmt, b"".join(tokens)


@st.composite
def coordinate_faults(draw):
    """An ERG document of a small grid whose 'v' lines may carry numbers out
    of range, NaN, infinities or a word, and whose adjacency may have lost
    one entry."""
    g = gen_irregular_grid(3, draw(st.integers(2, 4)), 0.2, draw(st.integers(0, 3)))
    lines = emit_erg(g).splitlines()
    values = st.sampled_from(
        ["nan", "inf", "-inf", "180", "-180", "90", "-90", "180.5", "-180.5", "90.5", "-90.5", "x"]
    )
    vs = [i for i, line in enumerate(lines) if line.startswith("v ")]
    for i in draw(st.lists(st.sampled_from(vs), max_size=3)):
        parts = lines[i].split()
        parts[draw(st.sampled_from([2, 3]))] = draw(values)
        lines[i] = " ".join(parts)
    if draw(st.booleans()):
        a = draw(st.sampled_from([i for i, line in enumerate(lines) if line.startswith("a ")]))
        lines[a] = lines[a].rsplit(" ", 1)[0]
    return "erg", ("\n".join(lines) + "\n").encode()


def outcome(load, *args):
    """What load returns, or the type and message of the InputError or
    OSError it raises."""
    try:
        return load(*args)
    except (InputError, OSError) as e:
        return type(e), str(e)


def loads_or_input_error(load, *args):
    """Call load; an InputError or OSError is a clean rejection, any other
    exception fails the test."""
    try:
        load(*args)
    except (InputError, OSError):
        pass


class TestMalformedInput:
    @given(mutated_documents())
    @settings(max_examples=300, deadline=None)
    def test_load_graph(self, case):
        fmt, data = case
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "g")
            with open(path, "wb") as fh:
                fh.write(data)
            loads_or_input_error(load_graph, path, fmt)

    @given(mutated_documents() | coordinate_faults())
    @settings(max_examples=300, deadline=None)
    def test_load_modes_agree(self, case):
        # Without coordinates, the same error, or the same graph less its
        # coordinates.
        fmt, data = case
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "g")
            with open(path, "wb") as fh:
                fh.write(data)
            kept, bare = (outcome(load_graph, path, fmt, coords) for coords in (True, False))
        if isinstance(kept, EmbeddedGraph):
            kept = kept.without_coords()
        assert kept == bare

    @pytest.mark.usefixtures("deadline")
    @given(mutated_documents())
    @settings(max_examples=25, deadline=None)
    def test_load_pair_in_worker(self, case):
        # The mutated file is the second one, parsed in the worker: an
        # exception other than InputError or OSError would end the worker
        # and come back as InternalError.
        fmt, data = case
        with tempfile.TemporaryDirectory() as d:
            path = os.path.join(d, "g")
            with open(path, "wb") as fh:
                fh.write(data)
            good = os.path.join(d, "good")
            g = gen_irregular_grid(2, 2, 0.0, 0)
            with open(good, "wb") as fh:
                fh.write(emit_erg(g).encode() if fmt == "erg" else segments_text(g).encode())
            with forced_worker() as started:
                loads_or_input_error(load_pair, good, path, fmt)
            assert len(started) == 1
        assert_no_children()


# (format, document, message): refused with this message whether the
# coordinates are kept or not.
MALFORMED = {
    "erg-nan": (
        "erg", "ERG 1\nn 2\nv 0 nan 1\na 0 1\na 1 0\n",
        "invalid graph: vertex 0 has invalid coordinates (nan, 1.0)",
    ),
    "erg-inf": (
        "erg", "ERG 1\nn 2\nv 1 1 inf\na 0 1\na 1 0\n",
        "invalid graph: vertex 1 has invalid coordinates (1.0, inf)",
    ),
    "erg-minus-inf": (
        "erg", "ERG 1\nn 2\nv 0 -inf 0\na 0 1\na 1 0\n",
        "invalid graph: vertex 0 has invalid coordinates (-inf, 0.0)",
    ),
    "erg-lat-90.5": (
        "erg", "ERG 1\nn 2\nv 0 10 90\nv 1 10 90.5\na 0 1\na 1 0\n",
        "invalid graph: vertex 1 has invalid coordinates (10.0, 90.5)",
    ),
    "erg-lon-minus-180.5": (
        "erg", "ERG 1\nn 2\nv 0 -180.5 0\nv 1 180 -90\na 0 1\na 1 0\n",
        "invalid graph: vertex 0 has invalid coordinates (-180.5, 0.0)",
    ),
    "erg-lowest-id-named": (
        "erg", "ERG 1\nn 3\nv 2 0 91\nv 1 181 0\na 0 1\na 1 0\n",
        "invalid graph: vertex 1 has invalid coordinates (181.0, 0.0)",
    ),
    "erg-asymmetric-and-bad-coords": (
        "erg", "ERG 1\nn 2\nv 0 nan 0\nv 1 0 91\na 0 1\n",
        "invalid graph: asymmetric adjacency: 1 in rotation[0] but not vice versa",
    ),
    "erg-bad-number": (
        "erg", "ERG 1\nn 1\nv 0 1.5 north\n",
        "line 3: malformed record: 'v 0 1.5 north'",
    ),
    "erg-one-number": (
        "erg", "ERG 1\nn 1\nv 0 1.5\n",
        "line 3: malformed record: 'v 0 1.5'",
    ),
    "erg-duplicate-vertex-id": (
        "erg", "ERG 1\nn 1\nv 0 nan 0\nv 0 1 1\n",
        "line 4: duplicate vertex id 0",
    ),
    "segments-lat-95": (
        "segments", "s 0,0 0,95\n",
        "vertex 1 has invalid coordinates (0.0, 95.0)",
    ),
    "segments-nan": (
        "segments", "s nan,0 1,0\n",
        "vertex 0 has invalid coordinates (nan, 0.0)",
    ),
    "segments-malformed-point": (
        "segments", "s 0,0 1;0\n",
        "line 1: malformed point in 's 0,0 1;0'",
    ),
    "segments-zero-length": (
        "segments", "s 0,95 0,95\n",
        "segment 0 has identical endpoints (0.0, 95.0)",
    ),
    "segments-duplicate-edge": (
        "segments", "s 0,0 1,0\ns 1,0 0,0\n",
        "segment 1 duplicates an existing edge (1,0)",
    ),
}


class TestWithoutCoords:
    """``load_graph(path, fmt, coords=False)``: no coordinates, same checks."""

    @pytest.mark.parametrize("coords", [True, False])
    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_same_error_either_way(self, tmp_path, case, coords):
        fmt, text, message = MALFORMED[case]
        path = tmp_path / "g"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InputError) as info:
            load_graph(str(path), fmt, coords)
        assert str(info.value) == message

    @pytest.mark.parametrize("fmt", ["erg", "segments"])
    def test_equals_the_coordinate_free_copy(self, tmp_path, fmt):
        g = gen_irregular_grid(5, 6, 0.2, 1)
        path = tmp_path / "g"
        path.write_text(emit_erg(g) if fmt == "erg" else segments_text(g), encoding="utf-8")
        full = load_graph(str(path), fmt)
        bare = load_graph(str(path), fmt, coords=False)
        assert full.coords is not None and bare.coords is None
        assert bare == full.without_coords()

    @pytest.mark.parametrize("coords", [True, False])
    def test_bounds_accepted(self, coords):
        g = parse_erg("ERG 1\nn 2\nv 0 -180 90\nv 1 180 -90\na 0 1\na 1 0\n", coords)
        assert g.coords == (((-180.0, 90.0), (180.0, -90.0)) if coords else None)

    def test_copy_shares_the_rotations(self):
        g = parse_erg("ERG 1\nn 2\nv 0 1 2\na 0 1\na 1 0\n")
        bare = g.without_coords()
        assert bare.rotation is g.rotation and bare.d_max == g.d_max
        assert bare.coords is None and g.coords == ((1.0, 2.0), None)


class TestByteOrderMark:
    """``read_utf8`` drops one leading byte-order mark (U+FEFF) from every
    file it reads, after decoding, so byte offsets still count it."""

    @pytest.mark.parametrize("fmt", ["erg", "segments"])
    def test_graph_reads_as_without(self, tmp_path, fmt):
        g = gen_irregular_grid(5, 6, 0.2, 1)
        text = emit_erg(g) if fmt == "erg" else segments_text(g)
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        assert load_graph(str(marked), fmt) == load_graph(str(plain), fmt)

    def test_only_one_mark_is_dropped(self, tmp_path):
        path = tmp_path / "g.erg"
        path.write_text("\ufeff\ufeffERG 1\nn 0\n", encoding="utf-8")
        with pytest.raises(InputError, match="line 1: expected 'ERG 1' header"):
            load_graph(str(path))

    def test_offset_counts_the_mark(self, tmp_path):
        path = tmp_path / "g.erg"
        path.write_bytes(b"\xef\xbb\xbfERG 1\n\xff")
        with pytest.raises(InputError) as info:
            read_utf8(str(path))
        assert str(info.value) == f"{path}: not UTF-8 text at byte 9"
