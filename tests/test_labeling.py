import random
import signal
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from roadmatch.errors import InputError
from roadmatch.generator import gen_irregular_grid
from roadmatch.graph import EmbeddedGraph
from roadmatch.labeling import (
    _BallKernel,
    depth_one,
    depth_one_at,
    label_nodes,
    labels_by_depth,
)

from conftest import (
    canonical_start_rotations,
    cycle_graph,
    embedded_graphs,
    path_graph,
    star_graph,
)


def brute_min_rotations(g, v):
    """Independent enumeration of all cyclic rotations and their degree keys."""
    rot = g.rotation[v]
    d = len(rot)
    options = []
    for i in range(d):
        seq = tuple(rot[(i + j) % d] for j in range(d))
        options.append((tuple(g.degree(u) for u in seq), seq))
    best = min(key for key, _ in options)
    return [seq for key, seq in options if key == best]


def reference_label(g, v, k):
    """The label of v by a per-vertex deque BFS from every canonical start."""
    d = g.degree(v)
    if k <= 0 or d == 0:
        return (d,)
    best = None
    for start in brute_min_rotations(g, v):
        seen = {v, *start}
        order = list(start)
        queue = deque((u, v, 1) for u in start)
        while queue:
            u, parent, dist = queue.popleft()
            if dist == k:
                continue
            rot = g.rotation[u]
            i = rot.index(parent)
            for w in rot[i + 1 :] + rot[:i]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    queue.append((w, u, dist + 1))
        lab = (d,) + tuple(g.degree(u) for u in order)
        if best is None or lab < best:
            best = lab
    return best


def tuples(labels):
    """Labels as tuples of ints, to compare with the tuple references here."""
    return [tuple(lab) for lab in labels]


def tuple_table(table):
    """A master table keyed by label tuples."""
    return {tuple(lab): verts for lab, verts in table.items()}


def renumbered(g, perm):
    """Copy of g with vertex v renamed perm[v]."""
    rotation = [None] * g.vertex_count
    for v, rot in enumerate(g.rotation):
        rotation[perm[v]] = tuple(perm[u] for u in rot)
    return EmbeddedGraph(tuple(rotation))


@st.composite
def scattered_graphs(draw):
    """Two components plus isolated vertices, their ids interleaved."""
    parts = [draw(embedded_graphs(max_vertices=7)) for _ in range(2)]
    rotation = [()] * draw(st.integers(0, 3))
    for part in parts:
        base = len(rotation)
        rotation += [tuple(base + u for u in rot) for rot in part.rotation]
    g = EmbeddedGraph(tuple(rotation))
    return renumbered(g, draw(st.permutations(range(g.vertex_count))))


class TestCanonicalStartRotations:
    def test_mixed_degrees_single_minimum(self):
        # Center whose neighbor degrees read (3,1,2,1) around the rotation:
        # minimal cyclic key is (1,2,1,3), achieved by exactly one rotation.
        g = EmbeddedGraph(
            (
                (1, 2, 3, 4),  # v=0, neighbor degrees 3,1,2,1
                (0, 5, 6),
                (0,),
                (0, 7),
                (0,),
                (1,),
                (1,),
                (3,),
            )
        )
        rots = canonical_start_rotations(g, 0)
        assert rots == brute_min_rotations(g, 0)
        assert len(rots) == 1
        assert tuple(g.degree(u) for u in rots[0]) == (1, 2, 1, 3)

    def test_all_equal_degrees_gives_every_rotation(self):
        g = star_graph(4)
        assert len(canonical_start_rotations(g, 0)) == 4

    def test_degree_one(self):
        g = path_graph(2)
        assert canonical_start_rotations(g, 0) == [(1,)]

    @given(embedded_graphs(min_vertices=2))
    def test_agrees_with_enumeration(self, g):
        for v in range(g.vertex_count):
            if g.degree(v) >= 1:
                assert canonical_start_rotations(g, v) == brute_min_rotations(g, v)


class TestLexicographicBfs:
    """The canonical BFS, read through the labels it gives."""

    @staticmethod
    def label(g, v, k):
        return tuple(label_nodes(g, k)[1][v])

    def test_k_zero_is_empty(self):
        assert self.label(path_graph(3), 1, 0) == (2,)

    def test_star_center_k1(self):
        assert self.label(star_graph(3), 0, 1) == (3, 1, 1, 1)

    def test_path_end_k2(self):
        assert self.label(path_graph(3), 0, 2) == (1, 2, 1)

    def test_stops_at_distance_k(self):
        assert self.label(path_graph(5), 0, 2) == (1, 2, 2)

    def test_first_discovery_wins(self):
        # Vertex 2 is reached along both sides of the cycle, listed once.
        assert self.label(cycle_graph(4), 0, 3) == (2, 2, 2, 2)

    def test_later_tied_start_wins_at_depth_two(self):
        # Center 0 sees degrees (2, 2, 2) from every start; depth 2 reads
        # (2, 1) when the BFS starts at neighbour 1 or 3, (1, 2) at 2.
        g = EmbeddedGraph(((1, 2, 3), (0, 4), (0, 5), (0, 4), (1, 3), (2,)))
        assert self.label(g, 0, 2) == (3, 2, 2, 2, 1, 2)


class TestLabelNodes:
    def test_four_cycle_k1(self):
        table, labels = label_nodes(cycle_graph(4), 1)
        assert tuples(labels) == [(2, 2, 2)] * 4
        assert tuple_table(table) == {(2, 2, 2): [0, 1, 2, 3]}

    def test_path3_k1(self):
        table, labels = label_nodes(path_graph(3), 1)
        assert tuples(labels) == [(1, 2), (2, 1, 1), (1, 2)]
        assert set(tuple_table(table)) == {(1, 2), (2, 1, 1)}

    def test_grid_interior_all_fours(self):
        # 5x5 lattice: the center vertex sees only degree-4 vertices at k=1.
        g = gen_irregular_grid(5, 5, 0.0, 0)
        center = 12
        assert g.degree(center) == 4
        _, labels = label_nodes(g, 1)
        assert tuple(labels[center]) == (4, 4, 4, 4, 4)

    def test_isolated_vertex(self):
        _, labels = label_nodes(EmbeddedGraph(((),)), 3)
        assert tuples(labels) == [(0,)]

    def test_huge_k_stops_once_balls_cover_their_component(self):
        # Every ball of a 3-vertex path covers it by depth 2; deeper levels
        # are empty, so k = 10**9 must cost what k = 2 does.  A walk that
        # went on through the empty levels would fill memory with them, so
        # it is stopped after two seconds.
        def expire(signum, frame):
            raise TimeoutError("labeling went on past the last level")

        old = signal.signal(signal.SIGALRM, expire)
        signal.alarm(2)
        try:
            got = label_nodes(path_graph(3), 10**9)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert got == label_nodes(path_graph(3), 2)

    def test_sizes_sum_to_n(self):
        g = path_graph(7)
        table, _ = label_nodes(g, 2)
        assert sum(len(v) for v in table.values()) == 7

    @given(embedded_graphs(min_vertices=2), st.integers(0, 3))
    @settings(max_examples=50)
    def test_renumbering_invariance(self, g, k):
        rng = random.Random(17)
        perm = list(range(g.vertex_count))
        rng.shuffle(perm)
        _, lab_g = label_nodes(g, k)
        _, lab_h = label_nodes(renumbered(g, perm), k)
        assert all(lab_h[perm[v]] == lab_g[v] for v in range(g.vertex_count))

    @given(scattered_graphs(), st.integers(0, 4))
    @settings(max_examples=100)
    def test_matches_reference_bfs(self, g, k):
        table, labels = label_nodes(g, k)
        for v in range(g.vertex_count):
            assert type(labels[v]) is bytes
            assert tuple(labels[v]) == reference_label(g, v, k)
        assert table == {
            lab: [v for v in range(g.vertex_count) if labels[v] == lab] for lab in set(labels)
        }

    @given(scattered_graphs(), st.integers(0, 4))
    @settings(max_examples=100)
    def test_bytes_order_and_grouping_equal_tuples(self, g, k):
        # Label ids, the seed tie-break and the master tables all rest on
        # bytes ordering and grouping labels as tuples of the same ints do.
        table, labels = label_nodes(g, k)
        as_tuples = tuples(labels)
        vertices = range(g.vertex_count)
        assert sorted(vertices, key=labels.__getitem__) == sorted(
            vertices, key=as_tuples.__getitem__
        )
        grouped = {}
        for v, lab in enumerate(as_tuples):
            grouped.setdefault(lab, []).append(v)
        assert tuple_table(table) == grouped

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_bfs_on_grids(self, seed):
        # Near-regular grids tie many starts that only deeper levels tell
        # apart, which components of a few vertices rarely do.
        g = gen_irregular_grid(6, 7, 0.1, seed)
        for k in range(1, 5):
            _, labels = label_nodes(g, k)
            assert tuples(labels) == [reference_label(g, v, k) for v in range(g.vertex_count)]

    @given(embedded_graphs(min_vertices=2), st.integers(0, 3))
    @settings(max_examples=50)
    def test_storage_offset_invariance(self, g, k):
        # Cyclically rotating any stored adjacency must not change labels.
        rng = random.Random(3)
        rotation = []
        for rot in g.rotation:
            if rot:
                i = rng.randrange(len(rot))
                rotation.append(rot[i:] + rot[:i])
            else:
                rotation.append(rot)
        h = EmbeddedGraph(tuple(rotation))
        assert label_nodes(g, k)[1] == label_nodes(h, k)[1]

    def test_label_length_nondecreasing_in_k(self):
        g = gen_irregular_grid(5, 6, 0.2, 4)
        prev = None
        for k in range(0, 6):
            _, labels = label_nodes(g, k)
            if prev is not None:
                assert all(len(a) >= len(b) for a, b in zip(labels, prev))
            prev = labels

    def test_same_label_means_same_degree(self):
        g = path_graph(6)
        table, _ = label_nodes(g, 2)
        for lab, verts in table.items():
            assert all(g.degree(v) == lab[0] for v in verts)

    def test_degree_255_fits_a_byte(self):
        g = EmbeddedGraph((tuple(range(1, 256)),) + ((0,),) * 255, d_max=255)
        _, labels = label_nodes(g, 1)
        assert tuple(labels[0]) == (255,) + (1,) * 255

    def test_degree_above_255_is_input_error(self):
        # Leaves first, so the centre's id (256) is not its kernel-local id.
        # Depths 0 and 1 build no kernel; the check must hold there too,
        # and at every depth labeling can start from.
        rotation = [(256,)] * 256 + [tuple(range(256))]
        g = EmbeddedGraph(tuple(rotation), d_max=300)
        for k in range(4):
            for label in (lambda: label_nodes(g, k), lambda: next(labels_by_depth(g, k))):
                with pytest.raises(InputError, match="vertex 256 has degree 256"):
                    label()


def labels_grown_to(g, k):
    """``labels_by_depth(g)`` run to k with ``next``, as tuples."""
    depths = labels_by_depth(g)
    for _ in range(k):
        labels = next(depths)
    depths.close()
    return tuples(labels)


def assert_both_drivers_match_reference(g, k):
    want = [reference_label(g, v, k) for v in range(g.vertex_count)]
    assert tuples(label_nodes(g, k)[1]) == want
    assert labels_grown_to(g, k) == want


def tied_walk(g, v, k):
    """(label, number of starts still tied) of v after the kernel walks
    its levels 2..k."""
    kernel = _BallKernel(g)
    x = kernel.old.index(v)
    label, levels = kernel.starts(x, {})
    tail, levels = kernel.walk(x, levels, k - 1)
    return tuple(label + tail), len(levels)


def grid(rows, cols):
    """A perfect lattice, rotations from its coordinates."""
    g = gen_irregular_grid(rows, cols, 0.0, 0)
    interior = (r * cols + c for r in range(1, rows - 1) for c in range(1, cols - 1))
    assert all(g.degree(v) == 4 for v in interior)
    return g


@st.composite
def tied_and_single_graphs(draw):
    """Symmetric pieces, whose vertices have tied starts, mixed with
    random ones and joined by a few edges, which break the ties at
    different depths; ids shuffled.  The kernel walks tied and
    single-start vertices in turn, on one stamp array."""
    pieces = [
        cycle_graph(draw(st.integers(3, 8))),
        star_graph(draw(st.integers(2, 5))),
        grid(3, 3),
        grid(4, 4),
        draw(embedded_graphs(max_vertices=6)),
        path_graph(draw(st.integers(1, 4))),
    ]
    chosen = draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=4))
    nbrs = []
    for piece in chosen:
        base = len(nbrs)
        nbrs += [[base + u for u in rot] for rot in piece.rotation]
    n = len(nbrs)
    for _ in range(draw(st.integers(0, 3))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if u == v or v in nbrs[u]:
            continue
        nbrs[u].insert(draw(st.integers(0, len(nbrs[u]))), v)
        nbrs[v].insert(draw(st.integers(0, len(nbrs[v]))), u)
    g = EmbeddedGraph(tuple(tuple(rot) for rot in nbrs))
    return renumbered(g, draw(st.permutations(range(n))))


class TestTiedStarts:
    """Vertices with several canonical start rotations: their starts
    share one stamp pass per level while they stay tied."""

    @pytest.mark.parametrize("k", range(2, 6))
    def test_grid_interior_stays_tied(self, k):
        # The lattice looks the same from its centre under every quarter
        # turn, so all four starts tie to any depth.
        g = grid(11, 11)
        label, tied = tied_walk(g, 60, k)
        assert tied == 4
        assert label == reference_label(g, 60, k)
        assert_both_drivers_match_reference(g, k)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_later_start_wins_at_depth_three(self, k):
        # Three arms 0-1-4-7, 0-2-5-8-10 and 0-3-6-9: the starts at 1, 2
        # and 3 read degrees (2, 2, 2) at depths 1 and 2, and at depth 3
        # (1, 2, 1), (2, 1, 1) and (1, 1, 2), so the last start wins there.
        g = EmbeddedGraph(
            ((1, 2, 3), (0, 4), (0, 5), (0, 6), (1, 7), (2, 8), (3, 9), (4,), (5, 10), (6,), (8,))
        )
        label, tied = tied_walk(g, 0, k)
        assert tied == (3 if k == 2 else 1)
        if k >= 3:
            assert label[7:10] == (1, 1, 2)
        assert label == reference_label(g, 0, k)
        assert_both_drivers_match_reference(g, k)

    @pytest.mark.parametrize("k", range(2, 6))
    @pytest.mark.parametrize(
        "g",
        [cycle_graph(4), cycle_graph(5), grid(3, 3), star_graph(3)],
        ids=["cycle4", "cycle5", "grid3x3", "star3"],
    )
    def test_symmetric_component_smaller_than_its_ball(self, g, k):
        # The centre's ball covers its component by depth 2 (the star's by
        # depth 1), so its tied starts run out of levels before k; the
        # walk ends there, still tied.
        assert_both_drivers_match_reference(g, k)
        centre = 4 if g.vertex_count == 9 else 0
        _, tied = tied_walk(g, centre, k)
        assert tied == g.degree(centre)

    @given(tied_and_single_graphs(), st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_marks_never_leak_between_walks(self, g, k):
        assert_both_drivers_match_reference(g, k)


@st.composite
def degree_sequences(draw):
    """Neighbour degrees, 0 to 16 of them; about half repeat a shorter
    block, so that several rotations tie."""
    if draw(st.booleans()):
        return bytes(draw(st.lists(st.integers(1, 255), max_size=16)))
    block = draw(st.lists(st.integers(1, 255), min_size=1, max_size=8))
    return bytes(block * draw(st.integers(1, 16 // len(block))))


class TestDepthOne:
    @given(degree_sequences())
    @example(bytes((3, 4, 3, 4)))
    @example(bytes((2, 2, 2, 2)))
    @example(b"")
    def test_matches_every_rotation(self, degs):
        offsets, label = depth_one(degs)
        rotations = [degs[i:] + degs[:i] for i in range(len(degs))] or [degs]
        best = min(rotations)
        assert offsets == tuple(i for i, r in enumerate(rotations) if r == best)
        assert label == bytes([len(degs), *best])

    def test_memo_is_keyed_by_neighbour_degrees(self):
        # The two ends of a path of 3 read the same degrees and share one
        # entry; the middle vertex gets its own.
        g, memo = path_graph(3), {}
        firsts = [depth_one_at(g.rotation, v, memo) for v in range(3)]
        assert memo == {bytes((2,)): firsts[0], bytes((1, 1)): firsts[1]}
        assert firsts[0] is firsts[2]


class TestStartDepth:
    """``labels_by_depth(g, k)`` starts where ``labels_by_depth(g)`` gets to
    by k, whether k is below, at or past depth 1."""

    GRAPHS = st.one_of(scattered_graphs(), tied_and_single_graphs())

    @given(GRAPHS, st.integers(0, 6))
    @settings(max_examples=100, deadline=None)
    def test_first_yield(self, g, k):
        want = [reference_label(g, v, k) for v in range(g.vertex_count)]
        assert tuples(next(labels_by_depth(g, k))) == want
        if k:
            assert labels_grown_to(g, k) == want

    @given(GRAPHS, st.integers(0, 6), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_same_sends_give_the_same_lists(self, g, k, rnd):
        # From k >= 2 directly, and from depth 1 moved on to k with next,
        # the same random keep-sets give the same lists; from k = 0 and 1
        # the lists are those of label_nodes, cut to the live vertices.
        started = labels_by_depth(g, k)
        got = next(started)
        grown = None
        if k >= 2:
            grown = labels_by_depth(g)
            for _ in range(k):
                want = next(grown)
            assert got == want
        alive = set(range(g.vertex_count))
        for depth in range(k, k + 4):
            labels = label_nodes(g, depth)[1]
            assert got == [lab if v in alive else None for v, lab in enumerate(labels)]
            keep = {lab for lab in sorted(set(filter(None, got))) if rnd.random() < 0.7}
            alive = {v for v in alive if labels[v] in keep}
            got = started.send(keep)
            if grown is not None:
                assert got == grown.send(keep)

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_last_depth_holds_no_kernel(self, k):
        # At ``last`` the kernel, if one was built, is freed before the
        # labels are yielded, and past it the labels end.
        g = grid(5, 5)
        depths = labels_by_depth(g, k, last=k + 1)
        assert next(depths) == label_nodes(g, k)[1]
        assert depths.send(None) == label_nodes(g, k + 1)[1]
        assert "kernel" not in depths.gi_frame.f_locals
        if k + 1 >= 2:
            with pytest.raises(StopIteration):
                depths.send(None)
