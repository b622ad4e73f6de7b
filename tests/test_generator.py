import tracemalloc
from collections import deque

import pytest

from roadmatch import generator
from roadmatch.errors import InputError
from roadmatch.generator import (
    GRID_SPACING_DEG,
    MAX_ROAD_DEGREE,
    gen_irregular_grid,
    perturb,
    score_against_ground_truth,
)
from roadmatch.ingest import MAX_VERTICES, emit_erg
from roadmatch.labeling import label_nodes

from conftest import edge_count


def is_connected(g):
    if g.vertex_count == 0:
        return True
    seen = {0}
    q = deque([0])
    while q:
        v = q.popleft()
        for u in g.rotation[v]:
            if u not in seen:
                seen.add(u)
                q.append(u)
    return len(seen) == g.vertex_count


class TestGenIrregularGrid:
    def test_regular_2x2_is_a_square(self):
        g = gen_irregular_grid(2, 2, 0.0, 0)
        assert g.vertex_count == 4
        assert edge_count(g) == 4
        assert all(g.degree(v) == 2 for v in range(4))
        assert g.coords == (
            (0.0, 0.0),
            (GRID_SPACING_DEG, 0.0),
            (0.0, GRID_SPACING_DEG),
            (GRID_SPACING_DEG, GRID_SPACING_DEG),
        )

    def test_regular_grid_edge_count(self):
        g = gen_irregular_grid(4, 6, 0.0, 0)
        assert g.vertex_count == 24
        assert edge_count(g) == 3 * 6 + 4 * 5  # horizontal + vertical runs

    @pytest.mark.parametrize("seed", range(8))
    def test_valid_connected_and_degree_bounded(self, seed):
        g = gen_irregular_grid(7, 9, 0.3, seed)
        assert is_connected(g)
        assert max(g.degree(v) for v in range(g.vertex_count)) <= MAX_ROAD_DEGREE

    def test_irregularity_adds_and_removes_edges(self):
        base = gen_irregular_grid(8, 8, 0.0, 5)
        rough = gen_irregular_grid(8, 8, 0.4, 5)
        assert edge_count(rough) != edge_count(base)

    def test_fixed_seed_byte_identical(self):
        a = emit_erg(gen_irregular_grid(10, 10, 0.25, 99))
        b = emit_erg(gen_irregular_grid(10, 10, 0.25, 99))
        assert a == b

    def test_seeds_differ(self):
        a = gen_irregular_grid(8, 8, 0.3, 1)
        b = gen_irregular_grid(8, 8, 0.3, 2)
        assert a.rotation != b.rotation

    def test_thirty_grid_labels_all_unique_at_k5(self):
        # The realistic-scale fixture used throughout: every vertex gets a
        # distinct label, so each seed product is exactly 1.
        g = gen_irregular_grid(30, 30, 0.15, 42)
        table, _ = label_nodes(g, 5)
        assert g.vertex_count == 900
        assert len(table) == 900
        assert all(len(v) == 1 for v in table.values())

    def test_bad_dimensions_rejected(self):
        with pytest.raises(InputError):
            gen_irregular_grid(1, 5, 0.0, 0)
        with pytest.raises(InputError):
            gen_irregular_grid(5, 5, 1.5, 0)

    @pytest.mark.parametrize("rows, cols", [(3163, 3163), (2, MAX_VERTICES // 2 + 1)])
    def test_vertex_count_above_limit(self, rows, cols, monkeypatch):
        # Refused before anything is allocated: parse_erg could not read
        # such a graph back.  Without the check the grid would be built,
        # gigabytes of it; with no random source that fails at once.
        monkeypatch.setattr(generator, "random", None)
        tracemalloc.start()
        try:
            with pytest.raises(InputError) as info:
                gen_irregular_grid(rows, cols, 0.15, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            f"rows x cols = {rows * cols} is above the limit of {MAX_VERTICES} vertices"
        )
        assert peak < 1 << 20


class TestPerturb:
    def test_zero_fractions_is_identity(self):
        g = gen_irregular_grid(5, 5, 0.2, 3)
        h, gt = perturb(g, 0.0, 0.0, 0.0, 4)
        assert h.rotation == g.rotation
        assert h.coords == g.coords
        assert gt.mapping == {v: v for v in range(g.vertex_count)}

    def test_vertex_removal_count(self):
        g = gen_irregular_grid(30, 30, 0.15, 42)
        h, gt = perturb(g, 0.05, 0.0, 0.0, 7)
        assert h.vertex_count == 855  # 900 - int(0.05 * 900)
        assert len(gt.mapping) == 855

    def test_survivors_renumbered_ascending(self):
        g = gen_irregular_grid(6, 6, 0.2, 1)
        h, gt = perturb(g, 0.2, 0.0, 0.0, 2)
        olds = sorted(gt.mapping)
        assert [gt.mapping[o] for o in olds] == list(range(h.vertex_count))

    def test_survivor_coords_preserved(self):
        g = gen_irregular_grid(6, 6, 0.2, 1)
        h, gt = perturb(g, 0.1, 0.1, 0.1, 2)
        for old, new in gt.mapping.items():
            assert h.coords[new] == g.coords[old]

    def test_edge_additions_respect_degree_cap(self):
        g = gen_irregular_grid(8, 8, 0.0, 0)
        h, _ = perturb(g, 0.0, 0.0, 0.3, 1)
        assert edge_count(h) > edge_count(g)
        assert max(h.degree(v) for v in range(h.vertex_count)) <= MAX_ROAD_DEGREE

    def test_deterministic(self):
        g = gen_irregular_grid(7, 7, 0.3, 11)
        a, gta = perturb(g, 0.1, 0.05, 0.05, 12)
        b, gtb = perturb(g, 0.1, 0.05, 0.05, 12)
        assert emit_erg(a) == emit_erg(b)
        assert gta.mapping == gtb.mapping

    def test_fraction_bounds(self):
        g = gen_irregular_grid(3, 3, 0.0, 0)
        with pytest.raises(InputError):
            perturb(g, 0.6, 0.0, 0.0, 0)
        with pytest.raises(InputError):
            perturb(g, 0.0, -0.1, 0.0, 0)


class TestScore:
    def test_all_correct(self):
        g = gen_irregular_grid(4, 4, 0.2, 0)
        h, gt = perturb(g, 0.1, 0.0, 0.0, 1)
        pairs = list(gt.mapping.items())
        score = score_against_ground_truth(pairs, gt)
        assert score.correct_fraction == 1.0
        assert score.matched_fraction == 1.0
        assert not score.empty_matching

    def test_half_correct(self):
        g = gen_irregular_grid(4, 4, 0.0, 0)
        h, gt = perturb(g, 0.0, 0.0, 0.0, 0)
        pairs = [(0, 0), (1, 2)]  # identity mapping, so (1, 2) is wrong
        score = score_against_ground_truth(pairs, gt)
        assert score.correct_fraction == 0.5
        assert score.matched_fraction == 2 / 16

    def test_empty_matching_flagged(self):
        g = gen_irregular_grid(3, 3, 0.0, 0)
        _, gt = perturb(g, 0.0, 0.0, 0.0, 0)
        score = score_against_ground_truth([], gt)
        assert score.empty_matching
        assert score.correct_fraction == 0.0
