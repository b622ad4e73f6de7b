import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmatch.errors import ConfigurationError, InternalError
from roadmatch.generator import gen_irregular_grid, perturb
from roadmatch.labeling import label_nodes, labels_by_depth
from roadmatch.seed_index import (
    REMOVED,
    UNINDEXED,
    TuneReport,
    auto_tune_k,
    build_seed_index,
)

from conftest import index_state, max_cross_product, path_graph, rebuilt_index
from test_labeling import scattered_graphs


def tables_for(g1, g2, k):
    return label_nodes(g1, k)[0], label_nodes(g2, k)[0]


def lid_of(idx, label):
    return idx.labels.index(label)


class TestBuild:
    def test_two_path3_graphs_k1(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        idx = build_seed_index(mt1, mt2, 24)
        assert idx.product[lid_of(idx, (1, 2))] == 4
        assert idx.product[lid_of(idx, (2, 1, 1))] == 1
        assert min(idx.bucket) == 1

    def test_one_sided_label_not_indexed(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(2), 1)
        idx = build_seed_index(mt1, mt2, 24)
        # (2,1,1) only occurs in the path of 3; (1,1) only in the path of 2.
        assert idx.labels == []
        assert not idx.bucket
        assert idx.label_of == ([UNINDEXED] * 3, [UNINDEXED] * 2)

    def test_label_with_empty_list_not_indexed(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        mt2[(2, 1, 1)] = []  # its vertex 1 is in no list of g2's table
        idx = build_seed_index(mt1, mt2, 24)
        assert idx.labels == [(1, 2)]
        assert idx.label_of[0][1] == UNINDEXED
        # An unindexed vertex is only marked removed; g2's vertex 1 was
        # never in the table.
        idx.remove_pairs([(1, 0)])
        assert idx.label_of[0][1] == REMOVED
        with pytest.raises(InternalError):
            idx.remove_pairs([(1, 2)])
        with pytest.raises(InternalError):
            idx.remove_pairs([(0, 1)])

    def test_product_exceeding_bound_names_label(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        with pytest.raises(ConfigurationError, match=r"\(1, 2\)"):
            build_seed_index(mt1, mt2, 3)

    def test_unique_common_label_min_product_one(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        idx = build_seed_index(mt1, mt2, 24)
        assert min(idx.bucket) == 1


class TestPopMinLabel:
    def test_single_label(self):
        mt1, mt2 = tables_for(path_graph(2), path_graph(2), 1)
        idx = build_seed_index(mt1, mt2, 24)
        lid = idx.pop_min_label(random.Random(0))
        assert idx.labels[lid] == (1, 1)

    def test_prefers_smaller_product(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        idx = build_seed_index(mt1, mt2, 24)
        lid = idx.pop_min_label(random.Random(0))
        assert idx.labels[lid] == (2, 1, 1)

    def test_tie_break_is_seeded_deterministic(self):
        mt1, mt2 = tables_for(path_graph(2), path_graph(2), 1)
        mt1[(9, 9)] = [99]
        mt2[(9, 9)] = [99]  # second label with product 1
        picks = {build_seed_index(mt1, mt2, 24).pop_min_label(random.Random(5)) for _ in range(5)}
        assert len(picks) == 1

    def test_empty_index_signals_exhaustion(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(2), 1)
        idx = build_seed_index(mt1, mt2, 24)
        assert idx.pop_min_label(random.Random(0)) is None


class TestRemoveVertex:
    def test_product_recomputed(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        idx = build_seed_index(mt1, mt2, 24)
        lid = lid_of(idx, (1, 2))
        idx.remove_pairs([(0, 1)])  # counts of (1, 2): (2, 2) -> (1, 2)
        assert idx.product[lid] == 2

    def test_last_vertex_unindexes_label(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        idx = build_seed_index(mt1, mt2, 24)
        lid = lid_of(idx, (2, 1, 1))
        idx.remove_pairs([(1, 0)])
        assert lid not in idx.product
        assert 1 not in idx.bucket

    def test_double_removal_is_internal_error(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        idx = build_seed_index(mt1, mt2, 24)
        idx.remove_pairs([(0, 0)])
        with pytest.raises(InternalError):
            idx.remove_pairs([(0, 2)])

    def test_batch_removal_checks_each_vertex(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        idx = build_seed_index(mt1, mt2, 24)
        with pytest.raises(InternalError):
            idx.remove_pairs([(0, 0), (0, 2)])  # vertex 0 of g1 twice
        with pytest.raises(InternalError):
            idx.remove_pairs([(1, 5)])  # g2 has no vertex 5
        with pytest.raises(InternalError):
            idx.remove_pairs([(-1, 1)])

    def test_removals_match_fresh_rebuild(self):
        # Any removal sequence must equal building from reduced tables.
        rng = random.Random(11)
        g1 = gen_irregular_grid(4, 5, 0.2, 1)
        g2, _ = perturb(g1, 0.1, 0.05, 0.05, 2)
        mt1, mt2 = tables_for(g1, g2, 2)
        idx = build_seed_index(mt1, mt2, 10**6)
        left = [list(range(g1.vertex_count)), list(range(g2.vertex_count))]
        for side in left:
            rng.shuffle(side)
        while left[0] and left[1]:
            n = rng.randint(1, min(3, len(left[0]), len(left[1])))
            pairs = [(left[0].pop(), left[1].pop()) for _ in range(n)]
            idx.remove_pairs(pairs)
            fresh = rebuilt_index(
                mt1, mt2, lambda side, v: v in left[side], set(), 10**6
            )
            assert index_state(idx) == index_state(fresh)
        assert not idx.product


class TestRetireLabel:
    def test_retired_label_stays_out(self):
        mt1, mt2 = tables_for(path_graph(3), path_graph(3), 1)
        idx = build_seed_index(mt1, mt2, 24)
        lid = lid_of(idx, (1, 2))
        idx.retire_label(lid)
        assert lid not in idx.product
        idx.remove_pairs([(0, 1)])
        # Counts are now (1, 2): an unretired label would be back at product 2.
        assert lid not in idx.product

    def test_retired_label_stays_out_after_batch_removal(self):
        mt1, mt2 = tables_for(path_graph(4), path_graph(4), 1)
        idx = build_seed_index(mt1, mt2, 24)
        lid = lid_of(idx, (1, 2))
        idx.retire_label(lid)
        idx.remove_pairs([(0, 0)])
        # Counts are now (1, 1): an unretired label would be back at product 1.
        assert lid not in idx.product
        assert min(idx.bucket) == 4  # only (2, 1, 2) with counts (2, 2) is left


class TestAutoTuneK:
    def test_single_edge_graphs(self):
        g = path_graph(2)
        report = auto_tune_k(g, g, 4, 5)
        assert report.k == 1
        assert report.max_product == 4
        assert report.bounded

    def test_unreachable_bound_returns_minimizing_k(self):
        # Two identical tiny symmetric components never separate: the pair
        # of leaves in each path keeps product 4 at every k.
        g = path_graph(3)
        report = auto_tune_k(g, g, 1, 4)
        assert not report.bounded
        assert report.max_product == 4
        assert report.k == 1  # smallest k on ties

    def test_max_product_nonincreasing_on_irregular_grids(self):
        # Verified empirically on the synthetic suite, not assumed.
        for seed in range(5):
            g1 = gen_irregular_grid(8, 8, 0.2, seed)
            g2 = gen_irregular_grid(8, 8, 0.2, seed + 50)
            report = auto_tune_k(g1, g2, 1, 6)
            values = [p for _, p in report.per_k]
            assert values == sorted(values, reverse=True)

    def test_tables_returned_match_chosen_k(self):
        g = gen_irregular_grid(5, 5, 0.3, 9)
        report = auto_tune_k(g, g, 24, 8)
        mt1, _ = label_nodes(g, report.k)
        assert report.tables[0] == mt1
        assert max_cross_product(*report.tables) == report.max_product

    def test_unbounded_tables_match_chosen_k(self):
        # The product stays 4 at every k, so k=1 is chosen after k=4 was
        # tried; the leaf labels differ between the two, (1, 2) at k=1.
        g = path_graph(3)
        report = auto_tune_k(g, g, 1, 4)
        assert not report.bounded and report.k == 1
        mt, _ = label_nodes(g, 1)
        assert report.tables == (mt, mt)


def relabeling_tune(g1, g2, max_product, k_max):
    """auto_tune_k as a loop that labels both graphs from scratch at each k."""
    per_k = []
    best = None  # (max product, k, tables)
    for k in range(1, k_max + 1):
        mt1, _ = label_nodes(g1, k)
        mt2, _ = label_nodes(g2, k)
        p = max_cross_product(mt1, mt2)
        per_k.append((k, p))
        if best is None or p < best[0]:
            best = (p, k, (mt1, mt2))
        if p <= max_product:
            return TuneReport(k, p, True, per_k, (mt1, mt2))
    p, k, tables = best
    return TuneReport(k, p, False, per_k, tables)


class TestTuneAgainstRelabeling:
    @given(scattered_graphs(), scattered_graphs(), st.integers(1, 30), st.integers(1, 6))
    @settings(max_examples=150)
    def test_equal_report(self, g1, g2, bound, k_max):
        assert auto_tune_k(g1, g2, bound, k_max) == relabeling_tune(g1, g2, bound, k_max)

    @given(
        st.integers(3, 8), st.integers(3, 8), st.integers(0, 2**16),
        st.integers(1, 30), st.integers(1, 6),
    )
    @settings(max_examples=60)
    def test_equal_report_on_snapshot_pairs(self, rows, cols, seed, bound, k_max):
        # Isolated vertices hold a floor under the product of scattered
        # graphs, so they almost never meet the bound past k=1; two
        # snapshots of a grid often do, which checks tables grown past k=1.
        g1 = gen_irregular_grid(rows, cols, 0.2, seed)
        g2, _ = perturb(g1, 0.05, 0.0, 0.02, seed + 1)
        assert auto_tune_k(g1, g2, bound, k_max) == relabeling_tune(g1, g2, bound, k_max)

    @given(scattered_graphs())
    @settings(max_examples=150)
    def test_grown_labels_equal_label_nodes(self, g):
        for k, labels in zip(range(1, 7), labels_by_depth(g)):
            assert labels == label_nodes(g, k)[1]
