import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmatch import seed_index
from roadmatch.errors import ConfigurationError, InternalError
from roadmatch.generator import gen_irregular_grid, perturb
from roadmatch.graph import EmbeddedGraph
from roadmatch.labeling import label_nodes, labels_by_depth
from roadmatch.matcher import match
from roadmatch.seed_index import (
    REMOVED,
    UNINDEXED,
    SeedIndex,
    TuneReport,
    auto_tune_k,
)

from conftest import index_state, max_cross_product, path_graph, rebuilt_index
from test_labeling import scattered_graphs


def labels_for(g1, g2, k):
    """Both graphs' per-vertex label lists at depth k."""
    return label_nodes(g1, k)[1], label_nodes(g2, k)[1]


def shared_only(labels1, labels2):
    """Both label lists with None at each vertex whose label the other
    list lacks: an index built from them equals one built from the
    whole lists."""
    shared = set(labels1).intersection(labels2)
    return tuple(
        [lab if lab in shared else None for lab in labels] for labels in (labels1, labels2)
    )


def cut(report):
    """The tuner's report with its label lists, if any, cut to the labels
    both share (``shared_only``)."""
    if report.labels is None:
        return report
    return dataclasses.replace(report, labels=shared_only(*report.labels))


def graph_of(n, edges):
    """Graph on vertices 0..n-1; each rotation lists edges in given order."""
    rotation = [[] for _ in range(n)]
    for a, b in edges:
        rotation[a].append(b)
        rotation[b].append(a)
    return EmbeddedGraph(tuple(map(tuple, rotation)))


def lid_of(idx, label):
    """Id of the indexed label whose degrees are the tuple ``label``."""
    return [tuple(lab) for lab in idx.labels].index(label)


class TestBuild:
    def test_two_path3_graphs_k1(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(3), 1), 24)
        assert idx.product[lid_of(idx, (1, 2))] == 4
        assert idx.product[lid_of(idx, (2, 1, 1))] == 1
        assert min(idx.bucket) == 1

    def test_one_sided_label_not_indexed(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(2), 1), 24)
        # (2,1,1) only occurs in the path of 3; (1,1) only in the path of 2.
        assert idx.labels == []
        assert not idx.bucket
        assert idx.label_of == ([UNINDEXED] * 3, [UNINDEXED] * 2)

    def test_unlabeled_vertex_not_indexed(self):
        labels1, labels2 = labels_for(path_graph(3), path_graph(3), 1)
        labels2[1] = None  # g2's vertex 1 has no label, so (2, 1, 1) is g1's alone
        idx = SeedIndex(labels1, labels2, 24)
        assert [tuple(lab) for lab in idx.labels] == [(1, 2)]
        # Both vertex 1s are unindexed: g1's has a label g2 lacks, and
        # g2's has none.
        assert idx.label_of[0][1] == idx.label_of[1][1] == UNINDEXED
        # An unindexed vertex is only marked removed.
        idx.remove_pairs([(1, 0)])
        assert idx.label_of[0][1] == REMOVED
        with pytest.raises(InternalError):
            idx.remove_pairs([(1, 2)])
        idx.remove_pairs([(0, 1)])
        assert idx.label_of[1][1] == REMOVED
        with pytest.raises(InternalError):
            idx.remove_pairs([(2, 1)])

    def test_product_exceeding_bound_names_label(self):
        with pytest.raises(ConfigurationError, match=r"\(1, 2\)"):
            SeedIndex(*labels_for(path_graph(3), path_graph(3), 1), 3)

    def test_unique_common_label_min_product_one(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(3), 1), 24)
        assert min(idx.bucket) == 1


class TestPopMinLabel:
    def test_single_label(self):
        idx = SeedIndex(*labels_for(path_graph(2), path_graph(2), 1), 24)
        lid = idx.pop_min_label(random.Random(0))
        assert tuple(idx.labels[lid]) == (1, 1)

    def test_prefers_smaller_product(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(3), 1), 24)
        lid = idx.pop_min_label(random.Random(0))
        assert tuple(idx.labels[lid]) == (2, 1, 1)

    def test_tie_break_is_seeded_deterministic(self):
        labels1, labels2 = labels_for(path_graph(2), path_graph(2), 1)
        extra = [None] * 97 + [bytes((9, 9))]  # second label with product 1
        labels1 += extra
        labels2 += extra
        idx_of = lambda: SeedIndex(labels1, labels2, 24)  # noqa: E731
        picks = {idx_of().pop_min_label(random.Random(5)) for _ in range(5)}
        assert len(picks) == 1

    def test_empty_index_signals_exhaustion(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(2), 1), 24)
        assert idx.pop_min_label(random.Random(0)) is None


class TestRemoveVertex:
    def test_product_recomputed(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(3), 1), 24)
        lid = lid_of(idx, (1, 2))
        idx.remove_pairs([(0, 1)])  # counts of (1, 2): (2, 2) -> (1, 2)
        assert idx.product[lid] == 2

    def test_last_vertex_unindexes_label(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(3), 1), 24)
        lid = lid_of(idx, (2, 1, 1))
        idx.remove_pairs([(1, 0)])
        assert lid not in idx.product
        assert 1 not in idx.bucket

    def test_double_removal_is_internal_error(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(3), 1), 24)
        idx.remove_pairs([(0, 0)])
        with pytest.raises(InternalError):
            idx.remove_pairs([(0, 2)])

    def test_batch_removal_checks_each_vertex(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(3), 1), 24)
        with pytest.raises(InternalError):
            idx.remove_pairs([(0, 0), (0, 2)])  # vertex 0 of g1 twice
        with pytest.raises(InternalError):
            idx.remove_pairs([(1, 5)])  # g2 has no vertex 5
        with pytest.raises(InternalError):
            idx.remove_pairs([(-1, 1)])

    def test_removals_match_fresh_rebuild(self):
        # Any removal sequence must equal building from the label lists cut
        # to the vertices left.
        rng = random.Random(11)
        g1 = gen_irregular_grid(4, 5, 0.2, 1)
        g2, _ = perturb(g1, 0.1, 0.05, 0.05, 2)
        labels1, labels2 = labels_for(g1, g2, 2)
        idx = SeedIndex(labels1, labels2, 10**6)
        left = [list(range(g1.vertex_count)), list(range(g2.vertex_count))]
        for side in left:
            rng.shuffle(side)
        while left[0] and left[1]:
            n = rng.randint(1, min(3, len(left[0]), len(left[1])))
            pairs = [(left[0].pop(), left[1].pop()) for _ in range(n)]
            idx.remove_pairs(pairs)
            fresh = rebuilt_index(
                labels1, labels2, lambda side, v: v in left[side], set(), 10**6
            )
            assert index_state(idx) == index_state(fresh)
        assert not idx.product


class TestRetireLabel:
    def test_retired_label_stays_out(self):
        idx = SeedIndex(*labels_for(path_graph(3), path_graph(3), 1), 24)
        lid = lid_of(idx, (1, 2))
        idx.retire_label(lid)
        assert lid not in idx.product
        idx.remove_pairs([(0, 1)])
        # Counts are now (1, 2): an unretired label would be back at product 2.
        assert lid not in idx.product

    def test_retired_label_stays_out_after_batch_removal(self):
        idx = SeedIndex(*labels_for(path_graph(4), path_graph(4), 1), 24)
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

    def test_labels_returned_match_chosen_k(self):
        # Against itself a graph shares every label, so the tuner keeps
        # labeling every vertex.
        g = gen_irregular_grid(5, 5, 0.3, 9)
        report = auto_tune_k(g, g, 24, 8)
        labels = label_nodes(g, report.k)[1]
        assert report.labels == (labels, labels)
        assert max_cross_product(*report.labels) == report.max_product

    def test_k_without_shared_label_does_not_qualify(self):
        # At k=1 the leaves of both paths read (1, 2), product 4; at k=2 no
        # label is shared, and product 0 must not count as within the bound.
        # No label of one path is a proper prefix of one of the other, so
        # no deeper k can share one and the scan stops there.
        report = auto_tune_k(path_graph(3), path_graph(4), 1, 3)
        assert report.per_k == [(1, 4), (2, 0)]
        assert (report.k, report.max_product, report.bounded) == (1, 4, False)
        assert report.labels is None

    def test_scan_passes_a_k_without_shared_label_when_one_label_is_a_prefix(self):
        # Every degree is 3, so a label is its ball size written in 3s.
        # At k=2 the cube's balls hold 7 vertices and the other graph's 8:
        # nothing is shared, but at k=3 the cube's balls grow to 8 too and
        # match the Wagner graph's.
        cube = graph_of(8, [(v, v ^ b) for v in range(8) for b in (1, 2, 4) if v < v ^ b])
        wagner = [(i, (i + 1) % 8) for i in range(8)] + [(i, i + 4) for i in range(4)]
        prism = (
            [(8 + i, 8 + (i + 1) % 5) for i in range(5)]
            + [(13 + i, 13 + (i + 1) % 5) for i in range(5)]
            + [(8 + i, 13 + i) for i in range(5)]
        )
        other = graph_of(18, wagner + prism)
        report = auto_tune_k(cube, other, 64, 12)
        assert report.per_k == [(1, 144), (2, 0), (3, 64)]
        assert (report.k, report.max_product, report.bounded) == (3, 64, True)
        assert cut(report) == relabeling_tune(cube, other, 64, 12)
        result = match(cube, other, auto_k=True, max_product=64)
        assert (result.stats.k, len(result.pairs)) == (3, 6)

    def test_no_shared_label_at_any_k(self):
        g1, g2 = path_graph(3), path_graph(2)
        report = auto_tune_k(g1, g2, 24, 3)
        assert report.per_k == [(1, 0)]
        assert (report.k, report.max_product, report.bounded) == (1, 0, False)
        assert report.labels == ([None] * 3, [None] * 2)

    def test_unbounded_report_labels_nothing_again(self, monkeypatch):
        # The product stays 4 at every k, so k=1 is chosen after k=4 was
        # tried.  No index may be built over a product above the bound, so
        # the chosen k is not labeled again and the report has no labels.
        # This process labels through one driver, started once for g1.
        real, calls = seed_index.labels_by_depth, []

        def depths(*args, **kwargs):
            calls.append(args)
            if len(calls) > 1:
                raise AssertionError("labeled again after the scan")
            return real(*args, **kwargs)

        monkeypatch.setattr(seed_index, "labels_by_depth", depths)
        g = path_graph(3)
        report = auto_tune_k(g, g, 1, 4)
        assert not report.bounded and report.k == 1
        assert report.labels is None
        assert len(calls) == 1


def compatible_pairwise(labels1, labels2):
    """Per side, the labels that equal, are a proper prefix of, or extend a
    label of the other side, found by comparing every pair."""
    return tuple(
        {a for a in x if any(a.startswith(b) or b.startswith(a) for b in y)}
        for x, y in ((labels1, labels2), (labels2, labels1))
    )


def prefix_across_pairwise(labels1, labels2):
    """Whether a label of one side is a proper prefix of one of the other,
    found by comparing every pair."""
    return any(
        a != b and b.startswith(a)
        for x, y in ((labels1, labels2), (labels2, labels1))
        for a in x
        for b in y
    )


def relabeling_tune(g1, g2, max_product, k_max):
    """auto_tune_k as a loop that labels both graphs from scratch at each k.

    A k qualifies, and the unbounded fallback considers it, only when some
    label is shared (max product > 0).  The scan stops at the first k with
    none at which no label of one graph is a proper prefix of a label of
    the other; with none at any k, k = 1 and lists of None.  A bounded
    report's lists are those of the chosen k cut to the labels present in
    both graphs (``shared_only``), as ``cut`` gives the tuner's; an
    unbounded one with a shared label has none.
    """
    per_k = []
    best = None  # (max product, k)
    for k in range(1, k_max + 1):
        labels1, labels2 = labels_for(g1, g2, k)
        p = max_cross_product(labels1, labels2)
        per_k.append((k, p))
        if p and (best is None or p < best[0]):
            best = (p, k)
        if 0 < p <= max_product:
            return TuneReport(k, p, True, per_k, shared_only(labels1, labels2))
        if not p and not prefix_across_pairwise(set(labels1), set(labels2)):
            break
    if best is None:
        return TuneReport(1, 0, False, per_k, shared_only(*labels_for(g1, g2, 1)))
    p, k = best
    return TuneReport(k, p, False, per_k, None)


class TestTuneAgainstRelabeling:
    @given(*[st.lists(st.lists(st.integers(1, 2), max_size=4).map(bytes), max_size=8)] * 2)
    def test_compatible_scan_equals_pairwise(self, labels1, labels2):
        # Two degrees and short labels, so prefixes across sides are common,
        # and chains of them deep; a label may also be on both sides, or
        # repeated on one.
        got = seed_index._compatible(Counter(labels1), Counter(labels2))
        assert got == compatible_pairwise(labels1, labels2)

    @given(scattered_graphs(), scattered_graphs(), st.integers(1, 30), st.integers(1, 6))
    @settings(max_examples=150)
    def test_equal_report(self, g1, g2, bound, k_max):
        assert cut(auto_tune_k(g1, g2, bound, k_max)) == relabeling_tune(g1, g2, bound, k_max)

    @given(
        st.integers(3, 8), st.integers(3, 8), st.integers(0, 2**16),
        st.integers(1, 30), st.integers(1, 6),
    )
    @settings(max_examples=60)
    def test_equal_report_on_snapshot_pairs(self, rows, cols, seed, bound, k_max):
        # Isolated vertices hold a floor under the product of scattered
        # graphs, so they almost never meet the bound past k=1; two
        # snapshots of a grid often do, which checks labels grown past k=1.
        g1 = gen_irregular_grid(rows, cols, 0.2, seed)
        g2, _ = perturb(g1, 0.05, 0.0, 0.02, seed + 1)
        assert cut(auto_tune_k(g1, g2, bound, k_max)) == relabeling_tune(g1, g2, bound, k_max)

    def test_equal_report_when_no_vertex_is_dropped(self):
        # A perfect grid against itself shares every label at every k, so
        # every vertex stays live; its rotations keep the product at 16 or
        # more, so bound 1 scans up to k_max.
        g = gen_irregular_grid(8, 8, 0.0, 1)
        report = auto_tune_k(g, g, 1, 9)
        assert [k for k, _ in report.per_k] == list(range(1, 10))
        assert min(p for _, p in report.per_k) >= 16
        assert cut(report) == relabeling_tune(g, g, 1, 9)

    @given(scattered_graphs())
    @settings(max_examples=100)
    def test_deeper_labels_extend_shallower(self, g):
        # Why the tuner may stop at a k with no shared label once no label
        # of one graph is a proper prefix of one of the other: each vertex's
        # depth-k label is a prefix of its depth-(k+1) one.  Vertices that
        # share a depth-(k+1) label need not share the depth-k one, since a
        # label carries no level boundaries.
        prev = label_nodes(g, 0)[1]
        for k in range(1, 6):
            labels = label_nodes(g, k)[1]
            assert all(a.startswith(b) for a, b in zip(labels, prev))
            prev = labels

    @given(scattered_graphs())
    @settings(max_examples=150)
    def test_grown_labels_equal_label_nodes(self, g):
        for k, labels in zip(range(1, 7), labels_by_depth(g)):
            assert labels == label_nodes(g, k)[1]

    @given(scattered_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=150)
    def test_kept_labels_equal_label_nodes(self, g, rnd):
        # A vertex leaves the live set once its label is not kept, and the
        # others grow on as if nothing had left.
        depths = labels_by_depth(g)
        live = next(depths)
        alive = set(range(g.vertex_count))
        for k in range(1, 7):
            labels = label_nodes(g, k)[1]
            assert live == [lab if v in alive else None for v, lab in enumerate(labels)]
            keep = {lab for lab in sorted(set(filter(None, live))) if rnd.random() < 0.7}
            alive = {v for v in alive if labels[v] in keep}
            live = depths.send(keep)
