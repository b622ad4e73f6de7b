import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roadmatch.errors import InputError
from roadmatch.metrics import (
    EARTH_RADIUS_KM,
    KM_PER_MILE,
    approximation_ratio,
    haversine_km,
    pair_distance_histogram,
    threshold_ratio,
)

coords_st = st.tuples(
    st.floats(-180, 180, allow_nan=False), st.floats(-90, 90, allow_nan=False)
)


class TestHaversine:
    def test_zero_distance(self):
        assert haversine_km((12.5, -33.0), (12.5, -33.0)) == 0.0

    def test_quarter_circumference(self):
        # Pole to equator: exactly a quarter of a great circle.
        expected = math.pi * EARTH_RADIUS_KM / 2
        assert haversine_km((0.0, 90.0), (0.0, 0.0)) == pytest.approx(expected)

    def test_antipodal(self):
        expected = math.pi * EARTH_RADIUS_KM
        assert haversine_km((0.0, 0.0), (180.0, 0.0)) == pytest.approx(expected)

    def test_one_degree_longitude_at_equator(self):
        expected = math.pi * EARTH_RADIUS_KM / 180
        assert haversine_km((10.0, 0.0), (11.0, 0.0)) == pytest.approx(expected)

    @given(coords_st, coords_st)
    def test_symmetric_and_nonnegative(self, p, q):
        d = haversine_km(p, q)
        assert d >= 0
        assert d == haversine_km(q, p)
        assert d <= math.pi * EARTH_RADIUS_KM + 1e-9


class TestApproximationRatio:
    def test_identical_unique_labels(self):
        labels = [(1, 2), (2, 1, 1), (1, 3)]
        assert approximation_ratio(labels, labels) == 1.0

    def test_disjoint_labels(self):
        assert approximation_ratio([(1,)], [(2,)]) == 0.0

    def test_ambiguous_labels_inflate_ratio(self):
        labels = [(2, 2, 2)] * 4
        assert approximation_ratio(labels, labels) == 4.0

    def test_divides_by_smaller_graph(self):
        assert approximation_ratio([(1,), (1,)], [(1,)]) == 2.0

    def test_unlabeled_vertices_pair_with_none(self):
        # A vertex the tuner stopped labeling has None; it is counted in
        # its graph's size but pairs with nothing, None on the other side
        # included.
        assert approximation_ratio([None, (1,), None], [None, (1,)]) == 0.5

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            approximation_ratio([], [(1,)])


KM_PER_DEG = math.pi * EARTH_RADIUS_KM / 180  # at the equator


class TestThresholdRatio:
    def test_coincident_pairs(self):
        coords = [(0.0, 0.0), (1.0, 0.0)]
        report = threshold_ratio([(0, 0), (1, 1)], coords, coords)
        assert report.ratio == 1.0
        assert report.within == report.total == 2
        assert report.excluded_missing_coords == 0

    def test_ten_of_eleven_within(self):
        # Ten pairs essentially coincident, one pair ~111 km apart.
        coords1 = [(0.001 * i, 0.0) for i in range(10)] + [(0.0, 0.0)]
        coords2 = [(0.001 * i, 0.0) for i in range(10)] + [(1.0, 0.0)]
        pairs = [(i, i) for i in range(11)]
        report = threshold_ratio(pairs, coords1, coords2)
        assert report.within == 10
        assert report.total == 11
        assert report.ratio == pytest.approx(10 / 11)

    def test_threshold_boundary_five_miles(self):
        deg = 5 * KM_PER_MILE / KM_PER_DEG
        coords1 = [(0.0, 0.0), (0.0, 0.0)]
        coords2 = [(0.0, deg * 0.999), (0.0, deg * 1.001)]
        report = threshold_ratio([(0, 0), (1, 1)], coords1, coords2)
        assert report.within == 1

    def test_missing_coords_excluded(self):
        coords1 = [(0.0, 0.0), None]
        coords2 = [(0.0, 0.0), (1.0, 1.0)]
        report = threshold_ratio([(0, 0), (1, 1)], coords1, coords2)
        assert report.total == 1
        assert report.excluded_missing_coords == 1

    def test_no_usable_pairs(self):
        report = threshold_ratio([(0, 0)], [None], [(0.0, 0.0)])
        assert report.ratio == 0.0
        assert report.total == 0


    def test_bad_threshold(self):
        for miles in (-1.0, math.nan, math.inf):
            with pytest.raises(InputError, match="threshold must be finite and >= 0 miles"):
                threshold_ratio([], [], [], miles)

    def test_zero_threshold(self):
        coords = [(0.0, 0.0), (1.0, 1.0)]
        assert threshold_ratio([(0, 0), (0, 1)], coords, coords, 0.0).within == 1


class TestPairDistanceHistogram:
    def test_counts_each_pair_once(self):
        coords1 = [(0.0, 0.0), (0.0, 0.02)]
        coords2 = [(0.0, 0.0), (0.0, 0.0)]
        rows = pair_distance_histogram([(0, 0), (1, 1)], coords1, coords2)
        # One coincident pair (first bucket) and one at ~2.2 km.
        d = haversine_km(coords1[0], coords1[1])
        assert rows == [(0.0, 1), ((d // 0.5) * 0.5, 1)]

    def test_deterministic_and_sorted(self):
        coords1 = [(0.0, 0.0), (0.0, 0.1), (1.0, 0.0)]
        coords2 = [(0.0, 0.05), (0.0, 0.0), (0.5, 0.0)]
        pairs = [(2, 2), (0, 1), (1, 0)]
        rows = pair_distance_histogram(pairs, coords1, coords2)
        assert rows == pair_distance_histogram(pairs[::-1], coords1, coords2)
        assert [b for b, _ in rows] == sorted(b for b, _ in rows)
        assert sum(c for _, c in rows) == 3

    def test_missing_coords_skipped(self):
        coords1 = [(0.0, 0.0), None, (0.0, 0.0)]
        coords2 = [(0.0, 0.0), (0.0, 0.0), None]
        pairs = [(0, 0), (1, 1), (2, 2)]
        rows = pair_distance_histogram(pairs, coords1, coords2)
        assert rows == [(0.0, 1)]
        assert threshold_ratio(pairs, coords1, coords2).total == 1

    def test_missing_table_skipped(self):
        coords = [(0.0, 0.0)]
        for coords1, coords2 in ((None, coords), (coords, None), (None, None)):
            assert pair_distance_histogram([(0, 0)], coords1, coords2) == []
            assert threshold_ratio([(0, 0)], coords1, coords2).total == 0

    def test_bad_bucket_width(self):
        for width in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError, match="bucket width must be finite and > 0 km"):
                pair_distance_histogram([], [], [], bucket_km=width)
