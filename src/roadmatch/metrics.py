"""Validation metrics: haversine distances, approximation ratio, 5-mile
threshold ratio, and the distance histogram of a matching's pairs.

The matcher itself never looks at geometry; these metrics use coordinates,
when present, to audit the quality of a topology-only matching.  The
approximation ratio alone reads no coordinate: it counts the two graphs'
per-vertex label lists (``seed_index.label_pair``) itself.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import InputError
from .labeling import Label

EARTH_RADIUS_KM = 6371.0088  # IUGG mean radius
KM_PER_MILE = 1.609344
DEFAULT_THRESHOLD_MILES = 5.0
DEFAULT_BUCKET_KM = 0.5


def haversine_km(p: tuple[float, float], q: tuple[float, float]) -> float:
    """Great-circle distance between two (lon, lat) points in km."""
    lon1, lat1 = map(math.radians, p)
    lon2, lat2 = map(math.radians, q)
    s = (
        math.sin((lat2 - lat1) / 2) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    )
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def approximation_ratio(labels1: list[Label | None], labels2: list[Label | None]) -> float:
    """Cross-graph same-label pair count over the smaller graph's size,
    from the per-vertex label lists of the two graphs (None: no label).

    Small is good: it means the labeling leaves few ambiguous seed
    candidates.
    """
    if not labels1 or not labels2:
        raise InputError("approximation ratio undefined for empty graphs")
    counts2 = Counter(labels2)
    pairs = sum(n * counts2[lab] for lab, n in Counter(labels1).items() if lab is not None)
    return pairs / min(len(labels1), len(labels2))


@dataclass
class ThresholdReport:
    ratio: float
    within: int
    total: int
    excluded_missing_coords: int


def check_threshold_miles(threshold_miles: float) -> None:
    """InputError unless the threshold is finite and >= 0."""
    if not (math.isfinite(threshold_miles) and threshold_miles >= 0):
        raise InputError(f"threshold must be finite and >= 0 miles, got {threshold_miles}")


def check_bucket_km(bucket_km: float) -> None:
    """InputError unless the bucket width is finite and > 0."""
    if not (math.isfinite(bucket_km) and bucket_km > 0):
        raise InputError(f"bucket width must be finite and > 0 km, got {bucket_km}")


def _pair_coords(pairs, coords1, coords2):
    """Each pair's two coordinates, or None where either side has none; a
    None table has no coordinates at all."""
    for v, w in pairs:
        c1 = coords1[v] if coords1 is not None else None
        c2 = coords2[w] if coords2 is not None else None
        yield None if c1 is None or c2 is None else (c1, c2)


def threshold_ratio(
    pairs,
    coords1,
    coords2,
    threshold_miles: float = DEFAULT_THRESHOLD_MILES,
) -> ThresholdReport:
    """Fraction of matched pairs within threshold_miles of each other.

    Pairs missing coordinates on either side, or with a None table, are
    excluded and counted.  InputError unless the threshold is finite and >= 0.
    """
    check_threshold_miles(threshold_miles)
    limit_km = threshold_miles * KM_PER_MILE
    within = total = excluded = 0
    for ends in _pair_coords(pairs, coords1, coords2):
        if ends is None:
            excluded += 1
            continue
        total += 1
        if haversine_km(*ends) <= limit_km:
            within += 1
    ratio = within / total if total else 0.0
    return ThresholdReport(ratio, within, total, excluded)


def pair_distance_histogram(
    pairs,
    coords1,
    coords2,
    bucket_km: float = DEFAULT_BUCKET_KM,
) -> list[tuple[float, int]]:
    """Distance histogram over a matching's pairs.

    Pairs missing coordinates on either side, or with a None table, are
    left out, as in ``threshold_ratio``, so the counts sum to its
    ``total``.  Returns (bucket lower edge in km, count) rows, suitable
    for CSV output.  Ideal
    matchings put all mass in the first bucket.  InputError unless the
    bucket width is finite and > 0.
    """
    check_bucket_km(bucket_km)
    counts: dict[int, int] = {}
    for ends in _pair_coords(pairs, coords1, coords2):
        if ends is None:
            continue
        b = int(haversine_km(*ends) // bucket_km)
        counts[b] = counts.get(b, 0) + 1
    return [(b * bucket_km, counts[b]) for b in sorted(counts)]
