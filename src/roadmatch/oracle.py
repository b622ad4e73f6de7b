"""Exhaustive reference algorithms for desk-scale verification.

These are deliberately simple and independent of the production matcher:
a backtracking search for the exact maximum conformal matching, and a
plain flood reference for single-trial results.  Both refuse inputs above
a size cap, since the backtracking search is exponential.
"""

from __future__ import annotations

from collections import deque

from .errors import InputError
from .graph import EmbeddedGraph, verify_conformal

DEFAULT_SIZE_CAP = 10


def canonical_start_rotations(g: EmbeddedGraph, v: int) -> list[tuple[int, ...]]:
    """Cyclic rotations of rotation[v] whose neighbour degrees are
    lexicographically minimal, in offset order.

    Every rotation is compared whole, with none of the memo that labeling
    uses for the same starts, so the two can check each other.
    """
    rot = g.rotation[v]
    rotations = [rot[i:] + rot[:i] for i in range(len(rot))] or [rot]
    keys = [[len(g.rotation[u]) for u in r] for r in rotations]
    best = min(keys)
    return [r for r, key in zip(rotations, keys) if key == best]


def _search_order(g: EmbeddedGraph) -> list[int]:
    # BFS component by component from the highest-degree vertex, so each
    # vertex tends to be adjacent to already-assigned ones (better pruning).
    n = g.vertex_count
    seen = [False] * n
    order = []
    for start in sorted(range(n), key=lambda v: -len(g.rotation[v])):
        if seen[start]:
            continue
        seen[start] = True
        q = deque([start])
        while q:
            v = q.popleft()
            order.append(v)
            for u in g.rotation[v]:
                if not seen[u]:
                    seen[u] = True
                    q.append(u)
    return order


def _locally_conformal(g1: EmbeddedGraph, g2: EmbeddedGraph, f: dict, v: int) -> bool:
    w = f[v]
    adj2_w = g2.rotation[w]
    images = []
    for u in g1.rotation[v]:
        if u in f:
            if f[u] not in adj2_w:
                return False
            images.append(f[u])
    if len(images) <= 2:
        return True
    image_set = set(images)
    around_w = [x for x in adj2_w if x in image_set]
    i = around_w.index(images[0])
    return around_w[i:] + around_w[:i] == images


def brute_force_max_conformal(
    g1: EmbeddedGraph, g2: EmbeddedGraph, size_cap: int = DEFAULT_SIZE_CAP
) -> tuple[int, dict[int, int]]:
    """Exact maximum conformal matching cardinality, with one witness map."""
    if g1.vertex_count > size_cap or g2.vertex_count > size_cap:
        raise InputError(
            f"graphs exceed size cap {size_cap} ({g1.vertex_count}, {g2.vertex_count})"
        )
    order = _search_order(g1)
    by_degree: dict[int, list[int]] = {}
    for w in range(g2.vertex_count):
        by_degree.setdefault(g2.degree(w), []).append(w)
    f: dict[int, int] = {}
    used2: set[int] = set()
    best = {"card": 0, "map": {}}

    def extend(i: int) -> None:
        if len(f) + (len(order) - i) <= best["card"]:
            return
        if i == len(order):
            best["card"] = len(f)
            best["map"] = dict(f)
            return
        v = order[i]
        for w in by_degree.get(g1.degree(v), ()):
            if w in used2:
                continue
            f[v] = w
            used2.add(w)
            ok = _locally_conformal(g1, g2, f, v) and all(
                _locally_conformal(g1, g2, f, u) for u in g1.rotation[v] if u in f
            )
            if ok:
                extend(i + 1)
            del f[v]
            used2.discard(w)
        extend(i + 1)  # leave v unmatched

    extend(0)
    ok, why = verify_conformal(g1, g2, best["map"].items())
    if not ok:
        raise InputError(f"oracle produced a non-conformal witness: {why}")
    return best["card"], best["map"]


def _admissible(g1, g2, m1, v1, v2) -> bool:
    # Mirror of the matcher's guard: matching (v1, v2) must keep the flood
    # locally conformal at v1 and at v1's already-matched neighbors.
    m1[v1] = v2
    try:
        if not _locally_conformal(g1, g2, m1, v1):
            return False
        return all(
            _locally_conformal(g1, g2, m1, u) for u in g1.rotation[v1] if u in m1
        )
    finally:
        del m1[v1]


def _flood(g1, g2, s1, s2, rotation1, rotation2) -> int:
    if not _admissible(g1, g2, {}, s1, s2):
        return 0
    m1 = {s1: s2}
    m2 = {s2: s1}
    q = deque((a, b, s1, s2) for a, b in zip(rotation1, rotation2))
    while q:
        v1, v2, p1, p2 = q.popleft()
        if v1 in m1 or v2 in m2:
            continue
        r1, r2 = g1.rotation[v1], g2.rotation[v2]
        if len(r1) != len(r2):
            continue
        if not _admissible(g1, g2, m1, v1, v2):
            continue
        m1[v1] = v2
        m2[v2] = v1
        i1 = r1.index(p1)
        i2 = r2.index(p2)
        for a, b in zip(r1[i1 + 1 :] + r1[:i1], r2[i2 + 1 :] + r2[:i2]):
            q.append((a, b, v1, v2))
    return len(m1)


def exhaustive_flood_from(
    g1: EmbeddedGraph,
    g2: EmbeddedGraph,
    s1: int,
    s2: int,
    size_cap: int | None = None,
) -> int:
    """Best flood cardinality over all canonical starting-orientation pairs."""
    if size_cap is not None and (g1.vertex_count > size_cap or g2.vertex_count > size_cap):
        raise InputError(f"graphs exceed size cap {size_cap}")
    if g1.degree(s1) != g2.degree(s2):
        return 0
    return max(
        _flood(g1, g2, s1, s2, r1, r2)
        for r1 in canonical_start_rotations(g1, s1)
        for r2 in canonical_start_rotations(g2, s2)
    )
