"""Exhaustive reference for desk-scale verification: a backtracking search
for the exact maximum conformal matching (the ``oracle`` command).

It is deliberately simple and independent of the production matcher, and
refuses inputs above a size cap, since the search is exponential; the cap
itself may not exceed ``MAX_SIZE_CAP``.
"""

from __future__ import annotations

from collections import deque

from .errors import InputError, InternalError
from .graph import EmbeddedGraph, verify_conformal

DEFAULT_SIZE_CAP = 10

# The largest size cap accepted: the search is exponential, so a larger cap
# only hangs.  Worst cases timed on perturbed irregular grids (2 vCPUs,
# Python 3.11.7): 1.4 s at 18 vs 17 vertices (4 pairs), 18 s at 20 vs 18
# (36 pairs of 20 vs 18 to 20 vertices), 7.7 s at 21 vs 19 (4 pairs) and
# 69 s at 24 vs 22 (2 pairs).
MAX_SIZE_CAP = 20


def check_size_cap(size_cap: int) -> None:
    """InputError for a size cap above ``MAX_SIZE_CAP``."""
    if size_cap > MAX_SIZE_CAP:
        raise InputError(f"size cap {size_cap} is above the maximum of {MAX_SIZE_CAP}")


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
    """Exact maximum conformal matching cardinality, with one witness map.

    InputError for a size cap above ``MAX_SIZE_CAP`` or a graph above the
    size cap, before any search; InternalError if the witness it finds is
    not conformal.
    """
    check_size_cap(size_cap)
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
        raise InternalError(f"oracle produced a non-conformal witness: {why}")
    return best["card"], best["map"]
