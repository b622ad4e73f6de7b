"""Undirected embedded graphs with explicit rotation systems.

A rotation system stores, for every vertex, the clockwise cyclic order of
its neighbors.  That ordering is the only topological information the
matching pipeline relies on; coordinates are carried along purely for
validation metrics and may be absent.  ``without_coords`` gives the
rotation system alone, as a shallow copy, for code that never reads a
coordinate (labeling, matching, the oracle).

Construction validates the graph.  Each vertex's rotation is checked with
builtins over its tuple (degree, then range, self-loop and parallel edges
in one expression) and walked again only to name its first fault;
symmetry is checked as membership in the neighbour's rotation tuple, so no
per-vertex set is kept.  Coordinates are checked last, by ``lonlat_ok``,
the one coordinate rule, which the ERG parser also applies to the
coordinates it does not keep.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .errors import InputError

DEFAULT_D_MAX = 16

LonLat = tuple[float, float]


@dataclass
class EmbeddedGraph:
    """Simple undirected graph; ``rotation[v]`` lists v's neighbors clockwise.

    Immutable by convention after construction (all fields are tuples).
    """

    rotation: tuple[tuple[int, ...], ...]
    coords: tuple[LonLat | None, ...] | None = None
    d_max: int = field(default=DEFAULT_D_MAX, repr=False)

    def __post_init__(self):
        self.rotation = tuple(tuple(r) for r in self.rotation)
        if self.coords is not None:
            self.coords = tuple(
                None if c is None else (float(c[0]), float(c[1])) for c in self.coords
            )
        _validate(self)

    @property
    def vertex_count(self) -> int:
        return len(self.rotation)

    def without_coords(self) -> EmbeddedGraph:
        """This graph without its coordinates: a shallow copy that shares the
        rotation tuples and is not validated again."""
        g = copy.copy(self)
        g.coords = None
        return g

    def degree(self, v: int) -> int:
        if not 0 <= v < len(self.rotation):
            raise InputError(f"vertex {v} out of range 0..{len(self.rotation) - 1}")
        return len(self.rotation[v])


def _validate(g: EmbeddedGraph) -> None:
    rotation = g.rotation
    n = len(rotation)
    if g.coords is not None and len(g.coords) != n:
        raise InputError(f"coords length {len(g.coords)} != vertex count {n}")
    d_max = g.d_max
    for v, rot in enumerate(rotation):
        if len(rot) > d_max:
            raise InputError(f"vertex {v} has degree {len(rot)} > d_max {d_max}")
        if rot and (min(rot) < 0 or max(rot) >= n or v in rot or len(set(rot)) != len(rot)):
            _name_fault(v, rot, n)
    # Symmetry: each directed entry must have its reverse; with no parallel
    # edges, exactly once each way.
    for v, rot in enumerate(rotation):
        for u in rot:
            if v not in rotation[u]:
                raise InputError(f"asymmetric adjacency: {u} in rotation[{v}] but not vice versa")
    if g.coords is not None:
        for v, c in enumerate(g.coords):
            if c is not None and not lonlat_ok(*c):
                raise coords_error(v, c)


def lonlat_ok(lon: float, lat: float) -> bool:
    """The coordinate rule: both finite, |lon| <= 180 and |lat| <= 90 (NaN
    fails every comparison)."""
    return abs(lon) <= 180 and abs(lat) <= 90


def coords_error(v: int, c: LonLat) -> InputError:
    """The error for vertex v's coordinates c, which break ``lonlat_ok``."""
    return InputError(f"vertex {v} has invalid coordinates {c}")


def _name_fault(v: int, rot: tuple[int, ...], n: int) -> None:
    """Raise for the first bad entry of rotation[v], known to hold one."""
    seen = set()
    for u in rot:
        if not 0 <= u < n:
            raise InputError(f"adjacency of vertex {v} names unknown vertex {u}")
        if u == v:
            raise InputError(f"self-loop at vertex {v}")
        if u in seen:
            raise InputError(f"parallel edge between {v} and {u}")
        seen.add(u)


def verify_conformal(
    g1: EmbeddedGraph, g2: EmbeddedGraph, pairs
) -> tuple[bool, str | None]:
    """Check that a partial map is a conformal matching.

    Conditions: the map is injective both ways, every pair has equal
    full-graph degrees, matched edges of G1 map onto edges of G2, and the
    clockwise cyclic order of matched neighbors is preserved.  Returns
    (True, None) or (False, description-of-first-violation).
    """
    f: dict[int, int] = {}
    seen2: set[int] = set()
    for v, w in pairs:
        if not 0 <= v < g1.vertex_count or not 0 <= w < g2.vertex_count:
            raise InputError(f"pair ({v},{w}) names an out-of-range vertex")
        if v in f or w in seen2:
            return False, f"not injective at pair ({v},{w})"
        f[v] = w
        seen2.add(w)

    for v, w in f.items():
        if g1.degree(v) != g2.degree(w):
            return False, f"degree mismatch: deg({v})={g1.degree(v)} vs deg({w})={g2.degree(w)}"

    for v, w in f.items():
        around_w = g2.rotation[w]
        for u in g1.rotation[v]:
            if u in f and f[u] not in around_w:
                return False, f"edge ({v},{u}) maps to non-edge ({w},{f[u]})"

    for v, w in f.items():
        images = [f[u] for u in g1.rotation[v] if u in f]
        if len(images) <= 2:
            continue  # any two elements are in cyclic agreement
        image_set = set(images)
        around_w = [x for x in g2.rotation[w] if x in image_set]
        i = around_w.index(images[0])
        if around_w[i:] + around_w[:i] != images:
            return False, f"cyclic order around {v} not preserved at {w}"

    return True, None
