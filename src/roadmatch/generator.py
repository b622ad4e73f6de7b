"""Synthetic road networks with controlled evolution and ground truth.

Irregular grids stand in for real road networks: lattice graphs with a
fraction of diagonal shortcuts added and a fraction of edges removed.  The
irregularity breaks the lattice symmetry so depth-k labels become nearly
unique, which is the regime the matching pipeline assumes.  Perturbation
produces an evolved snapshot together with the surviving-vertex
correspondence, so matching quality can be scored without geometry.

Rotations: every edge of a generated grid is one of the eight lattice
steps, so ``gen_irregular_grid`` lists each vertex's steps in compass
order (``COMPASS_STEPS``), which is the clockwise bearing order that
``ingest.rotation_from_coords`` would give.  ``perturb`` derives every
rotation from the coordinates with ``rotation_from_coords``, since a
parent read from a file may store rotations that do not follow them.
Both keep their adjacency in flat integer structures (a byte of step
bits per vertex, a list per survivor), not a set or tuple per edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError
from .graph import EmbeddedGraph
from .ingest import MAX_VERTICES, rotation_from_coords

GRID_SPACING_DEG = 0.01
MAX_ROAD_DEGREE = 8

# The eight lattice steps as (row, column) deltas in compass order, clockwise
# from north: N, NE, E, SE, S, SW, W, NW.  Latitude grows with the row and
# longitude with the column, so this is also the order of their bearings
# (0, about 45, 90, ..., about 315 degrees).  Step d's reverse is d ^ 4.
COMPASS_STEPS = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))
_N, _NE, _E, _SE, _S, _SW, _W, _NW = (1 << d for d in range(8))


def gen_irregular_grid(
    rows: int, cols: int, irregularity: float, rng_seed: int
) -> EmbeddedGraph:
    """Connected lattice graph with random diagonals added and edges removed.

    ``irregularity`` is the fraction of cells receiving a diagonal and
    (halved) the fraction of base edges removed.  Removal candidates are
    restricted to non-spanning-tree edges, so the result is connected by
    construction.  Every edge is a lattice step, so maximum degree stays at
    most 8 and each rotation lists the steps in compass order.
    """
    if rows < 2 or cols < 2:
        raise InputError("rows and cols must be >= 2")
    if rows * cols > MAX_VERTICES:
        # No command could read such a graph back (``parse_erg``).
        raise InputError(
            f"rows x cols = {rows * cols} is above the limit of {MAX_VERTICES} vertices"
        )
    if not 0.0 <= irregularity <= 1.0:
        raise InputError("irregularity must be in [0, 1]")
    rng = random.Random(rng_seed)
    n = rows * cols

    # Vertex r * cols + c sits at (c, r) grid spacings.  Its edges are a
    # byte of step bits: bit d is set when the step COMPASS_STEPS[d] leads
    # to a neighbour.  Step d adds offsets[d] to the vertex id.
    offsets = [dr * cols + dc for dr, dc in COMPASS_STEPS]
    lons = [c * GRID_SPACING_DEG for c in range(cols)]
    lats = [r * GRID_SPACING_DEG for r in range(rows)]
    coords = [(lon, lat) for lat in lats for lon in lons]
    # The base lattice: each vertex's N, E, S and W neighbours, where the
    # grid has them.
    inner = _N | _E | _S | _W
    steps = bytearray([inner]) * n
    steps[:cols] = bytes([inner & ~_S]) * cols
    steps[-cols:] = bytes([inner & ~_N]) * cols
    steps[::cols] = bytes(b & ~_W for b in steps[::cols])
    steps[cols - 1 :: cols] = bytes(b & ~_E for b in steps[cols - 1 :: cols])

    # A diagonal per sampled cell, NE from its south-west corner or NW from
    # its south-east one.  A vertex has at most eight lattice neighbours, so
    # no diagonal can exceed MAX_ROAD_DEGREE.
    n_cells = (rows - 1) * (cols - 1)
    for cell in rng.sample(range(n_cells), round(irregularity * n_cells)):
        r, c = divmod(cell, cols - 1)
        v = r * cols + c
        if rng.random() < 0.5:
            steps[v] |= _NE
            steps[v + cols + 1] |= _SW
        else:
            steps[v + 1] |= _NW
            steps[v + cols] |= _SE

    tree = _spanning_tree(steps, offsets, rng)

    # Base edges are keyed 2v (east of v) and 2v + 1 (north of v), so the
    # keys ascend in the order the lattice lists them.
    n_base = rows * (cols - 1) + (rows - 1) * cols
    removable = [
        key
        for v, bits in enumerate(steps)
        for key, bit in ((2 * v, _E), (2 * v + 1, _N))
        if bits & bit and not tree[v] & bit
    ]
    n_remove = min(round(irregularity * n_base / 2), len(removable))
    for key in rng.sample(removable, n_remove):
        v, north = divmod(key, 2)
        if north:
            steps[v] &= ~_N
            steps[v + cols] &= ~_S
        else:
            steps[v] &= ~_E
            steps[v + 1] &= ~_W

    in_compass = [
        tuple(offsets[d] for d in range(8) if bits >> d & 1) for bits in range(256)
    ]
    ids = list(range(n))  # one int object per id, shared by every rotation
    rotation = [tuple([ids[v + o] for o in in_compass[bits]]) for v, bits in enumerate(steps)]
    return EmbeddedGraph(rotation, tuple(coords))


def _spanning_tree(steps: bytearray, offsets: list[int], rng: random.Random) -> bytearray:
    """Step bits of a random depth-first spanning tree from vertex 0.

    Each vertex's neighbours are listed in ascending id order and shuffled.
    A shuffle's draws depend on the list's length only, so shuffling the
    (offset, step) pairs draws what shuffling the ids would.
    """
    by_id = [
        sorted((offsets[d], d) for d in range(8) if bits >> d & 1) for bits in range(256)
    ]
    tree = bytearray(len(steps))
    seen = bytearray(len(steps))
    seen[0] = 1
    stack = [0]
    while stack:
        v = stack.pop()
        nbrs = by_id[steps[v]][:]
        rng.shuffle(nbrs)
        for off, d in nbrs:
            u = v + off
            if not seen[u]:
                seen[u] = 1
                tree[v] |= 1 << d
                tree[u] |= 1 << (d ^ 4)
                stack.append(u)
    if 0 in seen:
        raise InputError("base grid unexpectedly disconnected")
    return tree


@dataclass
class GroundTruth:
    """Identity correspondence of surviving vertices: original id -> evolved id."""

    mapping: dict[int, int]

    def __len__(self) -> int:
        return len(self.mapping)


def check_fractions(*fracs: float) -> None:
    """InputError unless every perturbation fraction is in [0, 0.5]."""
    if not all(0.0 <= frac <= 0.5 for frac in fracs):
        raise InputError("perturbation fractions must be in [0, 0.5]")


def perturb(
    g: EmbeddedGraph,
    remove_vertex_frac: float,
    remove_edge_frac: float,
    add_edge_frac: float,
    rng_seed: int,
) -> tuple[EmbeddedGraph, GroundTruth]:
    """Evolved copy of g: vertices and edges removed, edges added.

    Fractions are relative to the original vertex/edge counts.  Survivors
    keep their coordinates and are renumbered densely in ascending original
    id; the returned ground truth records the correspondence.
    """
    check_fractions(remove_vertex_frac, remove_edge_frac, add_edge_frac)
    if g.coords is None or any(c is None for c in g.coords):
        raise InputError("perturb requires coordinates on every vertex")
    rng = random.Random(rng_seed)
    n = g.vertex_count
    m = sum(map(len, g.rotation)) // 2

    removed_vertices = set(rng.sample(range(n), int(remove_vertex_frac * n)))
    survivors = [v for v in range(n) if v not in removed_vertices]
    new_id = [-1] * n
    for i, v in enumerate(survivors):
        new_id[v] = i

    # Edges whose ends both survive are numbered in ascending (u, v) order,
    # u < v, and the sampled numbers are dropped.  The others are counted
    # from a removed end, the lower one when both ends go.
    n_lost = sum(1 for r in removed_vertices for u in g.rotation[r] if new_id[u] >= 0 or r < u)
    n_surviving = m - n_lost
    n_rm = min(int(remove_edge_frac * m), n_surviving)
    dropped = set(rng.sample(range(n_surviving), n_rm))
    adj: list[list[int]] = [[] for _ in survivors]
    i = 0
    for u in survivors:
        a = new_id[u]
        for v in sorted(g.rotation[u]):
            b = new_id[v]
            if v > u and b >= 0:
                if i not in dropped:
                    adj[a].append(b)
                    adj[b].append(a)
                i += 1

    n_add = int(add_edge_frac * m)
    attempts = 0
    added = 0
    n_new = len(survivors)
    while added < n_add and attempts < 50 * (n_add + 1) and n_new >= 2:
        attempts += 1
        u = rng.randrange(n_new)
        v = rng.randrange(n_new)
        if u == v or v in adj[u]:
            continue
        if len(adj[u]) >= MAX_ROAD_DEGREE or len(adj[v]) >= MAX_ROAD_DEGREE:
            continue
        adj[u].append(v)
        adj[v].append(u)
        added += 1

    coords = tuple(g.coords[v] for v in survivors)
    rotation = rotation_from_coords(coords, adj)
    del adj  # freed before the graph copies its coordinates
    evolved = EmbeddedGraph(rotation, coords, d_max=g.d_max)
    return evolved, GroundTruth({v: new_id[v] for v in survivors})


@dataclass
class TruthScore:
    correct_fraction: float
    matched_fraction: float
    empty_matching: bool


def score_against_ground_truth(pairs, gt: GroundTruth) -> TruthScore:
    """How much of a matching agrees with the generator's correspondence."""
    pairs = list(pairs)
    if not pairs:
        return TruthScore(0.0, 0.0, True)
    correct = sum(1 for v, w in pairs if gt.mapping.get(v) == w)
    matched_fraction = len(pairs) / len(gt) if len(gt) else 0.0
    return TruthScore(correct / len(pairs), matched_fraction, False)
