"""Synthetic road networks with controlled evolution and ground truth.

Irregular grids stand in for real road networks: lattice graphs with a
fraction of diagonal shortcuts added and a fraction of edges removed.  The
irregularity breaks the lattice symmetry so depth-k labels become nearly
unique, which is the regime the matching pipeline assumes.  Perturbation
produces an evolved snapshot together with the surviving-vertex
correspondence, so matching quality can be scored without geometry.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InputError
from .graph import EmbeddedGraph
from .ingest import MAX_VERTICES, rotation_from_coords

GRID_SPACING_DEG = 0.01
MAX_ROAD_DEGREE = 8


def _spanning_tree_edges(n: int, adj: list[set[int]], rng: random.Random) -> set[frozenset]:
    tree: set[frozenset] = set()
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        nbrs = sorted(adj[v])
        rng.shuffle(nbrs)
        for u in nbrs:
            if not seen[u]:
                seen[u] = True
                tree.add(frozenset((v, u)))
                stack.append(u)
    if not all(seen):
        raise InputError("base grid unexpectedly disconnected")
    return tree


def gen_irregular_grid(
    rows: int, cols: int, irregularity: float, rng_seed: int
) -> EmbeddedGraph:
    """Connected lattice graph with random diagonals added and edges removed.

    ``irregularity`` is the fraction of cells receiving a diagonal and
    (halved) the fraction of base edges removed.  Removal candidates are
    restricted to non-spanning-tree edges, so the result is connected by
    construction.  Rotations are derived from lattice coordinates, so
    maximum degree stays at most 8.
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

    def vid(r, c):
        return r * cols + c

    coords = [
        (c * GRID_SPACING_DEG, r * GRID_SPACING_DEG)
        for r in range(rows)
        for c in range(cols)
    ]
    base_edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                base_edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                base_edges.append((vid(r, c), vid(r + 1, c)))
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in base_edges:
        adj[u].add(v)
        adj[v].add(u)

    cells = [(r, c) for r in range(rows - 1) for c in range(cols - 1)]
    n_diag = round(irregularity * len(cells))
    for r, c in rng.sample(cells, n_diag):
        if rng.random() < 0.5:
            u, v = vid(r, c), vid(r + 1, c + 1)
        else:
            u, v = vid(r, c + 1), vid(r + 1, c)
        if len(adj[u]) < MAX_ROAD_DEGREE and len(adj[v]) < MAX_ROAD_DEGREE:
            adj[u].add(v)
            adj[v].add(u)

    tree = _spanning_tree_edges(n, adj, rng)
    removable = [e for e in base_edges if frozenset(e) not in tree]
    n_remove = min(round(irregularity * len(base_edges) / 2), len(removable))
    for u, v in rng.sample(removable, n_remove):
        adj[u].discard(v)
        adj[v].discard(u)

    rotation = rotation_from_coords(coords, adj)
    return EmbeddedGraph(rotation, tuple(coords))


@dataclass
class GroundTruth:
    """Identity correspondence of surviving vertices: original id -> evolved id."""

    mapping: dict[int, int]

    def __len__(self) -> int:
        return len(self.mapping)


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
    for frac in (remove_vertex_frac, remove_edge_frac, add_edge_frac):
        if not 0.0 <= frac <= 0.5:
            raise InputError("perturbation fractions must be in [0, 0.5]")
    if g.coords is None or any(c is None for c in g.coords):
        raise InputError("perturb requires coordinates on every vertex")
    rng = random.Random(rng_seed)
    n = g.vertex_count
    edges = sorted({tuple(sorted((u, v))) for u in range(n) for v in g.rotation[u]})
    m = len(edges)

    removed_vertices = set(rng.sample(range(n), int(remove_vertex_frac * n)))
    survivors = [v for v in range(n) if v not in removed_vertices]
    new_id = {v: i for i, v in enumerate(survivors)}

    surviving = [e for e in edges if e[0] not in removed_vertices and e[1] not in removed_vertices]
    n_rm = min(int(remove_edge_frac * m), len(surviving))
    dropped = set(rng.sample(range(len(surviving)), n_rm))
    kept = [e for i, e in enumerate(surviving) if i not in dropped]

    adj: list[set[int]] = [set() for _ in survivors]
    for u, v in kept:
        adj[new_id[u]].add(new_id[v])
        adj[new_id[v]].add(new_id[u])

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
        adj[u].add(v)
        adj[v].add(u)
        added += 1

    coords = tuple(g.coords[v] for v in survivors)
    rotation = rotation_from_coords(coords, adj)
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
