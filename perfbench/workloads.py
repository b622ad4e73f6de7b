"""The benchmark's workloads: generated snapshot pairs and the match flags.

Each workload is one generator recipe plus the ``roadmatch match`` flags
run on it.  The pair is always generated from generator seed ``GEN_SEED``
and perturb seed ``GEN_SEED + 1`` (the A9 pair's seeds); the workload seed
picks a random renumbering of the vertices of each snapshot.  Renumbering
keeps the topology, so every seed costs the program nearly the same work
(within 5% on ``shallow-k1-7k``, where tie-breaks decide among many small
trials), while the files, the seed enumeration order and the tie-breaks
differ from seed to seed.  Why: across generator seeds the work itself swings up to threefold
(the number of full-size flood trials ranges from 1 to over 2000 on the
near-regular lattice), which no bound of a quarter could absorb.  Why each
workload exists, and which layer it loads, is in README.md next to this
file.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

GEN_SEED = 9
DEFAULT_SEED = 9
# Not used while the benchmark or a change is tuned; claim checks re-run on it.
HELD_OUT_SEED = 23

# Edge lengths of the toy-size shape used by selfcheck.py.
TOY_ROWS = TOY_COLS = 10

UNBOUNDED = "1000000000"


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    cols: int
    irregularity: float
    remove_vertices: float
    add_edges: float
    match_flags: tuple[str, ...]
    # Quality floors for seeds without recorded values.
    min_recall: float
    min_precision: float
    # seed -> (matched pairs, correct pairs), exact.
    recorded: dict


def renumber(rm, g, rng: random.Random):
    """Copy of g with vertex v renamed perm[v]; returns (graph, perm)."""
    n = g.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    rotation = [()] * n
    coords = [None] * n
    for v in range(n):
        rotation[perm[v]] = tuple(perm[u] for u in g.rotation[v])
        coords[perm[v]] = g.coords[v]
    return rm.EmbeddedGraph(rotation, coords, d_max=g.d_max), perm


def make_pair(rm, wl: Workload, seed: int, rows: int, cols: int):
    """(g1, g2, truth) for one run: the fixed pair under the seed's numbering."""
    g1 = rm.gen_irregular_grid(rows, cols, wl.irregularity, GEN_SEED)
    g2, truth = rm.perturb(g1, wl.remove_vertices, 0.0, wl.add_edges, GEN_SEED + 1)
    rng = random.Random(seed)
    h1, perm1 = renumber(rm, g1, rng)
    h2, perm2 = renumber(rm, g2, rng)
    return h1, h2, {perm1[v]: perm2[w] for v, w in truth.mapping.items()}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="irregular-k4-40k",
            rows=200, cols=200, irregularity=0.15,
            remove_vertices=0.02, add_edges=0.01,
            match_flags=("--k", "4", "--max-product", "4096"),
            min_recall=0.85, min_precision=0.99,
            recorded={9: (34812, 34780), 23: (34812, 34780)},
        ),
        Workload(
            name="autok-20k",
            rows=100, cols=200, irregularity=0.15,
            remove_vertices=0.05, add_edges=0.02,
            match_flags=("--auto-k", "--max-product", "24"),
            min_recall=0.70, min_precision=0.98,
            recorded={9: (14272, 14180), 23: (14272, 14180)},
        ),
        Workload(
            name="lattice-k3-20k",
            rows=100, cols=200, irregularity=0.03,
            remove_vertices=0.02, add_edges=0.01,
            match_flags=("--k", "3", "--max-product", UNBOUNDED),
            min_recall=0.85, min_precision=0.99,
            recorded={9: (17408, 17394), 23: (17408, 17394)},
        ),
        Workload(
            name="shallow-k1-7k",
            rows=70, cols=100, irregularity=0.15,
            remove_vertices=0.02, add_edges=0.01,
            match_flags=("--k", "1", "--max-product", UNBOUNDED),
            min_recall=0.85, min_precision=0.95,
            recorded={9: (6207, 6078), 23: (6209, 6078)},
        ),
    )
}
