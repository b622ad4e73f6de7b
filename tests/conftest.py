import random

from hypothesis import strategies as st

from roadmatch.graph import EmbeddedGraph
from roadmatch.matcher import MatchState
from roadmatch.seed_index import SeedIndex


def max_cross_product(mt1, mt2) -> int:
    """Largest n1(L)*n2(L) over labels present in both tables; 0 if none."""
    return max((len(v1) * len(mt2[lab]) for lab, v1 in mt1.items() if lab in mt2), default=0)


def index_state(idx: SeedIndex):
    """A seed index's state keyed by label tuple, for comparing two indexes.

    Label ids depend on which labels are cross-present in the tables an
    index was built from, so indexes over different tables compare by
    label.  Covers the labels that still have vertices on both sides: their
    vertex sets, product (None once retired) and retirement, and the labels
    holding each product.
    """
    labels = {
        lab: (
            sorted(idx.members[0][lid]),
            sorted(idx.members[1][lid]),
            idx.product.get(lid),
            lid in idx.retired,
        )
        for lid, lab in enumerate(idx.labels)
        if idx.members[0][lid] and idx.members[1][lid]
    }
    buckets = {p: sorted(idx.labels[lid] for lid in lids) for p, lids in idx.bucket.items()}
    return labels, buckets


def conformal_at(g1: EmbeddedGraph, g2: EmbeddedGraph, matched1, x: int) -> bool:
    """Local conformality at matched vertex x: matched neighbors map onto
    neighbors of x's partner, in the same clockwise cyclic order."""
    w = matched1[x]
    adj2_w = g2.rotation[w]
    images = []
    for u in g1.rotation[x]:
        img = matched1[u]
        if img is not None:
            if img not in adj2_w:
                return False
            images.append(img)
    if len(images) <= 2:
        return True
    image_set = set(images)
    around_w = [y for y in adj2_w if y in image_set]
    i = around_w.index(images[0])
    return around_w[i:] + around_w[:i] == images


def reference_admissible(state: MatchState, v1: int, v2: int) -> bool:
    """Full re-check of pair_admissible's question for unmatched v1, v2.

    Adds (v1, v2) tentatively and re-checks the whole cyclic order at v1
    and at every matched neighbor of v1, so it needs no precondition on the
    state; it is the reference for the matcher's insertion check.
    """
    g1, g2 = state.g1, state.g2
    matched1 = state.matched1
    matched1[v1] = v2
    state.matched2[v2] = v1
    ok = conformal_at(g1, g2, matched1, v1) and all(
        conformal_at(g1, g2, matched1, u) for u in g1.rotation[v1] if matched1[u] is not None
    )
    matched1[v1] = None
    state.matched2[v2] = None
    return ok


def rebuilt_index(mt1, mt2, keep, retired_labels, max_product) -> SeedIndex:
    """A fresh index over the vertices v of side s where keep(s, v) holds,
    with every label in retired_labels retired."""
    tables = [
        {lab: [v for v in verts if keep(side, v)] for lab, verts in mt.items()}
        for side, mt in enumerate((mt1, mt2))
    ]
    fresh = SeedIndex(tables[0], tables[1], max_product)
    for lid, lab in enumerate(fresh.labels):
        if lab in retired_labels:
            fresh.retire_label(lid)
    return fresh


def path_graph(n: int) -> EmbeddedGraph:
    rotation = []
    for v in range(n):
        nbrs = [u for u in (v - 1, v + 1) if 0 <= u < n]
        rotation.append(tuple(nbrs))
    return EmbeddedGraph(tuple(rotation))


def cycle_graph(n: int) -> EmbeddedGraph:
    return EmbeddedGraph(tuple(((v - 1) % n, (v + 1) % n) for v in range(n)))


def star_graph(leaves: int) -> EmbeddedGraph:
    rotation = [tuple(range(1, leaves + 1))] + [(0,)] * leaves
    return EmbeddedGraph(tuple(rotation))


def figure_star(rotation_of_center):
    """A 4-star whose center rotation is given explicitly."""
    rotation = [tuple(rotation_of_center)] + [(0,)] * 4
    return EmbeddedGraph(tuple(rotation))


def random_graph(rng: random.Random, n: int, edge_prob: float = 0.4) -> EmbeddedGraph:
    """Random simple graph with rng-shuffled rotations."""
    nbrs = [[] for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob and len(nbrs[u]) < 8 and len(nbrs[v]) < 8:
                nbrs[u].append(v)
                nbrs[v].append(u)
    for lst in nbrs:
        rng.shuffle(lst)
    return EmbeddedGraph(tuple(tuple(lst) for lst in nbrs))


@st.composite
def embedded_graphs(draw, min_vertices=1, max_vertices=8):
    n = draw(st.integers(min_vertices, max_vertices))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    nbrs = [[] for _ in range(n)]
    for u, v in chosen:
        nbrs[u].append(v)
        nbrs[v].append(u)
    rotation = []
    for lst in nbrs:
        rotation.append(tuple(draw(st.permutations(lst))) if lst else ())
    return EmbeddedGraph(tuple(rotation))
