import random

from hypothesis import strategies as st

from roadmatch.graph import EmbeddedGraph


def max_cross_product(mt1, mt2) -> int:
    """Largest n1(L)*n2(L) over labels present in both tables; 0 if none."""
    return max((len(v1) * len(mt2[lab]) for lab, v1 in mt1.items() if lab in mt2), default=0)


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
