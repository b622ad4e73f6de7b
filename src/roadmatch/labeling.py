"""Quasi-unique vertex labels from depth-k degree sequences.

Each vertex is labeled with its own degree followed by the degrees of all
vertices within distance k, listed in a canonical breadth-first order.  The
BFS starts from the cyclic rotation of the vertex's neighbors whose degree
sequence is lexicographically minimal; deeper vertices are enqueued in the
clockwise order determined by the edge they were discovered through.  When
several cyclic rotations are minimal, the label is computed under each and
the lexicographically smallest full label wins, so identical neighborhoods
always collide.

One kernel computes this canonical BFS for both ``label_nodes`` and
``lexicographic_bfs``.  It first renumbers the graph in breadth-first order
over every component, so the vertices of one ball sit close together in
memory, and maps results back to the caller's ids at the end; labels are
degree sequences, so renumbering cannot change them.  The BFS itself is
level-synchronous: each level is a list of directed edges, a per-call table
gives the clockwise successor edges of every directed edge, and a stamp
array marks the vertices already listed.
"""

from __future__ import annotations

from .graph import EmbeddedGraph

Label = tuple[int, ...]
MasterTable = dict[Label, list[int]]

DEFAULT_K = 7


def _min_rotation_offsets(degs: list[int]) -> list[int]:
    """Offsets i whose cyclic rotation degs[i:] + degs[:i] is minimal."""
    d = len(degs)
    if d <= 1:
        return [0]
    doubled = degs + degs
    seqs = [doubled[i : i + d] for i in range(d)]
    best = min(seqs)
    return [i for i in range(d) if seqs[i] == best]


def canonical_start_rotations(g: EmbeddedGraph, v: int) -> list[tuple[int, ...]]:
    """Cyclic rotations of rotation[v] with lexicographically minimal neighbor degrees."""
    rot = g.rotation[v]
    degs = [len(g.rotation[u]) for u in rot]
    return [rot[i:] + rot[:i] for i in _min_rotation_offsets(degs)]


def _breadth_first_ids(rotation) -> list[int]:
    """Vertices in breadth-first order, component after component."""
    seen = [False] * len(rotation)
    order: list[int] = []
    for s in range(len(rotation)):
        if seen[s]:
            continue
        seen[s] = True
        i = len(order)
        order.append(s)
        while i < len(order):
            for u in rotation[order[i]]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
            i += 1
    return order


class _BallKernel:
    """Depth-k canonical BFS over one graph, on breadth-first local ids.

    ``old[x]`` is the caller's id of local vertex x and ``new[v]`` the local
    id of the caller's vertex v.  Directed edges are numbered so that the
    out-edges of x are ``first[x] .. first[x] + deg[x] - 1`` in clockwise
    order; ``head[e]`` is the vertex edge e enters, and ``succ[e]`` lists
    the out-edges of that vertex clockwise after the one leading back along
    e.  A depth-1 ball is the start rotation alone, so ``succ`` is built
    only for k >= 2.  The tables live as long as the kernel.
    """

    def __init__(self, g: EmbeddedGraph, k: int):
        self.k = k
        self.old = old = _breadth_first_ids(g.rotation)
        self.new = new = [0] * len(old)
        for x, v in enumerate(old):
            new[v] = x
        rot = [tuple(map(new.__getitem__, g.rotation[v])) for v in old]
        self.deg = deg = [len(r) for r in rot]
        self.first = first = []
        edges = 0
        for d in deg:
            first.append(edges)
            edges += d
        # One int object per edge id, shared by every table that names it.
        self.edge_ids = ids = list(range(edges))
        self.head = [u for r in rot for u in r]
        self.succ = succ = [()] * edges
        for u, r in enumerate(rot if k >= 2 else ()):
            d = len(r)
            out = ids[first[u] : first[u] + d] * 2
            for i, x in enumerate(r):
                succ[first[x] + rot[x].index(u)] = tuple(out[i + 1 : i + d])
        self.stamp = [0] * len(old)
        self.mark = 0

    def canonical_ball(self, x: int) -> tuple[Label, list[int]]:
        """(label, local BFS order) of local vertex x.

        Minimal start rotation first, then the smallest full label among
        tied rotations; the order is the one that gave the label.
        """
        k, deg, head, succ, stamp = self.k, self.deg, self.head, self.succ, self.stamp
        d = deg[x]
        if k <= 0 or d == 0:
            return (d,), []
        out = self.edge_ids[self.first[x] : self.first[x] + d]
        best: Label | None = None
        best_order: list[int] = []
        for i in _min_rotation_offsets([deg[head[e]] for e in out]):
            level = out[i:] + out[:i]
            order = [head[e] for e in level]
            if k > 1:
                self.mark += 1
                mark = self.mark
                stamp[x] = mark
                for u in order:
                    stamp[u] = mark
                for _ in range(k - 2):
                    nxt = []
                    for e in level:
                        for f in succ[e]:
                            u = head[f]
                            if stamp[u] != mark:
                                stamp[u] = mark
                                order.append(u)
                                nxt.append(f)
                    level = nxt
                # Depth k is listed but never expanded.
                for e in level:
                    for f in succ[e]:
                        u = head[f]
                        if stamp[u] != mark:
                            stamp[u] = mark
                            order.append(u)
            lab = (d, *map(deg.__getitem__, order))
            if best is None or lab < best:
                best = lab
                best_order = order
        return best, best_order


def lexicographic_bfs(g: EmbeddedGraph, v: int, k: int) -> list[int]:
    """Canonical BFS order over vertices at distance 1..k from v.

    Uses the canonical start rotation whose resulting degree label is
    smallest, matching what label_nodes records.  Builds the kernel's
    tables for the whole graph, so one call costs O(n + m).
    """
    kernel = _BallKernel(g, k)
    _, order = kernel.canonical_ball(kernel.new[v])
    return [kernel.old[u] for u in order]


def label_nodes(g: EmbeddedGraph, k: int) -> tuple[MasterTable, list[Label]]:
    """Label every vertex and group vertices by identical label.

    Returns (master table, per-vertex label array).  Master-table entry
    lists are in ascending vertex id.
    """
    kernel = _BallKernel(g, k)
    labels: list[Label] = [()] * g.vertex_count
    for x, v in enumerate(kernel.old):
        labels[v] = kernel.canonical_ball(x)[0]
    table: MasterTable = {}
    for v, lab in enumerate(labels):
        table.setdefault(lab, []).append(v)
    return table, labels
