"""Quasi-unique vertex labels from depth-k degree sequences.

Each vertex is labeled with its own degree followed by the degrees of all
vertices within distance k, listed in a canonical breadth-first order.  The
BFS starts from the cyclic rotation of the vertex's neighbors whose degree
sequence is lexicographically minimal; deeper vertices are enqueued in the
clockwise order determined by the edge they were discovered through.  When
several cyclic rotations are minimal, the label is computed under each and
the lexicographically smallest full label wins, so identical neighborhoods
always collide.

A label is ``bytes``, one byte per degree, so a graph with a degree above
255 cannot be labeled (``InputError``); parsing caps degrees at a far
lower ``d_max`` anyway.  Bytes order labels exactly as tuples of the same
ints would, cache their hash for the dicts and counters that group them,
and pickle at about their raw size when a worker sends them back.

One kernel computes this canonical BFS for ``label_nodes`` and
``labels_by_depth``.  It first renumbers the graph in breadth-first order
over every component, so the vertices of one ball sit close together in
memory, and maps results back to the caller's ids at the end; labels are
degree sequences, so renumbering cannot change them.
The BFS itself is level-synchronous: each level is a list of directed
edges, a table gives the clockwise successor edges of every directed edge,
and a stamp array marks the vertices already listed.  ``_BallKernel.grow``
is the one place that expands levels.

The ball within distance k holds the same vertices whatever the start
rotation, and the depth-k order from a start is a prefix of its
depth-(k+1) order.  So a start whose label loses at depth k loses at every
greater depth, and ``labels_by_depth`` can grow every ball by one level per
k, carrying only the starts still tied, instead of walking it again.

A label depends only on its own graph, so two snapshots can be labeled at
the same time.  ``labeling_job`` labels one graph in a worker process (see
``worker``).  It runs only where it can pay for itself (two usable CPUs,
k >= 2 and a graph of at least ``WORKER_MIN_VERTICES`` vertices);
otherwise, or when the interpreter cannot be started, the same job runs in
this process.
"""

from __future__ import annotations

import copy
from array import array
from collections import Counter
from collections.abc import Iterator, Sequence

from . import worker
from .errors import InputError
from .graph import EmbeddedGraph

# Degrees, one byte each.  Bytes compare element by element, the shorter
# first on a tie, just as tuples of the same values do.
Label = bytes
MasterTable = dict[Label, list[int]]

# The largest degree one byte of a label holds.
MAX_LABEL_DEGREE = 255

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


def canonical_start_offsets(g: EmbeddedGraph, v: int) -> list[int]:
    """Offsets i, ascending, at which rotation[v][i:] + rotation[v][:i] has
    lexicographically minimal neighbor degrees."""
    return _min_rotation_offsets([len(g.rotation[u]) for u in g.rotation[v]])


def canonical_start_rotations(g: EmbeddedGraph, v: int) -> list[tuple[int, ...]]:
    """Cyclic rotations of rotation[v] with lexicographically minimal neighbor degrees."""
    rot = g.rotation[v]
    return [rot[i:] + rot[:i] for i in canonical_start_offsets(g, v)]


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
    """Canonical BFS over one graph, on breadth-first local ids.

    ``old[x]`` is the caller's id of local vertex x and ``new[v]`` the local
    id of the caller's vertex v.  Directed edges are numbered so that the
    out-edges of x are ``first[x] .. first[x] + deg[x] - 1`` in clockwise
    order; ``head[e]`` is the vertex edge e enters, ``head_deg[e]`` its
    degree, and ``succ[e]`` lists the out-edges of that vertex clockwise
    after the one leading back along e.  A depth-1 ball is the start
    rotation alone, so ``succ`` is built only when a ball first grows past
    depth 1.  The tables live as long as the kernel.
    """

    def __init__(self, g: EmbeddedGraph):
        self.old = old = _breadth_first_ids(g.rotation)
        self.new = new = [0] * len(old)
        for x, v in enumerate(old):
            new[v] = x
        rot = [tuple(map(new.__getitem__, g.rotation[v])) for v in old]
        self.deg = deg = [len(r) for r in rot]
        top = max(deg, default=0)
        if top > MAX_LABEL_DEGREE:
            raise InputError(
                f"vertex {old[deg.index(top)]} has degree {top}; "
                f"labels hold degrees up to {MAX_LABEL_DEGREE}"
            )
        # Never read inside a walk, so machine ints will do.
        self.first = first = array("i")
        edges = 0
        for d in deg:
            first.append(edges)
            edges += d
        # One int object per edge id, shared by every table that names it.
        self.edge_ids = list(range(edges))
        self.head = [u for r in rot for u in r]
        self.head_deg = [deg[u] for u in self.head]
        self.succ: list[tuple[int, ...]] | None = None
        self.stamp = [0] * len(old)
        self.mark = 0

    def _successors(self) -> list[tuple[int, ...]]:
        deg, first, head, ids = self.deg, self.first, self.head, self.edge_ids
        self.succ = succ = [()] * len(ids)
        for u, d in enumerate(deg):
            a = first[u]
            out = ids[a : a + d] * 2
            for i in range(d):
                x = head[a + i]
                # The edge x -> u, found among the out-edges of x.
                succ[head.index(u, first[x], first[x] + deg[x])] = tuple(out[i + 1 : i + d])
        return succ

    def starts(self, x: int) -> list[list[Sequence[int]]]:
        """Depth-1 BFS of local vertex x under each minimal start rotation,
        in offset order: one level, the out-edges in that rotation.  An
        isolated vertex gets one empty start."""
        a, b = self.first[x], self.first[x] + self.deg[x]
        out = self.edge_ids[a:b]
        return [[out[i:] + out[:i]] for i in _min_rotation_offsets(self.head_deg[a:b])]

    def grow(
        self, x: int, prev: Sequence[int], balls: list[list[Sequence[int]]], levels: int
    ) -> list[list[Sequence[int]]]:
        """Extend the BFS of local vertex x by ``levels`` levels under each start.

        ``balls`` holds, for each start rotation still tied, the edges of
        its levels so far in discovery order, deepest last; only that last
        one must be there.  ``prev`` holds the edges of the level before it
        (empty at depth 1, where that level is x alone).  A level holds the
        same vertices under every start, only in another order, so one
        ``prev`` serves them all.  The stamp array is reset to x and the
        last two levels, because walks from other vertices reuse it; only
        their neighbours can be new.  Each new level is appended to its
        ball, and after each level only the starts whose new vertices have
        the smallest degree sequence go on.  Returns those balls, winner
        (the first) first.
        """
        head, head_deg, stamp = self.head, self.head_deg, self.stamp
        if levels and self.succ is None:
            self._successors()
        succ = self.succ
        for step in range(levels):
            # Every start's walk stamps the same vertices, so a lone start
            # goes on from whatever stamps the last walk left.
            fresh = step == 0 or len(balls) > 1
            for ball in balls:
                level = ball[-1]
                if fresh:
                    self.mark += 1
                    mark = self.mark
                    stamp[x] = mark
                    for e in prev:
                        stamp[head[e]] = mark
                    for e in level:
                        stamp[head[e]] = mark
                nxt = []
                for e in level:
                    for f in succ[e]:
                        u = head[f]
                        if stamp[u] != mark:
                            stamp[u] = mark
                            nxt.append(f)
                ball.append(nxt)
            prev = level
            if len(balls) > 1:
                tails = [[head_deg[f] for f in ball[-1]] for ball in balls]
                best = min(tails)
                balls = [ball for ball, tail in zip(balls, tails) if tail == best]
        return balls


def master_table(labels: list[Label]) -> MasterTable:
    """Group vertex ids by label; each entry list is in ascending id."""
    table: MasterTable = {}
    for v, lab in enumerate(labels):
        table.setdefault(lab, []).append(v)
    return table


def label_nodes(g: EmbeddedGraph, k: int) -> tuple[MasterTable, list[Label]]:
    """Label every vertex and group vertices by identical label.

    Returns (master table, per-vertex label array).  Master-table entry
    lists are in ascending vertex id.  k = 0 gives degree-only labels.
    """
    if k < 0:
        raise InputError(f"label depth k must be >= 0, got {k}")
    kernel = _BallKernel(g)
    deg, head_deg = kernel.deg, kernel.head_deg
    labels: list[Label] = [b""] * g.vertex_count
    for x, v in enumerate(kernel.old):
        # The levels under the minimal start rotation that gives the
        # smallest full label; a depth-1 ball is the start alone.
        ball = kernel.grow(x, (), kernel.starts(x), k - 1)[0] if k else ()
        labels[v] = bytes([deg[x], *[head_deg[e] for level in ball for e in level]])
    # The kernel's tables (``succ`` above all) outweigh the master table;
    # free them before it is built, so the two never peak together.
    del kernel, deg, head_deg
    return master_table(labels), labels


def labels_by_depth(g: EmbeddedGraph) -> Iterator[list[Label]]:
    """Yield the per-vertex labels at k = 1, 2, 3, ...

    The k-th list equals ``label_nodes(g, k)[1]``; it is the same list
    object every time, updated in place before the next yield.  One kernel
    grows every canonical ball by one level per k, keeping only the last
    two levels of edges: one flat array per depth holds each vertex's
    level under every start still tied, back to back, with a per-vertex
    entry count, and a small dict counts the starts of the vertices that
    still have more than one.  A ball that covers its component is
    dropped, since its label no longer changes.
    """
    kernel = _BallKernel(g)
    deg, head_deg, old = kernel.deg, kernel.head_deg, kernel.old
    n = len(old)
    labels: list[Label] = [b""] * n
    # Depth 0 is each vertex alone, which grow restamps anyway.
    prev, prev_n = array("i"), array("i", [0]) * n
    level, level_n = array("i"), array("i", [0]) * n
    tied: dict[int, int] = {}
    for x, v in enumerate(old):
        starts = kernel.starts(x)
        labels[v] = bytes([deg[x], *[head_deg[e] for e in starts[0][0]]])
        for (edges,) in starts:
            level.extend(edges)
        level_n[x] = len(starts) * deg[x]
        if len(starts) > 1:
            tied[x] = len(starts)
    yield labels
    while True:
        grown, grown_n, next_tied = array("i"), array("i", [0]) * n, {}
        a = b = 0
        for x in range(n):
            p, q = prev_n[x], level_n[x]
            if q:
                c = tied.get(x)
                if c is None:
                    balls = [[level[b : b + q]]]
                else:
                    w = q // c
                    balls = [[level[i : i + w]] for i in range(b, b + q, w)]
                balls = kernel.grow(x, prev[a : a + p], balls, 1)
                new = balls[0][-1]
                if new:
                    labels[old[x]] += bytes([head_deg[e] for e in new])
                    for ball in balls:
                        grown.extend(ball[-1])
                    grown_n[x] = len(balls) * len(new)
                    if len(balls) > 1:
                        next_tied[x] = len(balls)
            a += p
            b += q
        prev, prev_n, level, level_n, tied = level, level_n, grown, grown_n, next_tied
        yield labels


# Below this many vertices, a worker costs more than it saves: starting it
# and moving the graph and its labels through pickles take about 0.1 s.
# Measured on snapshot pairs of irregular grids (2 vCPUs, Python 3.11), the
# two ways tie near 8.5k vertices at k = 2 (0.27 s each); at 10k the worker
# saves 30%, and at k = 3 it is ahead from 7k on.
WORKER_MIN_VERTICES = 8000


def _replies(g: EmbeddedGraph, k: int | None) -> Iterator:
    """The labeling job, as the replies the worker sends for it.

    With k set, one reply: ``label_nodes(g, k)``.  With k None, one reply
    per depth k = 1, 2, ...: the ``Counter`` of the labels at k.  After
    each, the value sent in is the next command: "next" goes one level
    deeper, "stop" gets the last reply, ``(master table, labels)`` at k.
    """
    if k is not None:
        yield label_nodes(g, k)
        return
    for labels in labels_by_depth(g):
        if (yield Counter(labels)) == "stop":
            yield master_table(labels), labels
            return


def labeling_job(g: EmbeddedGraph, k: int, by_depth: bool = False):
    """Label g, in a worker process when that pays; a ``worker.job`` context.

    Its peer's ``receive()`` returns the next reply of the job and
    ``send(command)`` passes a command (see ``_replies``).  At fixed k
    (``by_depth`` false) the one reply is ``label_nodes(g, k)``.  With
    ``by_depth`` the replies follow ``labels_by_depth(g)`` and k is the
    deepest level that may be asked for.

    The worker runs only with two usable CPUs, k >= 2 and at least
    ``WORKER_MIN_VERTICES`` vertices; otherwise the job runs in this
    process, with the same results.
    """
    in_worker = k >= 2 and g.vertex_count >= WORKER_MIN_VERTICES and worker.usable_cpus() >= 2
    if in_worker:
        # The worker needs only the rotation system; unpickling the graph
        # does not validate it again.
        g = copy.copy(g)
        g.coords = None
    return worker.job(_replies, g, None if by_depth else k, in_worker=in_worker)
