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

The start rotations and the whole depth-1 label depend only on the
degrees of the vertex's neighbours in rotation order, and a road network
of bounded degree has few distinct such sequences (hundreds to a few
thousand on tens of thousands of vertices).  So ``depth_one`` computes
them once per sequence, memoised for one pass under those degrees.  At
k <= 1 that is the whole label, read from the caller's rotations by
``depth_one_at``, which also enforces the degree cap, and no BFS runs;
the matcher looks its seeds' start offsets up the same way.

``labels_by_depth`` is the one labeling driver.  It yields per-vertex
labels at a start depth k and then at k + 1, k + 2, ...; ``label_nodes``
is its first yield, and the tuner (``seed_index.auto_tune_k``) walks it
deeper.  After each depth its caller may send the labels to keep, and a
vertex whose label is not among them is never labeled again.  From k = 0
it starts with the degrees and from k = 1 with ``depth_one``; from k >= 2
it labels every vertex at k directly, with no depth-1 pass.  A ball stops
growing at its first empty level, when it covers its component, whatever
k asks for.

Past depth 1 the driver builds one kernel, which computes the canonical
BFS of every vertex afresh at each depth.  It first renumbers the graph
in breadth-first order over every component, so the vertices of one ball
sit close together in memory, and everything after that runs on these
local ids: a vertex's depth-1 label and tied starts come from its slice
of the kernel's head-degree bytes, through the same memo (the build
enforces the cap), and each label is written straight to its caller id.
Labels are degree sequences, so the renumbering cannot change them.  The
BFS is level-synchronous: each level is a list of directed edges, a table
gives the clockwise successor edges of every directed edge, and a stamp
array marks the vertices already listed.  ``_BallKernel.walk`` is the one
place that expands levels.  A vertex with a single start grows all its
levels into one flat edge list after one stamp pass.  Tied starts share
one stamp pass per level, each start marking what it finds with a mark
of its own, and after each level only the starts with the smallest
degrees go on, their tails compared as bytes: the depth-k order from a
start is a prefix of its depth-(k+1) order, so a start that loses once
loses for good.

The kernel's tables are ``first`` (an array of where each vertex's
out-edges start), ``head`` (the local vertex each directed edge enters),
``head_deg`` (its degree, as bytes), ``succ`` (a tuple of successor
edges per directed edge) and the stamp array.  No list of edge ids is
kept: the out-edges of x are ``range(first[x], first[x + 1])``, and each
``succ`` tuple is a slice of one tuple of its vertex's out-edges, so an
edge id is one int object however many tuples name it.  On a 40k-vertex
road grid the tables take about 19 MiB, half of it ``succ``; they
outweigh the labels, so the driver frees them before it yields the
deepest depth its caller will ask for.

A label depends only on its own graph, so two snapshots can be labeled at
the same time.  ``labeling_job`` runs the same driver on one graph in a
worker process where that can pay for itself (at least
``WORKER_MIN_VERTICES`` vertices, at any k) and ``worker.job`` can fork
one (two usable CPUs among its conditions); otherwise it runs in this
process.  The worker is forked, so the graph reaches it with nothing
copied or pickled.  Each of its replies is a label list, and each command
a keep-set.
"""

from __future__ import annotations

from array import array
from collections.abc import Generator, MutableSequence, Sequence
from itertools import accumulate, count, islice
from operator import itemgetter

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


# Neighbour degrees, in rotation order -> ``depth_one`` of them.
StartMemo = dict[bytes, tuple[tuple[int, ...], Label]]


def depth_one(degs: bytes) -> tuple[tuple[int, ...], Label]:
    """Tied start offsets and depth-1 label of a vertex whose neighbours, in
    rotation order, have degrees ``degs``.

    The offsets, ascending, are every i at which degs[i:] + degs[:i] is
    lexicographically smallest; the label is the vertex's degree followed
    by that rotation.  An isolated vertex has the one offset 0.  A vertex
    of degree above 255 raises ``ValueError``.
    """
    d = len(degs)
    if d <= 1:
        return (0,), bytes([d]) + degs
    doubled = degs + degs
    rotations = [doubled[i : i + d] for i in range(d)]
    best = min(rotations)
    return tuple(i for i, r in enumerate(rotations) if r == best), bytes([d]) + best


def depth_one_at(rotation, v: int, memo: StartMemo) -> tuple[tuple[int, ...], Label]:
    """``depth_one`` of vertex v, read from the rotation system.

    Memoised in ``memo`` under v's neighbour degrees: a road network has
    few distinct neighbour-degree sequences, so a memo kept for one pass
    computes each of them once.  A degree above ``MAX_LABEL_DEGREE`` at v
    or at a neighbour is ``InputError``, naming that vertex.
    """
    rot = rotation[v]
    try:
        degs = bytes([len(rotation[u]) for u in rot])
        found = memo.get(degs)
        if found is None:
            memo[degs] = found = depth_one(degs)
        return found
    except ValueError:
        w = next(u for u in (v, *rot) if len(rotation[u]) > MAX_LABEL_DEGREE)
        raise _degree_error(w, len(rotation[w])) from None


def _degree_error(v: int, d: int) -> InputError:
    return InputError(f"vertex {v} has degree {d}; labels hold degrees up to {MAX_LABEL_DEGREE}")


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

    ``old[x]`` is the caller's id of local vertex x.  Directed edges are
    numbered so that the out-edges of x are ``range(first[x], first[x +
    1])`` in clockwise order; ``head[e]`` is the vertex edge e enters,
    ``head_deg[e]`` (bytes) its degree, and ``succ[e]`` lists the
    out-edges of that vertex clockwise after the one leading back along e.
    Depth-1 labels need none of this (``depth_one``), so the kernel is
    built only to grow balls past depth 1.  The tables live as long as the
    kernel.  A degree above ``MAX_LABEL_DEGREE`` is ``InputError``, naming
    the caller's id of its vertex.
    """

    def __init__(self, g: EmbeddedGraph):
        rotation = g.rotation
        self.old = old = _breadth_first_ids(rotation)
        new = [0] * len(old)
        for x, v in enumerate(old):
            new[v] = x
        deg = [len(rotation[v]) for v in old]
        # Ends with the edge count.  Read once per vertex, outside the
        # walk's loops, so machine ints will do.
        self.first = array("i", accumulate(deg, initial=0))
        self.head = [new[u] for v in old for u in rotation[v]]
        del new
        try:
            # Every vertex of degree above 0 is the head of an edge.
            self.head_deg = bytes(map(deg.__getitem__, self.head))
        except ValueError:
            x = next(x for x, d in enumerate(deg) if d > MAX_LABEL_DEGREE)
            raise _degree_error(old[x], deg[x]) from None
        self.succ = self._successors(deg)
        self.stamp = [0] * len(old)
        self.mark = 0

    def _successors(self, deg: list[int]) -> list[tuple[int, ...]]:
        # A list reads faster than the array; it lives only for this build.
        first, head = self.first.tolist(), self.head
        index = head.index
        succ: list[tuple[int, ...]] = [()] * len(head)
        for u, d in enumerate(deg):
            a = first[u]
            # Each successor tuple is a slice of this one, so an edge id is
            # one int object however many tuples name it.
            out = tuple(range(a, a + d)) * 2
            i = 1
            for x in head[a : a + d]:
                # The edge x -> u, found among the out-edges of x.
                succ[index(u, first[x], first[x + 1])] = out[i : i + d - 1]
                i += 1
        return succ

    def starts(self, x: int, memo: StartMemo) -> tuple[Label, list[list[int]]]:
        """The depth-1 label of local vertex x, and its out-edges rotated to
        each tied start: the depth-1 BFS from each (``depth_one``, memoised
        in ``memo`` under x's neighbour degrees as ``depth_one_at`` is)."""
        a, b = self.first[x], self.first[x + 1]
        degs = self.head_deg[a:b]
        found = memo.get(degs)
        if found is None:
            memo[degs] = found = depth_one(degs)
        offsets, label = found
        out = list(range(a, b))
        return label, [out[i:] + out[:i] if i else out for i in offsets]

    def label(self, x: int, k: int, memo: StartMemo) -> Label:
        """The depth-k label of local vertex x, k >= 1: its ``starts``, walked."""
        label, levels = self.starts(x, memo)
        return label + self.walk(x, levels, k - 1)[0]

    def walk(
        self, x: int, levels: list[MutableSequence[int]], steps: int
    ) -> tuple[Label, list[MutableSequence[int]]]:
        """Walk the canonical BFS of local vertex x up to ``steps`` levels
        past depth 1, from its depth-1 level under each tied start
        (``levels``, as ``starts`` gives them).

        Returns the degrees of the levels walked under the start that gives
        the smallest label and, for each start still tied with it, that
        start first, a list that ends with its deepest level.  A level
        holds the same vertices under every start, only in another order,
        and the first empty level ends the walk: the ball covers its
        component, under every start.

        The stamp array is shared with every other walk, so each walk first
        marks x and the last two levels with a mark above every earlier
        one.  While starts are tied they share one such pass per level:
        with B starts, marks base .. base + B are fresh, the last two
        levels get base + B, and start b marks what it finds with base + b,
        so a vertex is new to it exactly when its stamp is below base + b,
        whatever the starts before it found.  Once one start is left, its
        levels grow into one flat edge list with no further stamp pass:
        the walk appends them to that start's list in ``levels``.
        """
        head, head_deg, stamp, succ = self.head, self.head_deg, self.stamp, self.succ
        tail = b""
        prev: Sequence[int] = ()  # the level before depth 1 is x alone
        mark = 0  # no stamp pass yet
        while len(levels) > 1 and steps:
            steps -= 1
            base = self.mark + 1
            self.mark = top = base + len(levels)
            stamp[x] = top
            for e in prev:
                stamp[head[e]] = top
            for e in levels[0]:
                stamp[head[e]] = top
            grown = []
            for own, level in enumerate(levels, base):
                nxt: list[int] = []
                for e in level:
                    for f in succ[e]:
                        u = head[f]
                        if stamp[u] < own:
                            stamp[u] = own
                            nxt.append(f)
                grown.append(nxt)
            mark = base
            if not nxt:
                return tail, levels  # the ball covers its component
            tails = [_degrees(head_deg, nxt) for nxt in grown]
            best = min(tails)
            tail += best
            prev = levels[0]
            levels = [nxt for nxt, t in zip(grown, tails) if t == best]
        if not mark:  # no tied pass ran: mark x and its out-edges
            self.mark = mark = self.mark + 1
            stamp[x] = mark
            for e in levels[0]:
                stamp[head[e]] = mark
        # Stamps at or above mark are x and the last two levels (the tied
        # starts' last pass gave them base .. base + B), so one test serves
        # from here on.
        ball = levels[0]
        lo, hi = 0, len(ball)
        start = hi
        for _ in range(steps):
            for e in islice(ball, lo, hi):
                for f in succ[e]:
                    u = head[f]
                    if stamp[u] < mark:
                        stamp[u] = mark
                        ball.append(f)
            if len(ball) == hi:
                break  # the ball covers its component
            lo, hi = hi, len(ball)
        return tail + _degrees(head_deg, ball[start:]), levels


def _degrees(head_deg: bytes, edges: Sequence[int]) -> bytes:
    """The degrees of the vertices the edges enter, in order."""
    if len(edges) > 1:
        # Gathered in C, about twice as fast as ``map``; one item would
        # come back bare rather than in a tuple.
        return bytes(itemgetter(*edges)(head_deg))
    return bytes(map(head_deg.__getitem__, edges))


def check_k(k: int) -> None:
    """InputError for a negative label depth."""
    if k < 0:
        raise InputError(f"label depth k must be >= 0, got {k}")


def label_nodes(g: EmbeddedGraph, k: int) -> tuple[MasterTable, list[Label]]:
    """Label every vertex and group vertices by identical label.

    Returns (master table, per-vertex label array): the first yield of
    ``labels_by_depth(g, k, last=k)``, which frees its kernel before it
    yields, so the kernel and the master table never peak together.
    Master-table entry lists are in ascending vertex id.  k = 0 gives
    degree-only labels.
    """
    labels = next(labels_by_depth(g, k, last=k))
    table: MasterTable = {}
    for v, lab in enumerate(labels):
        table.setdefault(lab, []).append(v)
    return table, labels


def labels_by_depth(
    g: EmbeddedGraph, k: int = 1, last: int | None = None
) -> Generator[list[Label | None], set[Label] | None, None]:
    """Yield the labels of the live vertices at depth k, k + 1, ..., last.

    Each list holds each live vertex's label at that depth and None for
    every other vertex; it stays valid until the next send, which may
    update it in place.  The value sent back is the set of labels to keep:
    every vertex whose label is not in it leaves the live set for good and
    is never labeled again.  Sending None (``next``) keeps them all, and
    then the list at depth d equals ``label_nodes(g, d)[1]``.  ``last``,
    if set, is the deepest depth the caller will ask for: the kernel is
    freed before that depth's labels are yielded.

    From k = 0 the first list holds the degrees and the next each vertex's
    ``depth_one``, the first list from k = 1; the kernel is built only for
    the depths past 1.  From k >= 2 every vertex is labeled at k directly.
    Past depth 1 the kernel labels each live vertex afresh at each depth
    (``_BallKernel.label``), and a vertex whose label stopped growing, its
    ball covering its component, is labeled no further.
    """
    check_k(k)
    rotation, memo = g.rotation, {}
    labels: list[Label | None]
    if k <= 1:
        labels = [depth_one_at(rotation, v, memo)[1] for v in range(len(rotation))]
        if not k:
            keep = yield [lab[:1] for lab in labels]  # the degrees alone
            if keep is not None:
                labels = [lab if lab[:1] in keep else None for lab in labels]
        keep = yield labels
        k = 2
    else:
        labels = [b""] * len(rotation)  # shorter than any label: all grow
        keep = None
    kernel = _BallKernel(g)
    old = kernel.old
    growing: Sequence[int] = range(len(old))  # local ids, ascending
    for depth in count(k):
        if keep is not None:
            for v, label in enumerate(labels):
                if label not in keep:
                    labels[v] = None
        still = array("i")
        for x in growing:
            v = old[x]
            label = labels[v]
            if label is None:
                continue  # dropped
            grown = kernel.label(x, depth, memo)
            if len(grown) == len(label):
                continue  # the ball covers its component
            labels[v] = grown
            still.append(x)
        growing = still
        if depth == last:
            break
        keep = yield labels
    # The kernel's tables (``succ`` above all) outweigh the labels; free
    # them before the last labels are yielded (and, in a worker, sent).
    del kernel, old
    yield labels


# Below about this many vertices, a worker of its own costs more than it
# saves (forking it, sending its labels back).  Measured with
# ``label_pair`` on snapshot pairs of irregular grids (2 vCPUs, Python
# 3.11.7, medians of 21-31 alternating runs), the two ways tie at k = 1
# near 2k vertices from a 17 MB heap and at 2k-3k from a 34 MB one, and
# at k = 2 below 1k from either; from a 56 MB heap the k = 1 times stay
# within 25% of each other from 2k to 7k.  At 2k the worker saves 15-35%
# at k = 2, at 7k 30-40%, and at 20k 26% at k = 1.  The gate is set at
# the k = 1 tie, the larger.
WORKER_MIN_VERTICES = 2000


def labeling_job(g: EmbeddedGraph, k: int, last: int | None = None):
    """Run ``labels_by_depth(g, k, last)``, in a worker process when that
    pays; a context yielding the job's peer (see ``worker``), which is
    closed when the block is left.

    Its peer's ``receive()`` returns the next label list and
    ``send(keep)`` passes the keep-set that the next list answers.  A
    worker is asked for at ``WORKER_MIN_VERTICES`` vertices or more, and
    ``worker.job`` forks it where it can (two usable CPUs among its
    conditions); otherwise the job runs here, with the same results.
    """
    return worker.job(labels_by_depth, g, k, last, in_worker=g.vertex_count >= WORKER_MIN_VERTICES)
