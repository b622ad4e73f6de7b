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

Past depth 1, one kernel computes the canonical BFS for both
``label_nodes`` and ``labels_by_depth``.  It first renumbers the graph in
breadth-first order over every component, so the vertices of one ball sit
close together in memory, and everything after that runs on these local
ids: a vertex's depth-1 label and tied starts come from its slice of the
kernel's head-degree bytes, through the same memo (the build enforces the
cap), and each label is written straight to its caller id.  Labels are
degree sequences, so the renumbering cannot change them.  The BFS is
level-synchronous: each level is a list of directed edges, a table gives
the clockwise successor edges of every directed edge, and a stamp array
marks the vertices already listed.  ``_BallKernel.walk`` is the one place
that expands levels.  A vertex with a single start grows all its levels
into one flat edge list after one stamp pass.  Tied starts share one
stamp pass per level, each start marking what it finds with a mark of
its own, and after each level only the starts with the smallest degrees
go on; their tails are compared as bytes.

The ball within distance k holds the same vertices whatever the start
rotation, and the depth-k order from a start is a prefix of its
depth-(k+1) order.  So a start whose label loses at depth k loses at every
greater depth, and ``labels_by_depth`` can grow every ball by one level per
k, with the same walk, carrying only the starts still tied, instead of
walking it again.  It grows only the live vertices: after each k its
caller names the labels to keep, and a vertex whose label is not among
them is never grown again.  The tuner keeps just the labels that can still
be shared by the other graph (``seed_index.auto_tune_k``) and speaks to it
through ``counts_by_depth``, which sends label counts and, at the end, a
master table of the labels it is asked for.  A ball stops growing at its
first empty level, when it covers its component, whatever k asks for.

A label depends only on its own graph, so two snapshots can be labeled at
the same time.  ``labeling_job`` labels one graph in a worker process
where that can pay for itself (at least ``WORKER_MIN_VERTICES`` vertices,
at any k) and ``worker.job`` can fork one (two usable CPUs among its
conditions); otherwise the same job runs in this process.  The worker is
forked, so the graph reaches it with nothing copied or pickled, and only
its labels come back.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import Generator, Iterable, Iterator, MutableSequence, Sequence
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
    numbered so that the out-edges of x are ``first[x] .. first[x + 1] -
    1`` in clockwise order; ``head[e]`` is the vertex edge e enters,
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
        # One int object per edge id, shared by every table that names it.
        self.edge_ids = list(range(self.first[-1]))
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
        first, head, ids = self.first.tolist(), self.head, self.edge_ids
        index = head.index
        succ: list[tuple[int, ...]] = [()] * len(ids)
        for u, d in enumerate(deg):
            a = first[u]
            out = tuple(ids[a : a + d]) * 2
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
        out = self.edge_ids[a:b]
        return label, [out[i:] + out[:i] if i else out for i in offsets]

    def walk(
        self, x: int, prev: Sequence[int], levels: list[MutableSequence[int]], steps: int
    ) -> tuple[Label, list[MutableSequence[int]]]:
        """Grow the canonical BFS of local vertex x by up to ``steps`` levels.

        ``levels`` holds the edges of the deepest level so far under each
        start rotation still tied, in discovery order; ``prev`` the edges of
        the level before it (empty at depth 1, where that level is x
        alone).  A level holds the same vertices under every start, only in
        another order, so one ``prev`` serves them all, and only the
        neighbours of the last level can be new.  Returns the degrees of
        the levels grown under the start that gives the smallest label and,
        for each start still tied with it, that start first, a list that
        ends with its deepest level.  The first empty level ends the walk:
        the ball covers its component, under every start.

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
        mark = 0  # no stamp pass yet
        while len(levels) > 1:
            if not steps:
                return tail, levels
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
        if not steps:
            return tail, levels
        if not mark:
            self.mark = mark = self.mark + 1
            stamp[x] = mark
            for e in prev:
                stamp[head[e]] = mark
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
        if not lo:
            return tail, levels
        return tail + _degrees(head_deg, ball[start:]), levels


def _degrees(head_deg: bytes, edges: Sequence[int]) -> bytes:
    """The degrees of the vertices the edges enter, in order."""
    if len(edges) > 1:
        # Gathered in C, about twice as fast as ``map``; one item would
        # come back bare rather than in a tuple.
        return bytes(itemgetter(*edges)(head_deg))
    return bytes(map(head_deg.__getitem__, edges))


def master_table(labels: Iterable[tuple[int, Label]]) -> MasterTable:
    """Group vertex ids by label, from (vertex, label) pairs in ascending
    vertex id; each entry list is in ascending id."""
    table: MasterTable = {}
    for v, lab in labels:
        table.setdefault(lab, []).append(v)
    return table


def label_nodes(g: EmbeddedGraph, k: int) -> tuple[MasterTable, list[Label]]:
    """Label every vertex and group vertices by identical label.

    Returns (master table, per-vertex label array).  Master-table entry
    lists are in ascending vertex id.  k = 0 gives degree-only labels.
    At k <= 1 a label is its vertex's ``depth_one``; only deeper labels
    build the kernel, which walks levels 2..k from the tied starts.
    """
    if k < 0:
        raise InputError(f"label depth k must be >= 0, got {k}")
    rotation, memo = g.rotation, {}
    if k <= 1:
        labels = [depth_one_at(rotation, v, memo)[1] for v in range(len(rotation))]
        if not k:
            labels = [lab[:1] for lab in labels]  # the degrees alone
        return master_table(enumerate(labels)), labels
    kernel = _BallKernel(g)
    labels = [b""] * len(rotation)
    for x, v in enumerate(kernel.old):
        label, levels = kernel.starts(x, memo)
        labels[v] = label + kernel.walk(x, (), levels, k - 1)[0]
    # The kernel's tables (``succ`` above all) outweigh the master table;
    # free them before it is built, so the two never peak together.
    del kernel
    return master_table(enumerate(labels)), labels


def labels_by_depth(
    g: EmbeddedGraph,
) -> Generator[list[Label | None], set[Label] | None, None]:
    """Yield the labels of the live vertices at k = 1, 2, 3, ...

    The k-th list holds each live vertex's label at k and None for every
    other vertex; it is the same list object every time, updated in place
    before the next yield.  The value sent back is the set of labels to
    keep: every vertex whose label is not in it leaves the live set for
    good and is never grown again.  Sending None (``next``) keeps them
    all, and then the k-th list equals ``label_nodes(g, k)[1]``.

    Depth 1 is each vertex's ``depth_one``; the kernel is built only when
    depth 2 is asked for, and the first growth reads each vertex's tied
    starts from it (``_BallKernel.starts``).  Each depth is one level of
    ``_BallKernel.walk`` per live vertex.  Between depths, each live vertex
    carries only its last two levels of edges in flat arrays: the last
    level under every start still tied, back to back, the level before it
    once, and per local id where each sits and how long it is; a small
    dict counts the starts of the vertices that still have more than one.
    A ball that covers its component is grown no further, since its label
    no longer changes.
    """
    rotation, memo = g.rotation, {}
    labels: list[Label | None] = [depth_one_at(rotation, v, memo)[1] for v in range(len(rotation))]
    keep = yield labels
    kernel = _BallKernel(g)
    old, first = kernel.old, kernel.first
    n = len(old)
    # Where each local id's last two levels sit in ``prev`` and ``level``.
    prev_at, prev_n = array("i", [0]) * n, array("i", [0]) * n
    level_at, level_n = array("i", [0]) * n, array("i", [0]) * n
    prev = level = array("i")
    tied: dict[int, int] = {}
    growing: Sequence[int] = range(n)  # local ids, ascending
    for depth in count(2):
        if keep is not None:
            for v, label in enumerate(labels):
                if label not in keep:
                    labels[v] = None
        grown, still = array("i"), array("i")
        for x in growing:
            v = old[x]
            label = labels[v]
            if label is None:
                continue  # dropped
            if depth == 2:
                levels = kernel.starts(x, memo)[1]
                before = ()
            else:
                a, q = level_at[x], level_n[x]
                w = q // tied.get(x, 1)
                # Lists, which grow faster than arrays.
                levels = [level[i : i + w].tolist() for i in range(a, a + q, w)]
                before = prev[prev_at[x] : prev_at[x] + prev_n[x]]
            tail, levels = kernel.walk(x, before, levels, 1)
            if not tail:
                continue  # the ball covers its component
            labels[v] = label + tail
            still.append(x)
            # The level just grown from, once: every start holds the same
            # edges.  At depth 2 that is x's out-edges, which ``edge_ids``
            # lists in place.
            if depth == 2:
                prev_at[x], prev_n[x] = first[x], first[x + 1] - first[x]
            else:
                prev_at[x], prev_n[x] = a, w
            # The level just grown, under each start: a byte of the tail
            # per edge.
            width = len(tail)
            level_at[x], level_n[x] = len(grown), len(levels) * width
            for ends in levels:
                grown.extend(ends[len(ends) - width :])
            if len(levels) > 1:
                tied[x] = len(levels)
            else:
                tied.pop(x, None)
        prev = kernel.edge_ids if depth == 2 else level
        level, growing = grown, still
        keep = yield labels


def counts_by_depth(g: EmbeddedGraph) -> Generator[Counter | MasterTable, tuple, None]:
    """The tuner's side of ``labels_by_depth(g)``, as replies to commands.

    Each reply at k = 1, 2, ... is the ``Counter`` of the live vertices'
    labels.  The command sent back is ("next", keep), which goes one level
    deeper keeping the labels in ``keep``, or ("stop", shared), whose reply
    is the master table at k of the live vertices whose labels are in
    ``shared``.  The growth state is freed before that table is built.
    """
    depths = labels_by_depth(g)
    labels = next(depths)
    while True:
        # No label is empty, so filter(None, ...) drops just the Nones.
        command, chosen = yield Counter(filter(None, labels))
        if command == "stop":
            depths.close()
            yield master_table((v, lab) for v, lab in enumerate(labels) if lab in chosen)
            return
        labels = depths.send(chosen)


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


def label_replies(g: EmbeddedGraph, k: int | None) -> Iterator:
    """The labeling job, as the replies the worker sends for it.

    With k set, one reply: the master table ``label_nodes(g, k)[0]``.
    With k None, the replies and commands of ``counts_by_depth(g)``.
    """
    if k is not None:
        yield label_nodes(g, k)[0]
        return
    yield from counts_by_depth(g)


def labeling_job(g: EmbeddedGraph, k: int | None):
    """Label g, in a worker process when that pays; a context yielding the
    job's peer (see ``worker``), which is closed when the block is left.

    Its peer's ``receive()`` returns the next reply of the job and
    ``send(command)`` passes a command (see ``label_replies``): with k set,
    the one reply is the master table of ``label_nodes(g, k)``; with k
    None, the replies and commands are those of ``counts_by_depth(g)``.  A
    worker is asked for at ``WORKER_MIN_VERTICES`` vertices or more, and
    ``worker.job`` forks it where it can (two usable CPUs among its
    conditions); otherwise the job runs here, with the same results.
    """
    return worker.job(label_replies, g, k, in_worker=g.vertex_count >= WORKER_MIN_VERTICES)
