import contextlib
import os
import random
import signal
from collections import Counter, deque

import pytest
from hypothesis import strategies as st

from roadmatch import ingest, labeling, worker
from roadmatch.errors import InputError
from roadmatch.graph import EmbeddedGraph
from roadmatch.matcher import MatchState, admissible_at, first_matched_neighbor
from roadmatch.seed_index import SeedIndex

# Longest a test that may start a worker process can take.
DEADLINE_S = 120


@pytest.fixture
def deadline():
    """Fail a test that outlives DEADLINE_S instead of hanging on a worker
    that never answers, and check at its end that no child is left."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {DEADLINE_S} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(DEADLINE_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert_no_children()


def assert_no_children():
    # Raises only when this process has no child at all; a zombie would be
    # reaped here and returned instead.
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Forked:
    """A child forked by this process, with ``Popen``'s ``returncode``
    (None until the child is reaped) and ``kill``, and how many children
    forked before it were still unreaped then."""

    def __init__(self, pid, alive):
        self.pid = pid
        self.returncode = None
        self.alive = alive

    def kill(self):
        os.kill(self.pid, signal.SIGKILL)


@contextlib.contextmanager
def forced_worker():
    """Worker on for any graph and any file (with two usable CPUs reported);
    yields the list of children forked, as ``Forked``s."""
    started = []
    real_fork, real_waitpid = os.fork, os.waitpid

    def fork():
        pid = real_fork()
        if pid:
            started.append(Forked(pid, sum(child.returncode is None for child in started)))
        return pid

    def waitpid(pid, options):
        reaped, status = real_waitpid(pid, options)
        for child in started:
            if reaped and child.pid == reaped:
                child.returncode = os.waitstatus_to_exitcode(status)
        return reaped, status

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(labeling, "WORKER_MIN_VERTICES", 0)
        mp.setattr(ingest, "PARSE_WORKER_MIN_BYTES", 0)
        mp.setattr(worker, "usable_cpus", lambda: 2)
        mp.setattr(os, "fork", fork)
        mp.setattr(os, "waitpid", waitpid)
        yield started


def no_fork():
    """``os.fork`` on a system that cannot fork now."""
    raise OSError("cannot fork")


def no_worker(*args, **kwargs):
    """``os.fork`` where no worker may be started."""
    raise AssertionError("a worker was started")


def segments_text(g) -> str:
    """A segment-format document: one two-point segment per edge of g, at
    g's coordinates."""
    c = g.coords
    return "".join(
        f"s {c[v][0]!r},{c[v][1]!r} {c[u][0]!r},{c[u][1]!r}\n"
        for v, rot in enumerate(g.rotation)
        for u in rot
        if v < u
    )


def reference_validate(g) -> None:
    """The graph check as it stood with a set per vertex, twice over; the
    reference for ``graph._validate``.  ``g`` needs only ``rotation``,
    ``coords`` and ``d_max``."""
    n = len(g.rotation)
    if g.coords is not None and len(g.coords) != n:
        raise InputError(f"coords length {len(g.coords)} != vertex count {n}")
    for v, rot in enumerate(g.rotation):
        if len(rot) > g.d_max:
            raise InputError(f"vertex {v} has degree {len(rot)} > d_max {g.d_max}")
        seen = set()
        for u in rot:
            if not 0 <= u < n:
                raise InputError(f"adjacency of vertex {v} names unknown vertex {u}")
            if u == v:
                raise InputError(f"self-loop at vertex {v}")
            if u in seen:
                raise InputError(f"parallel edge between {v} and {u}")
            seen.add(u)
    adj = [set(r) for r in g.rotation]
    for v, rot in enumerate(g.rotation):
        for u in rot:
            if v not in adj[u]:
                raise InputError(f"asymmetric adjacency: {u} in rotation[{v}] but not vice versa")
    if g.coords is not None:
        for v, c in enumerate(g.coords):
            if c is None:
                continue
            lon, lat = c
            if not (lon == lon and lat == lat) or abs(lon) > 180 or abs(lat) > 90:
                raise InputError(f"vertex {v} has invalid coordinates {c}")


def max_cross_product(labels1, labels2) -> int:
    """Largest n1(L)*n2(L) over the labels L of both per-vertex label
    lists, None not a label; 0 if none."""
    counts2 = Counter(labels2)
    return max((n * counts2[lab] for lab, n in Counter(labels1).items() if lab is not None),
               default=0)


def index_state(idx: SeedIndex):
    """A seed index's state keyed by label, for comparing two indexes.

    Label ids depend on which labels are cross-present in the label lists
    an index was built from, so indexes over different lists compare by
    label.  Covers the labels that still have vertices on both sides: their
    vertex sets, product (None once retired) and retirement, and the labels
    holding each product.  Such a label is retired exactly when it is out
    of ``product`` (``retired_labels``).
    """
    retired = retired_labels(idx)
    labels = {
        lab: (
            sorted(idx.members[0][lid]),
            sorted(idx.members[1][lid]),
            idx.product.get(lid),
            lab in retired,
        )
        for lid, lab in enumerate(idx.labels)
        if idx.members[0][lid] and idx.members[1][lid]
    }
    buckets = {p: sorted(idx.labels[lid] for lid in lids) for p, lids in idx.bucket.items()}
    return labels, buckets


def retired_labels(idx: SeedIndex) -> set:
    """The labels idx has retired: those that still have vertices on both
    sides but no product.  A label leaves ``product`` only when it is
    retired or loses its last vertex on a side."""
    return {
        idx.labels[lid]
        for lid, (a, b) in enumerate(zip(*idx.members))
        if a and b and lid not in idx.product
    }


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


def rechecked_admissible(g1: EmbeddedGraph, g2: EmbeddedGraph, matched1, v1, v2) -> bool:
    """Would matching unmatched v1 to v2 keep the matching conformal?

    Adds (v1, v2) to matched1 tentatively and re-checks the whole cyclic
    order at v1 and at every matched neighbor of v1, so it needs no
    precondition on the matching.
    """
    matched1[v1] = v2
    ok = conformal_at(g1, g2, matched1, v1) and all(
        conformal_at(g1, g2, matched1, u) for u in g1.rotation[v1] if matched1[u] is not None
    )
    matched1[v1] = None
    return ok


def reference_admissible(state: MatchState, v1: int, v2: int) -> bool:
    """Full re-check of pair_admissible's question for unmatched v1, v2;
    the reference for the matcher's insertion check."""
    return rechecked_admissible(state.g1, state.g2, state.matched1, v1, v2)


def pair_admissible(state: MatchState, v1: int, v2: int) -> bool:
    """The matcher's seed check for any unmatched v1, v2: `admissible_at`,
    anchored at v1's first matched neighbour.

    True when v1 has no matched neighbour, and False when the first one's
    image is not adjacent to v2.  The answer does not depend on the anchor:
    images that increase in offset from one anchor's image are cyclically
    increasing, which they are from any other.
    """
    anchor = first_matched_neighbor(state, v1)
    if anchor is None:
        return True
    i1, w = anchor
    try:
        i2 = state.g2.rotation[v2].index(w)
    except ValueError:
        return False
    return admissible_at(state, v1, v2, i1, i2)


def canonical_start_rotations(g: EmbeddedGraph, v: int) -> list[tuple[int, ...]]:
    """Cyclic rotations of rotation[v] whose neighbour degrees are
    lexicographically minimal, in offset order.

    Every rotation is compared whole, with none of the memo that labeling
    uses for the same starts, so the two can check each other.
    """
    rot = g.rotation[v]
    rotations = [rot[i:] + rot[:i] for i in range(len(rot))] or [rot]
    keys = [[len(g.rotation[u]) for u in r] for r in rotations]
    best = min(keys)
    return [r for r, key in zip(rotations, keys) if key == best]


def reference_flood(g1: EmbeddedGraph, g2: EmbeddedGraph, s1, s2, rotation1, rotation2) -> int:
    """Cardinality of one flood from the seed pair (s1, s2) on an empty
    matching, its start rotations paired entry by entry; every pair is
    admitted by the full re-check, so it shares no code with the matcher."""
    m1 = [None] * g1.vertex_count
    m2 = [None] * g2.vertex_count
    m1[s1], m2[s2] = s2, s1
    size = 1
    q = deque((a, b, s1, s2) for a, b in zip(rotation1, rotation2))
    while q:
        v1, v2, p1, p2 = q.popleft()
        if m1[v1] is not None or m2[v2] is not None:
            continue
        r1, r2 = g1.rotation[v1], g2.rotation[v2]
        if len(r1) != len(r2) or not rechecked_admissible(g1, g2, m1, v1, v2):
            continue
        m1[v1], m2[v2] = v2, v1
        size += 1
        i1 = r1.index(p1)
        i2 = r2.index(p2)
        q.extend((a, b, v1, v2) for a, b in zip(r1[i1 + 1 :] + r1[:i1], r2[i2 + 1 :] + r2[:i2]))
    return size


def exhaustive_flood_from(g1: EmbeddedGraph, g2: EmbeddedGraph, s1, s2, size_cap=None) -> int:
    """Best flood cardinality over all canonical starting-orientation pairs."""
    if size_cap is not None and (g1.vertex_count > size_cap or g2.vertex_count > size_cap):
        raise InputError(f"graphs exceed size cap {size_cap}")
    if g1.degree(s1) != g2.degree(s2):
        return 0
    return max(
        reference_flood(g1, g2, s1, s2, r1, r2)
        for r1 in canonical_start_rotations(g1, s1)
        for r2 in canonical_start_rotations(g2, s2)
    )


def edge_count(g: EmbeddedGraph) -> int:
    return sum(map(len, g.rotation)) // 2


def reference_rotation_from_coords(coords, neighbor_lists):
    """Each vertex's neighbours sorted by (bearing, id), the sort key built
    per neighbour; the reference for ``ingest.rotation_from_coords``."""
    return tuple(
        tuple(sorted(nbrs, key=lambda u: (ingest.bearing_degrees(src, coords[u]), u)))
        for src, nbrs in zip(coords, neighbor_lists)
    )


def rebuilt_index(labels1, labels2, keep, retired_labels, max_product) -> SeedIndex:
    """A fresh index over the vertices v of side s where keep(s, v) holds,
    with every label in retired_labels retired; labels1 and labels2 are
    the graphs' per-vertex label lists, each other vertex's entry is
    replaced by None."""
    fresh = SeedIndex(
        *(
            [lab if keep(side, v) else None for v, lab in enumerate(labels)]
            for side, labels in enumerate((labels1, labels2))
        ),
        max_product,
    )
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
