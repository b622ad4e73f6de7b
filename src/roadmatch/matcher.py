"""Greedy flood-based conformal matching.

`match` labels both snapshots, builds their `SeedIndex` and hands it to
`flood_match`.  Its loop repeatedly pops the label with minimal cross
product and enumerates its seed pairs, times every alignment of the two
seeds' canonical starting rotations.  It visits only the pairs that can pass the
seed check and can beat the label's best trial so far: a seed s1 with a
matched neighbour is paired only with the seeds adjacent to that
neighbour's image, and a pair is skipped once either seed's component
among unmatched vertices is no larger than the best trial, which it could
at most tie (ties keep the earliest trial), or once the best trial is not
empty and the pair's trial cannot admit a second pair
(`second_pair_partners`).  An alignment is one way of lining up the
seeds' neighbours: starts at offsets i and j pair
rotation1[i + t] with rotation2[j + t], so it is fixed by (j - i) mod deg,
and two start pairs with the same alignment differ only in which neighbour
pair is queued first.  Each alignment runs once, from the first start pair
in offset order that reaches it, as one `run_trial` call: a conformal BFS
flood that writes only the two match arrays and the caller's journal of
its pairs, and resets the journaled entries before it returns.  Every
trial of a label thus starts from the same state, so the best (largest)
trial's journal is committed as it stands; its vertices leave the seed
index permanently.  The loop ends when no cross-present label remains.

The matching is conformal at every step: each pair is admitted by one
insertion check (`admissible_at`) that looks only where the pair enters the
cyclic orders and relies on the state being conformal already.  The flood
anchors it at the pair a vertex was reached from, and the seed loop checks
a seed pair at the seed's first matched neighbour.
`graph.verify_conformal` is the full check.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass

from .errors import ConfigurationError, InternalError
from .graph import EmbeddedGraph
from .labeling import DEFAULT_K, StartMemo, check_k, depth_one_at
from .seed_index import (
    DEFAULT_K_MAX,
    DEFAULT_MAX_PRODUCT,
    SeedIndex,
    auto_tune_k,
    check_max_product,
    check_tune_args,
    label_pair,
)


class MatchState:
    def __init__(self, g1: EmbeddedGraph, g2: EmbeddedGraph):
        self.g1 = g1
        self.g2 = g2
        self.matched1: list[int | None] = [None] * g1.vertex_count
        self.matched2: list[int | None] = [None] * g2.vertex_count

    def commit(self, pairs: list[tuple[int, int]], idx: SeedIndex) -> None:
        """Keep a rolled-back trial's pairs and drop their vertices from idx.

        The trial must have been flooded from the current state, so that
        applying its journal gives exactly what re-running it would.
        """
        idx.remove_pairs(pairs)
        for v1, v2 in pairs:
            self.matched1[v1] = v2
            self.matched2[v2] = v1


def admissible_at(state: MatchState, v1: int, v2: int, i1: int, i2: int) -> bool:
    """Would adding the pair (v1, v2) keep the matching conformal?

    The check is anchored at one matched neighbour pair: ``rotation[v1][i1]``
    is matched to ``rotation[v2][i2]``.  Precondition: v1 and v2 are
    unmatched and the state is conformal, which holds because every pair in
    it passed this check when it was added.  Adding (v1, v2) then changes
    the cyclic order only at v1 and at v1's matched neighbours, so the check
    looks only there:

    * at v1, read clockwise from just after the anchor, every matched
      neighbour's image lies in ``rotation[v2]`` at an increasing offset
      from just after the anchor's image; the anchor comes last, at the
      largest offset, so its own test below runs once the others passed;
    * at each matched neighbour u with image w, when u has two or more
      other matched neighbours, v2 lies strictly clockwise between the
      images of v1's nearest matched neighbours before and after it around
      u.  (v2 lies in ``rotation[w]`` because w lies in ``rotation[v2]``.)

    Reads the state without writing it and builds no list or set: O(deg)
    per matched neighbour.
    """
    matched1 = state.matched1
    rot1, rot2 = state.g1.rotation, state.g2.rotation
    r1, r2 = rot1[v1], rot2[v2]
    d1, d2 = len(r1), len(r2)
    last = -1
    for k in range(i1 + 1 - d1, i1 + 1):
        u = r1[k]
        w = matched1[u]
        if w is None:
            continue
        try:
            pos = (r2.index(w) - i2 - 1) % d2
        except ValueError:
            return False
        if pos < last:
            return False
        last = pos
        ru = rot1[u]
        du = len(ru)
        if du < 3:
            continue
        # Images of v1's nearest matched neighbours around u: the first
        # (nxt) and the last (prv) met going clockwise from v1.
        j = ru.index(v1)
        nxt = prv = None
        for q in range(j + 1 - du, j):
            t = matched1[ru[q]]
            if t is not None:
                if nxt is None:
                    nxt = t
                prv = t
        if prv == nxt:
            continue
        rw = rot2[w]
        dw = len(rw)
        pp = rw.index(prv)
        if (rw.index(v2) - pp) % dw >= (rw.index(nxt) - pp) % dw:
            return False
    return True


def first_matched_neighbor(state: MatchState, v1: int) -> tuple[int, int] | None:
    """(offset in ``rotation[v1]``, image) of v1's first matched neighbour,
    or None when it has none."""
    matched1 = state.matched1
    for i1, u in enumerate(state.g1.rotation[v1]):
        w = matched1[u]
        if w is not None:
            return i1, w
    return None


def second_pair_partners(state: MatchState, s1: int) -> set[int] | None:
    """The G2 seeds whose trial with s1 can admit a second pair, or None
    when any seed can.

    A trial's first pair after its seed pair is an aligned neighbour pair
    (a, b), checked with only the seed pair added to the state.
    `admissible_at` rejects it unless b is unmatched, has a's degree and
    is adjacent to the image of every matched neighbour of a; s1's image
    s2 is adjacent to b by construction.  So s2 must be a neighbour of
    such a b, for some unmatched neighbour a of s1.  When such an a has
    no matched neighbour besides s1, every b of its degree next to s2
    passes this far, and the answer is None.  Reads the state without
    writing it; s1 must be unmatched.
    """
    matched1, matched2 = state.matched1, state.matched2
    rot1, rot2 = state.g1.rotation, state.g2.rotation
    partners: set[int] = set()
    for a in rot1[s1]:
        if matched1[a] is not None:
            continue
        images = [w for w in map(matched1.__getitem__, rot1[a]) if w is not None]
        if not images:
            return None
        d = len(rot1[a])
        for b in rot2[images[0]]:
            rb = rot2[b]
            if matched2[b] is None and len(rb) == d and all(w in rb for w in images):
                partners.update(rb)
    return partners


def component_at_most(
    sizes: dict[int, tuple[int, bool]],
    rotation: tuple[tuple[int, ...], ...],
    matched: list[int | None],
    v: int,
    limit: int,
) -> bool:
    """Has v's component among unmatched vertices at most limit vertices?

    Counts by a search that stops at limit + 1 vertices.  ``sizes`` caches
    (count, exact) per vertex while the matched entries stay as they are; a
    count that reached its cap is only a lower bound, so it is counted again
    once limit has grown to it.
    """
    n, exact = sizes.get(v, (0, False))
    if not exact and n <= limit:
        cap = limit + 1
        seen = {v}
        stack = [v]
        while stack and len(seen) < cap:
            for u in rotation[stack.pop()]:
                if matched[u] is None and u not in seen:
                    seen.add(u)
                    stack.append(u)
        n = min(len(seen), cap)
        exact = n <= limit
        sizes[v] = (n, exact)
    return n <= limit


def run_trial(
    state: MatchState,
    s1: int,
    s2: int,
    rotation1: tuple[int, ...],
    rotation2: tuple[int, ...],
    journal: list[tuple[int, int]],
) -> int:
    """Flood from one seed pair under one alignment of its rotations, as a
    trial that leaves the state as it found it.

    Matches the seed pair, then pairs the two start rotations entry by
    entry, which fixes the alignment, and floods breadth-first: each
    admitted pair enqueues its neighbours clockwise after the pair it was
    reached from, aligned on both sides.  Starts with the same alignment
    flood the same neighbour pairs, only queued from another one first, so
    `flood_match` runs one per alignment.  The caller checks the seed pair
    with `admissible_at` first; `flood_match` does so once per pair it
    visits, before its alignments, since the check does not depend on
    rotations.  A pair where either vertex is already matched (when it is
    enqueued or dequeued), where the degrees differ, or that
    `admissible_at` rejects, anchored at the pair it was reached from,
    silently ends that branch.  Every admitted pair, the seed pair first,
    is appended to journal; they are all unmatched again before this
    returns their count, so `MatchState.commit` can apply the journal
    later.
    """
    g1, g2 = state.g1, state.g2
    matched1, matched2 = state.matched1, state.matched2
    if matched1[s1] is not None or matched2[s2] is not None:
        raise InternalError(f"seed already matched: ({s1},{s2})")
    if g1.degree(s1) != g2.degree(s2):
        raise InternalError("seed degrees differ")
    if len(rotation1) != len(rotation2):
        raise InternalError(f"start rotations of unequal length at ({s1},{s2})")
    rot1, rot2 = g1.rotation, g2.rotation
    first = len(journal)
    matched1[s1] = s2
    matched2[s2] = s1
    journal.append((s1, s2))
    queue = deque()
    popleft, push, admit = queue.popleft, queue.append, journal.append
    for a, b in zip(rotation1, rotation2):
        if matched1[a] is None and matched2[b] is None:
            push((a, b, s1, s2))
    while queue:
        v1, v2, p1, p2 = popleft()
        if matched1[v1] is not None or matched2[v2] is not None:
            continue
        r1, r2 = rot1[v1], rot2[v2]
        d = len(r1)
        if d != len(r2):
            continue
        i1, i2 = r1.index(p1), r2.index(p2)
        if not admissible_at(state, v1, v2, i1, i2):
            continue
        matched1[v1] = v2
        matched2[v2] = v1
        admit((v1, v2))
        for k in range(i1 + 1 - d, i1):
            a = r1[k]
            b = r2[k + i2 - i1]
            if matched1[a] is None and matched2[b] is None:
                push((a, b, v1, v2))
    for v1, v2 in journal[first:]:
        matched1[v1] = None
        matched2[v2] = None
    return len(journal) - first


@dataclass
class MatchStats:
    k: int
    max_product: int
    rng_seed: int
    # Wall time of labeling both graphs, the k search included; the two are
    # labeled at once when a worker process takes the second, and that
    # worker is forked and reaped within it.
    label_time_s: float
    seed_time_s: float  # labeling plus building the seed index
    match_time_s: float
    matched: int


@dataclass
class MatchResult:
    pairs: list[tuple[int, int]]
    unmatched1: list[int]
    unmatched2: list[int]
    stats: MatchStats


def flood_match(
    g1: EmbeddedGraph, g2: EmbeddedGraph, idx: SeedIndex, rng_seed: int
) -> MatchState:
    """Flood-match label by label from the seed index idx; returns the final state.

    Deterministic for fixed inputs: seed pairs are enumerated in ascending
    vertex id and start rotations in offset order, s1's outside s2's.  A
    pair is visited only if it can pass the seed check and beat the label's
    best trial.  The check is `admissible_at` anchored at s1's first
    matched neighbour (any anchor gives the same answer); it passes when
    s1 has none and fails unless s2 is adjacent to that neighbour's image.
    Once a trial has matched anything, both seeds' components among the
    vertices unmatched at the pop must be larger than the best trial, since
    a trial stays inside them, and s2 must be one of s1's
    `second_pair_partners`, since a trial that admits only its seed pair
    cannot beat it.  All three rules are exact: the matching, the pops
    and the retired labels are those of visiting every pair.  Start
    offsets are looked up only for visited pairs that pass the check, in
    one memo per call keyed by neighbour degrees
    (``labeling.depth_one_at``).  A start pair whose
    alignment its seed pair has already flooded is skipped, as the paper
    floods once per orientation.  Its flood would queue the same neighbour
    pairs in another order, which now and then admits a different set.
    When the seeds share a label at k >= 1, their tied offsets are cosets
    of the same period, so s1's first start against every start of s2
    already reaches each alignment once.  The largest trial wins, the
    earliest on ties.  The only randomness (tie-breaking among
    equal-product labels) flows through the seeded rng.
    """
    state = MatchState(g1, g2)
    rng = random.Random(rng_seed)
    starts: StartMemo = {}  # tied start offsets, for both graphs
    while True:
        lid = idx.pop_min_label(rng)
        if lid is None:
            break
        seeds1 = idx.vertices(0, lid)
        seeds2 = idx.vertices(1, lid)
        # admissible_at assumes unmatched vertices and would answer wrongly
        # for a matched seed, so a stale index must fail here rather than in
        # run_trial.
        if any(state.matched1[v] is not None for v in seeds1) or any(
            state.matched2[v] is not None for v in seeds2
        ):
            raise InternalError(f"seed index offers matched vertices for label {lid}")
        seed2_set = set(seeds2)
        sizes1: dict[int, tuple[int, bool]] = {}  # see component_at_most
        sizes2: dict[int, tuple[int, bool]] = {}
        best: list[tuple[int, int]] = []  # journal of the earliest largest trial
        for s1 in seeds1:
            anchor = first_matched_neighbor(state, s1)
            # The seed check rejects every s2 not adjacent to the anchor's
            # image; with no anchor, it accepts every s2.
            if anchor is None:
                candidates = seeds2
            else:
                i1, w = anchor
                candidates = sorted(seed2_set.intersection(g2.rotation[w]))
            offsets1 = None
            rot1 = g1.rotation[s1]
            d = len(rot1) or 1
            partners = None
            looked = False  # partners read for s1
            for s2 in candidates:
                if best:
                    # A trial that admits only its seed pair cannot beat a
                    # non-empty best.
                    if not looked:
                        partners, looked = second_pair_partners(state, s1), True
                    if partners is not None and s2 not in partners:
                        continue
                    # A trial's vertices are connected through vertices
                    # unmatched at the pop, so a seed whose component there
                    # is no larger than best can only tie it, and ties keep
                    # the earliest trial.
                    if component_at_most(
                        sizes1, g1.rotation, state.matched1, s1, len(best)
                    ) or component_at_most(sizes2, g2.rotation, state.matched2, s2, len(best)):
                        continue
                if anchor is not None and not admissible_at(
                    state, s1, s2, i1, g2.rotation[s2].index(w)
                ):
                    continue
                if offsets1 is None:
                    offsets1 = depth_one_at(g1.rotation, s1, starts)[0]
                offsets2 = depth_one_at(g2.rotation, s2, starts)[0]
                rot2 = g2.rotation[s2]
                flooded = set()  # alignments already tried from this seed pair
                for i in offsets1:
                    for j in offsets2:
                        alignment = (j - i) % d
                        if alignment in flooded:
                            continue
                        flooded.add(alignment)
                        journal = []
                        run_trial(state, s1, s2, rot1[i:] + rot1[:i], rot2[j:] + rot2[:j], journal)
                        if len(journal) > len(best):
                            best = journal
        if not best:
            # No admissible trial for this label; retire it so the loop
            # advances (its vertices can still be matched by other floods).
            idx.retire_label(lid)
            continue
        state.commit(best, idx)
    return state


def check_match_args(k: int, max_product: int, auto_k: bool, k_max: int) -> None:
    """InputError for the arguments ``match`` refuses, as it refuses them:
    the tuner's under auto_k, where k is unused, and otherwise k's, then
    the product bound's."""
    if auto_k:
        check_tune_args(max_product, k_max)
    else:
        check_k(k)
        check_max_product(max_product)


def match(
    g1: EmbeddedGraph,
    g2: EmbeddedGraph,
    k: int = DEFAULT_K,
    max_product: int = DEFAULT_MAX_PRODUCT,
    rng_seed: int = 0,
    auto_k: bool = False,
    k_max: int = DEFAULT_K_MAX,
) -> MatchResult:
    """Full pipeline: label both graphs at k, or at the k `auto_tune_k`
    picks, index their seeds and `flood_match` from the index.  The bound is
    checked by the index at a fixed k and by the tuner's report under auto_k.
    A worker that labels g2 is reaped before the flood.  Arguments it
    would refuse are refused before anything is labeled (``check_match_args``).
    """
    check_match_args(k, max_product, auto_k, k_max)
    t0 = time.perf_counter()
    if auto_k:
        report = auto_tune_k(g1, g2, max_product, k_max)
        if report.labels is None:
            raise ConfigurationError(
                f"no k in [1, {k_max}] meets the bound {max_product}: the smallest max label "
                f"product is {report.max_product}, at k={report.k}; raise the bound (see tune-k)"
            )
        k, labels = report.k, report.labels
        del report
    else:
        labels = label_pair(g1, g2, k)
    label_time = time.perf_counter() - t0
    # Raises ConfigurationError when a label's product is over the bound.
    idx = SeedIndex(*labels, max_product)
    del labels  # the flood reads the index alone
    seed_time = time.perf_counter() - t0
    state = flood_match(g1, g2, idx, rng_seed)
    match_time = time.perf_counter() - t0 - seed_time

    pairs = [(v, w) for v, w in enumerate(state.matched1) if w is not None]
    unmatched1 = [v for v in range(g1.vertex_count) if state.matched1[v] is None]
    unmatched2 = [v for v in range(g2.vertex_count) if state.matched2[v] is None]
    stats = MatchStats(
        k=k,
        max_product=idx.largest_product,
        rng_seed=rng_seed,
        label_time_s=label_time,
        seed_time_s=seed_time,
        match_time_s=match_time,
        matched=len(pairs),
    )
    return MatchResult(pairs, unmatched1, unmatched2, stats)
