"""Greedy flood-based conformal matching.

The outer loop repeatedly pops the label with minimal cross product and
enumerates every seed pair for that label, times every combination of
canonical starting rotations of the two seeds.  Each combination runs as an
isolated trial: a conformal BFS flood that writes only the two match arrays
and a journal of its pairs, so rolling it back resets the journaled
entries.  Every trial of a label starts from the same state, so the best
(largest) trial's journal is committed as it stands; its vertices leave the
seed index permanently.  The loop ends when no cross-present label remains.

The matching is conformal at every step: each pair is admitted by an
insertion check (`pair_admissible`, inlined in `run_trial`) that looks only
where the pair enters the cyclic orders and relies on the state being
conformal already.  `graph.verify_conformal` is the full check.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass

from .errors import InternalError
from .graph import EmbeddedGraph
from .labeling import DEFAULT_K, canonical_start_rotations
from .seed_index import (
    DEFAULT_MAX_PRODUCT,
    SeedIndex,
    auto_tune_k,
    build_seed_index,
    label_pair,
)


class MatchState:
    def __init__(self, g1: EmbeddedGraph, g2: EmbeddedGraph):
        self.g1 = g1
        self.g2 = g2
        self.matched1: list[int | None] = [None] * g1.vertex_count
        self.matched2: list[int | None] = [None] * g2.vertex_count
        self.total: list[tuple[int, int]] = []
        self.trial: list[tuple[int, int]] | None = None

    def checkpoint(self) -> None:
        if self.trial is not None:
            raise InternalError("trial already in progress")
        self.trial = []

    def abort_trial(self) -> list[tuple[int, int]]:
        """Unmatch the trial's journaled pairs, restoring the pre-trial state.

        Returns the journal, which `commit` can apply later.
        """
        journal = self.trial
        if journal is None:
            raise InternalError("no trial to abort")
        matched1, matched2 = self.matched1, self.matched2
        for v1, v2 in journal:
            matched1[v1] = None
            matched2[v2] = None
        self.trial = None
        return journal

    def commit(self, pairs: list[tuple[int, int]], idx: SeedIndex) -> None:
        """Keep a rolled-back trial's pairs and drop their vertices from idx.

        The trial must have been flooded from the current state, so that
        applying its journal gives exactly what re-running it would.
        """
        if self.trial is not None:
            raise InternalError("commit during a trial")
        idx.remove_pairs(pairs)
        for v1, v2 in pairs:
            self.matched1[v1] = v2
            self.matched2[v2] = v1
        self.total.extend(pairs)


def pair_admissible(state: MatchState, v1: int, v2: int) -> bool:
    """Would adding the pair (v1, v2) keep the matching conformal?

    Precondition: v1 and v2 are unmatched and the state is conformal, which
    holds because every pair in it passed this check when it was added.
    Adding (v1, v2) then changes the cyclic order only at v1 and at v1's
    matched neighbours, so the check looks only there:

    * at v1, every matched neighbour's image lies in ``rotation[v2]``, and
      read in v1's clockwise order their positions there are cyclically
      increasing (at most one cyclic descent);
    * at each matched neighbour u with image w, when u has two or more
      other matched neighbours, v2 lies strictly clockwise between the
      images of v1's nearest matched neighbours before and after it around
      u.  (v2 lies in ``rotation[w]`` because w lies in ``rotation[v2]``.)

    Reads the state without writing it and builds no list or set: O(deg)
    per matched neighbour.
    ``run_trial`` inlines the same check, anchored at the pair the flood
    arrived from.  Pairs failing it are skipped, so every returned matching
    passes verify_conformal.
    """
    matched1 = state.matched1
    rot1, rot2 = state.g1.rotation, state.g2.rotation
    r2 = rot2[v2]
    first = last = -1
    descents = 0
    for u in rot1[v1]:
        w = matched1[u]
        if w is None:
            continue
        try:
            pos = r2.index(w)
        except ValueError:
            return False
        if first < 0:
            first = pos
        elif pos < last:
            descents += 1
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
    if last > first:
        descents += 1
    return descents <= 1


def run_trial(
    state: MatchState,
    s1: int,
    s2: int,
    rotation1: tuple[int, ...],
    rotation2: tuple[int, ...],
) -> int:
    """Flood from one seed pair under one starting-orientation combination.

    Matches the seed pair and journals it, then pairs the two rotations
    entry by entry and floods breadth-first: each admitted pair enqueues its
    neighbours clockwise after the pair it was reached from, aligned on both
    sides.  The caller checks the seed pair with `pair_admissible` first;
    `match` does so once per pair, since the check does not depend on
    rotations.  A pair where either vertex is already matched (when it is
    enqueued or dequeued), where the degrees differ, or that fails
    `pair_admissible`'s check silently ends that branch.  Returns the
    trial's cardinality.
    """
    journal = state.trial
    if journal is None:
        raise InternalError("run_trial outside a trial")
    g1, g2 = state.g1, state.g2
    matched1, matched2 = state.matched1, state.matched2
    if matched1[s1] is not None or matched2[s2] is not None:
        raise InternalError(f"seed already matched: ({s1},{s2})")
    if g1.degree(s1) != g2.degree(s2):
        raise InternalError("seed degrees differ")
    if len(rotation1) != len(rotation2):
        raise InternalError(f"start rotations of unequal length at ({s1},{s2})")
    rot1, rot2 = g1.rotation, g2.rotation
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
        # pair_admissible's check, read clockwise from just after (p1, p2):
        # the images' offsets from just after p2 must increase.  p1 comes
        # last, at offset d - 1, so its neighbour-side check runs only once
        # the other matched neighbours have passed.
        last = -1
        for k in range(i1 + 1 - d, i1 + 1):
            u = r1[k]
            w = matched1[u]
            if w is None:
                continue
            try:
                pos = (r2.index(w) - i2 - 1) % d
            except ValueError:
                break
            if pos < last:
                break
            last = pos
            ru = rot1[u]
            du = len(ru)
            if du < 3:
                continue
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
                break
        else:
            matched1[v1] = v2
            matched2[v2] = v1
            admit((v1, v2))
            for k in range(i1 + 1 - d, i1):
                a = r1[k]
                b = r2[k + i2 - i1]
                if matched1[a] is None and matched2[b] is None:
                    push((a, b, v1, v2))
    return len(journal)


@dataclass
class MatchStats:
    k: int
    max_product: int
    rng_seed: int
    # Wall time of labeling both graphs, the k search included; the two are
    # labeled at once when a worker process takes the second.
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

    def as_map(self) -> dict[int, int]:
        return dict(self.pairs)


def match(
    g1: EmbeddedGraph,
    g2: EmbeddedGraph,
    k: int = DEFAULT_K,
    max_product: int = DEFAULT_MAX_PRODUCT,
    rng_seed: int = 0,
    auto_k: bool = False,
    k_max: int = 12,
) -> MatchResult:
    """Full pipeline: label both graphs, then flood-match label by label.

    Deterministic for fixed inputs: seed pairs are enumerated in ascending
    vertex id, orientations in rotation-offset order, and the only
    randomness (tie-breaking among equal-product labels) flows through the
    seeded rng.
    """
    t0 = time.perf_counter()
    if auto_k:
        report = auto_tune_k(g1, g2, max_product, k_max)
        k = report.k
        mt1, mt2 = report.tables
    else:
        (mt1, _), (mt2, _) = label_pair(g1, g2, k)
    label_time = time.perf_counter() - t0
    # Raises ConfigurationError when a label's product is over the bound.
    idx = build_seed_index(mt1, mt2, max_product)
    seed_time = time.perf_counter() - t0

    t1 = time.perf_counter()
    state = MatchState(g1, g2)
    rng = random.Random(rng_seed)
    while True:
        lid = idx.pop_min_label(rng)
        if lid is None:
            break
        seeds1 = idx.vertices(0, lid)
        seeds2 = idx.vertices(1, lid)
        # pair_admissible assumes unmatched vertices and would answer wrongly
        # for a matched seed, so a stale index must fail here rather than in
        # run_trial.
        if any(state.matched1[v] is not None for v in seeds1) or any(
            state.matched2[v] is not None for v in seeds2
        ):
            raise InternalError(f"seed index offers matched vertices for label {lid}")
        starts2 = [(s2, canonical_start_rotations(g2, s2)) for s2 in seeds2]
        best: list[tuple[int, int]] = []  # journal of the earliest largest trial
        for s1 in seeds1:
            rots1 = canonical_start_rotations(g1, s1)
            for s2, rots2 in starts2:
                if not pair_admissible(state, s1, s2):
                    continue
                for r1 in rots1:
                    for r2 in rots2:
                        state.checkpoint()
                        run_trial(state, s1, s2, r1, r2)
                        journal = state.abort_trial()
                        if len(journal) > len(best):
                            best = journal
        if not best:
            # No admissible trial for this label; retire it so the loop
            # advances (its vertices can still be matched by other floods).
            idx.retire_label(lid)
            continue
        state.commit(best, idx)
    match_time = time.perf_counter() - t1

    pairs = sorted(state.total)
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
