"""Greedy flood-based conformal matching.

The outer loop repeatedly pops the label with minimal cross product and
enumerates every seed pair for that label, times every combination of
canonical starting rotations of the two seeds.  Each combination runs as an
isolated trial: a conformal BFS flood that writes only the two match arrays
and a journal of its pairs, so rolling it back resets the journaled
entries.  Every trial of a label starts from the same state, so the best
(largest) trial's journal is committed as it stands; its vertices leave the
seed index permanently.  The loop ends when no cross-present label remains.
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


def _conformal_at(g1: EmbeddedGraph, g2: EmbeddedGraph, matched1, x: int) -> bool:
    # Local conformality at matched vertex x: matched neighbors map onto
    # neighbors of x's partner, in the same clockwise cyclic order.
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


def pair_admissible(state: MatchState, v1: int, v2: int) -> bool:
    """Would matching (v1, v2) keep the whole matching conformal?

    Checks local conformality at v1 and at every already-matched neighbor
    of v1 (committed pairs from earlier labels included).  Pairs failing
    this are skipped, so every returned matching passes verify_conformal.
    """
    g1, g2 = state.g1, state.g2
    matched1 = state.matched1
    matched1[v1] = v2  # tentative; undone below
    state.matched2[v2] = v1
    ok = _conformal_at(g1, g2, matched1, v1) and all(
        _conformal_at(g1, g2, matched1, u)
        for u in g1.rotation[v1]
        if matched1[u] is not None
    )
    matched1[v1] = None
    state.matched2[v2] = None
    return ok


def process_nodes(
    state: MatchState,
    u1: int,
    u2: int,
    queue: deque,
    nbrs1,
    nbrs2,
) -> None:
    """Match (u1, u2), journal it, and enqueue their aligned neighbor pairs."""
    if state.trial is None:
        raise InternalError("process_nodes outside a trial")
    if state.matched1[u1] is not None or state.matched2[u2] is not None:
        raise InternalError(f"process_nodes on matched vertex: ({u1},{u2})")
    if len(nbrs1) != len(nbrs2):
        raise InternalError(f"unaligned neighbor lists at ({u1},{u2})")
    state.matched1[u1] = u2
    state.matched2[u2] = u1
    state.trial.append((u1, u2))
    for a, b in zip(nbrs1, nbrs2):
        queue.append((a, b, u1, u2))


def run_trial(
    state: MatchState,
    s1: int,
    s2: int,
    rotation1: tuple[int, ...],
    rotation2: tuple[int, ...],
) -> int:
    """Flood from one seed pair under one starting-orientation combination.

    The caller checks the seed pair with `pair_admissible` first; `match`
    does so once per pair, since the check does not depend on rotations.
    A dequeued pair where either vertex is already matched, where the
    degrees differ, or where matching would break conformality against
    already-matched neighbors, silently terminates that branch.  Returns
    the trial's cardinality.
    """
    g1, g2 = state.g1, state.g2
    if state.matched1[s1] is not None or state.matched2[s2] is not None:
        raise InternalError("seed already matched")
    if g1.degree(s1) != g2.degree(s2):
        raise InternalError("seed degrees differ")
    queue: deque = deque()
    process_nodes(state, s1, s2, queue, rotation1, rotation2)
    rot1, rot2 = g1.rotation, g2.rotation
    matched1, matched2 = state.matched1, state.matched2
    while queue:
        v1, v2, p1, p2 = queue.popleft()
        if matched1[v1] is not None or matched2[v2] is not None:
            continue
        r1, r2 = rot1[v1], rot2[v2]
        if len(r1) != len(r2):
            continue
        if not pair_admissible(state, v1, v2):
            continue
        i1 = r1.index(p1)
        i2 = r2.index(p2)
        process_nodes(
            state,
            v1,
            v2,
            queue,
            r1[i1 + 1 :] + r1[:i1],
            r2[i2 + 1 :] + r2[:i2],
        )
    return len(state.trial)


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
        # pair_admissible would silently unmatch a matched seed, so a stale
        # index must fail here rather than in run_trial.
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
