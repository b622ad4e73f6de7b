import hashlib
import random
from collections import Counter, deque
from copy import deepcopy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmatch.errors import ConfigurationError, InternalError
from roadmatch.generator import gen_irregular_grid, perturb, score_against_ground_truth
from roadmatch.graph import EmbeddedGraph, verify_conformal
from roadmatch import matcher
from roadmatch.labeling import depth_one_at, label_nodes
from roadmatch.matcher import (
    MatchState,
    admissible_at,
    flood_match,
    match,
    run_trial,
)
from roadmatch.oracle import brute_force_max_conformal
from roadmatch.seed_index import SeedIndex
from roadmatch.cli import format_matching

from conftest import (
    canonical_start_rotations,
    cycle_graph,
    embedded_graphs,
    figure_star,
    index_state,
    pair_admissible,
    path_graph,
    random_graph,
    rebuilt_index,
    reference_admissible,
    retired_labels,
)


def make_state_and_index(g1, g2, k=2, bound=10**6):
    idx = SeedIndex(label_nodes(g1, k)[1], label_nodes(g2, k)[1], bound)
    return MatchState(g1, g2), idx


def state_fingerprint(state, idx):
    return (tuple(state.matched1), tuple(state.matched2), index_state(idx))


def state_pairs(state):
    """The state's matched pairs in vertex order, as `match` reports them."""
    return [(v, w) for v, w in enumerate(state.matched1) if w is not None]


class TestProcessNodes:
    # The flood's step for one admitted pair, run through run_trial: match
    # the pair, journal it and enqueue its aligned neighbor pairs.
    def test_figure_junction_enqueues_aligned_arms(self):
        g1 = figure_star((1, 4, 3, 2))
        names2 = {1: 1, 5: 2, 6: 3, 7: 4}
        g2 = figure_star(tuple(names2[x] for x in (1, 7, 6, 5)))
        state, idx = make_state_and_index(g1, g2, k=1)
        journal = []
        # Both centers' rotations start at the arm named 1.
        run_trial(state, 0, 0, g1.rotation[0], g2.rotation[0], journal)
        back = {v: k for k, v in names2.items()}
        flooded = [(v1, back[v2]) for v1, v2 in journal[1:]]
        assert flooded == [(1, 1), (4, 7), (3, 6), (2, 5)]

    def test_degree_one_pair_enqueues_nothing(self):
        g = path_graph(2)
        state, idx = make_state_and_index(g, g, k=1)
        journal = []
        # The pair (1, 1) is reached through its only edge.
        assert run_trial(state, 0, 0, (1,), (1,), journal) == 2
        assert journal == [(0, 0), (1, 1)]

    def test_undo_restores_unmatched_and_reindexes(self):
        g = path_graph(3)
        state, idx = make_state_and_index(g, g, k=1)
        before = state_fingerprint(state, idx)
        journal = [(9, 9)]  # pairs already in the journal stay as they are
        assert run_trial(state, 1, 1, (0, 2), (0, 2), journal) == 3
        assert journal == [(9, 9), (1, 1), (0, 0), (2, 2)]
        assert state_fingerprint(state, idx) == before

    def test_matched_vertex_rejected(self):
        g = path_graph(3)
        state, idx = make_state_and_index(g, g, k=1)
        journal = []
        run_trial(state, 1, 1, (0, 2), (0, 2), journal)
        state.commit(journal, idx)
        with pytest.raises(InternalError, match="seed already matched"):
            run_trial(state, 1, 1, (0, 2), (0, 2), [])

    def test_unequal_degrees_rejected(self):
        g1, g2 = path_graph(3), path_graph(2)
        state, idx = make_state_and_index(g1, g2, k=1)
        journal = []
        with pytest.raises(InternalError, match="degrees differ"):
            run_trial(state, 1, 0, (0, 2), (1,), journal)
        assert journal == []

    def test_unaligned_start_rotations_rejected(self):
        g = path_graph(3)
        state, idx = make_state_and_index(g, g, k=1)
        journal = []
        with pytest.raises(InternalError, match="unequal length"):
            run_trial(state, 1, 1, (0, 2), (0,), journal)
        assert journal == []


class TestRunTrial:
    def test_identity_floods_whole_component(self):
        g = gen_irregular_grid(4, 4, 0.2, 3)
        state, idx = make_state_and_index(g, g)
        rot = canonical_start_rotations(g, 0)[0]
        assert run_trial(state, 0, 0, rot, rot, []) == g.vertex_count

    def test_immediately_diverging_neighborhoods(self):
        # Equal-degree seeds whose neighbor degrees differ: only the seed
        # pair is matched.
        g1 = path_graph(5)  # vertex 0 has a degree-2 neighbor
        g2 = path_graph(2)  # vertex 0 has a degree-1 neighbor
        state, idx = make_state_and_index(g1, g2, k=0, bound=10**6)
        assert run_trial(state, 0, 0, (1,), (1,), []) == 1

    def test_p3_vs_p4_end_seeds(self):
        g1 = path_graph(3)
        g2 = path_graph(4)
        state, idx = make_state_and_index(g1, g2, k=0)
        # Ends match, middles match, then degree 1 vs 2 stops the branch.
        assert run_trial(state, 0, 0, (1,), (1,), []) == 2


def grow_against_reference(rng, g1, g2, steps, seen=None):
    """Grow a conformal partial matching, comparing every check it makes.

    Each step proposes an unmatched pair of equal degrees and asserts that
    pair_admissible and conftest.reference_admissible agree on it; the pair
    is added only when the reference accepts it, so the state stays
    conformal.  Most proposals take v1 next to matched vertices and v2 next
    to one of their images, and mostly next to all of them, so vertices with
    three or more matched neighbors occur.  `seen`, if given, tallies
    ("v1", verdict) when v1 has three or more matched neighbors and
    ("u", verdict) when one of them has two or more others.
    """
    state = MatchState(g1, g2)
    m1, m2 = state.matched1, state.matched2
    rot1, rot2 = g1.rotation, g2.rotation
    for _ in range(steps):
        free1 = [v for v in range(g1.vertex_count) if m1[v] is None]
        if not free1:
            break
        frontier = [v for v in free1 if any(m1[u] is not None for u in rot1[v])]
        v1 = rng.choice(frontier if frontier and rng.random() < 0.9 else free1)
        images = [m1[u] for u in rot1[v1] if m1[u] is not None]
        pool = range(g2.vertex_count)
        if images and rng.random() < 0.9:
            pool = [
                w for w in rot2[images[0]]
                if rng.random() < 0.3 or all(x in rot2[w] for x in images)
            ]
        pool = [w for w in pool if m2[w] is None and len(rot2[w]) == len(rot1[v1])]
        if not pool:
            continue
        v2 = rng.choice(pool)
        want = reference_admissible(state, v1, v2)
        assert pair_admissible(state, v1, v2) == want, (v1, v2, list(m1))
        if seen is not None:
            matched = [u for u in rot1[v1] if m1[u] is not None]
            seen["v1", want] += len(matched) >= 3
            seen["u", want] += any(sum(m1[t] is not None for t in rot1[u]) >= 2 for u in matched)
        if want:
            m1[v1], m2[v2] = v2, v1
    ok, why = verify_conformal(g1, g2, [(v, w) for v, w in enumerate(m1) if w is not None])
    assert ok, why
    return state


def reference_trial(state, s1, s2, r1, r2):
    """run_trial's journal, from a flood that re-checks every dequeued pair
    with reference_admissible; the state is left as it was found."""
    g1, g2 = state.g1, state.g2
    m1, m2 = state.matched1, state.matched2
    m1[s1], m2[s2] = s2, s1
    journal = [(s1, s2)]
    queue = deque((a, b, s1, s2) for a, b in zip(r1, r2))
    while queue:
        v1, v2, p1, p2 = queue.popleft()
        n1, n2 = g1.rotation[v1], g2.rotation[v2]
        if m1[v1] is not None or m2[v2] is not None or len(n1) != len(n2):
            continue
        if not reference_admissible(state, v1, v2):
            continue
        m1[v1], m2[v2] = v2, v1
        journal.append((v1, v2))
        i1, i2 = n1.index(p1), n2.index(p2)
        queue.extend((a, b, v1, v2) for a, b in zip(n1[i1 + 1 :] + n1[:i1], n2[i2 + 1 :] + n2[:i2]))
    for v1, v2 in journal:
        m1[v1] = m2[v2] = None
    return journal


@st.composite
def re_embedded_pairs(draw):
    """A graph and a copy whose rotation at some vertices is re-ordered."""
    g1 = draw(embedded_graphs(min_vertices=2))
    rotation = [
        tuple(draw(st.permutations(r))) if draw(st.booleans()) else r for r in g1.rotation
    ]
    return g1, EmbeddedGraph(tuple(rotation))


class TestInsertionCheck:
    """admissible_at and conftest.pair_admissible, an O(deg) insertion check
    that assumes a conformal state, against the full re-check kept in
    conftest."""

    @staticmethod
    def star_state(center2, matched_leaves, center_matched):
        # 4-stars with center 0 and leaves 1..4 clockwise in G1; G2's center
        # rotation is given.  Leaves are matched by name.
        state = MatchState(figure_star((1, 2, 3, 4)), figure_star(center2))
        for leaf in matched_leaves:
            state.matched1[leaf] = state.matched2[leaf] = leaf
        if center_matched:
            state.matched1[0] = state.matched2[0] = 0
        return state

    @pytest.mark.parametrize(
        "center2,admissible",
        [
            ((1, 2, 3, 4), True),
            # Images 1, 2, 3 sit at positions 2, 3, 0: the order wraps past
            # index 0 of G2's rotation once.
            ((3, 4, 1, 2), True),
            ((2, 1, 3, 4), False),  # positions 1, 0, 2
            ((3, 2, 1, 4), False),  # positions 2, 1, 0
        ],
    )
    def test_center_with_three_matched_leaves(self, center2, admissible):
        state = self.star_state(center2, (1, 2, 3), center_matched=False)
        assert pair_admissible(state, 0, 0) == admissible
        assert reference_admissible(state, 0, 0) == admissible

    @pytest.mark.parametrize(
        "center2,v2,admissible",
        [
            ((1, 2, 3, 4), 2, True),
            ((1, 2, 3, 4), 4, False),
            # Leaf 1's image is at position 2 and leaf 3's at 0: the arc
            # between them wraps past index 0.
            ((3, 4, 1, 2), 2, True),
            ((3, 4, 1, 2), 4, False),
        ],
    )
    def test_neighbor_going_from_two_to_three_matched(self, center2, v2, admissible):
        # The center is matched and so are leaves 1 and 3: leaf 2 must map
        # between their images, clockwise.
        state = self.star_state(center2, (1, 3), center_matched=True)
        assert pair_admissible(state, 2, v2) == admissible
        assert reference_admissible(state, 2, v2) == admissible

    def test_no_matched_neighbor(self):
        state = self.star_state((1, 2, 3, 4), (), center_matched=False)
        assert pair_admissible(state, 0, 0)

    def test_first_matched_neighbor_not_adjacent(self):
        # Leaves 1 and 3 are matched by name; in G2 leaf 1 hangs off vertex
        # 5 instead of the center, so the first image is not adjacent to
        # the center, though leaf 3's is.
        g2 = EmbeddedGraph(((5, 2, 3, 4), (5,), (0,), (0,), (0,), (0, 1)))
        state = MatchState(figure_star((1, 2, 3, 4)), g2)
        for leaf in (1, 3):
            state.matched1[leaf] = state.matched2[leaf] = leaf
        assert not pair_admissible(state, 0, 0)
        assert not reference_admissible(state, 0, 0)

    def test_image_not_adjacent_to_partner(self):
        g = cycle_graph(4)
        state = MatchState(g, g)
        state.matched1[0] = state.matched2[0] = 0
        assert [pair_admissible(state, 1, v2) for v2 in (1, 2, 3)] == [True, False, True]

    @pytest.mark.parametrize("center2,flooded", [((1, 2, 3, 4), 3), ((1, 3, 2, 4), 1)])
    def test_flood_keeps_order_at_reached_vertex(self, center2, flooded):
        # Leaves 2 and 3 are matched; a flood seeded at leaf 1 reaches the
        # centers, where only the order of the leaves' images can reject.
        state = self.star_state(center2, (2, 3), center_matched=False)
        assert run_trial(state, 1, 1, (0,), (0,), []) == flooded

    def test_reads_state_without_changing_it(self):
        state = self.star_state((1, 2, 3, 4), (1, 3), center_matched=True)
        before = (list(state.matched1), list(state.matched2))
        pair_admissible(state, 2, 4)
        assert (state.matched1, state.matched2) == before

    def test_grown_matchings_cover_every_case(self):
        rng = random.Random(11)
        seen = Counter()
        for _ in range(400):
            rows, cols = rng.randint(3, 7), rng.randint(3, 7)
            g1 = gen_irregular_grid(rows, cols, rng.choice((0.0, 0.1, 0.3)), rng.randrange(10**6))
            g2 = g1 if rng.random() < 0.5 else perturb(g1, 0.1, 0.05, 0.1, rng.randrange(10**6))[0]
            grow_against_reference(rng, g1, g2, 3 * g1.vertex_count, seen)
        assert all(seen[case, verdict] for case in ("v1", "u") for verdict in (True, False)), seen

    @given(st.integers(2, 6), st.integers(2, 6), st.sampled_from((0.0, 0.1, 0.3)),
           st.integers(0, 10**6), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_equals_reference_on_grids(self, rows, cols, irregularity, seed, evolve, rng):
        g1 = gen_irregular_grid(rows, cols, irregularity, seed)
        g2 = perturb(g1, 0.1, 0.05, 0.1, seed + 1)[0] if evolve else g1
        grow_against_reference(rng, g1, g2, 3 * g1.vertex_count)

    @given(re_embedded_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_equals_reference_on_embedded_graphs(self, pair, rng):
        g1, g2 = pair
        grow_against_reference(rng, g1, g2, 3 * g1.vertex_count)

    @staticmethod
    def compare_anchors(rng, g1, g2):
        # Over a grown conformal matching, admissible_at anchored at any
        # matched neighbour of v1 whose image is adjacent to v2 answers as
        # the reference does; with the image not adjacent, so does
        # pair_admissible's False.  v2 is taken next to an image, so most
        # anchors are adjacent.
        state = grow_against_reference(rng, g1, g2, g1.vertex_count)
        m1, m2 = state.matched1, state.matched2
        for v1 in range(g1.vertex_count):
            if m1[v1] is not None:
                continue
            images = {m1[u] for u in g1.rotation[v1]} - {None}
            for v2 in {w for x in images for w in g2.rotation[x] if m2[w] is None}:
                want = reference_admissible(state, v1, v2)
                r2 = g2.rotation[v2]
                for i1, u in enumerate(g1.rotation[v1]):
                    w = m1[u]
                    if w is None:
                        continue
                    if w in r2:
                        assert admissible_at(state, v1, v2, i1, r2.index(w)) == want, (v1, v2, u)
                    else:
                        assert not want

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10**6),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_any_anchor_equals_reference_on_grids(self, rows, cols, seed, rng):
        g1 = gen_irregular_grid(rows, cols, 0.1, seed)
        self.compare_anchors(rng, g1, perturb(g1, 0.1, 0.05, 0.1, seed + 1)[0])

    @given(re_embedded_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_any_anchor_equals_reference_on_embedded_graphs(self, pair, rng):
        self.compare_anchors(rng, *pair)

    @staticmethod
    def compare_floods(rng, g1, g2):
        # run_trial anchors the check at the pair each vertex was reached
        # from: flood from random seeds over a grown conformal matching and
        # compare journals with the reference flood.
        state = grow_against_reference(rng, g1, g2, g1.vertex_count // 2)
        m1, m2 = state.matched1, state.matched2
        seeds = [
            (s1, s2)
            for s1 in range(g1.vertex_count)
            for s2 in range(g2.vertex_count)
            if m1[s1] is None and m2[s2] is None and g1.degree(s1) == g2.degree(s2)
        ]
        for s1, s2 in rng.sample(seeds, min(len(seeds), 10)):
            if not reference_admissible(state, s1, s2):
                continue
            r1, r2 = g1.rotation[s1], g2.rotation[s2]
            i1, i2 = rng.randrange(len(r1) or 1), rng.randrange(len(r2) or 1)
            r1, r2 = r1[i1:] + r1[:i1], r2[i2:] + r2[:i2]
            journal = []
            run_trial(state, s1, s2, r1, r2, journal)
            assert journal == reference_trial(state, s1, s2, r1, r2)

    @given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10**6),
           st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_flood_equals_reference_flood_on_grids(self, rows, cols, seed, rng):
        g1 = gen_irregular_grid(rows, cols, 0.1, seed)
        self.compare_floods(rng, g1, perturb(g1, 0.1, 0.05, 0.1, seed + 1)[0])

    @given(re_embedded_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=100, deadline=None)
    def test_flood_equals_reference_flood_on_embedded_graphs(self, pair, rng):
        self.compare_floods(rng, *pair)


class TestCheckpointCommitAbort:
    def test_abort_restores_exact_state(self):
        g = gen_irregular_grid(3, 4, 0.3, 1)
        state, idx = make_state_and_index(g, g)
        before = state_fingerprint(state, idx)
        rot = canonical_start_rotations(g, 2)[0]
        assert run_trial(state, 2, 2, rot, rot, []) > 1
        assert state_fingerprint(state, idx) == before

    def test_random_trials_agree_with_snapshot_semantics(self):
        # 100 random trials, each rolled back by run_trial and then
        # committed at random, checked against deepcopy snapshots and an
        # index rebuilt from the unmatched vertices.
        rng = random.Random(42)
        g1 = gen_irregular_grid(4, 5, 0.3, 5)
        g2, _ = perturb(g1, 0.1, 0.05, 0.0, 6)
        state, idx = make_state_and_index(g1, g2, k=1)
        for _ in range(100):
            candidates = [
                (s1, s2)
                for s1 in range(g1.vertex_count)
                for s2 in range(g2.vertex_count)
                if state.matched1[s1] is None
                and state.matched2[s2] is None
                and g1.degree(s1) == g2.degree(s2) == 2
            ]
            if not candidates:
                break
            s1, s2 = rng.choice(candidates)
            r1 = canonical_start_rotations(g1, s1)[0]
            r2 = canonical_start_rotations(g2, s2)[0]
            snap_state, snap_idx = deepcopy((state, idx))
            journal = []
            run_trial(state, s1, s2, r1, r2, journal)
            assert state_fingerprint(state, idx) == state_fingerprint(snap_state, snap_idx)
            if rng.random() >= 0.5:
                state.commit(journal, idx)
                assert state_pairs(state) == sorted(state_pairs(snap_state) + journal)
                assert index_state(idx) == index_state(rebuilt_state_index(idx, state, 1))


class TestMatch:
    def test_self_match_is_complete(self):
        g = gen_irregular_grid(5, 5, 0.2, 8)
        res = match(g, g, k=3, max_product=10**6)
        assert res.stats.matched == g.vertex_count
        assert not res.unmatched1 and not res.unmatched2
        assert all(v == w for v, w in res.pairs)

    def test_disjoint_label_sets_empty_matching(self):
        g1 = path_graph(3)
        g2 = figure_star((1, 2, 3, 4))
        res = match(g1, g2, k=1, max_product=24)
        assert res.pairs == []
        assert res.unmatched1 == [0, 1, 2]
        assert len(res.unmatched2) == 5

    def test_grid_with_deletions_identity_correct(self):
        g = gen_irregular_grid(10, 10, 0.15, 21)
        g2, gt = perturb(g, 0.05, 0.0, 0.0, 22)
        res = match(g, g2, k=3, max_product=10**4, rng_seed=0)
        score = score_against_ground_truth(res.pairs, gt)
        assert score.correct_fraction == 1.0
        assert res.stats.matched >= 0.5 * len(gt)
        ok, why = verify_conformal(g, g2, res.pairs)
        assert ok, why

    def test_matched_count_bounded_by_min_size(self):
        g1 = gen_irregular_grid(3, 4, 0.3, 2)
        g2, _ = perturb(g1, 0.2, 0.0, 0.0, 3)
        res = match(g1, g2, k=2, max_product=10**4)
        assert res.stats.matched <= min(g1.vertex_count, g2.vertex_count)

    def test_output_conformal_and_bounded_by_oracle_on_toy(self):
        g1 = random_graph(random.Random(5), 7, 0.35)
        g2 = random_graph(random.Random(6), 7, 0.35)
        res = match(g1, g2, k=2, max_product=10**4)
        ok, why = verify_conformal(g1, g2, res.pairs)
        assert ok, why
        card, _ = brute_force_max_conformal(g1, g2)
        assert res.stats.matched <= card

    def test_determinism_byte_identical(self):
        g1 = gen_irregular_grid(6, 6, 0.25, 13)
        g2, _ = perturb(g1, 0.08, 0.02, 0.02, 14)
        out1 = format_matching(match(g1, g2, k=2, max_product=10**4, rng_seed=7))
        out2 = format_matching(match(g1, g2, k=2, max_product=10**4, rng_seed=7))
        # Timings differ between runs; compare everything but the time lines.
        strip = lambda s: [l for l in s.splitlines() if "_time_s" not in l]
        assert strip(out1) == strip(out2)

    def test_stale_seed_index_is_internal_error(self, monkeypatch):
        # A commit that left its vertices in the index must not let the next
        # label's admissibility check unmatch them.
        monkeypatch.setattr(SeedIndex, "remove_pairs", lambda idx, pairs: None)
        g = gen_irregular_grid(4, 4, 0.2, 3)
        with pytest.raises(InternalError, match="seed index"):
            match(g, g, k=2, max_product=10**6)

    def test_product_over_bound_raises_retune_guidance(self):
        g = gen_irregular_grid(6, 6, 0.0, 0)  # regular grid, huge products
        with pytest.raises(ConfigurationError, match="tune-k"):
            match(g, g, k=1, max_product=2)


def recorded_trials(monkeypatch):
    """Patch matcher.run_trial to record its (s1, s2, r1, r2) arguments."""
    calls = []
    flood = matcher.run_trial

    def recorded(state, s1, s2, r1, r2, journal):
        calls.append((s1, s2, r1, r2))
        return flood(state, s1, s2, r1, r2, journal)

    monkeypatch.setattr(matcher, "run_trial", recorded)
    return calls


class TestSeedAlignments:
    """Each seed pair is flooded once per alignment of its start rotations."""

    @staticmethod
    def star(arm_lengths):
        # Center 0 with arms read clockwise; arm a has arm_lengths[a] edges.
        rotation, arms = [[]], []
        for length in arm_lengths:
            arms.append(len(rotation))
            prev = 0
            for _ in range(length):
                v = len(rotation)
                rotation.append([prev])
                rotation[prev].append(v)
                prev = v
        rotation[0] = arms
        return EmbeddedGraph(tuple(map(tuple, rotation)))

    @pytest.mark.parametrize(
        "arms1,arms2,starts",
        [
            # Offsets 0..3 against 0 and 2: the first two starts of s1 reach
            # the four alignments, the rest only repeat them.
            ((1, 1, 1, 1), (1, 2, 1, 2), [(0, 0), (0, 2), (1, 0), (1, 2)]),
            # Offsets 0 and 2 against 0..3: s1's first start reaches all four.
            ((1, 2, 1, 2), (1, 1, 1, 1), [(0, 0), (0, 1), (0, 2), (0, 3)]),
        ],
    )
    def test_degree_labels_flood_each_alignment_once(self, monkeypatch, arms1, arms2, starts):
        # At k=0 labels are degrees, so the centers' tied start offsets are
        # not cosets of one period and the first start of s1 is not enough.
        g1, g2 = self.star(arms1), self.star(arms2)
        calls = recorded_trials(monkeypatch)
        match(g1, g2, k=0, max_product=10**6)
        got = [
            (g1.rotation[0].index(r1[0]), g2.rotation[0].index(r2[0]))
            for s1, s2, r1, r2 in calls
            if (s1, s2) == (0, 0)
        ]
        assert got == starts

    @given(st.integers(2, 7), st.integers(2, 7), st.sampled_from((0.0, 0.05, 0.2)),
           st.integers(0, 10**6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_first_start_of_s1_reaches_each_alignment_once(self, rows, cols, irregularity,
                                                           seed, k):
        # Seeds that share a label at k >= 1 share the neighbour-degree
        # sequence read from their first tied start, so each side's tied
        # offsets are a coset of that sequence's period.
        g1 = gen_irregular_grid(rows, cols, irregularity, seed)
        g2 = perturb(g1, 0.1, 0.05, 0.1, seed + 1)[0]
        _, labels1 = label_nodes(g1, k)
        _, labels2 = label_nodes(g2, k)
        by_label = {}
        for v, lab in enumerate(labels2):
            by_label.setdefault(lab, []).append(v)
        starts = {}
        for s1, lab in enumerate(labels1):
            d = g1.degree(s1)
            if not d:
                continue
            offsets1 = depth_one_at(g1.rotation, s1, starts)[0]
            for s2 in by_label.get(lab, ()):
                offsets2 = depth_one_at(g2.rotation, s2, starts)[0]
                first = [(j - offsets1[0]) % d for j in offsets2]
                every = {(j - i) % d for i in offsets1 for j in offsets2}
                assert sorted(first) == sorted(every), (s1, s2)

    @pytest.mark.parametrize("k", [1, 2])
    def test_shared_labels_flood_first_start_against_every_start(self, monkeypatch, k):
        g1 = gen_irregular_grid(12, 12, 0.02, 4)
        g2, _ = perturb(g1, 0.03, 0.02, 0.03, 5)
        calls = recorded_trials(monkeypatch)
        match(g1, g2, k=k, max_product=10**6)
        trials = {}  # a seed pair may be offered again by a later pop
        for s1, s2, r1, r2 in calls:
            assert r1 == canonical_start_rotations(g1, s1)[0]
            trials.setdefault((s1, s2), []).append(r2)
        for (_, s2), rots in trials.items():
            every = canonical_start_rotations(g2, s2)
            assert rots == every * (len(rots) // len(every))
        # Some seed pairs have several tied starts on each side.
        assert any(len(canonical_start_rotations(g2, s2)) > 1 for _, s2 in trials)


def reference_match(g1, g2, k, max_product, rng_seed):
    """Matcher that keeps its own exact seed index at every step.

    The index is a dict from each label to its two sets of unmatched
    vertices; the seed label is the one of minimum product, ties broken by
    rng over the labels in sorted order.  Each vertex a flood reaches
    leaves the index at once, a rollback puts it back, and the label's
    winning trial is flooded a second time to commit it.  A seed pair is
    flooded once per alignment of its start rotations: a start pair whose
    seed neighbour pairs, zip(r1, r2) as a set, were flooded already is
    skipped.  Returns (pairs, unmatched1, unmatched2, index state, counts):
    the index state is in conftest.index_state's form, and counts tallies
    retired labels, inadmissible seed pairs, start pairs skipped as
    repeated alignments and trials that tie the label's best so far.
    """
    mt1, labels1 = label_nodes(g1, k)
    mt2, labels2 = label_nodes(g2, k)
    index = {lab: (set(mt1[lab]), set(mt2[lab])) for lab in mt1.keys() & mt2.keys()}
    retired = set()
    state = MatchState(g1, g2)
    m1, m2 = state.matched1, state.matched2

    counts = {"retired": 0, "inadmissible": 0, "repeats": 0, "ties": 0}

    def live_products():
        return {
            lab: len(a) * len(b)
            for lab, (a, b) in index.items()
            if a and b and lab not in retired
        }

    def flood(s1, s2, r1, r2):
        journal = []
        if not reference_admissible(state, s1, s2):
            counts["inadmissible"] += 1
            return journal
        queue = deque()

        def take(v1, v2, nbrs1, nbrs2):
            m1[v1], m2[v2] = v2, v1
            journal.append((v1, v2))
            for side, lab, v in ((0, labels1[v1], v1), (1, labels2[v2], v2)):
                if lab in index:
                    index[lab][side].remove(v)
            queue.extend((a, b, v1, v2) for a, b in zip(nbrs1, nbrs2))

        take(s1, s2, r1, r2)
        while queue:
            v1, v2, p1, p2 = queue.popleft()
            n1, n2 = g1.rotation[v1], g2.rotation[v2]
            if m1[v1] is not None or m2[v2] is not None or len(n1) != len(n2):
                continue
            if not reference_admissible(state, v1, v2):
                continue
            i1, i2 = n1.index(p1), n2.index(p2)
            take(v1, v2, n1[i1 + 1 :] + n1[:i1], n2[i2 + 1 :] + n2[:i2])
        return journal

    def undo(journal):
        for v1, v2 in reversed(journal):
            m1[v1] = m2[v2] = None
            for side, lab, v in ((0, labels1[v1], v1), (1, labels2[v2], v2)):
                if lab in index:
                    index[lab][side].add(v)

    rng = random.Random(rng_seed)
    pairs = []
    while products := live_products():
        p = min(products.values())
        candidates = sorted(lab for lab, q in products.items() if q == p)
        lab = candidates[rng.randrange(len(candidates))]
        best = None  # (cardinality, s1, s2, r1, r2); earliest maximum wins
        for s1 in sorted(index[lab][0]):
            for s2 in sorted(index[lab][1]):
                flooded = set()
                for r1 in canonical_start_rotations(g1, s1):
                    for r2 in canonical_start_rotations(g2, s2):
                        alignment = frozenset(zip(r1, r2))
                        if alignment in flooded:
                            counts["repeats"] += 1
                            continue
                        flooded.add(alignment)
                        journal = flood(s1, s2, r1, r2)
                        undo(journal)
                        if best is None or len(journal) > best[0]:
                            best = (len(journal), s1, s2, r1, r2)
                        elif journal and len(journal) == best[0]:
                            counts["ties"] += 1
        if best[0] == 0:
            retired.add(lab)
            counts["retired"] += 1
            continue
        pairs += flood(*best[1:])
    unmatched1 = [v for v in range(g1.vertex_count) if m1[v] is None]
    unmatched2 = [v for v in range(g2.vertex_count) if m2[v] is None]
    exact = {
        lab: (sorted(a), sorted(b), None if lab in retired else len(a) * len(b), lab in retired)
        for lab, (a, b) in index.items()
        if a and b
    }
    buckets = {}
    for lab, (_, _, q, _) in sorted(exact.items()):
        if q is not None:
            buckets.setdefault(q, []).append(lab)
    return sorted(pairs), unmatched1, unmatched2, (exact, buckets), counts


def rebuilt_state_index(idx, state, k):
    """A fresh index over the state's unmatched vertices, idx's retirements applied."""
    labels1, labels2 = label_nodes(state.g1, k)[1], label_nodes(state.g2, k)[1]
    matched = (state.matched1, state.matched2)
    return rebuilt_index(
        labels1, labels2, lambda side, v: matched[side][v] is None, retired_labels(idx),
        idx.max_product,
    )


class TestMatchAgainstReference:
    # (rows, cols, irregularity, k): near-regular grids at k=1 give labels
    # with many seed pairs, tied trials and retirements.
    CASES = [
        (16, 16, 0.0, 1),
        (20, 20, 0.03, 1),
        (14, 18, 0.05, 1),
        (18, 14, 0.02, 1),
        (12, 12, 0.05, 2),
        (16, 12, 0.1, 3),
    ]

    def test_equal_matchings_and_index_at_every_pop(self, monkeypatch):
        states = []

        class RecordedState(MatchState):
            def __init__(self, g1, g2):
                super().__init__(g1, g2)
                states.append(self)

        stale_pops = []
        seeds2 = []  # the popped label's G2 seeds
        pop = SeedIndex.pop_min_label

        def checked_pop(idx, rng):
            # The index must be exact whenever the matcher reads it.
            (state,) = states
            rebuilt = rebuilt_state_index(idx, state, k)
            stale_pops.append(index_state(idx) != index_state(rebuilt))
            lid = pop(idx, rng)
            seeds2[:] = [] if lid is None else idx.vertices(1, lid)
            return lid

        partners_of = matcher.second_pair_partners

        def counted_partners(state, s1):
            # Seed pairs of the label that the second-pair rule drops.
            partners = partners_of(state, s1)
            if partners is not None:
                totals["dropped"] += sum(s2 not in partners for s2 in seeds2)
            return partners

        monkeypatch.setattr(matcher, "MatchState", RecordedState)
        monkeypatch.setattr(matcher, "second_pair_partners", counted_partners)
        rng = random.Random(3)
        totals = {
            "pairs": 0, "retired": 0, "inadmissible": 0, "repeats": 0, "ties": 0, "dropped": 0
        }
        for rows, cols, irregularity, k in self.CASES:
            for _ in range(3):
                seed = rng.randrange(10**6)
                g1 = gen_irregular_grid(rows, cols, irregularity, seed)
                g2, _ = perturb(g1, 0.03, 0.02, 0.03, seed + 1)
                ref_pairs, ref_u1, ref_u2, ref_state, counts = reference_match(
                    g1, g2, k, 10**6, seed
                )
                idx = SeedIndex(label_nodes(g1, k)[1], label_nodes(g2, k)[1], 10**6)
                states.clear()
                stale_pops.clear()
                monkeypatch.setattr(SeedIndex, "pop_min_label", checked_pop)
                state = flood_match(g1, g2, idx, seed)
                monkeypatch.setattr(SeedIndex, "pop_min_label", pop)
                case = (rows, cols, irregularity, k, seed)
                assert state_pairs(state) == ref_pairs, case
                assert [v for v, w in enumerate(state.matched1) if w is None] == ref_u1, case
                assert [v for v, w in enumerate(state.matched2) if w is None] == ref_u2, case
                assert stale_pops and not any(stale_pops), case
                rebuilt = rebuilt_state_index(idx, state, k)
                assert index_state(idx) == index_state(rebuilt) == ref_state, case
                totals["pairs"] += len(ref_pairs)
                for key, n in counts.items():
                    totals[key] += n
        # The cases must exercise every branch of the seed loop.
        assert all(totals.values()), totals


class TestSeedPairRules:
    """The seed loop visits only pairs that can pass pair_admissible and
    beat the label's best trial, and matches as if it visited them all."""

    @given(st.integers(3, 9), st.integers(3, 9), st.sampled_from((0.0, 0.03, 0.1)),
           st.integers(0, 10**6), st.sampled_from((1, 2)), st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_equals_reference(self, rows, cols, irregularity, seed, k, rng_seed):
        g1 = gen_irregular_grid(rows, cols, irregularity, seed)
        g2, _ = perturb(g1, 0.03, 0.02, 0.03, seed + 1)
        ref_pairs, ref_u1, ref_u2, _, _ = reference_match(g1, g2, k, 10**9, rng_seed)
        res = match(g1, g2, k=k, max_product=10**9, rng_seed=rng_seed)
        assert (res.pairs, res.unmatched1, res.unmatched2) == (ref_pairs, ref_u1, ref_u2)

    def test_anchored_rule_drops_only_inadmissible_seed2s(self, monkeypatch):
        # With the component bound and the second-pair rule off, a seed s1
        # with a matched neighbour is checked only against the seeds
        # adjacent to the first such neighbour's image, and every seed2 it
        # is not checked against fails pair_admissible; a seed without one
        # is flooded against all unchecked.  Seed checks are the
        # admissible_at calls made outside run_trial.
        g1 = gen_irregular_grid(12, 12, 0.02, 4)
        g2, _ = perturb(g1, 0.03, 0.02, 0.03, 5)
        states, pops = [], []
        dropped, unanchored, checked, flooded = set(), set(), set(), set()
        in_trial = []

        class RecordedState(MatchState):
            def __init__(self, g1, g2):
                super().__init__(g1, g2)
                states.append(self)

        pop = SeedIndex.pop_min_label

        def recorded_pop(idx, rng):
            lid = pop(idx, rng)
            if lid is not None:
                (state,) = states
                for s1 in idx.vertices(0, lid):
                    images = [state.matched1[u] for u in g1.rotation[s1]]
                    images = [w for w in images if w is not None]
                    for s2 in idx.vertices(1, lid):
                        if not images:
                            unanchored.add((len(pops), s1, s2))
                        elif s2 not in g2.rotation[images[0]]:
                            assert not pair_admissible(state, s1, s2), (s1, s2)
                            dropped.add((len(pops), s1, s2))
            pops.append(lid)
            return lid

        check = matcher.admissible_at
        flood = matcher.run_trial

        def recorded_check(state, s1, s2, i1, i2):
            if not in_trial:
                checked.add((len(pops) - 1, s1, s2))
            return check(state, s1, s2, i1, i2)

        def recorded_trial(state, s1, s2, r1, r2, journal):
            flooded.add((len(pops) - 1, s1, s2))
            in_trial.append(True)
            try:
                return flood(state, s1, s2, r1, r2, journal)
            finally:
                in_trial.pop()

        monkeypatch.setattr(matcher, "MatchState", RecordedState)
        monkeypatch.setattr(SeedIndex, "pop_min_label", recorded_pop)
        monkeypatch.setattr(matcher, "admissible_at", recorded_check)
        monkeypatch.setattr(matcher, "run_trial", recorded_trial)
        monkeypatch.setattr(matcher, "component_at_most", lambda *args: False)
        monkeypatch.setattr(matcher, "second_pair_partners", lambda *args: None)
        match(g1, g2, k=1, max_product=10**6)
        assert dropped and not dropped & (checked | flooded)
        assert unanchored <= flooded and not unanchored & checked
        assert checked and flooded - unanchored <= checked  # anchored seeds are checked

    @staticmethod
    def check_second_pair_rule(rng, g1, g2):
        # Over a grown conformal matching, a seed pair that passes the seed
        # check as flood_match makes it, with s2 outside s1's partners,
        # admits only itself under every rotation of s2's neighbours.
        # Returns the number of such pairs flooded.
        state = grow_against_reference(rng, g1, g2, rng.randint(0, g1.vertex_count))
        m1, m2 = state.matched1, state.matched2
        flooded = 0
        for s1 in range(g1.vertex_count):
            if m1[s1] is not None:
                continue
            partners = matcher.second_pair_partners(state, s1)
            if partners is None:
                continue
            anchor = matcher.first_matched_neighbor(state, s1)
            r1 = g1.rotation[s1]
            for s2 in range(g2.vertex_count):
                r2 = g2.rotation[s2]
                if m2[s2] is not None or len(r2) != len(r1) or s2 in partners:
                    continue
                if anchor is not None:
                    i1, w = anchor
                    if w not in r2 or not admissible_at(state, s1, s2, i1, r2.index(w)):
                        continue
                for j in range(len(r2) or 1):
                    assert run_trial(state, s1, s2, r1, r2[j:] + r2[:j], []) == 1, (s1, s2, j)
                flooded += 1
        return flooded

    def test_second_pair_rule_on_grids(self):
        rng = random.Random(5)
        flooded = 0
        for _ in range(40):
            rows, cols = rng.randint(3, 8), rng.randint(3, 8)
            g1 = gen_irregular_grid(rows, cols, rng.choice((0.0, 0.03, 0.1)), rng.randrange(10**6))
            g2 = g1 if rng.random() < 0.3 else perturb(g1, 0.1, 0.05, 0.1, rng.randrange(10**6))[0]
            flooded += self.check_second_pair_rule(rng, g1, g2)
        assert flooded

    @given(re_embedded_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_second_pair_rule_on_embedded_graphs(self, pair, rng):
        self.check_second_pair_rule(rng, *pair)

    @staticmethod
    def triangle_and_square():
        # Every vertex has label (2, 2, 2) at k=1.
        return EmbeddedGraph((
            (1, 2), (2, 0), (0, 1),
            (4, 6), (5, 3), (6, 4), (3, 5),
        ))

    def test_bound_skips_pairs_that_can_only_tie(self, monkeypatch):
        g = self.triangle_and_square()
        calls = recorded_trials(monkeypatch)
        res = match(g, g, k=1, max_product=10**6)
        # First label: (0, 0) floods the triangle (3 pairs) under both
        # alignments; every other pair from the triangle only ties it, and
        # (3, 3) floods the square under both.  Then the square's other
        # pairs only tie 4, and the triangle's label, popped again, floods
        # from (0, 0) alone.  Flooding every pair would run 2 * (49 + 9).
        assert [(s1, s2) for s1, s2, _, _ in calls] == [(0, 0)] * 2 + [(3, 3)] * 2 + [(0, 0)] * 2
        # A skipped pair would have tied the best trial with other pairs...
        state = MatchState(g, g)
        journal = []
        assert run_trial(state, 0, 1, (1, 2), (2, 0), journal) == 3
        assert journal != [(0, 0), (1, 1), (2, 2)]
        # ...and the earliest trial, the identity, still wins over the
        # mirrored one flooded next from the same pair.
        assert res.pairs == [(v, v) for v in range(7)]
        assert res.pairs == reference_match(g, g, 1, 10**6, 0)[0]

    def test_capped_count_is_a_lower_bound(self):
        # A count stopped at its cap says only "at least", so a larger
        # limit counts again rather than trusting it.
        g = path_graph(10)
        matched = [None] * 10
        sizes = {}
        assert not matcher.component_at_most(sizes, g.rotation, matched, 0, 2)
        assert sizes[0] == (3, False)
        assert not matcher.component_at_most(sizes, g.rotation, matched, 0, 3)
        assert sizes[0] == (4, False)
        assert matcher.component_at_most(sizes, g.rotation, matched, 0, 10)
        assert sizes[0] == (10, True)
        matched[5] = 5  # only the vertices before it are reachable now
        assert matcher.component_at_most({}, g.rotation, matched, 0, 5)
        assert not matcher.component_at_most({}, g.rotation, matched, 0, 4)


class TestPinnedMatchings:
    # sha256 of the matching file's body (its "#" lines dropped), recorded
    # when the seed index still kept every label of either graph and a vEB
    # tree over products.  A change that alters matchings must say why.
    PAIRS = {
        # gen_irregular_grid arguments, then perturb's fractions and seed.
        "irregular": ((30, 30, 0.15, 5), (0.05, 0.02, 0.02, 6)),
        # Near-regular: many tied labels at k=1, some of them retired.
        "lattice": ((20, 20, 0.02, 31), (0.03, 0.02, 0.03, 32)),
        # Near-regular at k=3: 32 trials, 17 of them over 170 pairs and of
        # differing sizes, so rejected pairs decide which trial wins.  Each
        # of its seed pairs has one tied start, so flooding each alignment
        # once leaves the 32 as they were.
        "lattice-k3": ((24, 24, 0.01, 6), (0.03, 0.02, 0.03, 7)),
        # Tunes past k=2 at bound 24: per_k (1, 13770), (2, 40), (3, 1).
        "autok": ((30, 60, 0.15, 9), (0.05, 0.0, 0.02, 10)),
    }
    CASES = [
        # (pair, match options, k, labels retired, digest)
        ("irregular", dict(k=1, max_product=10**6), 1, 35,
         "85c8b4f869e82e0deb5f050fe3e4ade9ed586ffd2a6a4b09b8df093ef854e454"),
        ("irregular", dict(k=2, max_product=10**6), 2, 1,
         "a88736e39052d6eafc712242d552c95cdf65129ebc8764f82c24e9298294536b"),
        ("irregular", dict(k=3, max_product=10**6), 3, 0,
         "99404dc8192bbc5dc3a3c6becb9fa0b328a8ece2e2dc45762520d01e5dba731e"),
        ("irregular", dict(auto_k=True, max_product=24), 2, 1,
         "a88736e39052d6eafc712242d552c95cdf65129ebc8764f82c24e9298294536b"),
        ("lattice", dict(k=1, max_product=10**6), 1, 16,
         "87c43472bf9c59f18497492cce0730b85470a22812f0b1adee2add1176dc9d41"),
        # Recorded before pair_admissible became an insertion check.
        ("lattice-k3", dict(k=3, max_product=10**6), 3, 0,
         "19f1e77bd4d80f51e7b1e1d0675afdea477f0c14f3c1ddc2c82df5a31e9dd9ef"),
        # Recorded before the tuner dropped the vertices that can no longer
        # share a label.
        ("autok", dict(auto_k=True, max_product=24), 3, 0,
         "5ee952eb108b78eb7a4bef3855b6628ede2222e8174fe9ae84f1d3a65432121c"),
    ]
    # Trials run, by (pair, k), recorded once the seed loop also skipped
    # pairs whose trial cannot admit a second pair; flooding every pair of
    # tied starts ran 1126, 11, 1, 3294 and 32, flooding every seed pair
    # once per alignment 498, 5, 1, 1006 and 32, and skipping only the
    # pairs whose seed components cannot beat the label's best trial 282,
    # 5, 1, 836 and 32.
    TRIALS = {
        ("irregular", 1): 106,
        ("irregular", 2): 5,
        ("irregular", 3): 1,
        ("lattice", 1): 675,
        ("lattice-k3", 3): 32,
        ("autok", 3): 1,
    }

    @pytest.mark.parametrize("pair,options,k,retired,digest", CASES)
    def test_body_digest(self, monkeypatch, pair, options, k, retired, digest):
        retirements = []
        retire = SeedIndex.retire_label

        def counted_retire(idx, lid):
            retirements.append(lid)
            retire(idx, lid)

        monkeypatch.setattr(SeedIndex, "retire_label", counted_retire)
        calls = recorded_trials(monkeypatch)
        grid, evolve = self.PAIRS[pair]
        g1 = gen_irregular_grid(*grid)
        g2, _ = perturb(g1, *evolve)
        res = match(g1, g2, rng_seed=7, **options)
        body = "".join(
            line + "\n" for line in format_matching(res).splitlines() if not line.startswith("#")
        )
        assert (res.stats.k, len(retirements)) == (k, retired)
        assert len(calls) == self.TRIALS[pair, k]
        assert hashlib.sha256(body.encode()).hexdigest() == digest
