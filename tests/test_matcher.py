import random
from collections import deque
from copy import deepcopy

import pytest

from roadmatch.errors import ConfigurationError, InternalError
from roadmatch.generator import gen_irregular_grid, perturb, score_against_ground_truth
from roadmatch.graph import verify_conformal
from roadmatch import matcher
from roadmatch.labeling import canonical_start_rotations, label_nodes
from roadmatch.matcher import MatchState, match, pair_admissible, process_nodes, run_trial
from roadmatch.oracle import brute_force_max_conformal
from roadmatch.seed_index import SeedIndex, build_seed_index
from roadmatch.cli import format_matching

from conftest import figure_star, path_graph, random_graph


def make_state_and_index(g1, g2, k=2, bound=10**6):
    mt1, _ = label_nodes(g1, k)
    mt2, _ = label_nodes(g2, k)
    idx = build_seed_index(mt1, mt2, bound)
    return MatchState(g1, g2), idx


def state_fingerprint(state, idx):
    return (
        tuple(state.matched1),
        tuple(state.matched2),
        tuple(state.total),
        idx.snapshot(),
    )


class TestProcessNodes:
    def test_figure_junction_enqueues_aligned_arms(self):
        g1 = figure_star((1, 4, 3, 2))
        names2 = {1: 1, 5: 2, 6: 3, 7: 4}
        g2 = figure_star(tuple(names2[x] for x in (1, 7, 6, 5)))
        state, idx = make_state_and_index(g1, g2, k=1)
        state.checkpoint()
        q = deque()
        # Centers reached through the matched arm named 1 on both sides.
        process_nodes(
            state, 0, 0, q,
            g1.neighbors_clockwise_from(0, 1),
            g2.neighbors_clockwise_from(0, names2[1]),
        )
        back = {v: k for k, v in names2.items()}
        enqueued = [(v1, back[v2]) for v1, v2, _, _ in q]
        assert enqueued == [(4, 7), (3, 6), (2, 5)]

    def test_degree_one_pair_enqueues_nothing(self):
        g = path_graph(2)
        state, idx = make_state_and_index(g, g, k=1)
        state.checkpoint()
        q = deque()
        process_nodes(state, 1, 1, q, (), ())
        assert not q

    def test_undo_restores_unmatched_and_reindexes(self):
        g = path_graph(3)
        state, idx = make_state_and_index(g, g, k=1)
        before = state_fingerprint(state, idx)
        state.checkpoint()
        q = deque()
        process_nodes(state, 1, 1, q, (0, 2), (0, 2))
        assert state.matched1[1] == 1
        state.abort_trial()
        assert state_fingerprint(state, idx) == before

    def test_matched_vertex_rejected(self):
        g = path_graph(3)
        state, idx = make_state_and_index(g, g, k=1)
        state.checkpoint()
        q = deque()
        process_nodes(state, 1, 1, q, (0, 2), (0, 2))
        with pytest.raises(InternalError):
            process_nodes(state, 1, 1, q, (0, 2), (0, 2))


class TestRunTrial:
    def test_identity_floods_whole_component(self):
        g = gen_irregular_grid(4, 4, 0.2, 3)
        state, idx = make_state_and_index(g, g)
        rot = canonical_start_rotations(g, 0)[0]
        state.checkpoint()
        assert run_trial(state, 0, 0, rot, rot) == g.vertex_count

    def test_immediately_diverging_neighborhoods(self):
        # Equal-degree seeds whose neighbor degrees differ: only the seed
        # pair is matched.
        g1 = path_graph(5)  # vertex 0 has a degree-2 neighbor
        g2 = path_graph(2)  # vertex 0 has a degree-1 neighbor
        state, idx = make_state_and_index(g1, g2, k=0, bound=10**6)
        state.checkpoint()
        assert run_trial(state, 0, 0, (1,), (1,)) == 1

    def test_p3_vs_p4_end_seeds(self):
        g1 = path_graph(3)
        g2 = path_graph(4)
        state, idx = make_state_and_index(g1, g2, k=0)
        state.checkpoint()
        # Ends match, middles match, then degree 1 vs 2 stops the branch.
        assert run_trial(state, 0, 0, (1,), (1,)) == 2


class TestCheckpointCommitAbort:
    def test_abort_restores_exact_state(self):
        g = gen_irregular_grid(3, 4, 0.3, 1)
        state, idx = make_state_and_index(g, g)
        before = state_fingerprint(state, idx)
        state.checkpoint()
        rot = canonical_start_rotations(g, 2)[0]
        run_trial(state, 2, 2, rot, rot)
        state.abort_trial()
        assert state_fingerprint(state, idx) == before

    def test_commit_then_abort_errors(self):
        g = path_graph(2)
        state, idx = make_state_and_index(g, g)
        state.checkpoint()
        state.commit(state.abort_trial(), idx)
        with pytest.raises(InternalError):
            state.abort_trial()

    def test_commit_during_trial_errors(self):
        g = path_graph(2)
        state, idx = make_state_and_index(g, g)
        state.checkpoint()
        with pytest.raises(InternalError):
            state.commit([], idx)

    def test_double_checkpoint_errors(self):
        g = path_graph(2)
        state, _ = make_state_and_index(g, g)
        state.checkpoint()
        with pytest.raises(InternalError):
            state.checkpoint()

    def test_random_trials_agree_with_snapshot_semantics(self):
        # 100 random trials with random abort/commit, checked against
        # deepcopy-snapshot reference behavior.
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
            state.checkpoint()
            run_trial(state, s1, s2, r1, r2)
            if rng.random() < 0.5:
                state.abort_trial()
                assert state_fingerprint(state, idx) == state_fingerprint(
                    snap_state, snap_idx
                )
            else:
                committed = state.abort_trial()
                state.commit(committed, idx)
                assert state.total == snap_state.total + committed


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


def reference_match(g1, g2, k, max_product, rng_seed):
    """Matcher that keeps the seed index exact at every step.

    Each vertex a flood reaches leaves the index at once, a rollback puts
    it back, and the label's winning trial is flooded a second time to
    commit it.  Returns (pairs, unmatched1, unmatched2, index, counts), where
    counts tallies retired labels, inadmissible seed pairs and trials that
    tie the label's best so far.
    """
    mt1, _ = label_nodes(g1, k)
    mt2, _ = label_nodes(g2, k)
    idx = build_seed_index(mt1, mt2, max_product)
    state = MatchState(g1, g2)
    m1, m2 = state.matched1, state.matched2

    counts = {"retired": 0, "inadmissible": 0, "ties": 0}

    def flood(s1, s2, r1, r2):
        journal = []
        if not pair_admissible(state, s1, s2):
            counts["inadmissible"] += 1
            return journal
        queue = deque()

        def take(v1, v2, nbrs1, nbrs2):
            m1[v1], m2[v2] = v2, v1
            journal.append((v1, v2))
            idx.remove_vertex(0, v1)
            idx.remove_vertex(1, v2)
            queue.extend((a, b, v1, v2) for a, b in zip(nbrs1, nbrs2))

        take(s1, s2, r1, r2)
        while queue:
            v1, v2, p1, p2 = queue.popleft()
            n1, n2 = g1.rotation[v1], g2.rotation[v2]
            if m1[v1] is not None or m2[v2] is not None or len(n1) != len(n2):
                continue
            if not pair_admissible(state, v1, v2):
                continue
            i1, i2 = n1.index(p1), n2.index(p2)
            take(v1, v2, n1[i1 + 1 :] + n1[:i1], n2[i2 + 1 :] + n2[:i2])
        return journal

    def undo(journal):
        for v1, v2 in reversed(journal):
            m1[v1] = m2[v2] = None
            for side, v in ((0, v1), (1, v2)):
                lid = idx.vertex_label[side][v]
                idx.side_vertices[side][lid].add(v)
                idx._reindex(lid)

    rng = random.Random(rng_seed)
    pairs = []
    while (lid := idx.pop_min_label(rng)) is not None:
        best = None  # (cardinality, s1, s2, r1, r2); earliest maximum wins
        for s1 in idx.vertices(0, lid):
            for s2 in idx.vertices(1, lid):
                for r1 in canonical_start_rotations(g1, s1):
                    for r2 in canonical_start_rotations(g2, s2):
                        journal = flood(s1, s2, r1, r2)
                        undo(journal)
                        if best is None or len(journal) > best[0]:
                            best = (len(journal), s1, s2, r1, r2)
                        elif journal and len(journal) == best[0]:
                            counts["ties"] += 1
        if best[0] == 0:
            idx.retire_label(lid)
            counts["retired"] += 1
            continue
        pairs += flood(*best[1:])
    unmatched1 = [v for v in range(g1.vertex_count) if m1[v] is None]
    unmatched2 = [v for v in range(g2.vertex_count) if m2[v] is None]
    return sorted(pairs), unmatched1, unmatched2, idx, counts


def rebuilt_index(idx, state, k):
    """A fresh index over the state's unmatched vertices, idx's retirements applied."""
    tables = []
    for g, matched in ((state.g1, state.matched1), (state.g2, state.matched2)):
        mt, _ = label_nodes(g, k)
        tables.append({lab: [v for v in vs if matched[v] is None] for lab, vs in mt.items()})
    fresh = build_seed_index(tables[0], tables[1], idx.max_product)
    for lid in idx.retired:
        fresh.retire_label(lid)
    return fresh


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
        pop = SeedIndex.pop_min_label

        def checked_pop(idx, rng):
            # The index must be exact whenever the matcher reads it.
            (state,) = states
            stale_pops.append(idx.snapshot() != rebuilt_index(idx, state, k).snapshot())
            return pop(idx, rng)

        monkeypatch.setattr(matcher, "MatchState", RecordedState)
        rng = random.Random(3)
        totals = {"pairs": 0, "retired": 0, "inadmissible": 0, "ties": 0}
        for rows, cols, irregularity, k in self.CASES:
            for _ in range(3):
                seed = rng.randrange(10**6)
                g1 = gen_irregular_grid(rows, cols, irregularity, seed)
                g2, _ = perturb(g1, 0.03, 0.02, 0.03, seed + 1)
                ref_pairs, ref_u1, ref_u2, ref_idx, counts = reference_match(
                    g1, g2, k, 10**6, seed
                )
                states.clear()
                stale_pops.clear()
                monkeypatch.setattr(SeedIndex, "pop_min_label", checked_pop)
                res = match(g1, g2, k=k, max_product=10**6, rng_seed=seed)
                monkeypatch.setattr(SeedIndex, "pop_min_label", pop)
                case = (rows, cols, irregularity, k, seed)
                assert res.pairs == ref_pairs, case
                assert res.unmatched1 == ref_u1, case
                assert res.unmatched2 == ref_u2, case
                assert stale_pops and not any(stale_pops), case
                final = rebuilt_index(ref_idx, states[0], k)
                assert final.snapshot() == ref_idx.snapshot(), case
                totals["pairs"] += len(res.pairs)
                for key, n in counts.items():
                    totals[key] += n
        # The cases must exercise every branch of the seed loop.
        assert all(totals.values()), totals
