"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (run with -s to see them) and
asserts the stated tolerance.  Real county datasets are not bundled, so
synthetic analogs at realistic densities stand in for them.
"""

import math
import random
import time
from collections import deque
from copy import deepcopy

from roadmatch.generator import (
    gen_irregular_grid,
    perturb,
    score_against_ground_truth,
)
from roadmatch.graph import verify_conformal
from roadmatch.labeling import canonical_start_rotations, label_nodes
from roadmatch.matcher import MatchState, match, process_nodes, run_trial
from roadmatch.metrics import (
    EARTH_RADIUS_KM,
    approximation_ratio,
    haversine_km,
)
from roadmatch.oracle import brute_force_max_conformal, exhaustive_flood_from
from roadmatch.seed_index import build_seed_index
from roadmatch.veb import VebTree

from conftest import figure_star, max_cross_product, random_graph


def report(name, ok, detail=""):
    print(f"{name}: {'PASS' if ok else 'FAIL'}{' (' + detail + ')' if detail else ''}")
    assert ok, f"{name} failed: {detail}"


def test_a1_conformality_invariant():
    # 500 seeded generator pairs; every output must verify as conformal.
    rng = random.Random(1)
    violations = 0
    for _ in range(500):
        rows = rng.randint(3, 6)
        cols = rng.randint(3, 6)
        g1 = gen_irregular_grid(rows, cols, rng.uniform(0.0, 0.4), rng.randrange(10**6))
        g2, _ = perturb(
            g1,
            rng.uniform(0.0, 0.2),
            rng.uniform(0.0, 0.1),
            rng.uniform(0.0, 0.1),
            rng.randrange(10**6),
        )
        res = match(g1, g2, k=2, max_product=10**5, rng_seed=rng.randrange(10**6))
        ok, _ = verify_conformal(g1, g2, res.pairs)
        violations += not ok
    report("A1 conformality invariant", violations == 0, f"{violations} violations in 500")


def test_a2_self_match_completeness():
    # 100 connected irregular grids, n from 50 to 900: self-match is total.
    rng = random.Random(2)
    shapes = [(5, 10), (7, 8), (8, 10), (10, 12), (12, 15), (15, 20), (20, 25), (25, 30), (30, 30)]
    incomplete = 0
    for i in range(100):
        rows, cols = shapes[i % len(shapes)]
        g = gen_irregular_grid(rows, cols, rng.uniform(0.0, 0.3), rng.randrange(10**6))
        res = match(g, g, k=4, max_product=10**6)
        incomplete += res.stats.matched != g.vertex_count
    report("A2 self-match completeness", incomplete == 0, f"{incomplete} incomplete of 100")


def test_a3_evolution_recovery():
    # 50 evolved 30x30 grids (5% vertex deletions, 2% edge additions),
    # k auto-tuned under product bound 24: correct_fraction >= 0.9 in >= 45.
    good = 0
    worst = 1.0
    for seed in range(50):
        g1 = gen_irregular_grid(30, 30, 0.15, seed)
        g2, gt = perturb(g1, 0.05, 0.0, 0.02, seed + 1000)
        res = match(g1, g2, auto_k=True, max_product=24, rng_seed=0)
        score = score_against_ground_truth(res.pairs, gt)
        worst = min(worst, score.correct_fraction)
        good += score.correct_fraction >= 0.9
    report("A3 evolution recovery", good >= 45, f"{good}/50 runs >= 0.9, worst {worst:.3f}")


def _flood_reaches_optimum(g1, g2, card):
    # Non-degeneracy proxy: some single flood attains the exact optimum,
    # so greedy flooding is sound on this pair.
    for s1 in range(g1.vertex_count):
        for s2 in range(g2.vertex_count):
            if g1.degree(s1) == g2.degree(s2) and g1.degree(s1) > 0:
                if exhaustive_flood_from(g1, g2, s1, s2) >= card:
                    return True
    return False


def test_a4_oracle_equivalence_toy_scale():
    # 200 deletion-only pairs of <= 10 vertices, degenerate pairs excluded:
    # matcher equals the exact optimum in >= 95% and never exceeds it.
    rng = random.Random(2024)
    eq = total = exceed = 0
    while total < 200:
        rows = rng.choice([2, 2, 3])
        cols = rng.choice([3, 4, 5]) if rows == 2 else 3
        g1 = gen_irregular_grid(rows, cols, rng.choice([0.0, 0.2, 0.4]), rng.randrange(10**6))
        g2, _ = perturb(g1, rng.choice([0.1, 0.2, 0.3]), 0.0, 0.0, rng.randrange(10**6))
        card, _ = brute_force_max_conformal(g1, g2, size_cap=10)
        if not _flood_reaches_optimum(g1, g2, card):
            continue
        res = match(g1, g2, k=1, max_product=10**5)
        total += 1
        eq += res.stats.matched == card
        exceed += res.stats.matched > card
    report(
        "A4 oracle equivalence (toy scale)",
        eq >= 190 and exceed == 0,
        f"{eq}/200 equal, {exceed} exceed",
    )


def test_a5_flood_trial_differential():
    # run_trial on a fresh state agrees exactly with the independent flood
    # reference on 500 seeded small cases.
    rng = random.Random(5)
    disagreements = 0
    checked = 0
    while checked < 500:
        n = rng.randint(2, 7)
        g1 = random_graph(random.Random(rng.randrange(10**6)), n, 0.4)
        g2 = random_graph(random.Random(rng.randrange(10**6)), n, 0.4)
        s1 = rng.randrange(g1.vertex_count)
        s2 = rng.randrange(g2.vertex_count)
        if g1.degree(s1) != g2.degree(s2) or g1.degree(s1) == 0:
            continue
        best = 0
        for r1 in canonical_start_rotations(g1, s1):
            for r2 in canonical_start_rotations(g2, s2):
                state = MatchState(g1, g2)
                state.checkpoint()
                best = max(best, run_trial(state, s1, s2, r1, r2))
        disagreements += best != exhaustive_flood_from(g1, g2, s1, s2)
        checked += 1
    report("A5 flood-trial differential", disagreements == 0, f"{disagreements} of 500")


def test_a6_junction_alignment_fixture():
    # Canonical 4-way junction pair: arms named 4,3,2 on one side must map
    # to 7,6,5 on the other when flooding enters through the matched arm.
    g1 = figure_star((1, 4, 3, 2))
    names2 = {1: 1, 5: 2, 6: 3, 7: 4}
    g2 = figure_star(tuple(names2[x] for x in (1, 7, 6, 5)))
    state = MatchState(g1, g2)
    state.checkpoint()
    q = deque()
    process_nodes(
        state, 0, 0, q,
        g1.neighbors_clockwise_from(0, 1),
        g2.neighbors_clockwise_from(0, names2[1]),
    )
    back = {v: k for k, v in names2.items()}
    got = [(v1, back[v2]) for v1, v2, _, _ in q]
    report("A6 junction alignment fixture", got == [(4, 7), (3, 6), (2, 5)], str(got))


def test_a7_k_trend():
    # On a fixed evolved pair, deeper labels are never less discriminative.
    g1 = gen_irregular_grid(30, 30, 0.15, 77)
    g2, _ = perturb(g1, 0.05, 0.0, 0.02, 78)
    stats = {}
    for k in (1, 8):
        mt1, _ = label_nodes(g1, k)
        mt2, _ = label_nodes(g2, k)
        stats[k] = (
            approximation_ratio(mt1, mt2, g1.vertex_count, g2.vertex_count),
            max_cross_product(mt1, mt2),
        )
    ok = stats[8][0] <= stats[1][0] and stats[8][1] <= stats[1][1]
    report(
        "A7 k-trend",
        ok,
        f"ratio {stats[1][0]:.3f}->{stats[8][0]:.3f}, product {stats[1][1]}->{stats[8][1]}",
    )


def test_a8_veb_differential():
    # 10^5 randomized ops against a plain-set oracle, plus both universe
    # boundaries of the default bound 24.
    rng = random.Random(8)
    t = VebTree(24)
    reference = set()
    hi = t.universe - 1
    mismatches = 0
    for _ in range(10**5):
        x = rng.randint(1, hi)
        op = rng.random()
        if op < 0.45:
            t.insert(x)
            reference.add(x)
        elif op < 0.9:
            t.delete(x)
            reference.discard(x)
        else:
            mismatches += t.contains(x) != (x in reference)
        mismatches += t.min() != (min(reference) if reference else None)
    b = VebTree(24)
    b.insert(1)
    b.insert(24)
    boundary_ok = b.min() == 1 and (b.delete(1) or b.min() == 24)
    report("A8 vEB differential", mismatches == 0 and boundary_ok, f"{mismatches} mismatches")


def _timed_match(n_rows, n_cols):
    g1 = gen_irregular_grid(n_rows, n_cols, 0.15, 9)
    g2, _ = perturb(g1, 0.02, 0.0, 0.01, 10)
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        match(g1, g2, k=4, max_product=4096, rng_seed=0)
        best = min(best, time.perf_counter() - t0)
    return best


def test_a9_scaling():
    # Doubling n from ~20k to ~40k must cost at most 2.5x the time.
    t20 = _timed_match(100, 200)
    t40 = _timed_match(200, 200)
    ratio = t40 / t20
    report("A9 scaling", ratio <= 2.5, f"{t20:.2f}s -> {t40:.2f}s, ratio {ratio:.2f}")


def test_a10_haversine_references():
    checks = [
        (haversine_km((12.0, 34.0), (12.0, 34.0)), 0.0),
        (haversine_km((0.0, 90.0), (0.0, 0.0)), math.pi * EARTH_RADIUS_KM / 2),
        (haversine_km((0.0, 0.0), (180.0, 0.0)), math.pi * EARTH_RADIUS_KM),
    ]
    ok = all(
        abs(got - want) <= 0.005 * want if want else got == 0.0
        for got, want in checks
    )
    report("A10 haversine references", ok, ", ".join(f"{g:.2f}" for g, _ in checks))


def test_a11_rollback_exactness():
    # 100 random checkpoint/trial/abort sequences restore state exactly, and
    # committing each trial's journal leaves the seed index as per-vertex
    # removals would.
    rng = random.Random(11)
    g1 = gen_irregular_grid(5, 6, 0.3, 20)
    g2, _ = perturb(g1, 0.1, 0.05, 0.0, 21)
    mt1, _ = label_nodes(g1, 1)
    mt2, _ = label_nodes(g2, 1)
    state = MatchState(g1, g2)
    idx = build_seed_index(mt1, mt2, 10**6)
    failures = 0
    commit_failures = 0
    for _ in range(100):
        candidates = [
            (s1, s2)
            for s1 in range(g1.vertex_count)
            for s2 in range(g2.vertex_count)
            if state.matched1[s1] is None
            and state.matched2[s2] is None
            and g1.degree(s1) == g2.degree(s2) > 0
        ]
        if not candidates:
            break
        s1, s2 = rng.choice(candidates)
        before = (
            list(state.matched1),
            list(state.matched2),
            list(state.total),
            deepcopy(idx.snapshot()),
        )
        state.checkpoint()
        run_trial(
            state, s1, s2,
            canonical_start_rotations(g1, s1)[0],
            canonical_start_rotations(g2, s2)[0],
        )
        journal = state.abort_trial()
        after = (
            list(state.matched1),
            list(state.matched2),
            list(state.total),
            deepcopy(idx.snapshot()),
        )
        failures += before != after
        per_vertex = deepcopy(idx)
        for v1, v2 in journal:
            per_vertex.remove_vertex(0, v1)
            per_vertex.remove_vertex(1, v2)
        committed, committed_idx = deepcopy((state, idx))
        committed.commit(journal, committed_idx)
        commit_failures += (
            committed_idx.snapshot() != per_vertex.snapshot()
            or committed_idx.veb.min() != per_vertex.veb.min()
        )
    report(
        "A11 rollback exactness",
        failures == 0 and commit_failures == 0,
        f"{failures} of 100 rollbacks, {commit_failures} commits differ",
    )
