"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line (run with -s to see them) and
asserts the stated tolerance.  Real county datasets are not bundled, so
synthetic analogs at realistic densities stand in for them.
"""

import math
import random
import time
from copy import deepcopy

from roadmatch.generator import (
    gen_irregular_grid,
    perturb,
    score_against_ground_truth,
)
from roadmatch.graph import verify_conformal
from roadmatch.labeling import label_nodes
from roadmatch.matcher import MatchState, match, run_trial
from roadmatch.metrics import (
    EARTH_RADIUS_KM,
    approximation_ratio,
    haversine_km,
)
from roadmatch.oracle import brute_force_max_conformal
from roadmatch.seed_index import SeedIndex

from conftest import (
    canonical_start_rotations,
    exhaustive_flood_from,
    figure_star,
    index_state,
    max_cross_product,
    random_graph,
    rebuilt_index,
)


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
                best = max(best, run_trial(state, s1, s2, r1, r2, []))
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
    journal = []
    # Flood from the centers; both rotations start at the arm named 1.
    run_trial(state, 0, 0, g1.rotation[0], g2.rotation[0], journal)
    back = {v: k for k, v in names2.items()}
    got = [(v1, back[v2]) for v1, v2 in journal[1:]]
    report("A6 junction alignment fixture", got == [(1, 1), (4, 7), (3, 6), (2, 5)], str(got))


def test_a7_k_trend():
    # On a fixed evolved pair, deeper labels are never less discriminative.
    g1 = gen_irregular_grid(30, 30, 0.15, 77)
    g2, _ = perturb(g1, 0.05, 0.0, 0.02, 78)
    stats = {}
    for k in (1, 8):
        labels1, labels2 = label_nodes(g1, k)[1], label_nodes(g2, k)[1]
        stats[k] = (
            approximation_ratio(labels1, labels2),
            max_cross_product(labels1, labels2),
        )
    ok = stats[8][0] <= stats[1][0] and stats[8][1] <= stats[1][1]
    report(
        "A7 k-trend",
        ok,
        f"ratio {stats[1][0]:.3f}->{stats[8][0]:.3f}, product {stats[1][1]}->{stats[8][1]}",
    )


def test_a8_pop_min_differential():
    # 10^4 random remove_pairs/retire_label steps on k=1 indexes of small
    # evolved grids; after each, pop_min_label must give the product and,
    # under the same rng state, the label of a brute-force minimum over the
    # reduced tables.
    rng = random.Random(8)
    steps = mismatches = ties = 0
    while steps < 10**4:
        g1 = gen_irregular_grid(rng.randint(3, 6), rng.randint(3, 6), 0.1, rng.randrange(10**6))
        g2, _ = perturb(g1, 0.1, 0.05, 0.05, rng.randrange(10**6))
        mt1, labels1 = label_nodes(g1, 1)
        mt2, labels2 = label_nodes(g2, 1)
        idx = SeedIndex(labels1, labels2, 10**6)
        left = [set(range(g1.vertex_count)), set(range(g2.vertex_count))]
        retired = set()
        while left[0] and left[1]:
            if idx.product and rng.random() < 0.1:
                lid = rng.choice(sorted(idx.product))
                idx.retire_label(lid)
                retired.add(idx.labels[lid])
            else:
                n = rng.randint(1, min(3, len(left[0]), len(left[1])))
                pairs = list(zip(rng.sample(sorted(left[0]), n), rng.sample(sorted(left[1]), n)))
                idx.remove_pairs(pairs)
                for v1, v2 in pairs:
                    left[0].remove(v1)
                    left[1].remove(v2)
            products = {
                lab: sum(v in left[0] for v in verts) * sum(v in left[1] for v in mt2[lab])
                for lab, verts in mt1.items()
                if lab in mt2 and lab not in retired
            }
            products = {lab: p for lab, p in products.items() if p}
            want = None
            tie_seed = rng.randrange(2**32)
            if products:
                p = min(products.values())
                candidates = sorted(lab for lab, q in products.items() if q == p)
                ties += len(candidates) > 1
                want = (p, candidates[random.Random(tie_seed).randrange(len(candidates))])
            lid = idx.pop_min_label(random.Random(tie_seed))
            got = None if lid is None else (idx.product[lid], idx.labels[lid])
            mismatches += got != want
            steps += 1
    report(
        "A8 pop_min_label differential",
        mismatches == 0 and ties > 0,
        f"{mismatches} mismatches in {steps} steps, {ties} with tied labels",
    )


def _snapshot_pair(n_rows, n_cols):
    g1 = gen_irregular_grid(n_rows, n_cols, 0.15, 9)
    g2, _ = perturb(g1, 0.02, 0.0, 0.01, 10)
    return g1, g2


def _match_time(pair):
    t0 = time.perf_counter()
    match(*pair, k=4, max_product=4096, rng_seed=0)
    return time.perf_counter() - t0


def test_a9_scaling():
    # Doubling n from ~20k to ~40k must cost at most 2.5x the time.  The
    # two sizes take turns, so a change in host speed during the test
    # reaches both of their best times, not one size alone.
    pair20, pair40 = _snapshot_pair(100, 200), _snapshot_pair(200, 200)
    t20 = t40 = math.inf
    for _ in range(3):
        t20 = min(t20, _match_time(pair20))
        t40 = min(t40, _match_time(pair40))
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
    # 100 random trials each restore the state exactly before run_trial
    # returns, and committing each trial's journal leaves the seed index
    # equal to one rebuilt from the label lists cut to the unmatched vertices.
    rng = random.Random(11)
    g1 = gen_irregular_grid(5, 6, 0.3, 20)
    g2, _ = perturb(g1, 0.1, 0.05, 0.0, 21)
    labels1, labels2 = label_nodes(g1, 1)[1], label_nodes(g2, 1)[1]
    state = MatchState(g1, g2)
    idx = SeedIndex(labels1, labels2, 10**6)
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
        before = (list(state.matched1), list(state.matched2), index_state(idx))
        journal = []
        run_trial(
            state, s1, s2,
            canonical_start_rotations(g1, s1)[0],
            canonical_start_rotations(g2, s2)[0],
            journal,
        )
        after = (list(state.matched1), list(state.matched2), index_state(idx))
        failures += before != after
        committed, committed_idx = deepcopy((state, idx))
        committed.commit(journal, committed_idx)
        matched = (committed.matched1, committed.matched2)
        fresh = rebuilt_index(
            labels1, labels2, lambda side, v: matched[side][v] is None, set(), 10**6
        )
        commit_failures += index_state(committed_idx) != index_state(fresh)
    report(
        "A11 rollback exactness",
        failures == 0 and commit_failures == 0,
        f"{failures} of 100 rollbacks, {commit_failures} commits differ",
    )
