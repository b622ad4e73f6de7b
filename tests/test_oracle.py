import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmatch.errors import InputError, InternalError
from roadmatch.generator import gen_irregular_grid
from roadmatch.graph import EmbeddedGraph, verify_conformal
from roadmatch.matcher import MatchState, match, run_trial
from roadmatch import oracle
from roadmatch.oracle import MAX_SIZE_CAP, brute_force_max_conformal

from conftest import (
    canonical_start_rotations,
    cycle_graph,
    embedded_graphs,
    exhaustive_flood_from,
    path_graph,
    random_graph,
    star_graph,
)


def grid_minus_corner():
    g = gen_irregular_grid(3, 3, 0.0, 0)
    rot = tuple(tuple(u for u in g.rotation[v] if u != 8) for v in range(8))
    return g, EmbeddedGraph(rot)


class TestBruteForce:
    def test_identity_matches_everything(self):
        g = cycle_graph(5)
        card, witness = brute_force_max_conformal(g, g)
        assert card == 5
        ok, why = verify_conformal(g, g, witness.items())
        assert ok, why

    def test_single_vertices(self):
        g = EmbeddedGraph(((),))
        assert brute_force_max_conformal(g, g)[0] == 1

    def test_grid_minus_corner(self):
        # Deleting one corner of the 3x3 lattice lowers the degrees of its
        # two neighbors, so the exact optimum is 7 of 8, not 8.
        g1, g2 = grid_minus_corner()
        card, witness = brute_force_max_conformal(g1, g2)
        assert card == 7
        ok, why = verify_conformal(g1, g2, witness.items())
        assert ok, why

    def test_path_vs_star_no_common_structure(self):
        card, _ = brute_force_max_conformal(path_graph(4), star_graph(3))
        # Paths have no degree-3 vertex; ends can pair with leaves but any
        # two matched path-ends would force non-adjacent leaf images.
        assert card == 2

    def test_size_cap_refusal(self):
        g = gen_irregular_grid(4, 4, 0.0, 0)
        with pytest.raises(InputError, match="size cap"):
            brute_force_max_conformal(g, g)
        assert brute_force_max_conformal(g, g, size_cap=16)[0] == 16

    def test_size_cap_above_the_maximum(self, monkeypatch):
        def no_search(g):
            raise AssertionError("the search ran")

        monkeypatch.setattr(oracle, "_search_order", no_search)
        g = path_graph(2)
        with pytest.raises(InputError, match=f"size cap {MAX_SIZE_CAP + 1} is above the maximum"):
            brute_force_max_conformal(g, g, size_cap=MAX_SIZE_CAP + 1)
        with pytest.raises(AssertionError, match="the search ran"):
            brute_force_max_conformal(g, g, size_cap=MAX_SIZE_CAP)

    def test_non_conformal_witness_is_internal(self, monkeypatch):
        # Every pair accepted: the two edges 0-1 and 2-3 are mapped to the
        # identity, but in g2 the edges are 0-2 and 1-3.  That witness is
        # the oracle's fault, not its input's.
        monkeypatch.setattr(oracle, "_locally_conformal", lambda g1, g2, f, v: True)
        g1 = EmbeddedGraph(((1,), (0,), (3,), (2,)))
        g2 = EmbeddedGraph(((2,), (3,), (0,), (1,)))
        with pytest.raises(InternalError, match="oracle produced a non-conformal witness"):
            brute_force_max_conformal(g1, g2)

    @given(embedded_graphs(min_vertices=1), embedded_graphs(min_vertices=1))
    @settings(max_examples=60, deadline=None)
    def test_matcher_never_exceeds_optimum(self, g1, g2):
        card, _ = brute_force_max_conformal(g1, g2, size_cap=8)
        res = match(g1, g2, k=2, max_product=10**4)
        assert res.stats.matched <= card
        ok, why = verify_conformal(g1, g2, res.pairs)
        assert ok, why

    def test_optimum_at_least_degree_match(self):
        # Any equal-degree vertex pair alone is conformal, so optimum >= 1.
        g1 = path_graph(3)
        g2 = cycle_graph(3)
        assert brute_force_max_conformal(g1, g2)[0] >= 1


class TestExhaustiveFlood:
    def test_degree_mismatch_is_zero(self):
        assert exhaustive_flood_from(path_graph(3), path_graph(3), 0, 1) == 0

    def test_identity_seed_floods_component(self):
        g = gen_irregular_grid(3, 3, 0.3, 7)
        assert exhaustive_flood_from(g, g, 4, 4) == g.vertex_count

    def test_size_cap(self):
        g = path_graph(5)
        with pytest.raises(InputError, match="size cap"):
            exhaustive_flood_from(g, g, 0, 0, size_cap=4)

    def test_flood_differential_with_matcher_trials(self):
        # The production trial runner on a fresh state must agree with the
        # independent flood reference, for every admissible seed pair.
        rng = random.Random(0)
        checked = 0
        while checked < 60:
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
            assert best == exhaustive_flood_from(g1, g2, s1, s2)
            checked += 1
