from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roadmatch.errors import InputError
from roadmatch.graph import EmbeddedGraph, verify_conformal

from conftest import (
    cycle_graph,
    embedded_graphs,
    figure_star,
    path_graph,
    reference_validate,
    star_graph,
)


class TestConstruction:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(InputError, match="asymmetric"):
            EmbeddedGraph(((1,), ()))

    def test_self_loop_rejected(self):
        with pytest.raises(InputError, match="self-loop"):
            EmbeddedGraph(((0,),))

    def test_parallel_edge_rejected(self):
        with pytest.raises(InputError, match="parallel"):
            EmbeddedGraph(((1, 1), (0, 0)))

    def test_unknown_vertex_rejected(self):
        with pytest.raises(InputError, match="unknown vertex"):
            EmbeddedGraph(((5,),))

    def test_d_max_enforced(self):
        star_graph(16)  # at the default cap
        with pytest.raises(InputError, match="d_max"):
            star_graph(17)

    def test_bad_coords_rejected(self):
        with pytest.raises(InputError, match="coordinates"):
            EmbeddedGraph(((1,), (0,)), ((0.0, 95.0), (0.0, 0.0)))

    def test_coords_length_mismatch(self):
        with pytest.raises(InputError, match="coords length"):
            EmbeddedGraph(((1,), (0,)), ((0.0, 0.0),))


class TestDegree:
    def test_isolated_vertex(self):
        assert EmbeddedGraph(((),)).degree(0) == 0

    def test_star_center(self):
        assert star_graph(4).degree(0) == 4

    def test_figure_center_is_degree_4(self):
        # The worked degree-4 junction example.
        assert figure_star((1, 4, 3, 2)).degree(0) == 4

    def test_out_of_range(self):
        with pytest.raises(InputError):
            path_graph(2).degree(5)


class TestVerifyConformal:
    def test_identity_is_conformal(self):
        g = cycle_graph(5)
        ok, why = verify_conformal(g, g, [(v, v) for v in range(5)])
        assert ok and why is None

    @given(embedded_graphs())
    def test_identity_is_conformal_always(self, g):
        ok, _ = verify_conformal(g, g, [(v, v) for v in range(g.vertex_count)])
        assert ok

    def test_degree_mismatch_detected(self):
        ok, why = verify_conformal(star_graph(3), star_graph(4), [(0, 0)])
        assert not ok and "degree" in why

    def test_figure_two_star_mapping(self):
        # Two degree-4 junctions entered through matching neighbors; the
        # clockwise alignment pairs the remaining arms as (4,7),(3,6),(2,5).
        g1 = figure_star((1, 4, 3, 2))
        names2 = {1: 1, 5: 2, 6: 3, 7: 4}  # original arm names -> dense ids
        g2 = figure_star(tuple(names2[x] for x in (1, 7, 6, 5)))
        pairs = [(0, 0), (1, names2[1]), (4, names2[7]), (3, names2[6]), (2, names2[5])]
        ok, why = verify_conformal(g1, g2, pairs)
        assert ok, why

    def test_non_injective_detected(self):
        g = path_graph(3)
        ok, why = verify_conformal(g, g, [(0, 0), (2, 0)])
        assert not ok and "injective" in why

    def test_adjacency_inconsistency_detected(self):
        g1 = path_graph(2)
        g2 = EmbeddedGraph(((1,), (0,), (3,), (2,)))  # two disjoint edges
        ok, why = verify_conformal(g1, g2, [(0, 0), (1, 2)])
        assert not ok and "non-edge" in why

    def test_cyclic_order_violation_detected(self):
        g1 = figure_star((1, 2, 3, 4))
        g2 = figure_star((1, 2, 3, 4))
        # Swapping two arms reverses the cyclic order of the images.
        ok, why = verify_conformal(
            g1, g2, [(0, 0), (1, 1), (2, 2), (3, 4), (4, 3)]
        )
        assert not ok and "cyclic" in why

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(InputError):
            verify_conformal(path_graph(2), path_graph(2), [(0, 9)])


FAULTS = (
    None,
    "out_of_range",
    "self_loop",
    "parallel",
    "asymmetric",
    "degree",
    "bad_coords",
    "missing_coords",
)


@st.composite
def rotation_systems(draw):
    """(rotation, coords, d_max, fault): a valid rotation system with
    optional coordinates, then at most one injected fault (None for none)."""
    g = draw(embedded_graphs(max_vertices=7))
    n = g.vertex_count
    rotation = [list(r) for r in g.rotation]
    coords = None
    if draw(st.booleans()):
        point = st.tuples(st.floats(-180, 180), st.floats(-90, 90))
        coords = draw(st.lists(st.none() | point, min_size=n, max_size=n))
    d_max = max(map(len, rotation), default=0) + draw(st.integers(0, 2))
    fault = draw(st.sampled_from(FAULTS))
    v = draw(st.integers(0, n - 1))
    edges = [(a, b) for a in range(n) for b in rotation[a]]
    if fault == "out_of_range":
        u = draw(st.sampled_from([-1, -3, n, n + 2]))
        rotation[v].insert(draw(st.integers(0, len(rotation[v]))), u)
    elif fault == "self_loop":
        rotation[v].insert(draw(st.integers(0, len(rotation[v]))), v)
    elif fault == "parallel" and edges:
        a, b = draw(st.sampled_from(edges))
        rotation[a].insert(draw(st.integers(0, len(rotation[a]))), b)
    elif fault == "asymmetric" and edges:
        a, b = draw(st.sampled_from(edges))
        rotation[a].remove(b)
    elif fault == "degree" and edges:
        d_max = draw(st.integers(0, max(map(len, rotation)) - 1))
    elif fault == "bad_coords":
        if coords is None:
            coords = [None] * n
        coords[v] = draw(st.sampled_from(
            [(float("nan"), 0.0), (0.0, 95.0), (-181.0, 0.0), (0.0, float("-inf"))]
        ))
    elif fault == "missing_coords":
        coords = (coords or [(0.0, 0.0)] * n)[: n - 1]
    else:
        fault = None  # nothing to break that way in this graph
    return tuple(map(tuple, rotation)), coords and tuple(coords), d_max, fault


def validation_outcome(check, graph_args):
    """None if the check accepts, else its InputError message."""
    try:
        check(*graph_args)
    except InputError as e:
        return str(e)
    return None


class TestValidation:
    """``graph._validate`` against the per-vertex-set reference in conftest."""

    @given(rotation_systems())
    @settings(max_examples=400)
    def test_same_verdict_and_message(self, system):
        rotation, coords, d_max, fault = system
        got = validation_outcome(lambda r, c, d: EmbeddedGraph(r, c, d_max=d), system[:3])
        want = validation_outcome(
            lambda r, c, d: reference_validate(SimpleNamespace(rotation=r, coords=c, d_max=d)),
            system[:3],
        )
        assert got == want
        assert (got is None) == (fault is None)
