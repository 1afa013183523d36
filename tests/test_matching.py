"""Greedy maximal matching and its decision problems."""

import pytest

from cckit.errors import BadShapeError, IndexOutOfRangeError
from cckit.matching import (
    BipartiteGraph,
    lfm_matching,
    lfmm_decision,
    max_degree,
    vlfmm_decision,
)
from cckit.verify import gen_bipartite, split


def g_of(b, t, *edges):
    return BipartiteGraph(b, t, frozenset(edges))


def test_greedy_takes_least_available_top():
    # bottom 0 takes top 1, bottom 1 is then blocked, bottom 2 takes top 0
    g = g_of(3, 3, (0, 1), (0, 2), (1, 1), (2, 0), (2, 2))
    assert lfm_matching(g) == frozenset({(0, 1), (2, 0)})


def test_greedy_is_maximal():
    g = g_of(4, 4, *[(i, j) for i in range(4) for j in range(4)])
    assert lfm_matching(g) == frozenset({(0, 0), (1, 1), (2, 2), (3, 3)})


def test_empty_graph():
    g = g_of(2, 2)
    assert lfm_matching(g) == frozenset()
    assert vlfmm_decision(g, 0) == 0


def test_edge_decision():
    g = g_of(2, 2, (0, 0), (1, 0), (1, 1))
    assert lfmm_decision(g, (0, 0)) == 1
    assert lfmm_decision(g, (1, 0)) == 0
    assert lfmm_decision(g, (1, 1)) == 1
    with pytest.raises(IndexOutOfRangeError):
        lfmm_decision(g, (5, 0))


def test_vertex_decision():
    g = g_of(2, 3, (0, 2), (1, 2))
    assert vlfmm_decision(g, 2) == 1
    assert vlfmm_decision(g, 0) == 0
    with pytest.raises(IndexOutOfRangeError):
        vlfmm_decision(g, 3)


def test_matching_accessors():
    # a matching is a plain pair set: {(0, 1), (2, 0)} covers top 0 and
    # leaves top 2 free, read off the pairs and through vlfmm_decision
    g = g_of(3, 3, (0, 1), (0, 2), (1, 1), (2, 0), (2, 2))
    m = lfm_matching(g)
    tops = {t for _, t in m}
    assert 0 in tops and 2 not in tops
    assert [vlfmm_decision(g, t) for t in range(3)] == [1, 1, 0]


def test_degree():
    g = g_of(2, 2, (0, 0), (0, 1), (1, 0))
    assert max_degree(g) == 2
    assert max_degree(g_of(1, 1)) == 0


def test_graph_validation():
    with pytest.raises(IndexOutOfRangeError):
        g_of(1, 1, (0, 1))
    with pytest.raises(BadShapeError):
        BipartiteGraph(-1, 1, frozenset())
    # empty sides are legal, the matching is just empty
    assert lfm_matching(BipartiteGraph(0, 3, frozenset())) == frozenset()


def test_adjacency_is_ascending_per_vertex():
    g = g_of(3, 4, (2, 1), (0, 3), (0, 1), (2, 0))
    assert g.by_bottom == ((1, 3), (), (0, 1))
    assert g.by_top == ((2,), (0, 2), (), (0,))
    assert BipartiteGraph(0, 3, frozenset()).by_bottom == ()
    assert BipartiteGraph(0, 3, frozenset()).by_top == ((), (), ())
    assert BipartiteGraph(2, 0, frozenset()).by_bottom == ((), ())
    assert BipartiteGraph(2, 0, frozenset()).by_top == ()


def test_graphs_with_the_same_edges_are_equal():
    a = g_of(2, 3, (0, 2), (1, 0), (0, 1))
    b = BipartiteGraph(2, 3, [(0, 1), (0, 2), (1, 0)])
    assert a == b and hash(a) == hash(b)
    assert a != g_of(2, 3, (0, 2), (1, 0))
    assert a != g_of(2, 4, (0, 2), (1, 0), (0, 1))
    assert "by_bottom" not in repr(a) and "by_top" not in repr(a)


def test_greedy_matching_against_an_oracle():
    # read off the edge set, not the adjacency that lfm_matching scans
    for i in range(200):
        g = gen_bipartite(split(13, i), 6, 6, 0.1 + 0.1 * (i % 6))
        pairs = lfm_matching(g)
        assert pairs <= g.edges
        bottoms = [b for b, _ in pairs]
        tops = [t for _, t in pairs]
        # no vertex is matched twice
        assert len(set(bottoms)) == len(bottoms) and len(set(tops)) == len(tops)
        # maximal: no edge has both ends free
        assert not any(b not in bottoms and t not in tops for b, t in g.edges)
        # each matched bottom holds its least top that no earlier bottom took
        owner = {t: b for b, t in pairs}
        for b, t in pairs:
            assert t == min(u for v, u in g.edges if v == b and owner.get(u, b) >= b)
