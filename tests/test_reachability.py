"""Digraph reachability, layering, and the pebbling circuit."""

import pytest

from cckit.circuit import eval
from cckit.errors import (
    BadShapeError,
    IndexOutOfRangeError,
    PreconditionViolatedError,
    TooLargeError,
)
from cckit.formats import parse_digraph
from cckit.reachability import (
    Digraph,
    layer,
    layered_arcs,
    layered_circuit,
    reach_to_ccv,
    reachable_set,
)
from cckit.verify import SplitMix, gen_digraph, split


def test_digraph_validation():
    with pytest.raises(BadShapeError):
        Digraph(0, frozenset())
    with pytest.raises(IndexOutOfRangeError):
        Digraph(2, frozenset({(0, 2)}))
    Digraph(2, frozenset({(1, 1)}))  # self-loops are fine


def test_reachable_set_bfs():
    g = Digraph(5, frozenset({(0, 1), (1, 2), (3, 4)}))
    assert reachable_set(g, 0) == {0, 1, 2}
    assert reachable_set(g, 3) == {3, 4}
    assert reachable_set(g, 4) == {4}
    with pytest.raises(IndexOutOfRangeError):
        reachable_set(g, 9)


def test_cycle_is_fully_reachable():
    g = Digraph(4, frozenset({(0, 1), (1, 2), (2, 3), (3, 0)}))
    assert reachable_set(g, 2) == {0, 1, 2, 3}


def test_layer_produces_ascending_arcs():
    g = Digraph(3, frozenset({(1, 0), (2, 1), (1, 1)}))
    layered, node_map = layer(g, 1)
    assert layered.n == 9
    assert all(u < v for (u, v) in layered.edges)
    assert node_map[1] == 2 * 3 + 0  # source relabelled to 0
    for v in range(3):
        assert (v in reachable_set(g, 1)) == (node_map[v] in reachable_set(layered, 0))


def test_pebbling_requires_ascending():
    g = Digraph(2, frozenset({(1, 0)}))
    with pytest.raises(PreconditionViolatedError):
        reach_to_ccv(g, 0)
    with pytest.raises(PreconditionViolatedError):
        reach_to_ccv(Digraph(2, frozenset({(1, 1)})), 0)


def test_pebbling_error_names_the_least_descending_arc():
    # the named arc must not depend on the order the arcs were inserted in
    arcs = [(1, 0), (2, 0), (2, 1), (3, 1)]
    graphs = [Digraph(8, edges) for edges in (arcs, arcs[::-1], set(arcs))]
    graphs += [
        parse_digraph("DIGRAPH v1\nnodes 8\n" + "".join(f"arc {u} {v}\n" for u, v in order))
        for order in (arcs, arcs[::-1])
    ]
    for g in graphs:
        with pytest.raises(PreconditionViolatedError, match=r"^edge \(1, 0\) is not"):
            reach_to_ccv(g, 0)


def test_pebbling_marks_every_node():
    g = Digraph(4, frozenset({(0, 1), (1, 3)}))
    c = reach_to_ccv(g, 3)
    outputs, answer = eval(c, ())
    assert answer == 1
    oracle = reachable_set(g, 0)
    for v in range(4):
        assert (outputs[4 + v] == 1) == (v in oracle)
    # a marker survives only when the source pool was already pebbled
    # at its stage; here the last one is
    assert outputs[:4] == (0, 0, 0, 1)


def random_layered_graphs():
    """(digraph, source, layered digraph, node map, layered target) x 40."""
    for i in range(40):
        rng = SplitMix(split(6, i))
        g = gen_digraph(rng.next64(), 6, 0.3)
        src = rng.below(g.n)
        layered, node_map = layer(g, src)
        yield g, src, layered, node_map, node_map[rng.below(g.n)]


def test_pebbling_on_random_layered_graphs():
    for g, src, layered, node_map, target in random_layered_graphs():
        c = reach_to_ccv(layered, target)
        outputs, _ = eval(c, ())
        oracle = reachable_set(g, src)
        for v in range(g.n):
            assert (outputs[layered.n + node_map[v]] == 1) == (v in oracle)


def test_pebbling_gate_counts():
    g = Digraph(5, frozenset({(0, 1), (0, 2), (2, 3), (2, 4)}))
    assert len(reach_to_ccv(g, 4).gates) == 5 * (1 + 4)
    assert len(reach_to_ccv(g, 4, pad_dummies=True).gates) == 5 * (1 + 5 * 4 // 2)
    for _, _, layered, _, target in random_layered_graphs():
        n, arcs = layered.n, len(layered.edges)
        plain = reach_to_ccv(layered, target)
        padded = reach_to_ccv(layered, target, pad_dummies=True)
        assert len(plain.gates) == n * (1 + arcs)
        assert not any(gate.is_dummy for gate in plain.gates)
        assert len(padded.gates) == n * (1 + n * (n - 1) // 2)
        assert sum(not gate.is_dummy for gate in padded.gates) == n * (1 + arcs)


def test_padding_changes_no_wire():
    for _, _, layered, _, target in random_layered_graphs():
        plain = eval(reach_to_ccv(layered, target), ())
        padded = eval(reach_to_ccv(layered, target, pad_dummies=True), ())
        assert plain == padded


def test_layered_sizes_are_known_before_layering():
    loops = 0
    for g, src, layered, node_map, target in random_layered_graphs():
        loops += any(u == v for u, v in g.edges)
        assert layered_arcs(g) == len(layered.edges)
        v = next(v for v, i in node_map.items() if i == target)
        for pad in (False, True):
            c, got_map = layered_circuit(g, src, v, pad)
            assert got_map == node_map
            assert c == reach_to_ccv(layered, target, pad)
    assert loops > 0  # a loop (v, v) is also a stay-arc, counted once


@pytest.mark.parametrize("pad, gates", [(False, 76608160000), (True, 2047987200160000)])
def test_oversized_layering_is_refused_before_layer_runs(monkeypatch, capsys, tmp_path, pad, gates):
    from cckit import reachability
    from cckit.cli import main

    def never(*args):
        raise AssertionError("layer ran")

    monkeypatch.setattr(reachability, "layer", never)
    arcs = [(i, (i + d) % 400) for i in range(400) for d in (1, 7)]
    message = f"the pebbling circuit would have {gates} gates, over the limit of 10000000"
    with pytest.raises(TooLargeError) as refused:
        layered_circuit(Digraph(400, frozenset(arcs)), 0, 7, pad)
    assert str(refused.value) == message
    path = tmp_path / "big.digraph"
    path.write_text("DIGRAPH v1\nnodes 400\n" + "".join(f"arc {u} {v}\n" for u, v in arcs))
    argv = ["reduce", "reach-to-ccv", str(path), "-", "--layer", "--target", "7"]
    assert main(argv + ["--pad"] * pad) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
