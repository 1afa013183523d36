"""Lowering passes: decision preservation and structural contracts."""

import hashlib

import pytest

from cckit.circuit import (
    STAR,
    Circuit,
    Comparator,
    Const,
    Input,
    NegInput,
    Negation,
    eval,
    eval_tails,
    eval_tri,
)
from cckit.errors import (
    BadShapeError,
    IndexOutOfRangeError,
    NegationNotSupportedError,
    PreconditionViolatedError,
    TooLargeError,
)
from cckit.formats import parse_graph, serialize_circuit, serialize_graph
from cckit.matching import BipartiteGraph, lfm_matching, lfmm_decision, max_degree, vlfmm_decision
from cckit.reductions import (
    ccv_to_3lfmm,
    ccv_to_3vlfmm,
    close_circuit,
    double_rail,
    lfmm3_to_sm,
    lfmm_to_ccvneg,
    mosm_to_ccv,
    sm_cell_wire,
    sm_pair_tail,
    sm_rail_prefix,
    sm_to_tri_circuit,
    to_all_up,
    tri_to_bool,
    vlfmm_to_ccv,
    wosm_to_ccv,
)
from cckit.stable_marriage import SMInstance, all_stable_marriages, gale_shapley
from cckit.verify import gen_circuit, gen_sm, run_suite, SplitMix


def closed(m, consts, gates, out):
    return Circuit(m, tuple(Const(v) for v in consts), tuple(gates), out)


def test_open_circuits_are_rejected_where_they_are_read():
    # an all-up, negation-free circuit with one free input
    c = Circuit(2, (Input(0), Const(1)), (Comparator(1, 0),), 0)
    for read in (ccv_to_3vlfmm, ccv_to_3lfmm, lambda c: eval(c, ())):
        with pytest.raises(BadShapeError, match="consumes input 0 but only 0 given"):
            read(c)


def test_to_all_up_keeps_values():
    c = closed(3, (1, 0, 1), [Comparator(0, 1), Comparator(2, 0)], 1)
    up, wmap = to_all_up(c)
    assert up.is_all_up
    base = eval(c, ())[0]
    moved = eval(up, ())[0]
    assert all(base[w] == moved[wmap[w]] for w in range(3))
    assert up.output_wire == wmap[1]


def node(c, layer, wire):
    """The id of (layer, wire) on both sides of c's layered lowerings."""
    return layer * c.num_wires + wire


def test_coverage_lowering_tracks_every_layer():
    c = closed(2, (1, 1), [Comparator(1, 0)], 0)
    g, desig = ccv_to_3vlfmm(c)
    assert desig == ("top", node(c, 1, 0))
    assert max_degree(g) <= 3
    # wire values after the gate are (1, 1); layer-0 tops are both taken
    for layer in (0, 1):
        for w in (0, 1):
            assert vlfmm_decision(g, node(c, layer, w)) == 1


def test_coverage_lowering_requires_all_up():
    c = closed(2, (1, 1), [Comparator(0, 1)], 0)
    with pytest.raises(PreconditionViolatedError, match="apply to_all_up first"):
        ccv_to_3vlfmm(c)
    negs = Circuit(1, (Const(1),), (Negation(0),), 0)
    with pytest.raises(NegationNotSupportedError):
        ccv_to_3vlfmm(negs)


def test_within_layer_bottom_order_matters():
    """Swapping the gate layer's two bottom ids breaks the greedy invariant.

    With both inputs 1, processing the min-side node first steals the
    max-target top, so the min node's own top goes uncovered even though
    its wire carries 1.  The construction relies on all-up gate shape to
    put the max-side node first; this pins the requirement down.
    """
    c = closed(2, (1, 1), [Comparator(1, 0)], 0)
    g, _ = ccv_to_3vlfmm(c)
    good = {node(c, 1, w): vlfmm_decision(g, node(c, 1, w)) for w in (0, 1)}
    assert good == {2: 1, 3: 1}

    # same edge structure with bottoms 2 and 3 exchanged
    swapped = []
    for (b, t) in g.edges:
        b2 = {2: 3, 3: 2}.get(b, b)
        swapped.append((b2, t))
    bad_graph = BipartiteGraph(g.num_bottom, g.num_top, frozenset(swapped))
    assert vlfmm_decision(bad_graph, 3) == 0


def test_edge_lowering_appends_one_pair():
    c = closed(2, (1, 1), [Comparator(1, 0)], 0)
    cov, _ = ccv_to_3vlfmm(c)
    edge, desig = ccv_to_3lfmm(c)
    assert edge.num_top == cov.num_top + 1
    assert edge.num_bottom == cov.num_bottom + 1
    assert max_degree(edge) <= 3
    assert desig == ("edge", (cov.num_top, cov.num_top))
    assert lfmm_decision(edge, desig[1]) == eval(c, ())[1]


def test_cover_to_circuit_exact():
    g = BipartiteGraph(2, 2, frozenset({(0, 0), (0, 1), (1, 0)}))
    for t in range(2):
        assert eval(vlfmm_to_ccv(g, t), ())[1] == vlfmm_decision(g, t)
    padded = vlfmm_to_ccv(g, 0, pad_dummies=True)
    assert len(padded.gates) == 4
    assert eval(padded, ())[1] == vlfmm_decision(g, 0)


def test_cover_to_circuit_gate_order():
    # bottoms in order, each against its tops ascending; padding puts a
    # dummy on the bottom's own wire for every non-edge
    g = BipartiteGraph(2, 2, frozenset({(1, 0), (0, 1), (0, 0)}))
    C = Comparator
    c = vlfmm_to_ccv(g, 1)
    assert c.num_wires == 4 and c.output_wire == 1
    assert c.annotations == (Const(0), Const(0), Const(1), Const(1))
    assert c.gates == (C(2, 0), C(2, 1), C(3, 0))
    padded = vlfmm_to_ccv(g, 0, pad_dummies=True)
    assert padded.gates == (C(2, 0), C(2, 1), C(3, 0), C(3, 3))


def test_edge_to_negation_gate_order():
    # two copies of the truncated graph's greedy gates, the second without
    # the designated edge, then NOT on the primed top and one comparator
    g = BipartiteGraph(2, 3, frozenset({(0, 0), (0, 1), (1, 0), (1, 2)}))
    C, N = Comparator, Negation
    want = {
        (0, 0): (4, (C(1, 0), N(2), C(0, 2))),
        (0, 1): (6, (C(2, 0), C(2, 1), C(5, 3), N(4), C(1, 4))),
        (1, 0): (6, (C(1, 0), C(2, 0), C(4, 3), N(3), C(0, 3))),
        (1, 2): (10, (C(3, 0), C(3, 1), C(4, 0), C(4, 2),
                      C(8, 5), C(8, 6), C(9, 5), N(7), C(2, 7))),
    }
    for (i, j), (wires, gates) in want.items():
        c = lfmm_to_ccvneg(g, (i, j))
        assert (c.num_wires, c.output_wire, c.gates) == (wires, j, gates)
        assert c.annotations == ((Const(0),) * (j + 1) + (Const(1),) * (i + 1)) * 2


def test_edge_to_negation_circuit():
    g = BipartiteGraph(2, 3, frozenset({(0, 0), (0, 1), (1, 0), (1, 2)}))
    for e in sorted(g.edges):
        c = lfmm_to_ccvneg(g, e)
        assert eval(c, (), allow_negations=True)[1] == lfmm_decision(g, e)
    with pytest.raises(PreconditionViolatedError, match=r"\(0, 2\) is not an edge"):
        lfmm_to_ccvneg(g, (0, 2))


def test_double_rail_keeps_answer_and_complements():
    rng = SplitMix(2024)
    for _ in range(40):
        c = gen_circuit(rng.next64(), 5, 10, with_neg=True)
        shut = close_circuit(c, rng.bits(c.num_inputs))
        want = eval(shut, (), allow_negations=True)[1]
        plain = double_rail(shut)
        assert not plain.has_negations
        outputs, answer = eval(plain, ())
        assert answer == want
        for w in range(shut.num_wires):
            assert outputs[2 * w] + outputs[2 * w + 1] == 1
        assert outputs[2 * shut.num_wires] == 0


def test_double_rail_gate_list():
    # a dummy rails to a dummy on each rail, a comparator swaps roles on
    # the complement rails, a negation is three gates through wire 2m
    c = Circuit(
        2,
        (Const(1), NegInput(0)),
        (Comparator(1, 1), Comparator(0, 1), Negation(1)),
        1,
    )
    C = Comparator
    out = double_rail(c)
    assert (out.num_wires, out.output_wire) == (5, 2)
    assert out.annotations == (Const(1), Const(0), NegInput(0), Input(0), Const(0))
    assert out.gates == (C(2, 2), C(3, 3), C(0, 2), C(3, 1), C(2, 4), C(3, 2), C(4, 3))


def test_tri_lowering_gate_table():
    c = Circuit(2, (Input(0), Input(1)), (Comparator(0, 1),), 0)
    decode = {(0, 0): 0, (0, 1): STAR, (1, 1): 1}
    for p in (0, STAR, 1):
        for q in (0, STAR, 1):
            want = eval_tri(c, (p, q))[0]
            outs = eval(tri_to_bool(c, (p, q)), ())[0]
            # tri wire w sits on rails 2w and 2w + 1
            got = tuple(decode[(outs[2 * w], outs[2 * w + 1])] for w in (0, 1))
            assert got == want


def test_tri_lowering_answer_is_definite_one():
    c = Circuit(1, (Input(0),), (), 0)
    for v, expect in ((0, 0), (STAR, 0), (1, 1)):
        assert eval(tri_to_bool(c, (v,)), ())[1] == expect


def test_tri_lowering_rejects_negations():
    c = Circuit(1, (Input(0),), (Negation(0),), 0)
    with pytest.raises(NegationNotSupportedError):
        tri_to_bool(c, (0,))


def test_square_matching_to_marriage():
    g = BipartiteGraph(3, 3, frozenset({(0, 0), (1, 0), (1, 1), (2, 2)}))
    inst = lfmm3_to_sm(g, 3)
    assert inst.n == 6
    stables = all_stable_marriages(inst)
    assert len(stables) == 1
    (mar,) = stables
    restricted = {(m, w) for m, w in mar.pairs if m < 3 and w < 3}
    assert restricted == lfm_matching(g)


def test_square_matching_preconditions():
    with pytest.raises(PreconditionViolatedError, match="2x3 is not 2x2"):
        lfmm3_to_sm(BipartiteGraph(2, 3, frozenset()), 2)
    full = frozenset((i, j) for i in range(4) for j in range(4))
    with pytest.raises(PreconditionViolatedError, match="degree must be at most 3"):
        lfmm3_to_sm(BipartiteGraph(4, 4, full), 4)


def test_marriage_circuit_budget():
    inst = gen_sm(7, 3)
    c = sm_to_tri_circuit(inst)
    n = inst.n
    assert c.num_wires == 2 * n * n + 4 * n**3
    assert len(c.gates) == 2 * n**4
    assert c.output_wire == sm_cell_wire(n, "m", 0, 0, 2 * n * n) == c.num_wires - 2 * n
    # after iteration k the 2n^2 cells sit on distinct wires made by then
    for k in range(2 * n * n + 1):
        cells = {sm_cell_wire(n, side, p, r, k) for side in "mw" for p in range(n)
                 for r in range(n)}
        assert len(cells) == 2 * n * n and max(cells) < 2 * n * n + 2 * n * k


def test_marriage_circuit_matches_fixed_point():
    from cckit.stable_marriage import subramanian_run

    for seed in (2, 71, 828):
        inst = gen_sm(seed, 1 + seed % 3)
        n = inst.n
        c = sm_to_tri_circuit(inst)
        outputs, _ = eval_tri(c, [STAR] * c.num_inputs)
        _, _, final, _ = subramanian_run(inst)
        for m in range(n):
            for r in range(n):
                wire = sm_cell_wire(n, "m", m, r, 2 * n * n)
                assert outputs[wire] == final.MM[m][inst.man_pref[m][r]]
        for w in range(n):
            for r in range(n):
                wire = sm_cell_wire(n, "w", w, r, 2 * n * n)
                assert outputs[wire] == final.WW[w][inst.woman_pref[w][r]]


def test_marriage_circuit_steps_with_the_fixed_point_every_iteration():
    # after iteration k (n^2 gates) the cells equal rung 6's matrices after
    # pass k, and stay at the fixed point once it is reached
    from cckit.circuit import TRI_CODE, _run, resolve_tri_inputs
    from cckit.stable_marriage import _matrix_fixed_point

    iterations = 0
    for seed in range(1, 25):
        for n in range(1, 6):
            inst = gen_sm(seed, n)
            passes = []
            _matrix_fixed_point(inst, True, on_step=passes.append)
            c = sm_to_tri_circuit(inst)
            vals = resolve_tri_inputs(c, [STAR] * c.num_inputs)
            for k in range(2 * n * n + 1):
                _run(c.gates[(k - 1) * n * n:k * n * n] if k else (), vals, TRI_CODE[1])
                mp = passes[min(k, len(passes) - 1)]
                for side, rows, pref in (("m", mp.MM, inst.man_pref),
                                         ("w", mp.WW, inst.woman_pref)):
                    got = [[vals[sm_cell_wire(n, side, p, r, k)] for r in range(n)]
                           for p in range(n)]
                    want = [[TRI_CODE[rows[p][q]] for q in pref[p]] for p in range(n)]
                    assert got == want, (seed, n, k, side)
                iterations += 1
    assert iterations == 24 * sum(2 * n * n + 1 for n in range(1, 6))


def test_optimal_pair_circuits():
    inst = gen_sm(31, 3)
    man, _ = gale_shapley(inst)
    from cckit.stable_marriage import swap_sexes

    swapped, _ = gale_shapley(swap_sexes(inst))
    for m in range(3):
        for w in range(3):
            assert eval(mosm_to_ccv(inst, (m, w)), ())[1] == (1 if man.match[m] == w else 0)
            assert eval(wosm_to_ccv(inst, (m, w)), ())[1] == (
                1 if swapped.match[w] == m else 0
            )


def test_pair_circuits_past_the_limit_are_refused_before_building():
    from cckit.reductions import _check_pair_size

    # the closed form the guard reads: the railed prefix, and a tail of at most 7 gates
    for n in (1, 2, 3):
        inst = gen_sm(n, n)
        prefix = sm_rail_prefix(inst)
        assert (len(prefix.gates), prefix.num_wires) == (8 * n**4 + 2, 16 * n**3 + 8 * n**2 + 1)
        for m in range(n):
            for build in (mosm_to_ccv, wosm_to_ccv):
                assert len(build(inst, (m, n - 1 - m)).gates) <= 8 * n**4 + 9
    _check_pair_size(33)  # up to 9487377 gates
    inst = gen_sm(1, 34)
    for build in (mosm_to_ccv, wosm_to_ccv):
        with pytest.raises(IndexOutOfRangeError, match=r"pair \(34, 0\) out of range"):
            build(inst, (34, 0))
        with pytest.raises(TooLargeError, match="the pair circuit would have up to 10690697 gates "
                                                "on 638113 wires, over the limit of 10000000"):
            build(inst, (0, 0))


def test_layered_graphs_past_the_limit_are_refused_before_their_edges():
    # (gates + 1) * wires nodes per side, one more for the edge variant:
    # 2000 * 2500 is exactly half the limit
    c = Circuit(2000, (Const(0),) * 2000, (Comparator(1, 0),) * 2499, 0)
    with pytest.raises(TooLargeError, match=r"^a graph of 5000001 \+ 5000001 vertices is over "
                                            "the limit of 10000000$"):
        ccv_to_3lfmm(c)
    c = Circuit(2000, (Const(0),) * 2000, (Comparator(1, 0),) * 2500, 0)
    with pytest.raises(TooLargeError, match=r"^a graph of 5002000 \+ 5002000 vertices"):
        ccv_to_3vlfmm(c)


def test_layered_rows_equal_the_checked_construction():
    # ccv_to_3*lfmm hand the constructor their rows unchecked: each graph
    # equals the one the public constructor builds from its edge set
    rng = SplitMix(27)
    for _ in range(200):
        c = gen_circuit(rng.next64(), 5, 8)
        up, _ = to_all_up(close_circuit(c, [rng.below(2) for _ in range(c.num_inputs)]))
        for g, desig in (ccv_to_3vlfmm(up), ccv_to_3lfmm(up)):
            checked = BipartiteGraph(g.num_bottom, g.num_top, g.edges)
            assert (g, g.by_bottom) == (checked, checked.by_bottom)
            transpose = [[] for _ in range(g.num_top)]
            for i, j in sorted(g.edges):
                transpose[j].append(i)
            assert g.by_top == tuple(map(tuple, transpose))
            assert max_degree(g) == max(map(len, g.by_bottom + g.by_top))
            got = parse_graph(serialize_graph(g, desig))
            assert (got, got[0].by_bottom) == ((g, desig), g.by_bottom)


def test_optimal_pair_circuits_are_pinned():
    # sha256 of every pair circuit's text, man- then woman-optimal
    h = hashlib.sha256()
    for seed in (1, 2, 3):
        for n in range(1, 5):
            inst = gen_sm(seed, n)
            for m in range(n):
                for w in range(n):
                    for build in (mosm_to_ccv, wosm_to_ccv):
                        h.update(serialize_circuit(build(inst, (m, w))).encode())
    assert h.hexdigest() == (
        "3c9be3928b06c3d19ddda4c9c6c079a536c0492319da5eeb8f1d7cccc34655e5"
    )


def test_the_sm_to_ccv_suite_rails_one_prefix_per_case(monkeypatch):
    from cckit import reductions

    calls = []

    def counting(c):
        calls.append(len(c.gates))
        return double_rail(c)

    def no_pair_circuit(*args):
        raise AssertionError("the suite built a pair circuit")

    monkeypatch.setattr(reductions, "double_rail", counting)
    monkeypatch.setattr(reductions, "_optimal_pair_circuit", no_pair_circuit)
    assert run_suite("sm-to-ccv", 12, seed=4242).passed
    assert len(calls) == 12


def test_pair_circuits_answer_through_one_prefix_evaluation():
    for seed in (1, 2, 3, 4242):
        for n in range(1, 5):
            inst = gen_sm(seed, n)
            prefix = sm_rail_prefix(inst)
            tails, circuits = [], []
            for pair in ((m, w) for m in range(n) for w in range(n)):
                for side, build in (("m", mosm_to_ccv), ("w", wosm_to_ccv)):
                    gates, wire = sm_pair_tail(inst, pair, side)
                    c = build(inst, pair)
                    assert (c.gates, c.output_wire) == (prefix.gates + tuple(gates), wire)
                    assert len(gates) <= 7 and not any(isinstance(g, Negation) for g in gates)
                    full = Circuit(c.num_wires, c.annotations, c.gates, c.output_wire)
                    assert c == full and c.has_negations is full.has_negations is False
                    tails.append((gates, wire))
                    circuits.append(c)
            assert eval_tails(prefix, tails, ()) == [eval(c, ())[1] for c in circuits]
            for pair, side in (((0, -1), "m"), ((n, 0), "w")):
                with pytest.raises(IndexOutOfRangeError, match=r"^pair \(.*\) out of range$"):
                    sm_pair_tail(inst, pair, side)


def test_marriage_cells_and_tails_are_pinned():
    # sha256 of every final cell's wire, (side, person, rank) ascending, and
    # every pair's tail for both sides as ((min, max) pairs, answer wire)
    h = hashlib.sha256()
    for seed in range(1, 11):
        for n in range(1, 7):
            inst = gen_sm(seed, n)
            cells = [sm_cell_wire(n, side, p, r, 2 * n * n) for side in "mw" for p in range(n)
                     for r in range(n)]
            tails = []
            for pair in ((m, w) for m in range(n) for w in range(n)):
                for side in "mw":
                    gates, wire = sm_pair_tail(inst, pair, side)
                    tails.append(([(g.min_wire, g.max_wire) for g in gates], wire))
            h.update(repr((cells, tails)).encode())
    assert h.hexdigest() == (
        "f7b4c853266a75740a561a85762587d295d96022a60f84fa5606b6394443a2d7"
    )
