"""Lowering passes between circuit-value, greedy-matching, and
stable-marriage instances.

An instance is a plain value: a circuit-value instance is a ``Circuit``
whose annotations are all constants, a matching instance a
``BipartiteGraph`` with a designation (``("top", t)`` or
``("edge", (b, t))``).  Every pass returns a target instance whose
natural decision equals the source decision, plus whatever
correspondence data is needed to read other answers back out (wire
maps, node maps, rail maps).
"""

from __future__ import annotations

from bisect import bisect_left

from .circuit import (
    STAR,
    TRI_RAILS,
    TRI_VALUE,
    Circuit,
    CircuitBuilder,
    Comparator,
    Const,
    Input,
    Negation,
    mirror,
    negated,
    normalize_down,
    resolve_inputs,
    resolve_tri_inputs,
)
from .errors import (
    SIZE_LIMIT,
    IndexOutOfRangeError,
    NegationNotSupportedError,
    PreconditionViolatedError,
    TooLargeError,
)
from .matching import BipartiteGraph, check_vertices, max_degree
from .stable_marriage import SMInstance


def close_circuit(c: Circuit, x) -> Circuit:
    """Bake an input vector into constant annotations."""
    cb = CircuitBuilder(map(Const, resolve_inputs(c, x)))
    cb.extend(c.gates, c.has_negations)
    return cb.build(c.output_wire)


def to_all_up(c: Circuit):
    """normalize_down then mirror: every non-dummy gate's tip at the
    smaller index.  Returns (circuit, wire_map) with the maps composed."""
    down, down_map = normalize_down(c)
    up = mirror(down)
    m = down.num_wires
    return up, {w: m - 1 - down_map[w] for w in down_map}


def _layer_rows(c: Circuit, extra: int = 0):
    """ccv_to_3vlfmm's graph as its bottom rows, one per node, with its
    target top.  That graph, with ``extra`` more nodes per side, is refused
    past the limit before any row is made."""
    if c.has_negations:
        raise NegationNotSupportedError("lower negations first")
    if not c.is_all_up:
        raise PreconditionViolatedError("apply to_all_up first")
    m = c.num_wires
    nodes = (len(c.gates) + 1) * m + extra
    check_vertices(nodes, nodes)
    vals = resolve_inputs(c, ())
    # node (layer, wire) has id layer * m + wire; `here` is layer * m and
    # `before` is (layer - 1) * m.  Bottom (layer, wire) holds its wire's
    # node of the layer before and its own node; the min wire v of a
    # non-dummy gate also holds the max wire u's node, between the two.
    rows = [(x,) if vals[x] == 1 else () for x in range(m)]
    for layer, g in enumerate(c.gates, start=1):
        here = layer * m
        before = here - m
        rows.extend(zip(range(before, here), range(here, here + m)))
        if not g.is_dummy:
            u, v = g.max_wire, g.min_wire  # u < v since all-up
            rows[here + v] = (before + v, here + u, here + v)
    return rows, len(c.gates) * m + c.output_wire


def ccv_to_3vlfmm(c: Circuit):
    """Gate-by-gate lowering of an all-up circuit to degree-3 greedy matching.

    Both vertex sides carry one node per (layer, wire), with id
    ``layer * c.num_wires + wire``, layer 0 holding the inputs and layer l
    the state after l gates.  A top node ends up covered by the greedy
    matching exactly when its wire carries 1 at its layer.  Returns
    (graph, ("top", target)).
    """
    rows, target = _layer_rows(c)
    count = len(rows)
    return BipartiteGraph(count, count, _by_bottom=tuple(rows)), ("top", target)


def _greedy_gates(cb: CircuitBuilder, g: BipartiteGraph, offset: int = 0, skip=None) -> None:
    """One comparator per edge, bottoms in order and each bottom's tops
    ascending: bottom i on wire offset + num_top + i, top j on offset + j.
    The edge ``skip``, if given, gets no gate."""
    T = g.num_top
    for i, tops in enumerate(g.by_bottom):
        for j in tops:
            if (i, j) != skip:
                cb.gate(offset + T + i, offset + j)


def vlfmm_to_ccv(g: BipartiteGraph, target_top: int, pad_dummies: bool = False) -> Circuit:
    """Simulate greedy matching by wires: tops start 0, bottoms start 1.

    Processing a bottom against its tops in order moves the bottom's 1 to
    the first top still holding 0, which is exactly the greedy rule.  The
    designated top wire then answers coverage.  ``pad_dummies`` emits a
    dummy gate per non-edge so gate positions enumerate all pairs.
    """
    if not (0 <= target_top < g.num_top):
        raise IndexOutOfRangeError(f"top {target_top} out of range")
    T, B = g.num_top, g.num_bottom
    cb = CircuitBuilder([Const(0)] * T + [Const(1)] * B)
    if pad_dummies:
        for b, tops in enumerate(g.by_bottom):
            for t in range(T):
                cb.gate(T + b, t if t in tops else T + b)
    else:
        _greedy_gates(cb, g)
    return cb.build(target_top)


def ccv_to_3lfmm(c: Circuit):
    """Edge-designated variant: one extra top/bottom pair turns top
    coverage into edge membership.  Same preconditions and node ids
    ``layer * c.num_wires + wire`` as ccv_to_3vlfmm.  Returns
    (graph, ("edge", (w, w)))."""
    rows, old_target = _layer_rows(c, 1)
    w = len(rows)  # id of both the new bottom and the new top
    # bottom w prefers the old target; it settles for top w exactly when
    # the old target was already matched, so the designated edge tracks
    # coverage.
    rows.append((old_target, w))
    return BipartiteGraph(w + 1, w + 1, _by_bottom=tuple(rows)), ("edge", (w, w))


def _rail_gates(g, t):
    """The double-rail lowering of one gate as (min, max) wire pairs, with
    ``t`` the zero wire."""
    if isinstance(g, Comparator):
        a, b = g.min_wire, g.max_wire
        return (2 * a, 2 * b), (2 * b + 1, 2 * a + 1)
    z = 2 * g.wire
    return (z, t), (z + 1, z), (t, z + 1)


def double_rail(c: Circuit):
    """Negation-free equivalent over rail pairs (2w, 2w+1).

    Wire 2w mirrors original wire w and wire 2w+1 its complement at every
    prefix; wire 2m starts 0 and returns to 0 after each negation gadget.
    Returns (circuit, wire_map) with wire_map[w] == 2w.
    """
    m = c.num_wires
    cb = CircuitBuilder()
    for a in c.annotations:
        cb.wires((a, negated(a)))
    t = cb.wire(Const(0))
    for g in c.gates:
        for p, q in _rail_gates(g, t):
            cb.gate(p, q)
    return cb.build(2 * c.output_wire), {w: 2 * w for w in range(m)}


def lfmm_to_ccvneg(g: BipartiteGraph, edge: tuple) -> Circuit:
    """Edge membership via two coverage runs and one negation.

    The graph is truncated to bottoms up to y and tops up to c, which
    cannot change whether (y, c) is greedily chosen.  A full simulation
    and a second one missing only the (y, c) gate then separate the
    cases: if (y, c) is picked, c is covered in the full run but not the
    primed one (1 and 0); if c was grabbed by an earlier bottom, both
    runs cover it (1 and 1); if c stays uncovered, the full run gives 0.
    So the answer is full(c) AND NOT primed(c).
    """
    y, cc = edge
    if not (0 <= y < g.num_bottom and 0 <= cc < g.num_top):
        raise IndexOutOfRangeError(f"edge ({y}, {cc}) out of range")
    if cc not in g.by_bottom[y]:
        raise PreconditionViolatedError(f"({y}, {cc}) is not an edge")
    B, T = y + 1, cc + 1
    cut = BipartiteGraph(B, T, _by_bottom=tuple(tops[:bisect_left(tops, T)]
                                                for tops in g.by_bottom[:B]))
    half = T + B
    cb = CircuitBuilder(([Const(0)] * T + [Const(1)] * B) * 2)
    _greedy_gates(cb, cut)
    _greedy_gates(cb, cut, half, (y, cc))
    c_full, c_primed = cc, half + cc
    cb.neg(c_primed)
    cb.gate(c_full, c_primed)
    return cb.build(c_full)


def tri_to_bool(c: Circuit, x):
    """Boolean rail-pair simulation of a three-valued circuit.

    Each tri wire w becomes rails (2w, 2w+1) holding its ``TRI_RAILS``
    pair: 0 as (0,0), STAR as (0,1) and 1 as (1,1).  A comparator acts
    railwise and the rail order never breaks.  Inputs are resolved against
    ``x`` so the result is a closed instance; a final comparator lands
    rail1 AND rail2 of the designated pair on the designated wire.
    Returns (circuit, rail_map).
    """
    if c.has_negations:
        raise NegationNotSupportedError("three-valued circuits are negation-free")
    cb = CircuitBuilder()
    for code in resolve_tri_inputs(c, x):
        cb.wires(Const(r) for r in TRI_RAILS[TRI_VALUE[code]])
    for g in c.gates:
        cb.gate(2 * g.min_wire, 2 * g.max_wire)
        cb.gate(2 * g.min_wire + 1, 2 * g.max_wire + 1)
    d = c.output_wire
    cb.gate(2 * d, 2 * d + 1)
    return cb.build(2 * d), {w: (2 * w, 2 * w + 1) for w in range(c.num_wires)}


def lfmm3_to_sm(g: BipartiteGraph, n: int) -> SMInstance:
    """Greedy matching on a degree-3 square graph as a marriage instance.

    Doubling with n dummy men and women makes preferences total; the
    instance has a unique stable marriage, and its pairs below n are the
    greedy matching.  Real person i ranks its neighbours first (ascending),
    then all dummies, then its non-neighbours (ascending); dummies rank
    everyone ascending.
    """
    if g.num_bottom != n or g.num_top != n:
        raise PreconditionViolatedError(f"{g.num_bottom}x{g.num_top} is not {n}x{n}")
    if max_degree(g) > 3:
        raise PreconditionViolatedError("degree must be at most 3")
    # 2n rows of 2n entries per side
    entries = 2 * (2 * n) ** 2
    if entries > SIZE_LIMIT:
        raise TooLargeError(f"the marriage instance would have {entries} preference entries, "
                            f"over the limit of {SIZE_LIMIT}")

    def rows(adjacency):
        out = []
        for nbrs in adjacency:
            rest = [j for j in range(n) if j not in nbrs]
            out.append(nbrs + tuple(range(n, 2 * n)) + tuple(rest))
        for _ in range(n):
            out.append(tuple(range(2 * n)))
        return tuple(out)

    return SMInstance(2 * n, rows(g.by_bottom), rows(g.by_top))


def sm_cell_wire(n: int, side: str, person: int, rank: int, iteration: int) -> int:
    """The wire of ``sm_to_tri_circuit`` that holds cell (side, person, rank)
    after ``iteration`` iterations: MM(person, ·) for side "m", WW(person, ·)
    for "w", at that person's preference rank.

    With s = 0 for "m" and n for "w", the circuit starts on one wire per
    cell, (s + person) * n + rank.  Each iteration moves every cell up one
    rank, drops the last rank and appends fresh rank-0 wires, the men's and
    then the women's.  So with j = iteration - rank, the cell still holds
    its first wire (s + person) * n - j when j <= 0, and otherwise the
    rank-0 wire appended by iteration j.
    """
    s = 0 if side == "m" else n
    j = iteration - rank
    if j <= 0:
        return (s + person) * n - j
    return 2 * n * n + 2 * n * (j - 1) + s + person


def sm_to_tri_circuit(inst: SMInstance) -> Circuit:
    """Fixed-point marriage matrices as a three-valued circuit.

    One comparator per (man, woman) pair per iteration, placed on the
    wires currently bound to cells MM(m, w) and WW(w, m): the conjunction
    side feeds m's next-rank MM cell and the disjunction side w's
    next-rank WW cell.  First-rank cells rebind to fresh constant wires
    each iteration and last-rank outputs are dropped; ``sm_cell_wire``
    names the wire of each cell after each iteration.  Star-initialized
    cells are annotated as distinct inputs, so evaluating under an
    all-STAR vector reproduces the fixed-point computation; 2n*n
    iterations guarantee convergence.  The answer is man 0's first cell.
    """
    n = inst.n
    # row i (man i, then woman i - n) starts on wires i * n + r: its
    # constant at rank 0, then its own inputs
    cb = CircuitBuilder(Input(i * (n - 1) + r - 1) if r else Const(int(i < n))
                        for i in range(2 * n) for r in range(n))
    mrank, wrank = inst.man_rank, inst.woman_rank
    for k in range(2 * n * n):
        for m in range(n):
            for w in range(n):
                cb.gate(sm_cell_wire(n, "m", m, mrank[m][w], k),
                        sm_cell_wire(n, "w", w, wrank[w][m], k))
        cb.wires([Const(1)] * n + [Const(0)] * n)
    return cb.build(sm_cell_wire(n, "m", 0, 0, 2 * n * n))


def sm_rail_prefix(inst: SMInstance) -> Circuit:
    """Shared front half of the optimal-pair circuits: ``sm_to_tri_circuit``
    under an all-STAR vector, through ``tri_to_bool`` and then
    ``double_rail``.  Each pair circuit of the instance is this circuit
    plus the pair's ``sm_pair_tail``."""
    tri_c = sm_to_tri_circuit(inst)
    closed, _ = tri_to_bool(tri_c, (STAR,) * tri_c.num_inputs)
    return double_rail(closed)[0]


def _check_pair_size(n: int) -> None:
    """Refuse a pair circuit past the limit before its prefix is built:
    sm_to_tri_circuit's 2n^4 gates on 4n^3 + 2n^2 wires, railed twice into
    8n^4 + 2 gates on 16n^3 + 8n^2 + 1 wires, and a railed tail of at most
    7 gates."""
    gates, wires = 8 * n**4 + 9, 16 * n**3 + 8 * n**2 + 1
    if max(gates, wires) > SIZE_LIMIT:
        raise TooLargeError(f"the pair circuit would have up to {gates} gates on "
                            f"{wires} wires, over the limit of {SIZE_LIMIT}")


def _pair_in_range(n: int, pair: tuple) -> tuple:
    m, w = pair
    if not (0 <= m < n and 0 <= w < n):
        raise IndexOutOfRangeError(f"pair {pair} out of range")
    return m, w


def sm_pair_tail(inst: SMInstance, pair: tuple, side: str):
    """The tail of ``pair``'s ``side``-optimal circuit ("m" or "w") on the
    wires of ``sm_rail_prefix(inst)``: at most three gates written on the
    rails of ``tri_to_bool``, where cell wire c sits on rails 2c and 2c + 1,
    and railed here with the prefix's zero wire 16n^3 + 8n^2.  Returns
    (gates, answer_wire)."""
    n = inst.n
    m, w = _pair_in_range(n, pair)
    person, rank = (m, inst.man_rank[m][w]) if side == "m" else (w, inst.woman_rank[w][m])

    def rail(r, k):  # rail k of the person's final cell at rank r
        return 2 * sm_cell_wire(n, side, person, r, 2 * n * n) + k

    if side == "m":
        alpha, beta = rail(rank, 0), rail(rank, 1)
        if rank == n - 1:
            gates = [Comparator(alpha, beta)]
        else:
            gamma = rail(rank + 1, 0)
            gates = [Negation(gamma), Comparator(alpha, beta), Comparator(alpha, gamma)]
        answer_wire = alpha
    else:
        beta = rail(rank, 1)
        gates = [Negation(beta)]
        if rank != n - 1:
            gates.append(Comparator(beta, rail(rank + 1, 1)))
        answer_wire = beta
    t = 16 * n**3 + 8 * n * n
    return [Comparator(a, b) for g in gates for a, b in _rail_gates(g, t)], 2 * answer_wire


def _optimal_pair_circuit(inst, pair, side):
    """The railed prefix plus the pair's railed tail, through one builder;
    the tail checks the pair before the prefix is built."""
    gates, answer_wire = sm_pair_tail(inst, pair, side)
    _check_pair_size(inst.n)
    prefix = sm_rail_prefix(inst)
    cb = CircuitBuilder(prefix.annotations)
    cb.extend(prefix.gates)
    cb.extend(gates)
    return cb.build(answer_wire)


def mosm_to_ccv(inst: SMInstance, pair: tuple) -> Circuit:
    """Circuit answering whether ``pair`` is in the man-optimal marriage.

    A man's partner is the last woman whose MM cell settles at 1, so the
    test is: this cell fully 1 and the next-rank cell not 1, read off the
    rails as alpha AND beta AND NOT gamma (no gamma at the last rank).
    """
    return _optimal_pair_circuit(inst, pair, "m")


def wosm_to_ccv(inst: SMInstance, pair: tuple) -> Circuit:
    """Same for the woman-optimal marriage via the WW rails.

    A woman's partner is the last man whose WW cell settles at 0; rail2
    of a cell is 0 exactly when the cell is 0, so the test is NOT beta
    AND delta with delta the next rank's rail2 (dropped at the last rank).
    """
    return _optimal_pair_circuit(inst, pair, "w")
