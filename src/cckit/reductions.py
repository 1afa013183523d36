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

from functools import lru_cache

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
from .matching import BipartiteGraph, max_degree
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


def _layer_edges(c: Circuit):
    """Edges of ccv_to_3vlfmm's graph, its node_map and its target top."""
    if c.has_negations:
        raise NegationNotSupportedError("lower negations first")
    if not c.is_all_up:
        raise PreconditionViolatedError("apply to_all_up first")
    m = c.num_wires
    vals = resolve_inputs(c, ())
    # node (layer, wire) has id layer * m + wire; `here` is layer * m and
    # `before` is (layer - 1) * m
    edges = []
    for x in range(m):
        if vals[x] == 1:
            edges.append((x, x))
    for layer, g in enumerate(c.gates, start=1):
        here = layer * m
        before = here - m
        involved = set()
        if not g.is_dummy:
            u, v = g.max_wire, g.min_wire  # u < v since all-up
            involved = {u, v}
            edges.append((here + u, before + u))
            edges.append((here + u, here + u))
            edges.append((here + v, before + v))
            edges.append((here + v, here + u))
            edges.append((here + v, here + v))
        for w in range(m):
            if w not in involved:
                edges.append((here + w, before + w))
                edges.append((here + w, here + w))
    node_map = {
        (layer, wire): layer * m + wire
        for layer in range(len(c.gates) + 1)
        for wire in range(m)
    }
    return edges, node_map, len(c.gates) * m + c.output_wire


def ccv_to_3vlfmm(c: Circuit):
    """Gate-by-gate lowering of an all-up circuit to degree-3 greedy matching.

    Both vertex sides carry one node per (layer, wire), id layer*m + wire,
    layer 0 holding the inputs and layer l the state after l gates.  A top
    node ends up covered by the greedy matching exactly when its wire
    carries 1 at its layer.  Returns (graph, ("top", target), node_map)
    with node_map keyed by (layer, wire).
    """
    edges, node_map, target = _layer_edges(c)
    count = len(node_map)
    return BipartiteGraph(count, count, frozenset(edges)), ("top", target), node_map


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
    coverage into edge membership.  Same preconditions and node_map as
    ccv_to_3vlfmm.  Returns (graph, ("edge", (w, w)), node_map)."""
    edges, node_map, old_target = _layer_edges(c)
    w = len(node_map)  # id of both the new bottom and the new top
    # bottom w prefers the old target; it settles for top w exactly when
    # the old target was already matched, so the designated edge tracks
    # coverage.
    edges += [(w, old_target), (w, w)]
    return BipartiteGraph(w + 1, w + 1, frozenset(edges)), ("edge", (w, w)), node_map


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
    if (y, cc) not in g.edges:
        raise PreconditionViolatedError(f"({y}, {cc}) is not an edge")
    B, T = y + 1, cc + 1
    cut = BipartiteGraph(B, T, frozenset((i, j) for (i, j) in g.edges if i < B and j < T))
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


def sm_to_tri_circuit(inst: SMInstance):
    """Fixed-point marriage matrices as a three-valued circuit.

    One comparator per (man, woman) pair per iteration, placed on the
    wires currently bound to cells MM(m, w) and WW(w, m): the conjunction
    side feeds m's next-rank MM cell and the disjunction side w's
    next-rank WW cell.  First-rank cells rebind to fresh constant wires
    each iteration and last-rank outputs are dropped.  Star-initialized
    cells are annotated as distinct inputs, so evaluating under an
    all-STAR vector reproduces the fixed-point computation; 2n*n
    iterations guarantee convergence.  Returns (circuit, cell_map) with
    cell_map keyed by ("m"|"w", person, rank).
    """
    n = inst.n
    cb = CircuitBuilder()
    binding = {}
    next_in = 0
    for side, base in (("m", Const(1)), ("w", Const(0))):
        for p in range(n):
            binding[(side, p, 0)] = cb.wire(base)
            for r in range(1, n):
                binding[(side, p, r)] = cb.wire(Input(next_in))
                next_in += 1

    mrank, wrank = inst.man_rank, inst.woman_rank
    for _ in range(2 * n * n):
        nxt = dict(binding)
        for m in range(n):
            for w in range(n):
                rm = mrank[m][w]
                rw = wrank[w][m]
                a = binding[("m", m, rm)]
                b = binding[("w", w, rw)]
                cb.gate(a, b)
                if rm + 1 < n:
                    nxt[("m", m, rm + 1)] = a
                if rw + 1 < n:
                    nxt[("w", w, rw + 1)] = b
        for m in range(n):
            nxt[("m", m, 0)] = cb.wire(Const(1))
        for w in range(n):
            nxt[("w", w, 0)] = cb.wire(Const(0))
        binding = nxt
    return cb.build(binding[("m", 0, 0)]), dict(binding)


@lru_cache(maxsize=1)
def sm_rail_prefix(inst: SMInstance):
    """Shared front half of the optimal-pair circuits, double-railed once
    per instance (the last instance is cached).  Returns (circuit,
    cell_map, rail_map); the two maps name wires of the circuit before
    double-railing.  Every pair circuit of the instance extends this
    circuit, so ``eval_extensions`` can run it once for all of them."""
    tri_c, cell_map = sm_to_tri_circuit(inst)
    closed, rail_map = tri_to_bool(tri_c, (STAR,) * tri_c.num_inputs)
    railed, _ = double_rail(closed)
    return railed, cell_map, rail_map


def _optimal_pair_circuit(inst, pair, side):
    """The railed prefix plus a tail of at most three gates, which is
    written on the prefix's wires before double-railing and railed here."""
    n = inst.n
    m, w = pair
    if not (0 <= m < n and 0 <= w < n):
        raise IndexOutOfRangeError(f"pair {pair} out of range")
    base, cell_map, rail_map = sm_rail_prefix(inst)
    gates = []
    if side == "m":
        rank = inst.man_rank[m][w]
        alpha, beta = rail_map[cell_map[("m", m, rank)]]
        if rank == n - 1:
            gates.append(Comparator(alpha, beta))
        else:
            gamma = rail_map[cell_map[("m", m, rank + 1)]][0]
            gates.append(Negation(gamma))
            gates.append(Comparator(alpha, beta))
            gates.append(Comparator(alpha, gamma))
        answer_wire = alpha
    else:
        rank = inst.woman_rank[w][m]
        beta = rail_map[cell_map[("w", w, rank)]][1]
        gates.append(Negation(beta))
        if rank != n - 1:
            delta = rail_map[cell_map[("w", w, rank + 1)]][1]
            gates.append(Comparator(beta, delta))
        answer_wire = beta
    t = base.num_wires - 1
    railed = (Comparator(a, b) for g in gates for a, b in _rail_gates(g, t))
    return base.extend(railed, 2 * answer_wire)


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
