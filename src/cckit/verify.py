"""Seeded instance generators and the property-suite runner.

Randomness comes from splitmix64 only: a 64-bit state advanced by a
fixed odd constant and finalized with xor-shift multiplies.  It is
platform independent and trivially splittable, so case k of a run is a
pure function of (seed, k) and cases can be executed in any order or in
parallel without changing the stream.

A suite is a per-case function ``case(rng, i)`` that yields the failure
messages of random case ``i``, plus an entry in ``SUITES``.  The runner
owns the rest: it seeds case ``i`` with ``SplitMix(split(seed, i))``,
runs the suite's fixed checks first (numbered from 0, and only when at
least one case is asked for), and collects and sorts the failures.
"""

from __future__ import annotations

from functools import partial

from . import lipschitz
from .circuit import (
    STAR,
    TRI_RAILS,
    Circuit,
    Comparator,
    Const,
    Input,
    NegInput,
    Negation,
    digit_at_least,
    dual,
    eval,
    eval_batch,
    eval_tails,
    eval_tri,
    input_columns,
    normalize_down,
    refines,
    resolve_inputs,
)
from .errors import BadShapeError
from .formats import (
    KINDS,
    parse_circuit,
    parse_digraph,
    parse_graph,
    parse_sm,
    serialize_circuit,
    serialize_digraph,
    serialize_graph,
    serialize_sm,
)
from .matching import BipartiteGraph, lfm_matching, lfmm_decision, max_degree, vlfmm_decision
from .reachability import Digraph, layer, reach_to_ccv, reachable_set
from .reductions import (
    ccv_to_3lfmm,
    ccv_to_3vlfmm,
    close_circuit,
    double_rail,
    lfmm_to_ccvneg,
    sm_pair_tail,
    sm_rail_prefix,
    to_all_up,
    tri_to_bool,
    vlfmm_to_ccv,
)
from .stable_marriage import (
    MatrixPair,
    SMInstance,
    all_stable_marriages,
    delayed_interval_states,
    delayed_interval_run,
    feasible_to_marriage,
    gale_shapley,
    interval_logic_run,
    interval_logic_steps,
    interval_run,
    is_feasible_pair,
    is_stable,
    marriage_to_feasible,
    matrix_of_intervals,
    subramanian_run,
    swap_sexes,
    symmetric_gs,
)
from .universal import build_universal, encode_control
from .value import Value

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Test-only hook: when true, a couple of suites deliberately flip one
# expected value so the failure-reporting path can be exercised.
_flip_expected = False


class SplitMix:
    """splitmix64 sequence starting from a 64-bit seed."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next64() % n

    def chance(self, p: float) -> bool:
        return self.next64() < p * 2.0**64

    def choice(self, xs):
        return xs[self.below(len(xs))]

    def shuffle(self, xs: list):
        for i in range(len(xs) - 1, 0, -1):
            j = self.below(i + 1)
            xs[i], xs[j] = xs[j], xs[i]

    def bits(self, k: int) -> list:
        return [self.below(2) for _ in range(k)]


def split(seed: int, index: int) -> int:
    """Independent 64-bit seed for case ``index`` of a run."""
    return SplitMix((seed + (index + 1) * _GAMMA) & _MASK).next64()


class Report(Value):
    _fields = ("suite", "cases", "failures")

    def __init__(self, suite, cases, failures):
        vars(self).update(suite=suite, cases=cases, failures=failures)

    @property
    def passed(self) -> bool:
        return not self.failures


class Suite(Value):
    """``case(rng, i)`` and each fixed check yield failure messages;
    ``cap``, if set, bounds the number of cases."""

    _fields = ("case", "default", "fixed", "cap")

    def __init__(self, case, default, fixed=(), cap=None):
        vars(self).update(case=case, default=default, fixed=fixed, cap=cap)


def gen_circuit(seed: int, m_max: int, g_max: int, with_neg: bool = False) -> Circuit:
    if m_max < 1 or g_max < 0:
        raise BadShapeError("need m_max >= 1 and g_max >= 0")
    rng = SplitMix(seed)
    m = 1 + rng.below(m_max)
    g = rng.below(g_max + 1)
    anns = []
    for _ in range(m):
        roll = rng.below(6)
        if roll == 0:
            anns.append(Const(0))
        elif roll == 1:
            anns.append(Const(1))
        elif roll == 2:
            anns.append(NegInput(rng.below(m)))
        else:
            anns.append(Input(rng.below(m)))
    gates = []
    for _ in range(g):
        if with_neg and rng.below(5) == 0:
            gates.append(Negation(rng.below(m)))
        elif m > 1 and rng.below(10) != 0:
            a = rng.below(m)
            b = rng.below(m - 1)
            if b >= a:
                b += 1
            gates.append(Comparator(a, b))
        else:
            w = rng.below(m)
            gates.append(Comparator(w, w))
    return Circuit(m, tuple(anns), tuple(gates), rng.below(m))


def gen_bipartite(seed: int, b_max: int, t_max: int, density: float) -> BipartiteGraph:
    if b_max < 1 or t_max < 1:
        raise BadShapeError("need at least one vertex per side")
    rng = SplitMix(seed)
    b = 1 + rng.below(b_max)
    t = 1 + rng.below(t_max)
    edges = frozenset(
        (i, j) for i in range(b) for j in range(t) if rng.chance(density)
    )
    return BipartiteGraph(b, t, edges)


def gen_sm(seed: int, n: int) -> SMInstance:
    if n < 1:
        raise BadShapeError("need n >= 1")
    rng = SplitMix(seed)

    def rows():
        out = []
        for _ in range(n):
            row = list(range(n))
            rng.shuffle(row)
            out.append(tuple(row))
        return tuple(out)

    return SMInstance(n, rows(), rows())


def gen_digraph(seed: int, n_max: int, density: float) -> Digraph:
    if n_max < 1:
        raise BadShapeError("need n_max >= 1")
    rng = SplitMix(seed)
    n = 1 + rng.below(n_max)
    edges = frozenset(
        (u, v) for u in range(n) for v in range(n) if rng.chance(density)
    )
    return Digraph(n, edges)


def _distinct_inputs(c: Circuit) -> Circuit:
    return Circuit(
        c.num_wires,
        tuple(Input(w) for w in range(c.num_wires)),
        c.gates,
        c.output_wire,
    )


def _show(kind, text, expected, got):
    return f"expected {expected!r}, got {got!r}; {kind}:\n{text}"


# -- fixtures ---------------------------------------------------------------

def fixture_text(name: str) -> str:
    from importlib.resources import files

    return (files("cckit") / "fixtures" / name).read_text()


def _load(name: str):
    """A fixture parsed as the kind its suffix names."""
    return KINDS[name.rpartition(".")[2]][0](fixture_text(name))


def _negation_lowered(c):
    lowered, _ = double_rail(c)
    return eval(c, (), allow_negations=True)[0], eval(lowered, ())[:2]


def _layer_statuses(c):
    g, _ = ccv_to_3vlfmm(c)
    last = len(c.gates) * c.num_wires
    return tuple(vlfmm_decision(g, last + w) for w in range(c.num_wires))


# (fixture, computation on the parsed fixture, exact expected value)
_GOLDEN = (
    ("annotated_demo.ccv", lambda c: eval(c, (1, 1, 1))[:2], ((0, 1, 1, 0, 1, 0), 0)),
    ("greedy_demo.graph",
     lambda gd: (lfm_matching(gd[0]), lfmm_decision(gd[0], (3, 1)),
                 lfmm_decision(gd[0], (1, 0)), vlfmm_decision(gd[0], 2)),
     (frozenset({(0, 0), (2, 2), (3, 1)}), 1, 0, 1)),
    ("const_demo.ccv", lambda c: (eval(c, ())[0], eval(dual(c), ())[0]),
     ((1, 1, 0), (0, 0, 1))),
    # tops (1, 1, 1, 0), then bottoms (0, 0, 0)
    ("cover_demo.graph", lambda gd: eval(vlfmm_to_ccv(gd[0], 0), ())[0],
     (1, 1, 1, 0, 0, 0, 0)),
    ("negation_demo.ccv", _negation_lowered, ((1, 1, 1), ((1, 0, 1, 0, 1, 0, 0), 1))),
    ("edge_decision_demo.graph",
     lambda gd: eval(lfmm_to_ccvneg(gd[0], gd[1][1]), (), allow_negations=True)[:2],
     ((1, 0, 1, 0, 0, 1, 0, 1, 0, 1), 1)),
    # reachable set, then iotas 0 and nus 1, unpadded and padded
    ("reach_demo.digraph",
     lambda g: (reachable_set(g, 0), eval(reach_to_ccv(g, 0), ())[0],
                eval(reach_to_ccv(g, 0, pad_dummies=True), ())[0]),
     ({0, 1, 2, 3, 4}, (0,) * 5 + (1,) * 5, (0,) * 5 + (1,) * 5)),
    ("const_demo.ccv", _layer_statuses, (1, 1, 0)),
    ("const_demo.ccv", lambda c: encode_control(c, 3, 2),
     (0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1)),
)


def _case_golden(rng, i):
    name, compute, expected = _GOLDEN[i]
    got = compute(_load(name))
    if got != expected:
        yield _show(f"fixture {name}", fixture_text(name), expected, got)


# -- universal --------------------------------------------------------------

def _universal_gadget():
    univ = build_universal(2, 1)
    # one-hot on pair (0, 1): simulate a single plain comparator
    for x in range(2):
        for y in range(2):
            _, answer = eval(univ, [1, 0, x, y])
            if answer != (x & y):
                yield f"gadget on ({x},{y}) answered {answer}"
    outputs, _ = eval(univ, [0, 0, 1, 0])
    if outputs[0] != 1 or outputs[1] != 0:
        yield "all-zero controls must pass data through"
    if len(univ.gates) != 8:
        yield f"UNIV(2,1) should have 8 gates, has {len(univ.gates)}"


def _case_universal(rng, i):
    c = gen_circuit(rng.next64(), 6, 12, with_neg=False)
    m = max(2, c.num_wires + rng.below(2))
    n = len(c.gates) + rng.below(3)
    # every input vector at once, input j of row r being bit j of r:
    # constant control columns, c's initial wire values as data columns
    # and zero padding wires
    k = c.num_inputs
    count = 1 << k
    mask = (1 << count) - 1
    cols = input_columns(k)
    start = eval_batch(Circuit(c.num_wires, c.annotations, (), c.output_wire), cols, count)
    controls = [mask if bit else 0 for bit in encode_control(c, m, n)]
    expected = eval_batch(c, cols, count)[0]
    if _flip_expected and i == 0:
        expected ^= mask
    univ = build_universal(m, n)
    answer = eval_batch(univ, controls + start + [0] * (m - c.num_wires), count)[0]
    wrong = answer ^ expected
    if wrong:
        r = (wrong & -wrong).bit_length() - 1  # the lowest failing vector
        x = [(r >> j) & 1 for j in range(k)]
        yield _show(f"circuit (x {_vector_text(x)})", serialize_circuit(c),
                    (expected >> r) & 1, (answer >> r) & 1)


# -- three-valued lowering ---------------------------------------------------

_RAIL_DECODE = {rails: v for v, rails in TRI_RAILS.items()}


def _tri_row(p, q):
    table = Circuit(2, (Input(0), Input(1)), (Comparator(0, 1),), 0)
    want, _ = eval_tri(table, (p, q))
    lowered, rail_map = tri_to_bool(table, (p, q))
    outputs, _ = eval(lowered, ())
    got = tuple(
        _RAIL_DECODE.get((outputs[a], outputs[b]))
        for (a, b) in (rail_map[w] for w in range(2))
    )
    if got != want:
        yield f"gate table row ({p},{q}): {got} != {want}"


_TRI_ROWS = tuple(partial(_tri_row, p, q) for p in (0, STAR, 1) for q in (0, STAR, 1))


def _case_tri(rng, i):
    c = gen_circuit(rng.next64(), 5, 12, with_neg=False)
    x = [rng.choice((0, STAR, 1)) for _ in range(c.num_inputs)]
    want_outputs, want_answer = eval_tri(c, x)
    lowered, rail_map = tri_to_bool(c, x)
    snaps = []
    outputs, answer = eval(lowered, (), on_step=snaps.append)
    bad = None
    # rail order is restored after each complete two-gate pair (and
    # after the collector), not in between the pair's halves
    last = len(snaps) - 1
    for s, snap in enumerate(snaps):
        if s % 2 and s != last:
            continue
        for w in range(c.num_wires):
            a, b = rail_map[w]
            if snap[a] > snap[b]:
                bad = f"rail order broken on wire {w} at step {s}"
    decoded = tuple(
        _RAIL_DECODE[(outputs[a], outputs[b])]
        for (a, b) in (rail_map[w] for w in range(c.num_wires))
    )
    if decoded != want_outputs:
        bad = f"decoded {decoded}, wanted {want_outputs}"
    if answer != (1 if want_answer == 1 else 0):
        bad = f"answer {answer}, tri answer {want_answer}"
    if bad:
        yield bad + "; circuit:\n" + serialize_circuit(c)


# -- reduction ring ----------------------------------------------------------

def _rail_boundaries(c: Circuit):
    """Snapshot indices in the double-rail trace after each original gate."""
    idx = [0]
    at = 0
    for g in c.gates:
        at += 2 if isinstance(g, Comparator) else 3
        idx.append(at)
    return idx


def _case_reductions(rng, i):
    # circuit-side passes, exhaustively over inputs
    c = gen_circuit(rng.next64(), 5, 8, with_neg=False)
    k = c.num_inputs
    down, down_map = normalize_down(c)
    nd = sum(1 for g in c.gates if isinstance(g, Comparator) and not g.is_dummy)
    if not down.is_all_down:
        yield "normalize_down output not all-down"
    if down.num_wires != c.num_wires + 2 * nd or len(down.gates) != 3 * nd:
        yield "normalize_down size off"
    dd = dual(c)
    # every input vector at once, row r in itertools.product order: input
    # j is bit k-1-j of r
    count = 1 << k
    mask = (1 << count) - 1
    cols = input_columns(k)[::-1]
    base = eval_batch(c, cols, count)
    through = eval_batch(down, cols, count)
    douts = eval_batch(dd, cols, count)
    map_bad = dual_bad = 0
    for w in range(c.num_wires):
        map_bad |= base[w] ^ through[down_map[w]]
        dual_bad |= douts[w] ^ base[w] ^ mask
    # report the lowest failing row, the wire map first on a tie
    first = (map_bad | dual_bad) & -(map_bad | dual_bad)
    if first & map_bad:
        yield "normalize_down wire map broken:\n" + serialize_circuit(c)
    elif first:
        yield "dual must negate every wire:\n" + serialize_circuit(c)
    if dual(dd) != c:
        yield "dual is not an involution"

    # circuit value to coverage and to edge membership
    closed = close_circuit(c, rng.bits(k))
    _, expected = eval(closed, ())
    if _flip_expected and i == 0:
        expected ^= 1
    up, _ = to_all_up(closed)
    cover, (_, top) = ccv_to_3vlfmm(up)
    if max_degree(cover) > 3:
        yield "ccv_to_3vlfmm degree exceeds 3"
    if vlfmm_decision(cover, top) != expected:
        yield "coverage lowering wrong:\n" + serialize_circuit(closed)
    member, (_, edge) = ccv_to_3lfmm(up)
    if max_degree(member) > 3:
        yield "ccv_to_3lfmm degree exceeds 3"
    if lfmm_decision(member, edge) != expected:
        yield "edge lowering wrong:\n" + serialize_circuit(closed)

    # coverage back to a circuit, for every top, padded and not
    g = gen_bipartite(rng.next64(), 6, 6, 0.15 + 0.1 * rng.below(4))
    covered = {j for _, j in lfm_matching(g)}
    for t in range(g.num_top):
        want = 1 if t in covered else 0
        if eval(vlfmm_to_ccv(g, t), ())[1] != want:
            yield "vlfmm_to_ccv wrong:\n" + serialize_graph(g, ("top", t))
        if eval(vlfmm_to_ccv(g, t, pad_dummies=True), ())[1] != want:
            yield "padded vlfmm_to_ccv wrong:\n" + serialize_graph(g, ("top", t))

    # edge membership to a negation circuit
    edges = sorted(g.edges) or [(0, 0)]
    if not g.edges:
        g = BipartiteGraph(g.num_bottom, g.num_top, frozenset(edges))
    e = edges[rng.below(len(edges))]
    if eval(lfmm_to_ccvneg(g, e), (), allow_negations=True)[1] != lfmm_decision(g, e):
        yield "lfmm_to_ccvneg wrong:\n" + serialize_graph(g, ("edge", e))

    # negation removal, with the complement invariant along the way
    cn = gen_circuit(rng.next64(), 5, 10, with_neg=True)
    closed_n = close_circuit(cn, rng.bits(cn.num_inputs))
    plain, _ = double_rail(closed_n)
    _, want = eval(closed_n, (), allow_negations=True)
    snaps = []
    _, got = eval(plain, (), on_step=snaps.append)
    if got != want:
        yield "double_rail wrong:\n" + serialize_circuit(closed_n)
    t_wire = 2 * closed_n.num_wires
    for b in _rail_boundaries(closed_n):
        snap = snaps[b]
        if snap[t_wire] != 0 or any(
            snap[2 * w] == snap[2 * w + 1]
            for w in range(closed_n.num_wires)
        ):
            yield "double-rail invariant broken:\n" + serialize_circuit(closed_n)
            break


# -- stable marriage ---------------------------------------------------------

def _case_sm_ladder(rng, i):
    case_seed = rng.state  # split(seed, i): nothing has been drawn yet
    n = 1 + rng.below(6)
    inst = gen_sm(rng.next64(), n)
    show = lambda msg: msg + "\n" + serialize_sm(inst)

    man1, r1 = gale_shapley(inst)
    man2, woman2, r2 = symmetric_gs(inst)
    man3, woman3, state3, r3 = interval_run(inst)
    man4, woman4, state4, r4 = delayed_interval_run(inst)
    sm5, sw5, final5, r5 = interval_logic_run(inst)
    sm6, sw6, final6, r6 = subramanian_run(inst)

    if not (man1 == man2 == man3 == man4 == sm5 == sm6):
        yield show("man-optimal marriages disagree")
    if not (woman2 == woman3 == woman4 == sw5 == sw6):
        yield show("woman-optimal marriages disagree")
    if r1 > n * n or r2 > n * n:
        yield show(f"proposal rounds {r1}/{r2} exceed n^2")
    if max(r3, r4, r5, r6) > 2 * n * n:
        yield show("interval/matrix rounds exceed 2n^2")
    if is_stable(inst, man1) != 1:
        yield show("man-optimal marriage unstable")
    for m in range(n):
        lo, hi = state3.man[m]
        if inst.man_pref[m][lo] != man3.match[m]:
            yield show("interval lower end is not the man-optimal partner")
        if inst.man_pref[m][hi] != woman3.match[m]:
            yield show("interval upper end is not the woman-optimal partner")
    if final5 != final6:
        yield show("matrix fixed points disagree")

    if i < 100:
        small = gen_sm(case_seed ^ 0xA5A5, 1 + rng.below(5))
        via_intervals = [
            matrix_of_intervals(small, s) for s in delayed_interval_states(small)
        ]
        if via_intervals != interval_logic_steps(small):
            yield "per-step interval/matrix mismatch\n" + serialize_sm(small)

    if n <= 5:
        stables = all_stable_marriages(inst)
        if man1 not in stables:
            yield show("man-optimal not among stable marriages")
        for m in range(n):
            best = min((mar.match[m] for mar in stables), key=inst.man_rank[m].__getitem__)
            if man1.match[m] != best:
                yield show("man-optimal partner is not the best stable partner")


def feasible_candidates(inst: SMInstance) -> list:
    """Indices, ascending, of the feasible candidates for ``inst``.

    Candidate r has 2n base-n digits, most significant first: digit m
    (man m) or n + w (woman w) is d when that person's matrix row is 1
    (for a woman, 0) on exactly the first d + 1 entries of their
    preference row.  So r indexes ``itertools.product`` over the men's
    monotone rows and then the women's, last digit fastest, and
    :func:`candidate_pair` builds it.  Every candidate is checked against
    the fixed-point equations of ``is_feasible_pair`` at once: each cell
    is one column int whose bit r is that cell in candidate r.  Candidates
    are taken in n chunks by the first man's digit, to bound the columns'
    size.
    """
    n = inst.n
    count = n ** (2 * n - 1)  # candidates per chunk
    mask = (1 << count) - 1
    mrank, wrank = inst.man_rank, inst.woman_rank
    # man 0's digit is fixed within a chunk, so his row is set per chunk
    MM = [None] + [[digit_at_least(n, 2 * n - 1 - m, mrank[m][w], count) for w in range(n)]
                   for m in range(1, n)]
    WW = [[mask ^ digit_at_least(n, n - 1 - w, wrank[w][m], count) for m in range(n)]
          for w in range(n)]
    found = []
    for lead in range(n):
        MM[0] = [mask if lead >= mrank[0][w] else 0 for w in range(n)]
        # every digit is at least 0, so every candidate already has the 1 on
        # a man's first entry and the 0 on a woman's that is_feasible_pair asks
        ok = mask
        for m, pref in enumerate(inst.man_pref):
            for a, b in zip(pref, pref[1:]):
                ok &= ~(MM[m][b] ^ (MM[m][a] & WW[a][m]))
        for w, pref in enumerate(inst.woman_pref):
            for a, b in zip(pref, pref[1:]):
                ok &= ~(WW[w][b] ^ (WW[w][a] | MM[a][w]))
        while ok:
            low = ok & -ok
            found.append(lead * count + low.bit_length() - 1)
            ok ^= low
    return found


def candidate_pair(inst: SMInstance, r: int) -> MatrixPair:
    """Candidate r of :func:`feasible_candidates` as a matrix pair."""
    n = inst.n
    digits = []
    for _ in range(2 * n):
        r, d = divmod(r, n)
        digits.append(d)
    digits.reverse()
    MM = tuple(tuple(int(rank <= d) for rank in ranks) for ranks, d in zip(inst.man_rank, digits))
    WW = tuple(tuple(int(rank > d) for rank in ranks) for ranks, d in zip(inst.woman_rank, digits[n:]))
    return MatrixPair(MM, WW)


def _case_feasible(rng, i):
    n = 1 + (i % 4)
    inst = gen_sm(rng.next64(), n)
    show = lambda msg: msg + "\n" + serialize_sm(inst)

    stables = all_stable_marriages(inst)
    found = [candidate_pair(inst, r) for r in feasible_candidates(inst)]
    if len(found) != len(stables):
        yield show(f"{len(found)} feasible pairs vs {len(stables)} stable marriages")
    for mar in stables:
        mp = marriage_to_feasible(inst, mar)
        if not is_feasible_pair(inst, mp):
            yield show("marriage_to_feasible output infeasible")
        if feasible_to_marriage(inst, mp) != mar:
            yield show("marriage round-trip broken")
    for mp in found:
        mar = feasible_to_marriage(inst, mp)
        if mar not in stables:
            yield show("feasible pair decodes to an unstable marriage")
        if marriage_to_feasible(inst, mar) != mp:
            yield show("matrix round-trip broken")


def _case_sm_to_ccv(rng, i):
    n = 1 + rng.below(4)
    inst = gen_sm(rng.next64(), n)
    man_opt, _ = gale_shapley(inst)
    swapped, _ = gale_shapley(swap_sexes(inst))
    woman_match = [0] * n
    for w in range(n):
        woman_match[swapped.match[w]] = w
    pairs = [(m, w) for m in range(n) for w in range(n)]
    got = eval_tails(sm_rail_prefix(inst), [sm_pair_tail(inst, p, side)
                                            for p in pairs for side in "mw"], ())
    bad = None
    for (m, w), got_m, got_w in zip(pairs, got[::2], got[1::2]):
        want_m = 1 if man_opt.match[m] == w else 0
        want_w = 1 if woman_match[m] == w else 0
        if got_m != want_m:
            bad = f"man-optimal pair ({m},{w}): {got_m} != {want_m}"
        if got_w != want_w:
            bad = f"woman-optimal pair ({m},{w}): {got_w} != {want_w}"
    if bad:
        yield bad + "\n" + serialize_sm(inst)


# -- reachability ------------------------------------------------------------

def _case_reachability(rng, i):
    g = gen_digraph(rng.next64(), 8, 0.1 + 0.1 * rng.below(4))
    src = rng.below(g.n)
    layered, node_map = layer(g, src)
    circuit = reach_to_ccv(layered, node_map[rng.below(g.n)])
    outputs, _ = eval(circuit, ())
    oracle = reachable_set(g, src)
    layered_oracle = reachable_set(layered, 0)
    nu = outputs[layered.n :]
    bad = None
    for v in range(g.n):
        if (nu[node_map[v]] == 1) != (v in oracle):
            bad = f"node {v} verdict wrong"
    for j in range(layered.n):
        if (nu[j] == 1) != (j in layered_oracle):
            bad = f"layered node {j} marker wrong"
    if bad:
        yield f"{bad} (src {src})\n" + serialize_digraph(g)


# -- structural invariants ----------------------------------------------------

def _vector_text(values) -> str:
    """An input vector as the 0/1/* string that `cckit eval` reads."""
    return "".join(map(str, values))  # STAR is the text "*"


def _case_structural(rng, i):
    c = gen_circuit(rng.next64(), 8, 16, with_neg=False)
    show = lambda msg: msg + "\n" + serialize_circuit(c)

    x = rng.bits(c.num_inputs)
    start = resolve_inputs(c, x)
    outputs, _ = eval(c, x)
    if sum(start) != sum(outputs):
        yield show(f"popcount not conserved (x {_vector_text(x)})")

    # the wire function on distinct inputs, one column per wire: bit r of
    # a column is the wire's output on input vector r
    m = c.num_wires
    count = 1 << m
    mask = (1 << count) - 1
    inputs = input_columns(m)
    wires = eval_batch(_distinct_inputs(c), inputs, count)
    # bit r of each *_bad is set where vector r fails that check; the
    # outputs' popcount parity must equal the inputs'
    parity_bad = strict_bad = mono_bad = 0
    for col in inputs + wires:
        parity_bad ^= col
    for b in range(m):
        step = 1 << b
        low = inputs[b] ^ mask  # rows r with bit b clear, paired with r + step
        ones = twos = 0  # rows where at least one / two wires differ
        for w in wires:
            up = w >> step
            diff = (w ^ up) & low
            twos |= ones & diff
            ones |= diff
            mono_bad |= w & ~up & low
        strict_bad |= (ones ^ low) | twos
    if strict_bad:
        yield show("wire function is not strictly 1-Lipschitz")
    # report the lowest failing row, popcount first on a tie
    first = (parity_bad | mono_bad) & -(parity_bad | mono_bad)
    if first & parity_bad:
        yield show("popcount conservation broken in the full table")
    elif first:
        yield show("monotonicity broken")

    tri_x = [rng.choice((0, STAR, 1)) for _ in range(c.num_inputs)]
    finer = [v if v != STAR else rng.choice((0, STAR, 1)) for v in tri_x]
    coarse, _ = eval_tri(c, tri_x)
    fine, _ = eval_tri(c, finer)
    if not all(refines(f, g) for f, g in zip(fine, coarse)):
        yield show(
            "three-valued refinement broken"
            f" (tri_x {_vector_text(tri_x)}, finer {_vector_text(finer)})"
        )


def _strict_identity():
    ident = lipschitz.TruthTable(
        2, 2, tuple(((r >> 0) & 1, (r >> 1) & 1) for r in range(4))
    )
    if lipschitz.is_one_lipschitz(ident, strict=True) != 1:
        yield "identity should be strictly 1-Lipschitz"


def _strict_constant():
    const = lipschitz.TruthTable(2, 1, ((0,),) * 4)
    if lipschitz.is_one_lipschitz(const) != 1 or lipschitz.is_one_lipschitz(
        const, strict=True
    ):
        yield "constant should be weak but not strict"
    g = lipschitz.strictify(const)
    if lipschitz.is_one_lipschitz(g, strict=True) != 1:
        yield "strictified constant is not strict"


def _case_strictification(rng, i):
    c = _distinct_inputs(gen_circuit(rng.next64(), 4, 8, with_neg=False))
    table = lipschitz.circuit_function(c)
    drop = rng.below(table.out_bits)
    weak = lipschitz.TruthTable(
        table.in_bits,
        table.out_bits - 1,
        tuple(r[:drop] + r[drop + 1 :] for r in table.rows),
    )
    bad = None
    if lipschitz.is_one_lipschitz(weak) != 1:
        bad = "dropping one output should stay weakly 1-Lipschitz"
    g = lipschitz.strictify(weak)
    if lipschitz.is_one_lipschitz(g, strict=True) != 1:
        bad = "strictify failed to reach strictness"
    for r, row in enumerate(g.rows):
        if sum(row) % 2 != bin(r).count("1") % 2:
            bad = "output parity must match input parity"
        if row[1:] != weak.rows[r]:
            bad = "strictify must only prepend one bit"
    if bad:
        yield bad + "\n" + serialize_circuit(c)


# -- formats -----------------------------------------------------------------

def _fixture_round_trip(name):
    parse, serialize = KINDS[name.rpartition(".")[2]]
    text = fixture_text(name)
    if serialize(parse(text)) != text:
        yield f"fixture {name} does not round-trip"


def _reruns_render_identically():
    ra = run_suite("tri-lowering", 5, 7)
    rb = run_suite("tri-lowering", 5, 7)
    if ra != rb or render_report(ra) != render_report(rb):
        yield "repeated runs must render identically"


_FORMATS_FIXED = tuple(
    partial(_fixture_round_trip, name)
    for name in (
        "annotated_demo.ccv",
        "const_demo.ccv",
        "negation_demo.ccv",
        "greedy_demo.graph",
        "cover_demo.graph",
        "edge_decision_demo.graph",
        "reach_demo.digraph",
    )
) + (_reruns_render_identically,)


def _case_formats(rng, i):
    c = gen_circuit(rng.next64(), 6, 10, with_neg=bool(rng.below(2)))
    g = gen_bipartite(rng.next64(), 6, 6, 0.3)
    desig = rng.choice(
        [None, ("top", rng.below(g.num_top)), ("edge", (0, 0))]
    )
    inst = gen_sm(rng.next64(), 1 + rng.below(6))
    dg = gen_digraph(rng.next64(), 8, 0.3)
    # The parsers build through private constructors that skip the public
    # ones' second check, so the fields `==` ignores are compared as well.
    bad = None
    text = serialize_circuit(c)
    c2 = parse_circuit(text)
    if c2 != c or c2.has_negations != c.has_negations:
        bad = "circuit round-trip"
    if serialize_circuit(c2) != text:
        bad = "circuit canonical text"
    g2, d2 = parse_graph(serialize_graph(g, desig))
    if g2 != g or d2 != desig or (g2.by_bottom, g2.by_top) != (g.by_bottom, g.by_top):
        bad = "graph round-trip"
    inst2 = parse_sm(serialize_sm(inst))
    if inst2 != inst or (inst2.man_rank, inst2.woman_rank) != (inst.man_rank, inst.woman_rank):
        bad = "marriage round-trip"
    if parse_digraph(serialize_digraph(dg)) != dg:
        bad = "digraph round-trip"
    if bad:
        yield bad + " failed"


SUITES = {
    "golden-fixtures": Suite(_case_golden, 9, cap=len(_GOLDEN)),
    "universal": Suite(_case_universal, 500, (_universal_gadget,)),
    "tri-lowering": Suite(_case_tri, 300, _TRI_ROWS),
    "reduction-ring": Suite(_case_reductions, 500),
    "sm-ladder": Suite(_case_sm_ladder, 300),
    "feasible-pairs": Suite(_case_feasible, 20),
    "sm-to-ccv": Suite(_case_sm_to_ccv, 100),
    "reachability": Suite(_case_reachability, 300),
    "structural-invariants": Suite(_case_structural, 1000),
    "strictification": Suite(_case_strictification, 200, (_strict_identity, _strict_constant)),
    "formats": Suite(_case_formats, 200, _FORMATS_FIXED),
}


def run_suite(name: str, cases=None, seed: int = 1) -> Report:
    """Run one property suite; ``cases`` overrides its default volume."""
    if cases is not None and cases < 0:
        raise BadShapeError(f"--cases must be at least 0, not {cases}")
    if name not in SUITES:
        raise BadShapeError(f"no suite named {name!r}")
    suite = SUITES[name]
    n = suite.default if cases is None else cases
    if suite.cap is not None:
        n = min(n, suite.cap)
    fixed = suite.fixed if n > 0 else ()
    failures = [(k, msg) for k, check in enumerate(fixed) for msg in check()]
    for i in range(n):
        rng = SplitMix(split(seed, i))
        failures.extend((len(fixed) + i, msg) for msg in suite.case(rng, i))
    return Report(name, len(fixed) + n, tuple(sorted(failures)))


def render_report(report: Report) -> str:
    if report.passed:
        return f"{report.suite}: pass ({report.cases} cases)\n"
    idx, text = report.failures[0]
    body = "\n".join("  " + line for line in text.splitlines())
    return (
        f"{report.suite}: fail ({report.cases} cases, {len(report.failures)} failures)\n"
        f"first counterexample (case {idx}):\n{body}\n"
    )
