"""Seeded instance generators and the property-suite runner.

Randomness comes from splitmix64 only: a 64-bit state advanced by a
fixed odd constant and finalized with xor-shift multiplies.  It is
platform independent and trivially splittable, so case k of a run is a
pure function of (seed, k) and cases can be executed in any order or in
parallel without changing the stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import lipschitz
from .circuit import (
    STAR,
    Circuit,
    Comparator,
    Const,
    Input,
    NegInput,
    Negation,
    dual,
    eval,
    eval_tri,
    normalize_down,
    refines,
    resolve_inputs,
)
from .errors import BadShapeError, UnknownSuiteError
from .formats import (
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
    CcvInstance,
    ccv_to_3lfmm,
    ccv_to_3vlfmm,
    ccvneg_to_ccv,
    lfmm3_to_sm,
    lfmm_to_ccvneg,
    mosm_to_ccv,
    sm_to_tri_circuit,
    to_all_up,
    tri_to_bool,
    vlfmm_to_ccv,
    wosm_to_ccv,
    _optimal_pair_circuit,
    _sm_rail_prefix,
)
from .stable_marriage import (
    SMInstance,
    all_stable_marriages,
    delayed_interval_states,
    delayed_interval_run,
    feasible_to_marriage,
    gale_shapley,
    interval_logic_run,
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


@dataclass(frozen=True)
class Report:
    suite: str
    cases: int
    failures: tuple

    @property
    def passed(self) -> bool:
        return not self.failures


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


def close_circuit(c: Circuit, x) -> CcvInstance:
    """Bake an input vector into constant annotations."""
    vals = resolve_inputs(c, x)
    return CcvInstance(
        Circuit(c.num_wires, tuple(Const(v) for v in vals), c.gates, c.output_wire)
    )


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


def _golden_checks():
    def chk_annotated():
        c = parse_circuit(fixture_text("annotated_demo.ccv"))
        outputs, answer, _ = eval(c, (1, 1, 1))
        if outputs != (0, 1, 1, 0, 1, 0) or answer != 0:
            return _show("circuit", serialize_circuit(c), (0, 1, 1, 0, 1, 0), outputs)

    def chk_greedy():
        g, _ = parse_graph(fixture_text("greedy_demo.graph"))
        got = lfm_matching(g).pairs
        want = frozenset({(0, 0), (2, 2), (3, 1)})
        if got != want:
            return _show("graph", serialize_graph(g), want, got)
        if lfmm_decision(g, (3, 1)) != 1 or lfmm_decision(g, (1, 0)) != 0:
            return "edge decisions off on the greedy fixture"
        if vlfmm_decision(g, 2) != 1:
            return "top 2 should be covered"

    def chk_consts():
        c = parse_circuit(fixture_text("const_demo.ccv"))
        outputs, _, _ = eval(c, ())
        if outputs != (1, 1, 0):
            return _show("circuit", serialize_circuit(c), (1, 1, 0), outputs)
        douts, _, _ = eval(dual(c), ())
        if douts != (0, 0, 1):
            return _show("dual circuit", serialize_circuit(dual(c)), (0, 0, 1), douts)

    def chk_cover():
        g, desig = parse_graph(fixture_text("cover_demo.graph"))
        inst = vlfmm_to_ccv(g, 0)
        outputs, _, _ = eval(inst.circuit, ())
        tops = outputs[: g.num_top]
        if tops != (1, 1, 1, 0):
            return _show("graph", serialize_graph(g, desig), (1, 1, 1, 0), tops)
        bottoms = outputs[g.num_top :]
        if bottoms != (0, 0, 0):
            return f"bottom wires should all end 0, got {bottoms}"

    def chk_negation():
        c = parse_circuit(fixture_text("negation_demo.ccv"))
        outputs, answer, _ = eval(c, (), allow_negations=True)
        if outputs != (1, 1, 1):
            return _show("circuit", serialize_circuit(c), (1, 1, 1), outputs)
        lowered, _ = ccvneg_to_ccv(CcvInstance(c))
        louts, lans, _ = eval(lowered.circuit, ())
        if louts != (1, 0, 1, 0, 1, 0, 0) or lans != answer:
            return _show(
                "lowered circuit",
                serialize_circuit(lowered.circuit),
                (1, 0, 1, 0, 1, 0, 0),
                louts,
            )

    def chk_edge_decision():
        g, desig = parse_graph(fixture_text("edge_decision_demo.graph"))
        inst = lfmm_to_ccvneg(g, desig[1])
        outputs, answer, _ = eval(inst.circuit, (), allow_negations=True)
        if answer != 1 or outputs[2] != 1:
            return _show("graph", serialize_graph(g, desig), 1, answer)
        if outputs != (1, 0, 1, 0, 0, 1, 0, 1, 0, 1):
            return _show(
                "circuit",
                serialize_circuit(inst.circuit),
                (1, 0, 1, 0, 0, 1, 0, 1, 0, 1),
                outputs,
            )

    def chk_reach():
        g = parse_digraph(fixture_text("reach_demo.digraph"))
        if reachable_set(g, 0) != {0, 1, 2, 3, 4}:
            return "all five nodes should be reachable from 0"
        c = reach_to_ccv(g, 0)
        outputs, _, _ = eval(c, ())
        if outputs[: g.n] != (0,) * g.n or outputs[g.n :] != (1,) * g.n:
            return _show("circuit", serialize_circuit(c), "iotas 0, nus 1", outputs)

    def chk_matching_layers():
        c = parse_circuit(fixture_text("const_demo.ccv"))
        lf, node_map = ccv_to_3vlfmm(CcvInstance(c))
        statuses = tuple(
            vlfmm_decision(lf.graph, node_map[(len(c.gates), w)]) for w in range(3)
        )
        if statuses != (1, 1, 0):
            return _show("graph", serialize_graph(lf.graph), (1, 1, 0), statuses)

    def chk_encode():
        c = parse_circuit(fixture_text("const_demo.ccv"))
        enc = encode_control(c, 3, 2)
        if sum(enc) != 2 or len(enc) != 3 * 2 * 2:
            return f"expected 2 one-bits in a 12-bit encoding, got {enc}"

    return [
        chk_annotated,
        chk_greedy,
        chk_consts,
        chk_cover,
        chk_negation,
        chk_edge_decision,
        chk_reach,
        chk_matching_layers,
        chk_encode,
    ]


def _suite_golden(cases, seed):
    checks = _golden_checks()[:cases]
    failures = []
    for i, check in enumerate(checks):
        msg = check()
        if msg is not None:
            failures.append((i, msg))
    return len(checks), failures


# -- universal --------------------------------------------------------------

def _suite_universal(cases, seed):
    failures = []
    fixed = 0
    if cases > 0:
        fixed = 1
        univ = build_universal(2, 1)
        # one-hot on pair (0, 1): simulate a single plain comparator
        for x in range(2):
            for y in range(2):
                bits = [1, 0] + [x, y]
                outputs, answer, _ = eval(univ, bits)
                if answer != (x & y):
                    failures.append((0, f"gadget on ({x},{y}) answered {answer}"))
        outputs, _, _ = eval(univ, [0, 0, 1, 0])
        if outputs[0] != 1 or outputs[1] != 0:
            failures.append((0, "all-zero controls must pass data through"))
        if len(univ.gates) != 8:
            failures.append((0, f"UNIV(2,1) should have 8 gates, has {len(univ.gates)}"))
    for i in range(cases):
        rng = SplitMix(split(seed, i))
        c = gen_circuit(rng.next64(), 6, 12, with_neg=False)
        m = max(2, c.num_wires + rng.below(2))
        n = len(c.gates) + rng.below(3)
        x = rng.bits(c.num_inputs)
        y = list(resolve_inputs(c, x)) + [0] * (m - c.num_wires)
        enc = encode_control(c, m, n)
        expected = eval(c, x, with_trace=False)[0][0]
        if _flip_expected and i == 0:
            expected ^= 1
        univ = build_universal(m, n)
        _, answer, _ = eval(univ, list(enc) + y, with_trace=False)
        if answer != expected:
            failures.append(
                (fixed + i, _show("circuit", serialize_circuit(c), expected, answer))
            )
    return fixed + cases, failures


# -- three-valued lowering ---------------------------------------------------

_RAIL_DECODE = {(0, 0): 0, (0, 1): STAR, (1, 1): 1}


def _suite_tri(cases, seed):
    failures = []
    fixed = 0
    if cases > 0:
        tri_vals = (0, STAR, 1)
        table = Circuit(2, (Input(0), Input(1)), (Comparator(0, 1),), 0)
        k = 0
        for p in tri_vals:
            for q in tri_vals:
                k += 1
                want, _, _ = eval_tri(table, (p, q))
                inst, rail_map = tri_to_bool(table, (p, q))
                outputs, _, _ = eval(inst.circuit, ())
                got = tuple(
                    _RAIL_DECODE.get((outputs[a], outputs[b]))
                    for (a, b) in (rail_map[w] for w in range(2))
                )
                if got != want:
                    failures.append((0, f"gate table row ({p},{q}): {got} != {want}"))
        fixed = k
    for i in range(cases):
        rng = SplitMix(split(seed, i))
        c = gen_circuit(rng.next64(), 5, 12, with_neg=False)
        x = [rng.choice((0, STAR, 1)) for _ in range(c.num_inputs)]
        want_outputs, want_answer, _ = eval_tri(c, x)
        inst, rail_map = tri_to_bool(c, x)
        outputs, answer, trace = eval(inst.circuit, (), with_trace=True)
        bad = None
        # rail order is restored after each complete two-gate pair (and
        # after the collector), not in between the pair's halves
        last = len(trace.snapshots) - 1
        for s, snap in enumerate(trace.snapshots):
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
            failures.append((fixed + i, bad + "; circuit:\n" + serialize_circuit(c)))
    return fixed + cases, failures


# -- reduction ring ----------------------------------------------------------

def _rail_boundaries(c: Circuit):
    """Snapshot indices in the double-rail trace after each original gate."""
    idx = [0]
    at = 0
    for g in c.gates:
        at += 2 if isinstance(g, Comparator) else 3
        idx.append(at)
    return idx


def _suite_reductions(cases, seed):
    failures = []
    for i in range(cases):
        rng = SplitMix(split(seed, i))
        fail = lambda msg: failures.append((i, msg))

        # circuit-side passes, exhaustively over inputs
        c = gen_circuit(rng.next64(), 5, 8, with_neg=False)
        k = c.num_inputs
        down, down_map = normalize_down(c)
        nd = sum(1 for g in c.gates if isinstance(g, Comparator) and not g.is_dummy)
        if not down.is_all_down:
            fail("normalize_down output not all-down")
        if down.num_wires != c.num_wires + 2 * nd or len(down.gates) != 3 * nd:
            fail("normalize_down size off")
        dd = dual(c)
        for bits in itertools.product((0, 1), repeat=k):
            base, _, _ = eval(c, bits, with_trace=False)
            through, _, _ = eval(down, bits, with_trace=False)
            if any(base[w] != through[down_map[w]] for w in range(c.num_wires)):
                fail("normalize_down wire map broken:\n" + serialize_circuit(c))
                break
            douts, _, _ = eval(dd, bits, with_trace=False)
            if any(douts[w] != 1 - base[w] for w in range(c.num_wires)):
                fail("dual must negate every wire:\n" + serialize_circuit(c))
                break
        if dual(dd) != c:
            fail("dual is not an involution")

        # circuit value to coverage and to edge membership
        closed = close_circuit(c, rng.bits(k))
        expected = closed.answer()
        if _flip_expected and i == 0:
            expected ^= 1
        up, _ = to_all_up(closed.circuit)
        up_inst = CcvInstance(up)
        lf, node_map = ccv_to_3vlfmm(up_inst)
        if max_degree(lf.graph) > 3:
            fail("ccv_to_3vlfmm degree exceeds 3")
        if vlfmm_decision(lf.graph, lf.designated[1]) != expected:
            fail("coverage lowering wrong:\n" + serialize_circuit(closed.circuit))
        lf2, _ = ccv_to_3lfmm(up_inst)
        if max_degree(lf2.graph) > 3:
            fail("ccv_to_3lfmm degree exceeds 3")
        if lfmm_decision(lf2.graph, lf2.designated[1]) != expected:
            fail("edge lowering wrong:\n" + serialize_circuit(closed.circuit))

        # coverage back to a circuit, for every top, padded and not
        g = gen_bipartite(rng.next64(), 6, 6, 0.15 + 0.1 * rng.below(4))
        for t in range(g.num_top):
            want = vlfmm_decision(g, t)
            if vlfmm_to_ccv(g, t).answer() != want:
                fail("vlfmm_to_ccv wrong:\n" + serialize_graph(g, ("top", t)))
            if vlfmm_to_ccv(g, t, pad_dummies=True).answer() != want:
                fail("padded vlfmm_to_ccv wrong:\n" + serialize_graph(g, ("top", t)))

        # edge membership to a negation circuit
        edges = sorted(g.edges) or [(0, 0)]
        if not g.edges:
            g = BipartiteGraph(g.num_bottom, g.num_top, frozenset(edges))
        e = edges[rng.below(len(edges))]
        neg_inst = lfmm_to_ccvneg(g, e)
        if neg_inst.answer(allow_negations=True) != lfmm_decision(g, e):
            fail("lfmm_to_ccvneg wrong:\n" + serialize_graph(g, ("edge", e)))

        # negation removal, with the complement invariant along the way
        cn = gen_circuit(rng.next64(), 5, 10, with_neg=True)
        closed_n = close_circuit(cn, rng.bits(cn.num_inputs))
        plain, wmap = ccvneg_to_ccv(closed_n)
        want = closed_n.answer(allow_negations=True)
        outputs, got, trace = eval(plain.circuit, (), with_trace=True)
        if got != want:
            fail("ccvneg_to_ccv wrong:\n" + serialize_circuit(closed_n.circuit))
        t_wire = 2 * closed_n.circuit.num_wires
        for b in _rail_boundaries(closed_n.circuit):
            snap = trace.snapshots[b]
            if snap[t_wire] != 0 or any(
                snap[2 * w] == snap[2 * w + 1]
                for w in range(closed_n.circuit.num_wires)
            ):
                fail("double-rail invariant broken:\n" + serialize_circuit(closed_n.circuit))
                break
    return cases, failures


# -- stable marriage ---------------------------------------------------------

def _suite_sm_ladder(cases, seed):
    failures = []
    for i in range(cases):
        rng = SplitMix(split(seed, i))
        n = 1 + rng.below(6)
        inst = gen_sm(rng.next64(), n)
        fail = lambda msg: failures.append((i, msg + "\n" + serialize_sm(inst)))

        man1, r1 = gale_shapley(inst)
        man2, woman2, r2 = symmetric_gs(inst)
        man3, woman3, state3, r3 = interval_run(inst)
        man4, woman4, state4, r4 = delayed_interval_run(inst)
        sm5, sw5, final5, steps5 = interval_logic_run(inst)
        sm6, sw6, final6, r6 = subramanian_run(inst)

        if not (man1 == man2 == man3 == man4 == sm5 == sm6):
            fail("man-optimal marriages disagree")
        if not (woman2 == woman3 == woman4 == sw5 == sw6):
            fail("woman-optimal marriages disagree")
        if r1 > n * n or r2 > n * n:
            fail(f"proposal rounds {r1}/{r2} exceed n^2")
        if max(r3, r4, len(steps5) - 1, r6) > 2 * n * n:
            fail("interval/matrix rounds exceed 2n^2")
        if is_stable(inst, man1) != 1:
            fail("man-optimal marriage unstable")
        for m in range(n):
            lo, hi = state3.man[m]
            if inst.man_pref[m][lo] != man3.match[m]:
                fail("interval lower end is not the man-optimal partner")
            if inst.man_pref[m][hi] != woman3.match[m]:
                fail("interval upper end is not the woman-optimal partner")
        if final5 != final6:
            fail("matrix fixed points disagree")

        if i < 100:
            small = gen_sm(split(seed, i) ^ 0xA5A5, 1 + rng.below(5))
            via_intervals = [
                matrix_of_intervals(small, s) for s in delayed_interval_states(small)
            ]
            _, _, _, steps = interval_logic_run(small)
            if via_intervals != steps:
                failures.append(
                    (i, "per-step interval/matrix mismatch\n" + serialize_sm(small))
                )

        if n <= 5:
            stables = all_stable_marriages(inst)
            if man1 not in stables:
                fail("man-optimal not among stable marriages")
            mrank = [
                {w: r for r, w in enumerate(inst.man_pref[m])} for m in range(n)
            ]
            for m in range(n):
                best = min((mar.match[m] for mar in stables), key=lambda w: mrank[m][w])
                if man1.match[m] != best:
                    fail("man-optimal partner is not the best stable partner")
    return cases, failures


def _monotone_rows(pref, one_first):
    """All candidate matrix rows: a prefix of k ones (or zeros) along the
    preference order, k >= 1, in identity indexing."""
    n = len(pref)
    out = []
    for k in range(1, n + 1):
        row = [0] * n
        for r, q in enumerate(pref):
            good = 1 if r < k else 0
            row[q] = good if one_first else 1 - good
        out.append(tuple(row))
    return out


def _suite_feasible(cases, seed):
    failures = []
    for i in range(cases):
        rng = SplitMix(split(seed, i))
        n = 1 + (i % 4)
        inst = gen_sm(rng.next64(), n)
        fail = lambda msg: failures.append((i, msg + "\n" + serialize_sm(inst)))

        stables = all_stable_marriages(inst)
        mm_rows = [_monotone_rows(inst.man_pref[m], True) for m in range(n)]
        ww_rows = [_monotone_rows(inst.woman_pref[w], False) for w in range(n)]
        found = []
        for mm in itertools.product(*mm_rows):
            for ww in itertools.product(*ww_rows):
                from .stable_marriage import MatrixPair

                mp = MatrixPair(mm, ww)
                if is_feasible_pair(inst, mp):
                    found.append(mp)
        if len(found) != len(stables):
            fail(f"{len(found)} feasible pairs vs {len(stables)} stable marriages")
        for mar in stables:
            mp = marriage_to_feasible(inst, mar)
            if not is_feasible_pair(inst, mp):
                fail("marriage_to_feasible output infeasible")
            if feasible_to_marriage(inst, mp) != mar:
                fail("marriage round-trip broken")
        for mp in found:
            mar = feasible_to_marriage(inst, mp)
            if mar not in stables:
                fail("feasible pair decodes to an unstable marriage")
            if marriage_to_feasible(inst, mar) != mp:
                fail("matrix round-trip broken")
    return cases, failures


def _suite_sm_to_ccv(cases, seed):
    failures = []
    for i in range(cases):
        rng = SplitMix(split(seed, i))
        n = 1 + rng.below(4)
        inst = gen_sm(rng.next64(), n)
        man_opt, _ = gale_shapley(inst)
        swapped, _ = gale_shapley(swap_sexes(inst))
        woman_match = [0] * n
        for w in range(n):
            woman_match[swapped.match[w]] = w
        prefix = _sm_rail_prefix(inst)
        bad = None
        for m in range(n):
            for w in range(n):
                want_m = 1 if man_opt.match[m] == w else 0
                want_w = 1 if woman_match[m] == w else 0
                got_m = _optimal_pair_circuit(inst, (m, w), "m", prefix).answer()
                got_w = _optimal_pair_circuit(inst, (m, w), "w", prefix).answer()
                if got_m != want_m:
                    bad = f"man-optimal pair ({m},{w}): {got_m} != {want_m}"
                if got_w != want_w:
                    bad = f"woman-optimal pair ({m},{w}): {got_w} != {want_w}"
        # the public constructors must agree with the shared-prefix path
        pair = (rng.below(n), rng.below(n))
        if mosm_to_ccv(inst, pair).answer() != (
            1 if man_opt.match[pair[0]] == pair[1] else 0
        ):
            bad = f"mosm_to_ccv disagrees on {pair}"
        if wosm_to_ccv(inst, pair).answer() != (
            1 if woman_match[pair[0]] == pair[1] else 0
        ):
            bad = f"wosm_to_ccv disagrees on {pair}"
        if bad:
            failures.append((i, bad + "\n" + serialize_sm(inst)))
    return cases, failures


# -- reachability ------------------------------------------------------------

def _suite_reachability(cases, seed):
    failures = []
    for i in range(cases):
        rng = SplitMix(split(seed, i))
        g = gen_digraph(rng.next64(), 8, 0.1 + 0.1 * rng.below(4))
        src = rng.below(g.n)
        layered, node_map = layer(g, src)
        circuit = reach_to_ccv(layered, node_map[rng.below(g.n)])
        outputs, _, _ = eval(circuit, (), with_trace=False)
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
            failures.append((i, bad + "\n" + serialize_digraph(g) + f"src {src}"))
    return cases, failures


# -- structural invariants ----------------------------------------------------

def _suite_structural(cases, seed):
    failures = []
    for i in range(cases):
        rng = SplitMix(split(seed, i))
        c = gen_circuit(rng.next64(), 8, 16, with_neg=False)
        fail = lambda msg: failures.append((i, msg + "\n" + serialize_circuit(c)))

        x = rng.bits(c.num_inputs)
        start = resolve_inputs(c, x)
        outputs, _, _ = eval(c, x, with_trace=False)
        if sum(start) != sum(outputs):
            fail("popcount not conserved")

        distinct = _distinct_inputs(c)
        table = lipschitz.circuit_function(distinct)
        if lipschitz.is_one_lipschitz(table, strict=True) != 1:
            fail("wire function is not strictly 1-Lipschitz")
        m = c.num_wires
        for r in range(len(table.rows)):
            if bin(r).count("1") % 2 != sum(table.rows[r]) % 2:
                fail("popcount conservation broken in the full table")
                break
            mono = True
            for b in range(m):
                up = r | (1 << b)
                if up != r and any(
                    p > q for p, q in zip(table.rows[r], table.rows[up])
                ):
                    mono = False
            if not mono:
                fail("monotonicity broken")
                break

        tri_x = [rng.choice((0, STAR, 1)) for _ in range(c.num_inputs)]
        finer = [v if v != STAR else rng.choice((0, STAR, 1)) for v in tri_x]
        coarse, _, _ = eval_tri(c, tri_x, with_trace=False)
        fine, _, _ = eval_tri(c, finer, with_trace=False)
        if not all(refines(f, g) for f, g in zip(fine, coarse)):
            fail("three-valued refinement broken")
    return cases, failures


def _suite_strictification(cases, seed):
    failures = []
    fixed = 0
    if cases > 0:
        fixed = 2
        ident = lipschitz.TruthTable(
            2, 2, tuple(((r >> 0) & 1, (r >> 1) & 1) for r in range(4))
        )
        if lipschitz.is_one_lipschitz(ident, strict=True) != 1:
            failures.append((0, "identity should be strictly 1-Lipschitz"))
        const = lipschitz.TruthTable(2, 1, ((0,),) * 4)
        if lipschitz.is_one_lipschitz(const) != 1 or lipschitz.is_one_lipschitz(
            const, strict=True
        ):
            failures.append((1, "constant should be weak but not strict"))
        g = lipschitz.strictify(const)
        if lipschitz.is_one_lipschitz(g, strict=True) != 1:
            failures.append((1, "strictified constant is not strict"))
    for i in range(cases):
        rng = SplitMix(split(seed, i))
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
            failures.append((fixed + i, bad + "\n" + serialize_circuit(c)))
    return fixed + cases, failures


# -- formats -----------------------------------------------------------------

def _suite_formats(cases, seed):
    failures = []
    fixed = 0
    if cases > 0:
        names = [
            "annotated_demo.ccv",
            "const_demo.ccv",
            "negation_demo.ccv",
            "greedy_demo.graph",
            "cover_demo.graph",
            "edge_decision_demo.graph",
            "reach_demo.digraph",
        ]
        fixed = len(names) + 1
        for k, name in enumerate(names):
            text = fixture_text(name)
            if name.endswith(".ccv"):
                again = serialize_circuit(parse_circuit(text))
            elif name.endswith(".graph"):
                again = serialize_graph(*parse_graph(text))
            else:
                again = serialize_digraph(parse_digraph(text))
            if again != text:
                failures.append((k, f"fixture {name} does not round-trip"))
        ra = run_suite("tri-lowering", 5, 7)
        rb = run_suite("tri-lowering", 5, 7)
        if ra != rb or render_report(ra) != render_report(rb):
            failures.append((fixed - 1, "repeated runs must render identically"))
    for i in range(cases):
        rng = SplitMix(split(seed, i))
        c = gen_circuit(rng.next64(), 6, 10, with_neg=bool(rng.below(2)))
        g = gen_bipartite(rng.next64(), 6, 6, 0.3)
        desig = rng.choice(
            [None, ("top", rng.below(g.num_top)), ("edge", (0, 0))]
        )
        inst = gen_sm(rng.next64(), 1 + rng.below(6))
        dg = gen_digraph(rng.next64(), 8, 0.3)
        bad = None
        if parse_circuit(serialize_circuit(c)) != c:
            bad = "circuit round-trip"
        text = serialize_circuit(c)
        if serialize_circuit(parse_circuit(text)) != text:
            bad = "circuit canonical text"
        g2, d2 = parse_graph(serialize_graph(g, desig))
        if g2 != g or d2 != desig:
            bad = "graph round-trip"
        if parse_sm(serialize_sm(inst)) != inst:
            bad = "marriage round-trip"
        if parse_digraph(serialize_digraph(dg)) != dg:
            bad = "digraph round-trip"
        if bad:
            failures.append((fixed + i, bad + " failed"))
    return fixed + cases, failures


_SUITES = {
    "golden-fixtures": (_suite_golden, 9),
    "universal": (_suite_universal, 500),
    "tri-lowering": (_suite_tri, 300),
    "reduction-ring": (_suite_reductions, 500),
    "sm-ladder": (_suite_sm_ladder, 300),
    "feasible-pairs": (_suite_feasible, 20),
    "sm-to-ccv": (_suite_sm_to_ccv, 100),
    "reachability": (_suite_reachability, 300),
    "structural-invariants": (_suite_structural, 1000),
    "strictification": (_suite_strictification, 200),
    "formats": (_suite_formats, 200),
}

SUITE_NAMES = tuple(_SUITES) + ("all",)


def run_suite(name: str, cases=None, seed: int = 1) -> Report:
    """Run one property suite; ``cases`` overrides its default volume."""
    if name == "all":
        total = 0
        failures = []
        for sub in _SUITES:
            rep = run_suite(sub, cases, seed)
            for idx, text in rep.failures:
                failures.append((total + idx, f"[{sub}] {text}"))
            total += rep.cases
        return Report("all", total, tuple(failures))
    if name not in _SUITES:
        raise UnknownSuiteError(f"no suite named {name!r}")
    fn, default = _SUITES[name]
    n = default if cases is None else cases
    ran, failures = fn(n, seed)
    return Report(name, ran, tuple(sorted(failures)))


def render_report(report: Report) -> str:
    if report.passed:
        return f"{report.suite}: pass ({report.cases} cases)\n"
    idx, text = report.failures[0]
    body = "\n".join("  " + line for line in text.splitlines())
    return (
        f"{report.suite}: fail ({report.cases} cases, {len(report.failures)} failures)\n"
        f"first counterexample (case {idx}):\n{body}\n"
    )
