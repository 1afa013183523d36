"""Seeded traffic for the three workloads.

An op is one user-level request: a short list of ``cckit`` command lines
run in order, each with the exit code and the stdout lines it must
produce.  Ops are a pure function of the seed.  Their input files are
written in the documented text formats, and every expected answer is
computed here, before any timing, by a small oracle that shares no code
with the passes under test (breadth-first search, direct circuit
evaluation, greedy matching, Gale-Shapley).  Only the instance
generators come from ``cckit.verify``, whose output is frozen by hashes
in the test suite.

Ops are laid out in rounds.  Each round holds one op of every kind the
workload mixes, so a run that stops at a round boundary always measures
the same mix, whatever the seed.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass

from cckit.verify import SplitMix, gen_digraph, gen_sm, split


@dataclass(frozen=True)
class Step:
    """One command line.  ``check`` is ("quiet",) for no stdout,
    ("tail", lines) for the last stdout lines, or ("pairs", n, blocks,
    lines) for marriage output whose real-person pairs (both indices
    below n) must equal ``lines`` in each of ``blocks`` blocks."""

    argv: tuple
    rc: int
    check: tuple


@dataclass(frozen=True)
class Op:
    name: str
    files: tuple  # (file name, text) pairs written before the run
    steps: tuple


@dataclass(frozen=True)
class Workload:
    name: str
    round_len: int  # ops per round: one of each kind in the mix
    tail_level: int  # percentile reported as op_tail_ms
    rounds: int  # rounds generated; a run cycles through them
    build: object  # (seed, rounds) -> list of Op
    sizes: str


# -- oracles ------------------------------------------------------------------

def bfs_dist(n, arcs, src):
    succ = [[] for _ in range(n)]
    for u, v in arcs:
        succ[u].append(v)
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def eval_gates(values, gates):
    """Direct evaluation: ("gate", a, b) puts AND on a and OR on b,
    ("neg", w) flips w."""
    vals = list(values)
    for g in gates:
        if g[0] == "neg":
            vals[g[1]] ^= 1
        else:
            a, b = g[1], g[2]
            vals[a], vals[b] = vals[a] & vals[b], vals[a] | vals[b]
    return vals


def greedy_matching(n_bottom, edges):
    """Bottoms in index order, each takes its least free top neighbour."""
    nbrs = [[] for _ in range(n_bottom)]
    for i, j in edges:
        nbrs[i].append(j)
    taken = set()
    pairs = []
    for i in range(n_bottom):
        for j in sorted(nbrs[i]):
            if j not in taken:
                taken.add(j)
                pairs.append((i, j))
                break
    return pairs


def proposer_optimal(pro_pref, acc_pref):
    """Gale-Shapley with the first side proposing; returns its matches."""
    n = len(pro_pref)
    rank = [{p: r for r, p in enumerate(row)} for row in acc_pref]
    nxt = [0] * n
    holder = [None] * n
    free = list(range(n))
    while free:
        p = free.pop()
        a = pro_pref[p][nxt[p]]
        nxt[p] += 1
        q = holder[a]
        if q is None or rank[a][p] < rank[a][q]:
            holder[a] = p
            if q is not None:
                free.append(q)
        else:
            free.append(p)
    match = [None] * n
    for a, p in enumerate(holder):
        match[p] = a
    return match


# -- text formats -------------------------------------------------------------

def digraph_text(n, arcs):
    return "".join(
        ["DIGRAPH v1\n", f"nodes {n}\n"] + [f"arc {u} {v}\n" for u, v in sorted(arcs)]
    )


def circuit_text(anns, gates, output):
    lines = ["CCV v1", f"wires {len(anns)}"]
    lines += [f"annot {w} {a}" for w, a in enumerate(anns)]
    lines += [f"neg {g[1]}" if g[0] == "neg" else f"gate {g[1]} {g[2]}" for g in gates]
    lines.append(f"output {output}")
    return "\n".join(lines) + "\n"


def graph_text(n, edges, target):
    lines = ["GRAPH v1", f"bottom {n}", f"top {n}"]
    lines += [f"edge {i} {j}" for i, j in sorted(edges)]
    lines.append(f"target-edge {target[0]} {target[1]}")
    return "\n".join(lines) + "\n"


def sm_text(inst):
    lines = ["SM v1", f"n {inst.n}"]
    lines += [f"man {i}: " + " ".join(map(str, r)) for i, r in enumerate(inst.man_pref)]
    lines += [f"woman {j}: " + " ".join(map(str, r)) for j, r in enumerate(inst.woman_pref)]
    return "\n".join(lines) + "\n"


def _answer(bit):
    return 0 if bit else 1


# -- pebble ---------------------------------------------------------------------

PEBBLE_N_MAX = 8
# Only the digraphs with the largest circuits: layered, n = 6, 7, 8 make
# 22,716, 57,673 and 129,088 gates.  Smaller digraphs cost little more
# than the CLI call itself, which oracle measures.  With three classes
# the median op sits inside the middle class, not between two.
PEBBLE_SIZES = range(6, PEBBLE_N_MAX + 1)


def _pebble_op(k, case, g, src, target):
    """reduce reach-to-ccv --layer, then eval.  Layered node t*n + v'
    (v' is v with src and 0 swapped) holds a pebble exactly when v is at
    most t arcs from src, so every marker wire is known from BFS."""
    n = g.n
    dist = bfs_dist(n, g.edges, src)
    swap = {src: 0, 0: src}
    big = n * n
    markers = []
    for j in range(big):
        t, v = divmod(j, n)
        hit = dist.get(swap.get(v, v), big) <= t
        markers.append(f"w{big + j}={int(hit)}")
    reach = int(target in dist)
    steps = (
        Step(
            ("reduce", "reach-to-ccv", f"{k}.digraph", f"{k}.ccv",
             "--target", str(target), "--src", str(src), "--layer"),
            0,
            ("quiet",),
        ),
        Step(("eval", f"{k}.ccv"), _answer(reach), ("tail", tuple(markers + [f"answer={reach}"]))),
    )
    name = f"pebble#{k} (reachability case {case}, n={n})"
    return Op(name, ((f"{k}.digraph", digraph_text(n, g.edges)),), steps)


def pebble_ops(seed, rounds):
    """The reachability suite's own cases at this seed, taken in case
    order and dealt into rounds of one digraph per node count 6..8."""
    buckets = {n: [] for n in PEBBLE_SIZES}
    case = 0
    while any(len(b) < rounds for b in buckets.values()):
        rng = SplitMix(split(seed, case))
        g = gen_digraph(rng.next64(), PEBBLE_N_MAX, 0.1 + 0.1 * rng.below(4))
        src = rng.below(g.n)
        target = rng.below(g.n)
        if g.n in buckets and len(buckets[g.n]) < rounds:
            buckets[g.n].append((case, g, src, target))
        case += 1
    ops = []
    for r in range(rounds):
        for n in PEBBLE_SIZES:
            ops.append(_pebble_op(len(ops), *buckets[n][r]))
    return ops


# -- ring -----------------------------------------------------------------------

# Sizes, measured untraced on 2 CPUs with Python 3.11 (medians over nine
# to forty instances; timings on that host drift by up to 20%).  Leg (a)
# is sized to one closed-circuit ring trip of about 210 ms: 3 wires, 3
# comparators and 1 negation take 203-233 ms, of which vlfmm_to_ccv (with
# the neighbours_of_bottom calls under it) is 34% and CCV/graph parsing
# 38%.  One more comparator doubles the trip (411 ms) and one more wire
# adds a third (271 ms); the reduction-ring suite's largest circuit (5
# wires, 8 gates) takes 5.9 s.  Legs (b) and (c) are kept small, a 10x10
# graph at 45-56 ms and a marriage of n = 3 at 32-40 ms (n = 4 takes
# 125 ms), so that leg (a), where the quadratic passes are, holds about
# three quarters of a round.
RING_WIRES, RING_COMPARATORS, RING_NEGATIONS = 3, 3, 1
RING_SQUARE = 10
RING_SM = 3


def _ring_circuit_op(k, rng):
    """Leg (a): a random circuit with negations is carried through
    neg-elim, ccv-to-3vlfmm, lfmm, vlfmm-to-ccv and eval."""
    m = RING_WIRES
    anns = []
    for _ in range(m):
        roll = rng.below(6)
        anns.append(
            "0" if roll == 0 else "1" if roll == 1
            else f"!x{rng.below(m)}" if roll == 2 else f"x{rng.below(m)}"
        )
    kinds = ["neg"] * RING_NEGATIONS + ["gate"] * RING_COMPARATORS
    rng.shuffle(kinds)
    gates = []
    for kind in kinds:
        if kind == "neg":
            gates.append(("neg", rng.below(m)))
        else:
            a = rng.below(m)
            b = (a + 1 + rng.below(m - 1)) % m
            gates.append(("gate", a, b))
    output = rng.below(m)
    used = [int(a.lstrip("!x")) for a in anns if "x" in a]
    x = rng.bits(max(used) + 1 if used else 0)
    start = [
        int(a) if "x" not in a else x[int(a.lstrip("!x"))] ^ a.startswith("!")
        for a in anns
    ]
    want = eval_gates(start, gates)[output]
    bits = "".join(map(str, x))
    tail = ("tail", (f"answer={want}",))
    steps = (
        Step(("reduce", "neg-elim", f"{k}.ccv", f"{k}.rail.ccv"), 0, ("quiet",)),
        Step(("reduce", "ccv-to-3vlfmm", f"{k}.rail.ccv", f"{k}.graph", "--input", bits),
             0, ("quiet",)),
        Step(("lfmm", f"{k}.graph"), _answer(want), tail),
        Step(("reduce", "vlfmm-to-ccv", f"{k}.graph", f"{k}.back.ccv"), 0, ("quiet",)),
        Step(("eval", f"{k}.back.ccv"), _answer(want), tail),
    )
    name = f"ring#{k} (a: circuit, {m} wires, input {bits or '-'})"
    return Op(name, ((f"{k}.ccv", circuit_text(anns, gates, output)),), steps)


def _ring_graph_op(k, rng):
    """Leg (b): a square graph of degree <= 3 goes to a marriage instance
    solved by all six algorithms, and to a negation circuit."""
    n = RING_SQUARE
    top_deg = [0] * n
    edges = []
    for i in range(n):
        free = [j for j in range(n) if top_deg[j] < 3]
        rng.shuffle(free)
        for j in free[: 1 + rng.below(3)]:
            edges.append((i, j))
            top_deg[j] += 1
    edges.sort()
    target = edges[rng.below(len(edges))]
    greedy = greedy_matching(n, edges)
    pairs = tuple(f"m{i} w{j}" for i, j in greedy)
    hit = int(target in greedy)
    steps = [Step(("reduce", "lfmm3-to-sm", f"{k}.graph", f"{k}.sm"), 0, ("quiet",))]
    for alg in range(1, 7):
        steps.append(Step(("gs", f"{k}.sm", "--alg", str(alg)), 0,
                          ("pairs", n, 1 if alg == 1 else 2, pairs)))
    steps.append(Step(("reduce", "lfmm-to-ccvneg", f"{k}.graph", f"{k}.neg.ccv"), 0, ("quiet",)))
    steps.append(Step(("eval", f"{k}.neg.ccv"), _answer(hit), ("tail", (f"answer={hit}",))))
    name = f"ring#{k} (b: {n}x{n} graph, {len(edges)} edges, target {target})"
    return Op(name, ((f"{k}.graph", graph_text(n, edges, target)),), tuple(steps))


def _ring_marriage_op(k, rng):
    """Leg (c): a marriage instance becomes man- and woman-optimal pair
    circuits, each evaluated."""
    inst = gen_sm(rng.next64(), RING_SM)
    m, w = rng.below(inst.n), rng.below(inst.n)
    man_opt = proposer_optimal(inst.man_pref, inst.woman_pref)
    woman_opt = proposer_optimal(inst.woman_pref, inst.man_pref)
    answers = {"mosm": int(man_opt[m] == w), "wosm": int(woman_opt[w] == m)}
    steps = []
    for side, bit in answers.items():
        out = f"{k}.{side}.ccv"
        steps.append(Step(("reduce", f"{side}-to-ccv", f"{k}.sm", out, "--pair", str(m), str(w)),
                          0, ("quiet",)))
        steps.append(Step(("eval", out), _answer(bit), ("tail", (f"answer={bit}",))))
    name = f"ring#{k} (c: marriage n={inst.n}, pair ({m}, {w}))"
    return Op(name, ((f"{k}.sm", sm_text(inst)),), tuple(steps))


def ring_ops(seed, rounds):
    legs = (_ring_circuit_op, _ring_graph_op, _ring_marriage_op)
    return [legs[k % 3](k, SplitMix(split(seed, k))) for k in range(3 * rounds)]


# -- oracle ---------------------------------------------------------------------

# Every suite but reachability, which pebble runs, with its default volume
# and the fixed cases it adds on top of any positive volume.
ORACLE_SUITES = (
    ("golden-fixtures", 9, 0),
    ("universal", 500, 1),
    ("tri-lowering", 300, 9),
    ("reduction-ring", 500, 0),
    ("sm-ladder", 300, 0),
    ("feasible-pairs", 20, 0),
    ("sm-to-ccv", 100, 0),
    ("structural-invariants", 1000, 0),
    ("strictification", 200, 2),
    ("formats", 200, 8),
)
ORACLE_SCALE = 0.2
ORACLE_CASES_PER_OP = 10


def oracle_round():
    """(suite, cases, fixed) per op: each suite's scaled volume cut into
    ops of at most ten cases.  A suite with fixed cases runs them with
    every op, so it runs as one op of its whole volume: each case, fixed
    or not, then runs once per round, as in ``verify all``."""
    out = []
    for suite, default, fixed in ORACLE_SUITES:
        volume = math.ceil(default * ORACLE_SCALE)
        if fixed:
            out.append((suite, volume, fixed))
            continue
        full, rest = divmod(volume, ORACLE_CASES_PER_OP)
        out += [(suite, ORACLE_CASES_PER_OP, fixed)] * full + ([(suite, rest, fixed)] if rest else [])
    return out


def _sm_to_ccv_seed(seed, k, cases, heavy):
    """A case seed whose cases have n = 1..4 in equal shares, the
    remainder going to the largest n when ``heavy``, else the smallest.

    sm-to-ccv is about half of this workload's time, and a case's cost
    grows like n^6 with n drawn uniformly from 1..4 (the first draw of
    the case's stream), so plain seeds would let one run hold twice the
    n = 4 cases of another.  Candidates are tried in a fixed order, so
    the choice is still a function of the seed alone."""
    base, extra = divmod(cases, 4)
    sizes = [1, 2, 3, 4]
    want = sorted(sizes * base + (sizes[4 - extra:] if heavy else sizes[:extra]))
    j = 0
    while True:
        cand = split(split(seed, k), j)
        if sorted(1 + SplitMix(split(cand, i)).below(4) for i in range(cases)) == want:
            return cand
        j += 1


def oracle_ops(seed, rounds):
    plan = oracle_round()
    ops = []
    stratified = 0
    for k in range(len(plan) * rounds):
        suite, cases, fixed = plan[k % len(plan)]
        ran = min(cases, 9) if suite == "golden-fixtures" else cases + fixed
        if suite == "sm-to-ccv":
            case_seed = _sm_to_ccv_seed(seed, k, cases, stratified % 2 == 0)
            stratified += 1
        else:
            case_seed = split(seed, k)
        step = Step(
            ("verify", suite, "--cases", str(cases), "--seed", str(case_seed)),
            0,
            ("tail", (f"{suite}: pass ({ran} cases)",)),
        )
        ops.append(Op(f"oracle#{k} ({suite}, {cases} cases, seed {case_seed})", (), (step,)))
    return ops


WORKLOADS = {
    "pebble": Workload(
        "pebble", len(PEBBLE_SIZES), 70, 24, pebble_ops,
        "reachability-suite digraphs, one per n = 6..8 each round (density 0.1-0.4); "
        "layered to n*n nodes, up to 129,088 gates",
    ),
    "ring": Workload(
        "ring", 3, 90, 120, ring_ops,
        f"(a) {RING_WIRES} wires, {RING_COMPARATORS} comparators, {RING_NEGATIONS} negation; "
        f"(b) {RING_SQUARE}x{RING_SQUARE} graph, degree <= 3; (c) marriage n = {RING_SM}",
    ),
    # The tail is p80: the four slow ops of a round (feasible-pairs,
    # universal and the two sm-to-ccv ops) are 9% of its 44, so p90
    # would fall on the step between them and the rest.
    "oracle": Workload(
        "oracle", len(oracle_round()), 80, 16, oracle_ops,
        f"ten suites at {ORACLE_SCALE:g} of their default volume each round, "
        f"at most {ORACLE_CASES_PER_OP} cases per op except that a suite with "
        "fixed cases runs as one op",
    ),
}


def digest(ops):
    """sha256 over every op's name, input files and expected steps."""
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.name, op.files, op.steps)).encode())
    return h.hexdigest()
