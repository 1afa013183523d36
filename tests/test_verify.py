"""Generators, seed splitting, and the suite runner."""

import hashlib
import itertools
import re

import pytest

from cckit import lipschitz, verify
from cckit.circuit import STAR, Circuit, Const, Input
from cckit.cli import main
from cckit.errors import BadShapeError
from cckit.formats import (
    parse_circuit,
    parse_digraph,
    serialize_circuit,
    serialize_digraph,
    serialize_sm,
)
from cckit.matching import max_degree
from cckit.stable_marriage import (
    MatrixPair,
    all_stable_marriages,
    feasible_to_marriage,
    is_feasible_pair,
)
from cckit.verify import (
    Report,
    SUITES,
    SplitMix,
    candidate_pair,
    feasible_candidates,
    gen_bipartite,
    gen_circuit,
    gen_digraph,
    gen_sm,
    render_report,
    run_suite,
    split,
)

# frozen first-run hashes; any change to the PRNG or the generators is a
# compatibility break and should be a deliberate one
CIRCUIT_42 = "96080be3111e7db6ef6794ba94e162efb44c1ac7c48593300ae1a316a5727944"
SM_42 = "e287407d1bc76e33a8b766ffdc71aa66fbe4a180016b13b761c5566ed0c66725"


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_splitmix_is_deterministic():
    a = SplitMix(12345)
    b = SplitMix(12345)
    assert [a.next64() for _ in range(5)] == [b.next64() for _ in range(5)]
    assert all(0 <= SplitMix(s).next64() < 2**64 for s in range(50))


def test_split_gives_independent_streams():
    seeds = {split(1, i) for i in range(200)}
    assert len(seeds) == 200
    assert split(1, 0) != split(2, 0)


def test_shuffle_and_choice_bounds():
    rng = SplitMix(9)
    xs = list(range(10))
    rng.shuffle(xs)
    assert sorted(xs) == list(range(10))
    assert rng.choice(("a", "b")) in ("a", "b")
    assert 0 <= rng.below(7) < 7


def test_frozen_generator_hashes():
    assert sha(serialize_circuit(gen_circuit(42, 6, 12, False))) == CIRCUIT_42
    assert sha(serialize_sm(gen_sm(42, 5))) == SM_42


def test_generator_bounds():
    for seed in range(30):
        c = gen_circuit(seed, 4, 6, with_neg=False)
        assert 1 <= c.num_wires <= 4
        assert len(c.gates) <= 6
        assert not c.has_negations
        g = gen_bipartite(seed, 3, 5, 0.5)
        assert 1 <= g.num_bottom <= 3 and 1 <= g.num_top <= 5
        d = gen_digraph(seed, 6, 0.4)
        assert 1 <= d.n <= 6
    assert gen_bipartite(7, 4, 4, 0.0).edges == frozenset()
    assert gen_digraph(7, 5, 1.0).edges != frozenset()


def test_generator_bad_bounds():
    with pytest.raises(BadShapeError):
        gen_circuit(1, 0, 5)
    with pytest.raises(BadShapeError):
        gen_circuit(1, 3, -1)
    with pytest.raises(BadShapeError):
        gen_sm(1, 0)
    with pytest.raises(BadShapeError):
        gen_bipartite(1, 0, 2, 0.5)
    with pytest.raises(BadShapeError):
        gen_digraph(1, 0, 0.5)


def test_gen_sm_n1_is_the_unique_instance():
    inst = gen_sm(123, 1)
    assert inst.man_pref == ((0,),) and inst.woman_pref == ((0,),)


def test_unknown_suite():
    with pytest.raises(BadShapeError, match="no suite named 'definitely-not-a-suite'"):
        run_suite("definitely-not-a-suite")


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_zero_cases_is_vacuous(name):
    rep = run_suite(name, 0)
    assert rep == Report(name, 0, ())
    assert rep.passed
    assert render_report(rep) == f"{name}: pass (0 cases)\n"


def test_negative_volume_is_rejected(capsys):
    from cckit.cli import main

    with pytest.raises(BadShapeError, match="at least 0, not -5"):
        run_suite("universal", -5)
    assert main(["verify", "all", "--cases", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "at least 0, not -1" in out.err


def test_reports_are_pure_functions_of_inputs():
    a = run_suite("reduction-ring", 12, seed=31337)
    b = run_suite("reduction-ring", 12, seed=31337)
    assert a == b
    assert render_report(a) == render_report(b)
    c = run_suite("reduction-ring", 12, seed=5)
    assert c.passed  # different instances, same verdict


def test_injected_mutation_is_caught_and_serialized():
    verify._flip_expected = True
    try:
        rep = run_suite("universal", 3, seed=8)
        assert not rep.passed
        # the fixed gadget check is case 0, so random case 0 reports as 1
        assert rep.cases == 4
        assert [idx for idx, _ in rep.failures] == [1]
        assert "CCV v1" in rep.failures[0][1]
        text = render_report(rep)
        assert "fail" in text and "counterexample" in text
        assert text.startswith("universal: fail (4 cases, 1 failures)\n")
        rep2 = run_suite("reduction-ring", 3, seed=8)
        assert not rep2.passed
        # one case may fail several checks; each is its own failure
        assert rep2.cases == 3
        assert [idx for idx, _ in rep2.failures] == [0, 0]
        assert rep2.failures[0][1].startswith("coverage lowering wrong:")
        assert rep2.failures[1][1].startswith("edge lowering wrong:")
    finally:
        verify._flip_expected = False
    assert run_suite("universal", 3, seed=8).passed


def test_universal_suite_checks_every_input_vector(monkeypatch):
    from cckit.circuit import Comparator, eval, resolve_inputs
    from cckit.universal import build_universal, encode_control

    def mutant(m, n):
        # one comparator too many: wrong where data wires 0 and 2 end as 1, 0
        u = build_universal(m, n)
        if m < 3:
            return u
        return Circuit(u.num_wires, u.annotations, u.gates + (Comparator(0, 2),), 0)

    def one_vector_case(rng):
        # the suite's check before it took every input: one drawn vector
        c = gen_circuit(rng.next64(), 6, 12, with_neg=False)
        m = max(2, c.num_wires + rng.below(2))
        n = len(c.gates) + rng.below(3)
        x = rng.bits(c.num_inputs)
        y = list(resolve_inputs(c, x)) + [0] * (m - c.num_wires)
        return eval(mutant(m, n), list(encode_control(c, m, n)) + y)[1] == eval(c, x)[0][0]

    assert run_suite("universal", 10, seed=20).passed
    assert all(one_vector_case(SplitMix(split(20, i))) for i in range(10))
    monkeypatch.setattr(verify, "build_universal", mutant)
    rep = run_suite("universal", 10, seed=20)
    assert [idx for idx, _ in rep.failures] == [2, 3, 5]  # the gadget check is case 0
    # the lowest failing vector of random case 1, x0 = x1 = 1
    assert rep.failures[0][1].startswith("expected 1, got 0; circuit (x 11):\nCCV v1\n")


def test_fixed_checks_number_their_own_cases(monkeypatch):
    # a wrong rail decoding fails every gate-table row with a 0 or 1 in it;
    # each row reports as its own case, ahead of the random case
    monkeypatch.setattr(verify, "_RAIL_DECODE", {(0, 0): 1, (0, 1): STAR, (1, 1): 0})
    rep = run_suite("tri-lowering", 1, seed=3)
    assert rep.cases == 10
    assert [idx for idx, _ in rep.failures] == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    assert rep.failures[4][1].startswith("gate table row (*,1):")


def test_each_golden_row_fails_alone_and_names_its_fixture(monkeypatch):
    golden = verify._GOLDEN
    assert len(golden) == 9
    assert not [name for name in vars(verify) if name.startswith("_chk_")]
    for row, (name, compute, _) in enumerate(golden):
        perturbed = golden[:row] + ((name, compute, "perturbed"),) + golden[row + 1 :]
        monkeypatch.setattr(verify, "_GOLDEN", perturbed)
        rep = run_suite("golden-fixtures")
        assert [idx for idx, _ in rep.failures] == [row]
        msg = rep.failures[0][1]
        assert msg.startswith("expected 'perturbed', got ")
        assert msg.endswith(f"; fixture {name}:\n{verify.fixture_text(name)}")


def test_three_degree_outputs_hold_the_bound():
    # cheap spot check apart from the big suite
    from cckit.reductions import ccv_to_3vlfmm, close_circuit, to_all_up

    rng = SplitMix(77)
    for _ in range(20):
        c = gen_circuit(rng.next64(), 5, 8, with_neg=False)
        up, _ = to_all_up(close_circuit(c, rng.bits(c.num_inputs)))
        g, _, _ = ccv_to_3vlfmm(up)
        assert max_degree(g) <= 3


def test_reachability_counterexample_replays(monkeypatch):
    monkeypatch.setattr(verify, "reachable_set", lambda g, src: set())
    rep = run_suite("reachability", 3, seed=5)
    assert len(rep.failures) == 3
    for _, text in rep.failures:
        head, _, body = text.partition("\n")
        found = re.fullmatch(r"(layered )?node \d+ (verdict|marker) wrong \(src (\d+)\)", head)
        assert found, head
        g = parse_digraph(body)
        assert serialize_digraph(g) == body
        assert 0 <= int(found.group(3)) < g.n


def test_structural_counterexamples_name_their_vectors(monkeypatch, capsys, tmp_path):
    real = verify.resolve_inputs
    monkeypatch.setattr(verify, "resolve_inputs", lambda c, x: real(c, x) + (1,))
    monkeypatch.setattr(verify, "refines", lambda fine, coarse: False)
    rep = run_suite("structural-invariants", 4, seed=2)
    messages = [text for _, text in rep.failures]
    assert len(messages) == 8
    path = tmp_path / "c.ccv"
    for text in messages:
        head, _, body = text.partition("\n")
        c = parse_circuit(body)
        path.write_text(body)
        pop = re.fullmatch(r"popcount not conserved \(x ([01]*)\)", head)
        tri = re.fullmatch(
            r"three-valued refinement broken \(tri_x ([01*]*), finer ([01*]*)\)", head
        )
        assert pop or tri, head
        if pop:
            vectors = [("--input", pop.group(1))]
        else:
            vectors = [("--tri", tri.group(1)), ("--tri", tri.group(2))]
            assert all(
                a == b or a == "*" for a, b in zip(tri.group(1), tri.group(2))
            )
        for flag, value in vectors:
            assert len(value) == c.num_inputs
            assert main(["eval", str(path), flag, value]) in (0, 1)
    capsys.readouterr()


# -- the column checks against the row loops they replaced -------------------

def old_case_structural(rng, i):
    """_case_structural as it was when it walked the full table row by row."""
    c = gen_circuit(rng.next64(), 8, 16, with_neg=False)
    show = lambda msg: msg + "\n" + serialize_circuit(c)

    x = rng.bits(c.num_inputs)
    start = verify.resolve_inputs(c, x)
    outputs, _ = verify.eval(c, x)
    if sum(start) != sum(outputs):
        yield show(f"popcount not conserved (x {verify._vector_text(x)})")

    distinct = verify._distinct_inputs(c)
    table = lipschitz.circuit_function(distinct)
    if lipschitz.is_one_lipschitz(table, strict=True) != 1:
        yield show("wire function is not strictly 1-Lipschitz")
    m = c.num_wires
    for r in range(len(table.rows)):
        if bin(r).count("1") % 2 != sum(table.rows[r]) % 2:
            yield show("popcount conservation broken in the full table")
            break
        mono = True
        for b in range(m):
            up = r | (1 << b)
            if up != r and any(
                p > q for p, q in zip(table.rows[r], table.rows[up])
            ):
                mono = False
        if not mono:
            yield show("monotonicity broken")
            break

    tri_x = [rng.choice((0, STAR, 1)) for _ in range(c.num_inputs)]
    finer = [v if v != STAR else rng.choice((0, STAR, 1)) for v in tri_x]
    coarse, _ = verify.eval_tri(c, tri_x)
    fine, _ = verify.eval_tri(c, finer)
    if not all(verify.refines(f, g) for f, g in zip(fine, coarse)):
        yield show(
            "three-valued refinement broken"
            f" (tri_x {verify._vector_text(tri_x)}, finer {verify._vector_text(finer)})"
        )


def old_ring_circuit_checks(rng, i):
    """The circuit-side checks that open _case_reductions, as they were when
    they ran scalar eval over itertools.product."""
    c = gen_circuit(rng.next64(), 5, 8, with_neg=False)
    k = c.num_inputs
    down, down_map = verify.normalize_down(c)
    nd = sum(1 for g in c.gates if not g.is_dummy)
    if not down.is_all_down:
        yield "normalize_down output not all-down"
    if down.num_wires != c.num_wires + 2 * nd or len(down.gates) != 3 * nd:
        yield "normalize_down size off"
    dd = verify.dual(c)
    for bits in itertools.product((0, 1), repeat=k):
        base, _ = verify.eval(c, bits)
        through, _ = verify.eval(down, bits)
        if any(base[w] != through[down_map[w]] for w in range(c.num_wires)):
            yield "normalize_down wire map broken:\n" + serialize_circuit(c)
            break
        douts, _ = verify.eval(dd, bits)
        if any(douts[w] != 1 - base[w] for w in range(c.num_wires)):
            yield "dual must negate every wire:\n" + serialize_circuit(c)
            break
    if verify.dual(dd) != c:
        yield "dual is not an involution"


def which_first(a_rows, b_rows):
    """Which of two ascending failing-row lists fails first: "a", "b",
    "tie", or "alone" when at most one of them fails at all."""
    if not a_rows or not b_rows:
        return "alone"
    a, b = a_rows[0], b_rows[0]
    return "tie" if a == b else ("a" if a < b else "b")


def test_structural_columns_report_what_the_row_loop_reported(monkeypatch):
    real = verify.eval_batch
    flips = {}

    def flipped(c, columns, count):
        # flip one or two (wire, row) bits, drawn per case
        cols = real(c, columns, count)
        rng = flips["rng"]
        for _ in range(1 + rng.below(2)):
            cols[rng.below(len(cols))] ^= 1 << rng.below(count)
        flips["cols"] = list(cols)
        return cols

    monkeypatch.setattr(verify, "eval_batch", flipped)
    monkeypatch.setattr(lipschitz, "eval_batch", flipped)
    orders = set()
    for i in range(300):
        got = []
        for case in (verify._case_structural, old_case_structural):
            flips["rng"] = SplitMix(split(17, i))
            got.append(list(case(SplitMix(split(5, i)), i)))
        assert got[0] == got[1], i
        cols = flips["cols"]
        count = 1 << len(cols)
        rows = [[(w >> r) & 1 for w in cols] for r in range(count)]
        pop = [r for r in range(count) if (bin(r).count("1") + sum(rows[r])) % 2]
        mono = [
            r for r in range(count)
            if any(
                rows[r][w] > rows[r | 1 << b][w]
                for b in range(len(cols)) for w in range(len(cols))
            )
        ]
        orders.add(which_first(pop, mono))
    # popcount and monotonicity failed on the same row, and each failed first
    assert {"tie", "a", "b"} <= orders


@pytest.mark.parametrize("broken", ["dual", "normalize_down", "both"])
def test_ring_columns_report_what_the_product_loop_reported(monkeypatch, broken):
    real_dual, real_down = verify.dual, verify.normalize_down

    def dual_missing_a_wire(c):
        # wire w starts from a constant: right on the vectors whose input
        # x_j is 0 if it reads x_j, wrong on every vector if it is constant
        d = real_dual(c)
        anns = list(d.annotations)
        w = len(c.gates) % c.num_wires
        anns[w] = Const(1 if isinstance(c.annotations[w], Input) else 0)
        return Circuit(d.num_wires, tuple(anns), d.gates, d.output_wire)

    def down_map_off_by_one(c):
        # one wire reads its right neighbour's holder
        down, wire_map = real_down(c)
        m = c.num_wires
        w = len(c.gates) // 2 % m
        return down, {**wire_map, w: wire_map[(w + 1) % m]}

    if broken in ("dual", "both"):
        monkeypatch.setattr(verify, "dual", dual_missing_a_wire)
    if broken in ("normalize_down", "both"):
        monkeypatch.setattr(verify, "normalize_down", down_map_off_by_one)
    orders = set()
    heads = set()
    for i in range(200):
        got = [
            list(case(SplitMix(split(23, i)), i))
            for case in (verify._case_reductions, old_ring_circuit_checks)
        ]
        assert got[0] == got[1], i
        heads.update(msg.partition(":")[0] for msg in got[1])
        c = gen_circuit(SplitMix(split(23, i)).next64(), 5, 8, with_neg=False)
        down, down_map = verify.normalize_down(c)
        dd = verify.dual(c)
        map_rows, dual_rows = [], []
        for r, bits in enumerate(itertools.product((0, 1), repeat=c.num_inputs)):
            base, through, douts = (verify.eval(x, bits)[0] for x in (c, down, dd))
            if any(base[w] != through[down_map[w]] for w in range(c.num_wires)):
                map_rows.append(r)
            if any(douts[w] == base[w] for w in range(c.num_wires)):
                dual_rows.append(r)
        orders.add(which_first(map_rows, dual_rows))
    want = {
        "dual": {"dual must negate every wire"},
        "normalize_down": {"normalize_down wire map broken"},
        "both": {"dual must negate every wire", "normalize_down wire map broken"},
    }[broken]
    assert want <= heads
    if broken == "both":
        # the wire map and the dual failed on the same row, and each first
        assert {"tie", "a", "b"} <= orders


def product_candidates(inst):
    """Every candidate matrix pair, in the order the feasible-pairs suite
    enumerated them before it was bitsliced: itertools.product over the
    men's monotone rows, then the women's."""

    def rows(pref, one_first):
        out = []
        for k in range(1, len(pref) + 1):
            row = [0] * len(pref)
            for r, q in enumerate(pref):
                row[q] = int((r < k) == one_first)
            out.append(tuple(row))
        return out

    mm_rows = [rows(p, True) for p in inst.man_pref]
    ww_rows = [rows(p, False) for p in inst.woman_pref]
    for mm in itertools.product(*mm_rows):
        for ww in itertools.product(*ww_rows):
            yield MatrixPair(mm, ww)


def test_bitsliced_feasible_candidates_match_the_scalar_loop():
    # every instance of the suite's own default run: seed 1, n = 1 + i % 4
    counts = []
    for i in range(SUITES["feasible-pairs"].default):
        inst = gen_sm(SplitMix(split(1, i)).next64(), 1 + i % 4)
        want = [(r, mp) for r, mp in enumerate(product_candidates(inst)) if is_feasible_pair(inst, mp)]
        got = feasible_candidates(inst)
        assert [(r, candidate_pair(inst, r)) for r in got] == want, i
        counts.append(len(got))
    assert max(counts) > 1


def test_every_candidate_decodes_in_product_order():
    for n in (1, 2, 3):
        inst = gen_sm(99, n)
        every = list(product_candidates(inst))
        assert [candidate_pair(inst, r) for r in range(n ** (2 * n))] == every


@pytest.mark.parametrize("seed", [1, 5])
def test_feasible_pairs_at_n5_are_the_stable_marriages(seed):
    # 5^10 = 9,765,625 candidates; above the suite's n <= 4
    inst = gen_sm(seed, 5)
    marriages = [feasible_to_marriage(inst, candidate_pair(inst, r)) for r in feasible_candidates(inst)]
    assert len(set(marriages)) == len(marriages)
    assert set(marriages) == all_stable_marriages(inst)
