"""Generators, seed splitting, and the suite runner."""

import hashlib

import pytest

from cckit import verify
from cckit.circuit import STAR
from cckit.errors import BadShapeError
from cckit.formats import serialize_circuit, serialize_sm
from cckit.matching import max_degree
from cckit.verify import (
    Report,
    SplitMix,
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
    from cckit.reductions import CcvInstance, ccv_to_3vlfmm, to_all_up
    from cckit.verify import close_circuit

    rng = SplitMix(77)
    for _ in range(20):
        c = gen_circuit(rng.next64(), 5, 8, with_neg=False)
        inst = close_circuit(c, rng.bits(c.num_inputs))
        up, _ = to_all_up(inst.circuit)
        lf, _ = ccv_to_3vlfmm(CcvInstance(up))
        assert max_degree(lf.graph) <= 3
