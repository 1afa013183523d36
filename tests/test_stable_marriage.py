"""The algorithm ladder, interval and matrix representations."""

import hashlib

import pytest

from cckit.circuit import STAR, tri_and, tri_or
from cckit.errors import BadShapeError, PreconditionViolatedError, TooLargeError
from cckit.matching import BipartiteGraph
from cckit.stable_marriage import (
    _inverse,
    _matrix_fixed_point,
    Marriage,
    MatrixPair,
    SMInstance,
    all_stable_marriages,
    delayed_interval_run,
    delayed_interval_states,
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
from cckit.formats import serialize_circuit
from cckit.reductions import lfmm3_to_sm, sm_to_tri_circuit
from cckit.verify import SplitMix, gen_sm, split

# a 4x4 instance with several stable marriages, good for optimality checks
RICH = SMInstance(
    4,
    ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
    ((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3)),
)


def test_instance_validation():
    with pytest.raises(BadShapeError):
        SMInstance(2, ((0, 0), (0, 1)), ((0, 1), (1, 0)))
    with pytest.raises(BadShapeError):
        SMInstance(0, (), ())
    with pytest.raises(BadShapeError):
        SMInstance(2, ((0, 1),), ((0, 1), (1, 0)))


def test_marriage_validation():
    with pytest.raises(BadShapeError):
        Marriage((0, 0))
    assert Marriage((1, 0)).pairs == frozenset({(0, 1), (1, 0)})


def test_inverse_rejects_a_non_permutation():
    assert _inverse((2, 0, 1)) == (1, 2, 0)
    assert _inverse(()) == ()
    for bad in ((0, 0, 1), (1, 2), (-1, 0)):
        with pytest.raises(BadShapeError, match="is not a permutation"):
            _inverse(bad)


def test_n1():
    inst = SMInstance(1, ((0,),), ((0,),))
    mar, rounds = gale_shapley(inst)
    assert mar.match == (0,)
    assert rounds <= 1
    assert all_stable_marriages(inst) == {mar}


def test_proposals_find_man_optimal():
    mar, _ = gale_shapley(RICH)
    stables = all_stable_marriages(RICH)
    assert mar in stables
    assert len(stables) > 1
    for m in range(4):
        ranks = {w: r for r, w in enumerate(RICH.man_pref[m])}
        assert ranks[mar.match[m]] == min(ranks[s.match[m]] for s in stables)


def test_woman_optimal_by_symmetry():
    man, woman, _ = symmetric_gs(RICH)
    assert man == gale_shapley(RICH)[0]
    swapped, _ = gale_shapley(swap_sexes(RICH))
    expect = [0] * 4
    for w in range(4):
        expect[swapped.match[w]] = w
    assert woman.match == tuple(expect)


def test_ladder_agreement_and_bounds():
    for seed in range(40):
        n = 1 + seed % 6
        inst = gen_sm(seed * 77 + 5, n)
        man1, r1 = gale_shapley(inst)
        man2, woman2, r2 = symmetric_gs(inst)
        man3, woman3, state3, r3 = interval_run(inst)
        man4, woman4, state4, r4 = delayed_interval_run(inst)
        sm5, sw5, final5, r5 = interval_logic_run(inst)
        sm6, sw6, final6, r6 = subramanian_run(inst)
        assert man1 == man2 == man3 == man4 == sm5 == sm6
        assert woman2 == woman3 == woman4 == sw5 == sw6
        assert r1 <= n * n and r2 <= n * n
        assert max(r3, r4, r5, r6) <= 2 * n * n
        assert state3 == state4
        assert final5 == final6
        assert is_stable(inst, man1) == 1


def test_interval_endpoints_are_the_optima():
    _, _, state, _ = interval_run(RICH)
    man, woman, _ = symmetric_gs(RICH)
    for m in range(4):
        lo, hi = state.man[m]
        assert RICH.man_pref[m][lo] == man.match[m]
        assert RICH.man_pref[m][hi] == woman.match[m]
    for w in range(4):
        lo, hi = state.woman[w]
        assert RICH.woman_pref[w][lo] == woman.match.index(w)
        assert RICH.woman_pref[w][hi] == man.match.index(w)


def test_delayed_states_start_full():
    states = delayed_interval_states(RICH)
    assert states[0].man == ((0, 3),) * 4
    assert states[0].woman == ((0, 3),) * 4
    assert states[-1] == delayed_interval_run(RICH)[2]


def test_per_step_matrix_equality():
    for seed in (3, 14, 159, 2653):
        inst = gen_sm(seed, 1 + seed % 5)
        via = [matrix_of_intervals(inst, s) for s in delayed_interval_states(inst)]
        steps = interval_logic_steps(inst)
        assert via == steps
        assert interval_logic_run(inst)[3] == len(steps) - 1


def test_matrix_of_intervals_rows():
    inst = SMInstance(2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))
    states = delayed_interval_states(inst)
    mp = matrix_of_intervals(inst, states[0])
    # full intervals: rank 0 pinned, the rest undetermined
    assert mp.MM[0][inst.man_pref[0][0]] == 1
    assert mp.WW[0][inst.woman_pref[0][0]] == 0
    assert STAR in mp.MM[0] or inst.n == 1


def test_is_stable_flags_blocking_pair():
    inst = SMInstance(2, ((0, 1), (0, 1)), ((0, 1), (0, 1)))
    assert is_stable(inst, Marriage((1, 0))) == 0
    assert is_stable(inst, Marriage((0, 1))) == 1


def test_all_stable_marriages_guard():
    inst = gen_sm(1, 9)
    with pytest.raises(TooLargeError):
        all_stable_marriages(inst)


def test_feasible_pair_bijection_small():
    for seed in range(12):
        n = 1 + seed % 4
        inst = gen_sm(1000 + seed, n)
        stables = all_stable_marriages(inst)
        for mar in stables:
            mp = marriage_to_feasible(inst, mar)
            assert is_feasible_pair(inst, mp) == 1
            assert feasible_to_marriage(inst, mp) == mar


def test_feasible_rejects_stars_and_garbage():
    inst = SMInstance(2, ((0, 1), (0, 1)), ((1, 0), (1, 0)))
    mar, _ = gale_shapley(inst)
    mp = marriage_to_feasible(inst, mar)
    assert feasible_to_marriage(inst, mp) == mar
    starry = MatrixPair(((1, STAR), (STAR, 1)), mp.WW)
    with pytest.raises(PreconditionViolatedError, match="matrices must be 0/1 valued"):
        feasible_to_marriage(inst, starry)
    bad = MatrixPair(((0, 0), (0, 0)), ((1, 1), (1, 1)))
    with pytest.raises(PreconditionViolatedError, match="fixed-point equations do not hold"):
        feasible_to_marriage(inst, bad)


def test_fixed_point_matrices_flag_both_optima():
    sm, sw, final, _ = subramanian_run(RICH)
    man, woman, _ = symmetric_gs(RICH)
    assert sm == man and sw == woman
    for m in range(4):
        assert final.MM[m][man.match[m]] == 1
    for w in range(4):
        assert final.WW[w][woman.match.index(w)] == 0


# sha256 over the reprs of every ladder output on LADDER_CASES seeded
# instances, taken before the rank table moved into SMInstance; the
# ladder's own agreement checks cannot see a change that every rung shares
LADDER_CASES = 200
LADDER_SHA = "1a4b779fc9f458c60545123436af7e7d7396d4fbc312b2fe55494437df403861"


def test_ladder_outputs_are_pinned():
    h = hashlib.sha256()
    for i in range(LADDER_CASES):
        inst = gen_sm(split(7, i), 1 + i % 5)
        stables = sorted(all_stable_marriages(inst), key=lambda mar: mar.match)
        outputs = (
            gale_shapley(inst),
            symmetric_gs(inst),
            interval_run(inst),
            delayed_interval_run(inst),
            interval_logic_run(inst),
            subramanian_run(inst),
            delayed_interval_states(inst),
            interval_logic_steps(inst),
            stables,
            [marriage_to_feasible(inst, mar) for mar in stables],
        )
        h.update(repr(outputs).encode())
        h.update(serialize_circuit(sm_to_tri_circuit(inst)).encode())
    assert h.hexdigest() == LADDER_SHA


def test_rank_tables_invert_the_preference_rows():
    for i in range(30):
        inst = gen_sm(split(11, i), 1 + i % 6)
        for pref, rank in ((inst.man_pref, inst.man_rank), (inst.woman_pref, inst.woman_rank)):
            assert type(rank) is tuple and all(type(row) is tuple for row in rank)
            for p in range(inst.n):
                for r in range(inst.n):
                    assert rank[p][pref[p][r]] == r
        swapped = swap_sexes(inst)
        assert (swapped.man_rank, swapped.woman_rank) == (inst.woman_rank, inst.man_rank)


def test_rank_tables_stay_out_of_equality_hash_and_repr():
    twin = SMInstance(4, [list(r) for r in RICH.man_pref], [list(r) for r in RICH.woman_pref])
    assert twin == RICH and hash(twin) == hash(RICH)
    assert twin != swap_sexes(RICH)
    assert repr(RICH) == (
        "SMInstance(n=4, man_pref=((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)), "
        "woman_pref=((3, 2, 1, 0), (2, 3, 0, 1), (1, 0, 3, 2), (0, 1, 2, 3)))"
    )


def naive_matrix_steps(inst, adjacent_only):
    """The matrix engine as first written: every cell of both matrices
    recomputed with tri_and/tri_or on every pass, and a MatrixPair kept
    per step from t = 0."""
    n = inst.n
    MM = [[STAR] * n for _ in range(n)]
    WW = [[STAR] * n for _ in range(n)]
    for m in range(n):
        MM[m][inst.man_pref[m][0]] = 1
    for w in range(n):
        WW[w][inst.woman_pref[w][0]] = 0
    steps = [MatrixPair(tuple(map(tuple, MM)), tuple(map(tuple, WW)))]
    while True:
        newMM = [row[:] for row in MM]
        newWW = [row[:] for row in WW]
        for m in range(n):
            acc = 1
            for i in range(1, n):
                prev_w = inst.man_pref[m][i - 1]
                if adjacent_only:
                    term = WW[prev_w][m]
                else:
                    acc = tri_and(acc, WW[prev_w][m])
                    term = acc
                newMM[m][inst.man_pref[m][i]] = tri_and(MM[m][prev_w], term)
        for w in range(n):
            acc = 0
            for i in range(1, n):
                prev_m = inst.woman_pref[w][i - 1]
                if adjacent_only:
                    term = MM[prev_m][w]
                else:
                    acc = tri_or(acc, MM[prev_m][w])
                    term = acc
                newWW[w][inst.woman_pref[w][i]] = tri_or(WW[w][prev_m], term)
        changed = (newMM != MM) or (newWW != WW)
        MM, WW = newMM, newWW
        steps.append(MatrixPair(tuple(map(tuple, MM)), tuple(map(tuple, WW))))
        if not changed:
            return steps


def square_graph(rng, n):
    """An n x n graph in which every vertex has degree at most 3: each
    bottom takes 1 to 3 random tops that still have room."""
    room = [3] * n
    edges = []
    for i in range(n):
        free = [j for j in range(n) if room[j]]
        rng.shuffle(free)
        for j in free[: 1 + rng.below(3)]:
            edges.append((i, j))
            room[j] -= 1
    return BipartiteGraph(n, n, frozenset(edges))


def test_matrix_engine_matches_the_naive_engine():
    insts = [gen_sm(split(21, i), 1 + i % 9) for i in range(216)]
    insts += [lfmm3_to_sm(square_graph(SplitMix(split(22, i)), 10), 10) for i in range(6)]
    assert sum(inst.n == 20 for inst in insts) == 6
    for inst in insts:
        for adjacent_only in (False, True):
            want = naive_matrix_steps(inst, adjacent_only)
            seen = []
            final, passes = _matrix_fixed_point(inst, adjacent_only, on_step=seen.append)
            assert seen == want
            assert final == want[-1] and passes == len(want) - 1
            run = subramanian_run(inst) if adjacent_only else interval_logic_run(inst)
            assert run[2:] == (final, passes)
        assert interval_logic_steps(inst) == naive_matrix_steps(inst, False)


def test_refinement_ladder_agrees_above_the_suite_cap():
    # the sm-ladder suite draws n <= 6 only
    for i in range(48):
        n = 7 + i % 24
        inst = gen_sm(split(23, i), n)
        man, woman, _ = symmetric_gs(inst)
        for run in (interval_run, delayed_interval_run, interval_logic_run, subramanian_run):
            sm, sw, _, rounds = run(inst)
            assert (sm, sw) == (man, woman)
            assert rounds <= 2 * n * n


# sha256 over the reprs of rungs 1-4's full outputs, rounds and final
# intervals included, above LADDER_SHA's n <= 5: two gen_sm instances
# for each n in 6..30 and the six n = 20 square-graph marriages; taken
# before the rungs came to share one proposal engine and best-suitor step
PROPOSAL_RUNGS_SHA = "561f9e8bd5e272b2e46e48579ce99b07cd5c3fbcb93e350b96f5306c992801ab"


def test_proposal_and_interval_rungs_are_pinned_above_the_ladder_pin():
    insts = [gen_sm(split(24, i), 6 + i // 2) for i in range(50)]
    insts += [lfmm3_to_sm(square_graph(SplitMix(split(22, i)), 10), 10) for i in range(6)]
    assert sorted({inst.n for inst in insts}) == list(range(6, 31))
    h = hashlib.sha256()
    for inst in insts:
        outputs = (gale_shapley(inst), symmetric_gs(inst),
                   interval_run(inst), delayed_interval_run(inst))
        h.update(repr(outputs).encode())
    assert h.hexdigest() == PROPOSAL_RUNGS_SHA
