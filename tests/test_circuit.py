"""Core IR and evaluator behaviour."""

import copy
import inspect
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from cckit.circuit import (
    STAR,
    TRI_CODE,
    TRI_RAILS,
    TRI_VALUE,
    Circuit,
    Comparator,
    Const,
    Input,
    NegInput,
    Negation,
    compose,
    digit_at_least,
    dual,
    eval,
    eval_batch,
    eval_tails,
    eval_tri,
    input_columns,
    mirror,
    normalize_down,
    refines,
    resolve_inputs,
    tri_and,
    tri_not,
    tri_or,
)
from cckit.errors import (
    BadShapeError,
    IndexOutOfRangeError,
    NegationNotSupportedError,
)
from cckit.lipschitz import TruthTable
from cckit.matching import BipartiteGraph
from cckit.reachability import Digraph
from cckit.stable_marriage import IntervalState, MatrixPair, Marriage, SMInstance
from cckit.verify import Report, gen_circuit, split


def wires(n, *anns):
    return tuple(anns) if anns else tuple(Input(i) for i in range(n))


def compared_fields(cls):
    """The names of the fields a value is compared, hashed and shown by."""
    return list(cls._fields)


def assert_value_contract(v, other, text, names, kept=()):
    """``v`` equals only a value of its own class with equal compared
    fields (``other`` differs in one), hashes as the tuple of those fields,
    reads as ``text``, refuses to set or delete each of ``names``, and comes
    back equal, with the same ``kept`` attributes, from pickle and copy."""
    cls = type(v)
    fields = tuple(getattr(v, name) for name in compared_fields(cls))
    assert type(other) is cls and v != other and not v == other
    assert v != fields and v.__eq__(fields) is NotImplemented
    assert hash(v) == hash(fields)
    assert repr(v) == text
    for name in names:
        with pytest.raises(AttributeError) as raised:
            setattr(v, name, 0)
        assert str(raised.value) == f"cannot assign to field {name!r}"
        with pytest.raises(AttributeError) as raised:
            delattr(v, name)
        assert str(raised.value) == f"cannot delete field {name!r}"
    assert tuple(getattr(v, name) for name in compared_fields(cls)) == fields
    copies = [copy.copy(v), copy.deepcopy(v)]
    copies += [pickle.loads(pickle.dumps(v, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for w in copies:
        assert type(w) is cls and w == v and hash(w) == hash(v) and repr(w) == text
        assert [getattr(w, name) for name in kept] == [getattr(v, name) for name in kept]


# Each gate and annotation class: constructor arguments and its repr.
IR_VALUES = [
    (Const, (1,), "Const(value=1)"),
    (Input, (2,), "Input(index=2)"),
    (NegInput, (3,), "NegInput(index=3)"),
    (Comparator, (4, 5), "Comparator(min_wire=4, max_wire=5)"),
    (Negation, (6,), "Negation(wire=6)"),
]


@pytest.mark.parametrize("cls, args, text", IR_VALUES, ids=[c.__name__ for c, _, _ in IR_VALUES])
def test_ir_values_are_frozen_slotted_values(cls, args, text):
    names = compared_fields(cls)
    # the hand-written __init__ takes the fields, in field order
    assert list(inspect.signature(cls.__init__).parameters)[1:] == names
    v = cls(*args)
    assert [getattr(v, name) for name in names] == list(args)
    assert cls(**dict(zip(names, args))) == v
    assert hash(cls(*args)) == hash(v)
    assert_value_contract(v, cls(*(a + 1 for a in args)), text, names + ["unknown"])
    assert not hasattr(v, "__dict__")


# Every other value class: a sample's constructor arguments, those of a
# value differing in one compared field, the sample's repr, and the
# attributes it keeps beside its compared fields.
VALUES = [
    (Circuit, (2, (Input(0), Const(1)), (Comparator(0, 1),), 1),
     (2, (Input(0), Const(1)), (), 1),
     "Circuit(num_wires=2, annotations=(Input(index=0), Const(value=1)), "
     "gates=(Comparator(min_wire=0, max_wire=1),), output_wire=1)",
     ("has_negations",)),
    (BipartiteGraph, (2, 3, {(0, 2), (1, 0)}), (2, 3, {(0, 2)}),
     "BipartiteGraph(num_bottom=2, num_top=3, edges=frozenset({(1, 0), (0, 2)}))",
     ("edges", "by_top")),
    (Digraph, (3, {(0, 1), (1, 2)}), (3, {(0, 1)}),
     "Digraph(n=3, edges=frozenset({(0, 1), (1, 2)}))", ()),
    (TruthTable, (1, 2, ((0, 1), (1, 0))), (1, 2, ((0, 1), (1, 1))),
     "TruthTable(in_bits=1, out_bits=2, rows=((0, 1), (1, 0)))", ()),
    (SMInstance, (2, ((0, 1), (1, 0)), ((1, 0), (0, 1))), (2, ((0, 1), (0, 1)), ((1, 0), (0, 1))),
     "SMInstance(n=2, man_pref=((0, 1), (1, 0)), woman_pref=((1, 0), (0, 1)))",
     ("man_rank", "woman_rank")),
    (Marriage, ((1, 0),), ((0, 1),), "Marriage(match=(1, 0))", ()),
    (IntervalState, (((0, 1), (0, 0)), ((1, 1), (0, 1))), (((0, 1), (0, 0)), ((1, 1), (1, 1))),
     "IntervalState(man=((0, 1), (0, 0)), woman=((1, 1), (0, 1)))", ()),
    (MatrixPair, (((1, STAR),), ((0,),)), (((1, STAR),), ((1,),)),
     "MatrixPair(MM=((1, '*'),), WW=((0,),))", ()),
    (Report, ("formats", 3, ((1, "bad"),)), ("formats", 3, ()),
     "Report(suite='formats', cases=3, failures=((1, 'bad'),))", ()),
]


@pytest.mark.parametrize("cls, args, other, text, kept", VALUES,
                         ids=[row[0].__name__ for row in VALUES])
def test_values_are_frozen_values(cls, args, other, text, kept):
    v = cls(*args)
    assert cls(*args) == v and hash(cls(*args)) == hash(v)
    names = compared_fields(cls) + list(kept) + ["unknown"]
    assert_value_contract(v, cls(*other), text, names, kept)


def test_values_are_equal_only_within_a_class():
    man, woman = ((0, 0),), ((0, 0),)
    assert IntervalState(man, woman) != MatrixPair(man, woman)
    # has_negations is not compared
    c = Circuit(1, (Input(0),), (), 0)
    assert Circuit(1, (Input(0),), (), 0, _negations=True) == c


def test_ir_values_are_equal_only_within_a_class():
    values = [Const(1), Input(1), NegInput(1), Negation(1), Comparator(1, 1)]
    for i, a in enumerate(values):
        for j, b in enumerate(values):
            assert (a == b) == (i == j)
    assert len(set(values)) == len(values)


def test_single_gate_is_min_max():
    c = Circuit(2, wires(2), (Comparator(0, 1),), 0)
    for p in (0, 1):
        for q in (0, 1):
            outputs, answer = eval(c, (p, q))
            assert outputs == (p & q, p | q)
            assert answer == (p & q)


def test_dummy_gate_changes_nothing():
    c = Circuit(2, wires(2), (Comparator(1, 1),), 1)
    assert eval(c, (1, 0))[0] == (1, 0)


def test_empty_circuit_echoes_annotations():
    c = Circuit(3, (Const(1), Input(0), NegInput(0)), (), 2)
    seen = []
    assert eval(c, (0,), on_step=seen.append) == ((1, 0, 1), 1)
    assert seen == [(1, 0, 1)]


def test_arity_checked():
    c = Circuit(2, (Input(0), Input(1)), (), 0)
    with pytest.raises(BadShapeError, match="annotation consumes input 1 but only 1 given"):
        eval(c, (1,))


def test_gate_wires_validated():
    with pytest.raises(IndexOutOfRangeError):
        Circuit(2, wires(2), (Comparator(0, 5),), 0)
    with pytest.raises(IndexOutOfRangeError):
        Circuit(2, wires(2), (), 9)
    with pytest.raises(BadShapeError):
        Circuit(0, (), (), 0)


def test_negation_needs_opt_in():
    c = Circuit(1, (Const(0),), (Negation(0),), 0)
    with pytest.raises(NegationNotSupportedError):
        eval(c, ())
    outputs, answer = eval(c, (), allow_negations=True)
    assert outputs == (1,) and answer == 1
    with pytest.raises(NegationNotSupportedError):
        eval_tri(c, ())


def test_trace_has_one_snapshot_per_gate():
    c = Circuit(2, wires(2), (Comparator(0, 1), Comparator(1, 0)), 0)
    seen = []
    eval(c, (1, 0), on_step=seen.append)
    assert seen == [(1, 0), (0, 1), (1, 0)]


def test_trace_is_built_only_on_request():
    c = Circuit(2, wires(2), (Comparator(0, 1),), 0)
    assert eval(c, (1, 0)) == ((0, 1), 0)
    assert eval_tri(c, (STAR, 0)) == ((0, STAR), 0)


def test_on_step_sees_each_snapshot_as_it_is_made():
    c = Circuit(3, wires(3), (Comparator(0, 1), Negation(2), Comparator(2, 0)), 0)
    seen = []
    assert eval(c, (1, 0, 1), allow_negations=True, on_step=seen.append) == ((0, 1, 0), 0)
    assert seen == [(1, 0, 1), (0, 1, 1), (0, 1, 0), (0, 1, 0)]

    def stop(snap):
        raise RuntimeError(snap)

    with pytest.raises(RuntimeError) as first:
        eval(c, (1, 0, 1), allow_negations=True, on_step=stop)
    assert first.value.args == ((1, 0, 1),)
    tri = Circuit(2, wires(2), (Comparator(0, 1),), 0)
    seen = []
    assert eval_tri(tri, (STAR, 1), on_step=seen.append) == ((STAR, 1), STAR)
    assert seen == [(STAR, 1), (STAR, 1)]


def test_updown_properties():
    up = Circuit(2, wires(2), (Comparator(1, 0),), 0)
    down = Circuit(2, wires(2), (Comparator(0, 1),), 0)
    assert up.is_all_up and not up.is_all_down
    assert down.is_all_down and not down.is_all_up
    dummy = Circuit(1, wires(1), (Comparator(0, 0),), 0)
    assert dummy.is_all_up and dummy.is_all_down


def test_tri_tables():
    order = {0: 0, STAR: 1, 1: 2}
    assert set(TRI_RAILS) == set(order)
    for a in (0, STAR, 1):
        assert TRI_VALUE[TRI_CODE[a]] == a
        first, second = TRI_RAILS[a]
        assert first <= second  # the rail order tri_to_bool keeps
        for b in (0, STAR, 1):
            lo, hi = sorted((a, b), key=order.get)
            assert tri_and(a, b) == lo
            assert tri_or(a, b) == hi
            # on the codes, the chain's min and max are & and |
            assert TRI_VALUE[TRI_CODE[a] & TRI_CODE[b]] == lo, (a, b)
            assert TRI_VALUE[TRI_CODE[a] | TRI_CODE[b]] == hi, (a, b)
    assert tri_not(STAR) == STAR
    assert tri_not(0) == 1
    assert tri_not(1) == 0
    assert refines(1, STAR) and refines(0, STAR)
    assert refines(STAR, STAR) and not refines(STAR, 1)


_RANK = {0: 0, STAR: 1, 1: 2}


def rank_eval_tri(c, x, on_step=None):
    """Three-valued evaluation as it ran before the shared code: values
    kept as 0, STAR, 1 and compared through a chain-rank table."""
    vals = []
    for a in c.annotations:
        if isinstance(a, Const):
            vals.append(a.value)
        else:
            v = x[a.index]
            if isinstance(a, NegInput):
                v = STAR if v == STAR else 1 - v
            vals.append(v)
    if on_step is not None:
        on_step(tuple(vals))
    for g in c.gates:
        p = vals[g.min_wire]
        q = vals[g.max_wire]
        vals[g.min_wire] = p if _RANK[p] <= _RANK[q] else q
        vals[g.max_wire] = p if _RANK[p] >= _RANK[q] else q
        if on_step is not None:
            on_step(tuple(vals))
    outputs = tuple(vals)
    return outputs, outputs[c.output_wire]


def test_coded_eval_tri_matches_the_rank_table_loop():
    rng = random.Random(19)
    seen = {"star_input": 0, "star_neg_input": 0, "bool_neg_input": 0, "star_answer": 0}
    for i in range(400):
        c = gen_circuit(split(19, i), 6, 14, with_neg=False)
        x = [rng.choice((0, STAR, 1)) for _ in range(c.num_inputs)]
        got_steps, want_steps = [], []
        got = eval_tri(c, x, on_step=got_steps.append)
        want = rank_eval_tri(c, x, on_step=want_steps.append)
        assert got == want, i
        assert got_steps == want_steps, i
        assert eval_tri(c, x) == want, i
        negs = [x[a.index] for a in c.annotations if isinstance(a, NegInput)]
        seen["star_input"] += STAR in x
        seen["star_neg_input"] += STAR in negs
        seen["bool_neg_input"] += any(v != STAR for v in negs)
        seen["star_answer"] += got[1] == STAR
    assert min(seen.values()) > 0, seen


def test_eval_tri_star_propagates():
    c = Circuit(2, wires(2), (Comparator(0, 1),), 1)
    outputs, answer = eval_tri(c, (STAR, 0))
    assert outputs == (0, STAR)
    assert answer == STAR


@given(st.integers(0, 2**32), st.integers(0, 255))
def test_eval_tri_agrees_on_boolean_inputs(seed, xbits):
    c = gen_circuit(seed, 5, 10, with_neg=False)
    x = [(xbits >> i) & 1 for i in range(c.num_inputs)]
    assert eval_tri(c, x)[:2] == eval(c, x)[:2]


@given(st.integers(0, 2**32), st.integers(0, 255))
def test_popcount_is_conserved(seed, xbits):
    c = gen_circuit(seed, 6, 12, with_neg=False)
    x = [(xbits >> i) & 1 for i in range(c.num_inputs)]
    assert sum(resolve_inputs(c, x)) == sum(eval(c, x)[0])


@given(st.integers(0, 2**32), st.integers(0, 255))
def test_dual_flips_every_wire(seed, xbits):
    c = gen_circuit(seed, 5, 8, with_neg=False)
    x = [(xbits >> i) & 1 for i in range(c.num_inputs)]
    base = eval(c, x)[0]
    flipped = eval(dual(c), x)[0]
    assert all(a != b for a, b in zip(base, flipped))
    assert dual(dual(c)) == c


def test_input_columns_hold_row_bits():
    for k in range(7):
        cols = input_columns(k)
        assert len(cols) == k
        for j, col in enumerate(cols):
            assert col == sum(((r >> j) & 1) << r for r in range(1 << k))


def test_digit_columns_hold_each_row_digit():
    for n in (2, 3, 4):
        for place in range(3):
            for t in range(n):
                for count in (1, n ** place, n ** (place + 1), 2 * n ** 3 + 5):
                    want = sum(1 << r for r in range(count) if r // n**place % n >= t)
                    assert digit_at_least(n, place, t, count) == want, (n, place, t, count)


def test_batch_matches_scalar_eval_on_every_vector():
    seen = {"const": 0, "input": 0, "neg_input": 0, "dummy": 0, "no_inputs": 0}
    for i in range(400):
        c = gen_circuit(split(21, i), 8, 16, with_neg=False)
        k = c.num_inputs
        count = 1 << k
        got = eval_batch(c, input_columns(k), count)
        assert len(got) == c.num_wires
        for r in range(count):
            outputs, _ = eval(c, [(r >> j) & 1 for j in range(k)])
            assert tuple((w >> r) & 1 for w in got) == outputs, (i, r)
        kinds = {type(a) for a in c.annotations}
        seen["const"] += Const in kinds
        seen["input"] += Input in kinds
        seen["neg_input"] += NegInput in kinds
        seen["dummy"] += any(g.is_dummy for g in c.gates)
        seen["no_inputs"] += k == 0
    assert min(seen.values()) > 0, seen


def test_batch_constants_fill_the_mask():
    c = Circuit(3, (Const(1), Const(0), NegInput(0)), (Comparator(2, 0),), 0)
    assert eval_batch(c, [0b0110], 4) == [0b1111, 0, 0b1001]
    assert eval_batch(Circuit(1, (Const(1),), (), 0), [], 1) == [1]


def test_batch_rejects_what_eval_rejects():
    neg = Circuit(2, wires(2), (Negation(0),), 0)
    short = Circuit(2, (Input(0), NegInput(2)), (), 0)
    for c, kind in ((neg, NegationNotSupportedError), (short, BadShapeError)):
        with pytest.raises(kind) as want:
            eval(c, [0, 1])
        with pytest.raises(kind) as got:
            eval_batch(c, [0b01, 0b10], 2)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
    c = Circuit(1, (Input(0),), (), 0)
    for columns, count in (([0b100], 2), ([-1], 2), ([0], -1)):
        with pytest.raises(BadShapeError):
            eval_batch(c, columns, count)


def test_dual_swaps_annotation_kinds():
    c = Circuit(3, (Const(0), Input(2), NegInput(1)), (), 0)
    assert dual(c).annotations == (Const(1), NegInput(2), Input(1))


@given(st.integers(0, 2**32), st.integers(0, 255))
def test_normalize_down_preserves_values(seed, xbits):
    c = gen_circuit(seed, 5, 8, with_neg=False)
    x = [(xbits >> i) & 1 for i in range(c.num_inputs)]
    down, wmap = normalize_down(c)
    assert down.is_all_down
    real = [g for g in c.gates if not g.is_dummy]
    assert down.num_wires == c.num_wires + 2 * len(real)
    assert len(down.gates) == 3 * len(real)
    base = eval(c, x)[0]
    moved = eval(down, x)[0]
    assert all(base[w] == moved[wmap[w]] for w in range(c.num_wires))
    assert down.output_wire == wmap[c.output_wire]


def test_normalize_down_rejects_negations():
    c = Circuit(1, (Const(0),), (Negation(0),), 0)
    with pytest.raises(NegationNotSupportedError):
        normalize_down(c)


def test_mirror_reverses_indices():
    c = Circuit(3, (Const(0), Const(1), Input(0)), (Comparator(0, 2),), 1)
    m = mirror(c)
    assert m.annotations == (Input(0), Const(1), Const(0))
    assert m.gates == (Comparator(2, 0),)
    assert m.output_wire == 1
    assert mirror(m) == c
    x = (1,)
    assert eval(c, x)[0] == tuple(reversed(eval(m, x)[0]))
    # a negation is relabelled as well
    n = Circuit(3, c.annotations, (Negation(0), Comparator(0, 2), Negation(2)), 1)
    mn = mirror(n)
    assert mn.gates == (Negation(2), Comparator(2, 0), Negation(0))
    assert mn.has_negations and mirror(mn) == n
    for bit in (0, 1):
        assert eval(n, (bit,), allow_negations=True)[0] == tuple(
            reversed(eval(mn, (bit,), allow_negations=True)[0]))


def test_compose_splices_inner_copies():
    ident = Circuit(1, (Input(0),), (), 0)
    orgate = Circuit(2, (Input(0), Input(1)), (Comparator(0, 1),), 1)
    whole = compose(orgate, [ident, dual(ident)])
    assert whole.num_wires == 2
    for p in (0, 1):
        # x or (not x), through one inner copy each
        assert eval(whole, (p,))[1] == 1
    neg_outer = Circuit(1, (NegInput(0),), (), 0)
    assert eval(compose(neg_outer, [ident]), (1,))[1] == 0


def test_compose_checks_arity():
    orgate = Circuit(2, (Input(0), Input(1)), (Comparator(0, 1),), 1)
    with pytest.raises(BadShapeError, match="outer consumes 2 positions, 1 inners given"):
        compose(orgate, [Circuit(1, (Input(0),), (), 0)])


def outcome(build):
    """What ``build()`` returns, or the class and message it raises."""
    try:
        return build()
    except Exception as exc:  # noqa: BLE001 - the class is the point
        return type(exc), str(exc)


def extension(base, tail, w):
    return Circuit(base.num_wires, base.annotations, base.gates + tuple(tail), w)


def test_eval_tails_answers_as_eval_does():
    base = Circuit(4, (Input(0), Const(1), NegInput(1), Const(0)), (Comparator(0, 1), Comparator(2, 3)), 0)
    tails = [((), 0), ([Comparator(1, 0)], 1), ((Comparator(3, 0), Comparator(2, 1)), 2), ((), 3)]
    for x in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert eval_tails(base, tails, x) == [eval(extension(base, *t), x)[1] for t in tails]
    assert eval_tails(base, [], (2,)) == []


def test_eval_tails_rejects_what_eval_rejects():
    base = Circuit(2, wires(2), (Comparator(0, 1),), 0)
    negbase = Circuit(2, wires(2), (Negation(0),), 0)
    ok, negated = ((Comparator(1, 0),), 1), ((Negation(1),), 1)
    for b, tails, x in ((base, [ok, negated], (0, 1)), (negbase, [ok], (0, 1)), (base, [ok], (0, 2)),
                        (base, [ok], (1,)), (base, [ok, negated], (1,))):
        want = outcome(lambda: [eval(extension(b, *t), x)[1] for t in tails])
        assert isinstance(want, tuple)
        assert outcome(lambda: eval_tails(b, tails, x)) == want


def count_runs(monkeypatch) -> list:
    """Patch ``circuit._run`` to record the gate count of each call."""
    from cckit import circuit

    runs = []
    real = circuit._run

    def counting(gates, vals, mask, on_step=None):
        runs.append(len(gates))
        return real(gates, vals, mask, on_step)

    monkeypatch.setattr(circuit, "_run", counting)
    return runs


def test_eval_tails_runs_the_base_once(monkeypatch):
    base = Circuit(2, wires(2), (Comparator(0, 1),) * 50, 0)
    tails = [(g, w) for g in ((), (Comparator(1, 0),), (Comparator(0, 1), Comparator(1, 0)))
             for w in (0, 1)]
    want = [eval(extension(base, *t), (1, 0))[1] for t in tails]
    runs = count_runs(monkeypatch)
    assert eval_tails(base, tails, (1, 0)) == want
    assert sorted(runs) == [0, 0, 1, 1, 2, 2, 50]
