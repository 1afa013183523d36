"""Wire-format grammars: parsing, serialization, errors with line numbers."""

import hashlib
import pathlib
import random

import cckit
import pytest
from hypothesis import given, strategies as st

from cckit.circuit import Circuit, Comparator, Const, Input, NegInput, Negation
from cckit.errors import (
    BadShapeError,
    CckitError,
    IndexOutOfRangeError,
    ParseError,
    TooLargeError,
)
from cckit.formats import (
    _int,
    parse_circuit,
    parse_digraph,
    parse_graph,
    parse_sm,
    serialize_circuit,
    serialize_digraph,
    serialize_graph,
    serialize_sm,
)
from cckit.matching import BipartiteGraph
from cckit.reachability import Digraph, layer, reach_to_ccv
from cckit.stable_marriage import SMInstance
from cckit.verify import gen_bipartite, gen_circuit, gen_digraph, gen_sm

CIRCUIT = """\
CCV v1
wires 3
annot 0 x0
annot 1 !x1
annot 2 1
gate 0 2
neg 1
output 2
"""


def test_parse_circuit():
    c = parse_circuit(CIRCUIT)
    assert c.num_wires == 3
    assert c.annotations == (Input(0), NegInput(1), Const(1))
    assert c.gates == (Comparator(0, 2), Negation(1))
    assert c.output_wire == 2


def test_circuit_round_trip_is_canonical():
    assert serialize_circuit(parse_circuit(CIRCUIT)) == CIRCUIT


def test_comments_and_blank_lines():
    text = "# header\n\nCCV v1\nwires 1 # trailing\n\nannot 0 0\noutput 0\n"
    c = parse_circuit(text)
    assert c.num_wires == 1 and c.annotations == (Const(0),)


def test_self_gate_parses_to_dummy():
    c = parse_circuit("CCV v1\nwires 1\nannot 0 1\ngate 0 0\noutput 0\n")
    assert c.gates[0].is_dummy


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_circuit("CCV v1\nwires 2\nannot 0 0\nannot 1 2\noutput 0\n")
    assert e.value.line == 4
    with pytest.raises(ParseError) as e:
        parse_circuit("GRAPH v1\n")
    assert e.value.line == 1
    with pytest.raises(ParseError) as e:
        parse_circuit("CCV v1\nwires 2\nannot 0 0\noutput 0\n")
    assert "annot" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_circuit("CCV v1\nwires 1\nannot 0 0\ngate 0 5\noutput 0\n")
    assert e.value.line == 4
    with pytest.raises(ParseError):
        parse_circuit("CCV v1\nwires 1\nannot 0 0\nannot 0 1\noutput 0\n")


def test_integers_are_ascii_digits_only():
    for tok, value in (("0", 0), ("-0", 0), ("-007", -7), ("12", 12)):
        assert _int(tok, 1, "count") == value
    rejected = ("+1", "1_0", "\u0663", "\u00b2", "\uff11", "-", "--1", "1-",
                "0x1", "1.0", "1e3")
    for tok in rejected:
        with pytest.raises(ParseError) as e:
            parse_circuit(f"CCV v1\n# size\nwires {tok}\n")
        assert e.value.line == 3
        assert repr(tok) in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_circuit("CCV v1\nwires 2\nannot 0 x+1\n")
    assert e.value.line == 3
    with pytest.raises(ParseError) as e:
        parse_digraph("DIGRAPH v1\nnodes 2\narc 0 \u0661\n")
    assert e.value.line == 3


def test_negative_integers_reach_range_checks():
    cases = [
        ("CCV v1\nwires -1\n", "negative wire count", 2),
        ("CCV v1\nwires 1\nannot 0 x-2\n", "negative input index", 3),
        ("CCV v1\nwires 1\nannot 0 0\ngate 0 -1\n", "gate (0, -1) out of range", 4),
        ("DIGRAPH v1\nnodes -3\n", "need at least one node", 2),
    ]
    for text, message, line in cases:
        with pytest.raises(ParseError) as e:
            parse_circuit(text) if text.startswith("CCV") else parse_digraph(text)
        assert e.value.line == line and message in str(e.value)


def test_repeated_gate_lines_share_one_object():
    c = parse_circuit("CCV v1\nwires 2\nannot 0 0\nannot 1 1\n"
                      "gate 0 1\ngate 1 0\ngate 0 1\ngate 00 1\noutput 0\n")
    assert c.gates == (Comparator(0, 1), Comparator(1, 0), Comparator(0, 1), Comparator(0, 1))
    assert c.gates[0] is c.gates[2] is c.gates[3]
    assert c.gates[1] is not c.gates[0]


def test_repeated_raw_lines_reuse_the_accepted_gate():
    c = parse_circuit("CCV v1\nwires 3\nannot 0 0\nannot 1 1\nannot 2 0\n"
                      "neg 1\nneg 1 # c\n  neg   1 \nneg 1\n"
                      "gate 0 2\ngate 0 2 # c\ngate  0  2 \ngate 0 2\noutput 0\n")
    negs, comparators = c.gates[:4], c.gates[4:]
    assert negs == (Negation(1),) * 4 and comparators == (Comparator(0, 2),) * 4
    assert negs[3] is negs[0] and comparators[3] is comparators[0]


def test_repeated_header_lines_still_raise_where_they_stand():
    head = "CCV v1\nwires 2\nannot 0 0\nannot 1 1\ngate 0 1\n"
    cases = [
        (head + "gate 0 1\nannot 1 1\noutput 0\n", 7, "duplicate annotation for wire 1"),
        (head + "output 0\ngate 0 1\noutput 0\n", 8, "duplicate `output`"),
        (head + "gate 0 1\nwires 2\n", 7, "duplicate `wires`"),
    ]
    for text, line, message in cases:
        with pytest.raises(ParseError) as e:
            parse_circuit(text)
        assert (e.value.line, e.value.message) == (line, message)


def test_layered_pebbling_text_round_trips_byte_for_byte():
    arcs = {(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 6), (6, 2), (1, 5)}
    layered, node_map = layer(Digraph(7, frozenset(arcs)), 0)
    text = serialize_circuit(reach_to_ccv(layered, node_map[6]))
    c = parse_circuit(text)
    assert serialize_circuit(c) == text
    assert len({id(g) for g in c.gates}) == len(set(c.gates)) < len(c.gates)


# Lines and tokens a mutation may add: well-formed, malformed, commented, spaced.
_EXTRA_LINES = [
    "gate 0 1", "gate 1 0 # c", "  neg 0  ", "neg 1 # c", "gate 00 1", "gate 0 99",
    "annot 0 1", "annot 1 !x0", "output 0", "wires 3", "CCV v1", "neg", "gate 0",
    "annot 0 x-1", "bogus 1", "# only a comment", "",
]
_EXTRA_TOKENS = ["0", "1", "x", "-1", "#", "# c"]


def _pebbling_texts():
    rng = random.Random(7)
    texts = []
    for n in (3, 4, 4):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4]
        layered, node_map = layer(Digraph(n, frozenset(arcs)), 0)
        texts.append(serialize_circuit(reach_to_ccv(layered, node_map[n - 1])))
    return texts


def _mutants(text, rng, per_kind, extra_lines=_EXTRA_LINES, extra_tokens=_EXTRA_TOKENS, kinds=5):
    """Copies of text with one line token-extended, duplicated, deleted,
    replaced or appended, and with kinds=6 also one token replaced,
    per_kind of each."""
    lines = text.splitlines()
    for kind in range(kinds):
        for _ in range(per_kind):
            out = list(lines)
            i = rng.randrange(len(out))
            if kind == 0:
                out[i] += " " + rng.choice(extra_tokens)
            elif kind == 1:
                out.insert(rng.randrange(len(out) + 1), out[i])
            elif kind == 2:
                del out[i]
            elif kind == 3:
                out[i] = rng.choice(extra_lines + lines)
            elif kind == 4:
                out.append(rng.choice(extra_lines + lines))
            else:
                toks = out[i].split(" ")
                toks[rng.randrange(len(toks))] = rng.choice(extra_tokens)
                out[i] = " ".join(toks)
            yield "\n".join(out) + "\n"


def _outcome(text, parse=lambda text: repr(parse_circuit(text))):
    try:
        return parse(text)
    except CckitError as e:
        return f"{type(e).__name__} {getattr(e, 'line', None)} {e}"


def test_parse_outcomes_over_a_mutated_corpus_are_pinned():
    fixtures = sorted(pathlib.Path(cckit.__file__).parent.glob("fixtures/*.ccv"))
    texts = [f.read_text() for f in fixtures] + _pebbling_texts()
    rng = random.Random(11)
    outcomes = []
    for text in texts:
        outcomes.append(_outcome(text))
        outcomes.extend(_outcome(m) for m in _mutants(text, rng, 30))
    errors = sum(o.startswith("ParseError") for o in outcomes)
    assert len(outcomes) == 906 and 100 < errors < 800
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert digest == "b9efe3ede2adcc4c1bd01f8546ab042bd7fed2479a642822f60d893507d077fc"


# Per grammar: extra lines and tokens for its mutants, and a canonical outcome
# (edge sets are written sorted, so a pin does not hang on set iteration order).
_GRAMMARS = {
    "graph": (
        ["edge 0 0", "edge 1 0 # c", "  edge 0 1  ", "edge 00 1", "edge 0 99", "edge -1 0",
         "edge 0", "edge 0 1 2", "edge \u0663 0", "edge +1 0", "bottom 2", "top 3", "top -1",
         "target-edge 0 0", "target-top 1", "target-top 9", "target-edge 0", "GRAPH v1",
         "bogus 1", "# only a comment", ""],
        lambda text: serialize_graph(*parse_graph(text)),
    ),
    "sm": (
        ["n 2", "n 0", "n -1", "man 0: 0 1", "woman 1: 1 0 # c", "  man 1:  1 0 ", "man 0 0 1",
         "man 9: 0", "man -1: 0", "woman 0: 0 0", "man x: 1", "man 01: 1 0", "man: 0",
         "man", "woman 0: 0 \u0661", "SM v1", "bogus 1", "# only a comment", ""],
        lambda text: repr(parse_sm(text)),
    ),
    "digraph": (
        ["arc 0 1", "arc 1 0 # c", "  arc 0 0  ", "arc 00 1", "arc 0 99", "arc -1 0", "arc 0",
         "arc 0 1 2", "arc 0 \u0661", "nodes 3", "nodes 0", "DIGRAPH v1", "bogus 1",
         "# only a comment", ""],
        lambda text: serialize_digraph(parse_digraph(text)),
    ),
}
_GRAMMAR_TOKENS = ["0", "1", "2", "01", "x", "-1", "+1", "1:", ":", "#", "# c", "\u00b2"]


def _grammar_texts(grammar):
    rng = random.Random(5)
    if grammar == "graph":
        fixtures = sorted(pathlib.Path(cckit.__file__).parent.glob("fixtures/*.graph"))
        texts = [f.read_text() for f in fixtures]
        for k in range(4):
            g = gen_bipartite(rng.getrandbits(64), 6, 6, 0.4)
            desig = [None, ("top", g.num_top - 1), ("edge", (0, 0)), None][k]
            texts.append(serialize_graph(g, desig))
    elif grammar == "sm":
        texts = [serialize_sm(gen_sm(rng.getrandbits(64), n)) for n in (1, 2, 3, 4, 5, 6)]
    else:
        texts = [pathlib.Path(cckit.__file__).parent.joinpath("fixtures/reach_demo.digraph").read_text()]
        texts += [serialize_digraph(gen_digraph(rng.getrandbits(64), 7, 0.3)) for _ in range(5)]
    return texts


@pytest.mark.parametrize("grammar, count, digest", [
    ("graph", 7 * 181, "c20902c11f8d7ecb34f44ffffd3327ceb4fc10ae8004577ce8c6fd7011d12459"),
    ("sm", 6 * 181, "33f024c8891a390d80285aecbe2209f6de070e067fa9aae9e40c184e19208649"),
    ("digraph", 6 * 181, "55cfa7ceeeb5cb6d4d5dae793d1c66d0d9e087abcc6597efbc5e7c96594b9803"),
])
def test_other_parse_outcomes_over_mutated_corpora_are_pinned(grammar, count, digest):
    extra_lines, parse = _GRAMMARS[grammar]
    rng = random.Random(13)
    outcomes = []
    for text in _grammar_texts(grammar):
        outcomes.append(_outcome(text, parse))
        mutants = _mutants(text, rng, 30, extra_lines, _GRAMMAR_TOKENS, kinds=6)
        outcomes.extend(_outcome(m, parse) for m in mutants)
    errors = sum(o.startswith("ParseError") for o in outcomes)
    assert len(outcomes) == count and 50 < errors < count - 50
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == digest


def test_a_zero_wire_circuit_is_refused_as_before():
    # the parser never reaches the constructor's "at least one wire": with
    # `wires 0` no output wire is in range
    for text, line, message in [
        ("CCV v1\nwires 0\n", 2, "missing `output`"),
        ("CCV v1\nwires 0\noutput 0\n", 3, "wire 0 out of range"),
        ("CCV v1\nwires 0\nannot 0 1\n", 3, "wire 0 out of range"),
        ("CCV v1\nwires 0\ngate 0 0\n", 3, "gate (0, 0) out of range"),
    ]:
        with pytest.raises(ParseError) as e:
            parse_circuit(text)
        assert (e.value.line, e.value.message) == (line, message)


# What each public constructor rejects: the parsers build through private
# constructors that skip these checks, so the checks must stay here.
_MALFORMED = [
    (Circuit, (0, (), (), 0), BadShapeError, "a circuit needs at least one wire"),
    (Circuit, (2, (Const(0),), (), 0), BadShapeError, "1 annotations for 2 wires"),
    (Circuit, (1, (Const(2),), (), 0), BadShapeError, "constant annotation 2"),
    (Circuit, (1, (Input(-1),), (), 0), BadShapeError, "negative input index"),
    (Circuit, (1, (NegInput(-2),), (), 0), BadShapeError, "negative input index"),
    (Circuit, (1, ("x0",), (), 0), BadShapeError, "unknown annotation 'x0'"),
    (Circuit, (2, (Const(0),) * 2, (Comparator(0, 2),), 0), IndexOutOfRangeError,
     "gate Comparator(min_wire=0, max_wire=2) out of range"),
    (Circuit, (2, (Const(0),) * 2, (Comparator(-1, 0),), 0), IndexOutOfRangeError,
     "gate Comparator(min_wire=-1, max_wire=0) out of range"),
    (Circuit, (2, (Const(0),) * 2, (Negation(2),), 0), IndexOutOfRangeError,
     "gate Negation(wire=2) out of range"),
    (Circuit, (2, (Const(0),) * 2, (("gate", 0, 1),), 0), BadShapeError,
     "unknown gate ('gate', 0, 1)"),
    (Circuit, (2, (Const(0),) * 2, (), 2), IndexOutOfRangeError, "output wire 2 out of range"),
    (Circuit, (2, (Const(0),) * 2, (), -1), IndexOutOfRangeError, "output wire -1 out of range"),
    (BipartiteGraph, (-1, 1, ()), BadShapeError, "negative vertex count"),
    (BipartiteGraph, (1, -1, ()), BadShapeError, "negative vertex count"),
    (BipartiteGraph, (1, 1, {(0, 1)}), IndexOutOfRangeError, "edge (0, 1) out of range"),
    (BipartiteGraph, (1, 1, {(-1, 0)}), IndexOutOfRangeError, "edge (-1, 0) out of range"),
    (BipartiteGraph, (2, 3, {(2, 0)}), IndexOutOfRangeError, "edge (2, 0) out of range"),
    (SMInstance, (0, (), ()), BadShapeError, "need at least one man and one woman"),
    (SMInstance, (2, ((0, 1),), ((0, 1), (1, 0))), BadShapeError,
     "preference table has wrong height"),
    (SMInstance, (2, ((0, 1), (1, 0)), ((0, 1),) * 3), BadShapeError,
     "preference table has wrong height"),
    (SMInstance, (2, ((0, 1), (0, 0)), ((0, 1),) * 2), BadShapeError,
     "row (0, 0) is not a permutation"),
    (SMInstance, (2, ((0, 1),) * 2, ((0, 1), (1, 2))), BadShapeError,
     "row (1, 2) is not a permutation"),
    (SMInstance, (2, ((0, 1), (1,)), ((0, 1),) * 2), BadShapeError,
     "row (1,) is not a permutation"),
    (SMInstance, (1, ((-1,),), ((0,),)), BadShapeError, "row (-1,) is not a permutation"),
]


@pytest.mark.parametrize("cls, args, error, message", _MALFORMED,
                         ids=lambda v: v.__name__ if isinstance(v, type) else "")
def test_public_constructors_reject_every_malformed_shape(cls, args, error, message):
    with pytest.raises(error) as e:
        cls(*args)
    assert str(e.value) == message


def test_a_graph_is_refused_before_its_adjacency_is_allocated():
    with pytest.raises(TooLargeError, match="a graph of 10000000 [+] 1 vertices is over the limit"):
        BipartiteGraph(10**7, 1, ())
    with pytest.raises(TooLargeError, match="a graph of 300000000 [+] 1 vertices"):
        parse_graph("GRAPH v1\nbottom 300000000\ntop 1\nedge 0 0\n")


def test_only_the_parsers_build_through_the_private_constructors():
    # circuit.py's one entry covers `Circuit.extend` and `CircuitBuilder.build`,
    # which checks only the output wire; every other builder checks
    import ast

    callers = set()
    for path in pathlib.Path(cckit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "_trusted":
                callers.add((path.name, ast.unparse(node.value)))
    assert callers == {
        ("circuit.py", "Circuit"),
        ("formats.py", "Circuit"),
        ("formats.py", "BipartiteGraph"),
        ("formats.py", "SMInstance"),
    }


def test_parsed_values_carry_the_fields_the_public_constructors_fill():
    rng = random.Random(3)
    for _ in range(60):
        c = gen_circuit(rng.getrandbits(64), 6, 10, with_neg=rng.random() < 0.5)
        got = parse_circuit(serialize_circuit(c))
        assert (got, got.has_negations) == (c, c.has_negations)
        g = gen_bipartite(rng.getrandbits(64), 6, 6, 0.4)
        got, _ = parse_graph(serialize_graph(g))
        assert (got, got.by_bottom, got.by_top) == (g, g.by_bottom, g.by_top)
        inst = gen_sm(rng.getrandbits(64), rng.randint(1, 6))
        got = parse_sm(serialize_sm(inst))
        assert (got, got.man_rank, got.woman_rank) == (inst, inst.man_rank, inst.woman_rank)


def test_missing_output_reported_at_eof():
    text = "CCV v1\nwires 1\nannot 0 0\n"
    with pytest.raises(ParseError) as e:
        parse_circuit(text)
    assert e.value.line == 3


GRAPH = """\
GRAPH v1
bottom 2
top 3
edge 0 0
edge 1 2
target-edge 1 2
"""


def test_parse_graph_with_designation():
    g, desig = parse_graph(GRAPH)
    assert g.num_bottom == 2 and g.num_top == 3
    assert g.edges == frozenset({(0, 0), (1, 2)})
    assert desig == ("edge", (1, 2))
    assert serialize_graph(g, desig) == GRAPH


def test_graph_target_top_and_none():
    text = "GRAPH v1\nbottom 1\ntop 1\ntarget-top 0\n"
    g, desig = parse_graph(text)
    assert desig == ("top", 0)
    g2, d2 = parse_graph("GRAPH v1\nbottom 1\ntop 1\n")
    assert d2 is None


def test_graph_rejects_duplicate_edges():
    with pytest.raises(ParseError) as e:
        parse_graph("GRAPH v1\nbottom 1\ntop 1\nedge 0 0\nedge 0 0\n")
    assert e.value.line == 5


SM = """\
SM v1
n 2
man 0: 0 1
man 1: 1 0
woman 0: 0 1
woman 1: 1 0
"""


def test_parse_sm():
    inst = parse_sm(SM)
    assert inst.n == 2
    assert inst.man_pref == ((0, 1), (1, 0))
    assert inst.woman_pref == ((0, 1), (1, 0))
    assert serialize_sm(inst) == SM


def test_sm_rejects_non_permutations():
    bad = "SM v1\nn 2\nman 0: 0 0\nman 1: 1 0\nwoman 0: 0 1\nwoman 1: 1 0\n"
    with pytest.raises(ParseError) as e:
        parse_sm(bad)
    assert e.value.line == 3


DIGRAPH = """\
DIGRAPH v1
nodes 3
arc 0 1
arc 2 2
"""


def test_parse_digraph():
    g = parse_digraph(DIGRAPH)
    assert g.n == 3
    assert g.edges == frozenset({(0, 1), (2, 2)})
    assert serialize_digraph(g) == DIGRAPH


def test_digraph_rejects_bad_arcs():
    with pytest.raises(ParseError):
        parse_digraph("DIGRAPH v1\nnodes 1\narc 0 1\n")
    with pytest.raises(ParseError):
        parse_digraph("DIGRAPH v1\nnodes 1\narc 0 0\narc 0 0\n")


def test_wrong_magic_is_line_one():
    for parse in (parse_circuit, parse_graph, parse_sm, parse_digraph):
        with pytest.raises(ParseError) as e:
            parse("BOGUS v9\n")
        assert e.value.line == 1


@given(st.integers(0, 2**63))
def test_random_circuit_round_trip(seed):
    c = gen_circuit(seed, 6, 10, with_neg=bool(seed & 1))
    assert parse_circuit(serialize_circuit(c)) == c


@given(st.integers(0, 2**63))
def test_random_graph_round_trip(seed):
    g = gen_bipartite(seed, 6, 6, 0.35)
    got, desig = parse_graph(serialize_graph(g))
    assert got == g and desig is None


@given(st.integers(0, 2**63), st.integers(1, 6))
def test_random_sm_round_trip(seed, n):
    inst = gen_sm(seed, n)
    assert parse_sm(serialize_sm(inst)) == inst


@given(st.integers(0, 2**63))
def test_random_digraph_round_trip(seed):
    g = gen_digraph(seed, 7, 0.3)
    assert parse_digraph(serialize_digraph(g)) == g
