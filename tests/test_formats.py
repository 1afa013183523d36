"""Wire-format grammars: parsing, serialization, errors with line numbers."""

import hashlib
import pathlib
import random

import cckit
import pytest
from hypothesis import given, strategies as st

from cckit.circuit import Circuit, Comparator, Const, Input, NegInput, Negation
from cckit.errors import CckitError, ParseError
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
from cckit.reachability import Digraph, layer, reach_to_ccv
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


def _mutants(text, rng, per_kind):
    """Copies of text with one line token-extended, duplicated, deleted,
    replaced or appended, per_kind of each."""
    lines = text.splitlines()
    for kind in range(5):
        for _ in range(per_kind):
            out = list(lines)
            i = rng.randrange(len(out))
            if kind == 0:
                out[i] += " " + rng.choice(_EXTRA_TOKENS)
            elif kind == 1:
                out.insert(rng.randrange(len(out) + 1), out[i])
            elif kind == 2:
                del out[i]
            elif kind == 3:
                out[i] = rng.choice(_EXTRA_LINES + lines)
            else:
                out.append(rng.choice(_EXTRA_LINES + lines))
            yield "\n".join(out) + "\n"


def _outcome(text):
    try:
        return repr(parse_circuit(text))
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
