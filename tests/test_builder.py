"""The circuit builder behind every library construction.

Each construction, the text parser included, assembles its circuit
through ``CircuitBuilder`` and is checked once, at the output wire.  The
tests here pin that design: besides ``CircuitBuilder.build``, only
``verify.py`` (whose generators build from random draws) calls the
constructor, every construction's output passes the full constructor
unchanged, and ``gate`` makes a new ``Comparator`` per call, so one gate
object stands at several places only where a construction repeats it: the
pebbling sweep, a repeated raw line of the text, and the gates one circuit
takes over from another.
"""

import ast
import pathlib
import sys

import pytest

from cckit.circuit import (
    STAR,
    Circuit,
    CircuitBuilder,
    Comparator,
    Const,
    Input,
    NegInput,
    compose,
    eval_tri,
)
from cckit.errors import BadShapeError, IndexOutOfRangeError
from cckit.formats import parse_circuit, serialize_circuit
from cckit.reachability import layered_circuit
from cckit.reductions import mosm_to_ccv, sm_to_tri_circuit, tri_to_bool, wosm_to_ccv
from cckit.verify import gen_circuit, gen_digraph, gen_sm, run_suite, split

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "cckit"

# every function that builds a circuit through CircuitBuilder
CONSTRUCTIONS = {
    "dual", "normalize_down", "mirror", "compose", "reach_to_ccv", "close_circuit",
    "vlfmm_to_ccv", "double_rail", "lfmm_to_ccvneg", "tri_to_bool", "sm_to_tri_circuit",
    "build_universal", "parse_circuit", "_optimal_pair_circuit",
}


def constructor_calls(tree):
    """Lines of each call to ``Circuit(...)``, by name or as an attribute."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "Circuit")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Circuit")
        )
    )


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "verify.py"),
                         ids=lambda p: p.name)
def test_only_verify_calls_the_public_circuit_constructor(path):
    # and CircuitBuilder.build, once, with the negation flag the kwarg scan pins
    tree = ast.parse(path.read_text(encoding="utf-8"))
    want = []
    if path.name == "circuit.py":
        builder = next(n for n in tree.body if isinstance(n, ast.ClassDef)
                       and n.name == "CircuitBuilder")
        build = next(n for n in builder.body if isinstance(n, ast.FunctionDef)
                     and n.name == "build")
        want = constructor_calls(build)
        assert len(want) == 1
    assert constructor_calls(tree) == want


def test_the_scan_sees_a_constructor_call():
    tree = ast.parse(
        "from cckit import circuit\n"
        "from cckit.circuit import Circuit\n"
        "a = Circuit(1, (), (), 0)\n"
        "b = circuit.Circuit(1, (), (), 0)\n"
        "c = Circuit.__new__(Circuit)\n"
        "d = isinstance(a, Circuit)\n"
    )
    assert constructor_calls(tree) == [3, 4]


def test_builder_numbers_wires_and_checks_only_the_output():
    cb = CircuitBuilder()
    assert cb.wire(Const(1)) == 0
    assert cb.wires([Input(0), NegInput(0)]) == 1
    assert cb.wires([]) == 3
    assert cb.wire(Const(0)) == 3
    first = cb.gate(0, 2)
    cb.gate(1, 1)
    again = cb.gate(0, 2)
    assert again == first and again is not first
    plain = cb.build(3)
    assert plain == Circuit(4, (Const(1), Input(0), NegInput(0), Const(0)),
                            (Comparator(0, 2), Comparator(1, 1), Comparator(0, 2)), 3)
    assert plain.has_negations is False
    cb.neg(2)
    assert cb.build(0).has_negations is True
    for out in (4, -1):
        with pytest.raises(IndexOutOfRangeError, match=f"output wire {out} out of range"):
            cb.build(out)


def test_eval_tri_and_tri_to_bool_refuse_inputs_alike():
    c = Circuit(3, (Input(0), NegInput(2), Const(1)), (Comparator(0, 1),), 2)
    for x in ((STAR, 2, 0), (0, 1), (), (STAR, None), ("1", 0, 0)):
        with pytest.raises(BadShapeError) as tri:
            eval_tri(c, x)
        with pytest.raises(BadShapeError) as lowered:
            tri_to_bool(c, x)
        assert str(lowered.value) == str(tri.value)


@pytest.fixture
def inits(monkeypatch):
    """Every circuit that ``Circuit.__init__`` fills, in order."""
    done = []
    real_init = Circuit.__init__

    def recording_init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        done.append(self)

    monkeypatch.setattr(Circuit, "__init__", recording_init)
    return done


def test_only_build_passes_the_negation_flag_to_the_constructor():
    # and only the graph parser and lowerings, whose rows are ascending and in
    # range by construction, hand the graph constructor its `_by_bottom`
    # rows; only the marriage parser passes that constructor's `_checked` flag
    callers = set()
    for path in SRC.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        callers.update((k.arg, path.name, fn.name) for k in node.keywords
                                       if k.arg in ("_negations", "_by_bottom", "_checked"))
    assert callers == {
        ("_negations", "circuit.py", "build"),
        ("_by_bottom", "formats.py", "parse_graph"),
        ("_by_bottom", "reductions.py", "ccv_to_3vlfmm"),
        ("_by_bottom", "reductions.py", "ccv_to_3lfmm"),
        ("_by_bottom", "reductions.py", "lfmm_to_ccvneg"),
        ("_checked", "formats.py", "parse_sm"),
    }


def test_parsed_and_extended_circuits_are_built_through_init(inits):
    c = parse_circuit(serialize_circuit(gen_circuit(3, 4, 6, with_neg=True)))
    assert inits[-1] is c
    d = mosm_to_ccv(gen_sm(5, 3), (0, 0))
    assert inits[-1] is d
    assert c.has_negations is True and d.has_negations is False


def test_every_construction_rebuilds_through_the_public_constructor(monkeypatch, inits):
    built = []
    real_build = CircuitBuilder.build

    def recording_build(self, output_wire):
        c = real_build(self, output_wire)
        built.append((sys._getframe(1).f_code.co_name, c))
        return c

    monkeypatch.setattr(CircuitBuilder, "build", recording_build)
    for suite in ("reduction-ring", "universal", "reachability"):
        assert run_suite(suite, 100, seed=5).passed
    assert run_suite("sm-to-ccv", 20, seed=5).passed
    # what those suites leave out: composition, the padded pebbling
    # circuit, parsed as well, the marriage circuit with its three-valued
    # lowering, and the pair circuits, which sm-to-ccv answers by tails
    for i in range(20):
        outer = gen_circuit(split(11, i), 4, 6)
        inners = [gen_circuit(split(12, 8 * i + k), 4, 6) for k in range(outer.num_inputs)]
        compose(outer, inners)
        layered_circuit(gen_digraph(split(13, i), 4, 0.3), 0, 0, pad_dummies=True)
    assert built[-1][0] == "reach_to_ccv"
    parse_circuit(serialize_circuit(built[-1][1]))
    inst = gen_sm(5, 3)
    tri = sm_to_tri_circuit(inst)
    tri_to_bool(tri, (STAR,) * tri.num_inputs)
    for m in range(3):
        mosm_to_ccv(inst, (m, 0))
        wosm_to_ccv(inst, (m, 2))

    assert {name for name, _ in built} == CONSTRUCTIONS
    through_init = set(map(id, inits))  # inits keeps each one alive
    shared = 0
    for name, c in built:
        assert id(c) in through_init, name
        again = Circuit(c.num_wires, c.annotations, c.gates, c.output_wire)
        assert (again, again.has_negations) == (c, c.has_negations), name
        distinct = len(set(map(id, c.gates)))
        if name == "reach_to_ccv":
            # n rounds of one gate (k, n) each, the round-0 sweep appended whole
            n = c.num_wires // 2
            assert distinct == n + len(c.gates) // n - 1
        elif name == "parse_circuit":
            # each text parsed here is serialize_circuit's, one gate line per
            # wire pair, and a repeated raw line gives the gate it gave before
            lines = serialize_circuit(c).splitlines()
            assert distinct <= len({line for line in lines if line.startswith(("gate", "neg"))})
        elif name not in ("close_circuit", "_optimal_pair_circuit"):
            # the rest share nothing; these two keep the gate objects of the
            # circuit they close or extend
            assert distinct == len(c.gates), name
        shared += len(c.gates) - distinct
    assert shared > 0  # some construction did repeat a gate
