"""Command-line behaviour: output shapes and exit codes."""

import hashlib
import io
import os
import pathlib
import resource
import subprocess
import sys
import time

import cckit
import pytest
from cckit.cli import main

FIXTURES = str(pathlib.Path(cckit.__file__).parent / "fixtures")
SRC = str(pathlib.Path(cckit.__file__).parent.parent)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fx(name):
    return f"{FIXTURES}/{name}"


def test_eval_answer_false_exits_one(capsys):
    code, out, _ = run(capsys, "eval", fx("annotated_demo.ccv"), "--input", "111")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "w0=0"
    assert lines[-1] == "answer=0"


def test_eval_true_exits_zero(capsys):
    code, out, _ = run(capsys, "eval", fx("const_demo.ccv"))
    assert code == 0
    assert out.splitlines() == ["w0=1", "w1=1", "w2=0", "answer=1"]


def test_eval_trace(capsys):
    code, out, _ = run(capsys, "eval", fx("const_demo.ccv"), "--trace")
    lines = out.splitlines()
    assert lines[0] == "step 0 011"
    assert lines[1] == "step 1 101"
    assert lines[2] == "step 2 110"
    assert "answer=1" in lines[-1]


def test_eval_trace_prints_the_library_trace(capsys, tmp_path):
    from cckit.circuit import eval, eval_tri
    from cckit.formats import parse_circuit

    def lines(snaps):
        return [f"step {k} " + "".join(map(str, snap)) for k, snap in enumerate(snaps)]

    c = parse_circuit(pathlib.Path(fx("negation_demo.ccv")).read_text())
    code, out, _ = run(capsys, "eval", fx("negation_demo.ccv"), "--trace")
    assert code == 0
    seen = []
    eval(c, (), allow_negations=True, on_step=seen.append)
    assert seen == [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    assert out.splitlines() == lines(seen) + ["w0=1", "w1=1", "w2=1", "answer=1"]
    p = tmp_path / "t.ccv"
    p.write_text("CCV v1\nwires 3\nannot 0 x0\nannot 1 x1\nannot 2 !x1\n"
                 "gate 0 1\ngate 2 0\noutput 1\n")
    code, out, _ = run(capsys, "eval", str(p), "--tri", "1*", "--trace")
    assert code == 0
    seen = []
    eval_tri(parse_circuit(p.read_text()), (1, "*"), on_step=seen.append)
    assert seen == [(1, "*", "*"), ("*", 1, "*"), ("*", 1, "*")]
    assert out.splitlines() == lines(seen) + ["w0=*", "w1=1", "w2=*", "answer=1"]


PEBBLE_DIGRAPH = "DIGRAPH v1\nnodes 6\narc 0 1\narc 1 2\narc 2 0\narc 2 3\narc 3 5\narc 4 1\n"

# (circuit: fixture name or None for the unpadded layered pebbling circuit
# of PEBBLE_DIGRAPH, eval flags, exit code, stdout sha256)
TRACE_PINS = [
    ("annotated_demo.ccv", ("--input", "101"), 1,
     "b879db266553747619340aba05bbee05bdd8ebcdff493e76260c1cc8893dbf91"),
    ("annotated_demo.ccv", ("--tri", "1*0"), 1,
     "f2813fa392cf6c994c085979b88589d9e9c558c325ccdeb3c78362507853ae44"),
    ("annotated_demo.ccv", ("--tri", "**1"), 1,
     "5e3eee09d75578c70a7391b1908ca619bd46faaad1a67645a84072843f12f290"),
    ("const_demo.ccv", (), 0,
     "e5384f3d085896e16661068f7c9cc3409692e4ad8a5a54c17b0c199e6098c16a"),
    ("const_demo.ccv", ("--tri", ""), 0,
     "e5384f3d085896e16661068f7c9cc3409692e4ad8a5a54c17b0c199e6098c16a"),
    ("negation_demo.ccv", (), 0,
     "3045553322b7a36745a8c325c728ec8f7ea58b296e4295e869c02f927980b4ae"),
    (None, (), 0,
     "c6d21660ad33ff3c024d62d3bff0061052af5c94d5c199fe8469eda1086011e9"),
    (None, ("--tri", ""), 0,
     "c6d21660ad33ff3c024d62d3bff0061052af5c94d5c199fe8469eda1086011e9"),
]


@pytest.mark.parametrize("source, extra, code, out_sha", TRACE_PINS)
def test_eval_trace_output_is_pinned(capsys, tmp_path, source, extra, code, out_sha):
    if source is None:
        (tmp_path / "g").write_text(PEBBLE_DIGRAPH)
        circuit = str(tmp_path / "c.ccv")
        args = ("reduce", "reach-to-ccv", str(tmp_path / "g"), circuit, "--layer", "--target", "5")
        assert run(capsys, *args) == (0, "", "")
    else:
        circuit = fx(source)
    got, out, _ = run(capsys, "eval", circuit, "--trace", *extra)
    assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, out_sha)


def test_eval_tri(capsys, tmp_path):
    p = tmp_path / "t.ccv"
    p.write_text("CCV v1\nwires 2\nannot 0 x0\nannot 1 x1\ngate 0 1\noutput 1\n")
    code, out, _ = run(capsys, "eval", str(p), "--tri", "1*")
    assert code == 0
    assert out.splitlines() == ["w0=*", "w1=1", "answer=1"]
    code, out, _ = run(capsys, "eval", str(p), "--tri", "0*")
    assert code == 1
    assert out.splitlines()[-1] == "answer=*"


def test_eval_input_and_tri_exclude_each_other(capsys):
    code, out, err = run(capsys, "eval", fx("annotated_demo.ccv"), "--input", "000", "--tri", "111")
    assert code == 2 and out == ""
    assert "not allowed with argument" in err


def test_eval_arity_error_exits_two(capsys):
    code, _, err = run(capsys, "eval", fx("annotated_demo.ccv"), "--input", "1")
    assert code == 2
    assert "error:" in err


def test_over_long_input_exits_two(capsys):
    for argv, line in (
        (("eval", fx("const_demo.ccv"), "--input", "0101"),
         "4 input values for a circuit with 0 inputs"),
        (("eval", fx("annotated_demo.ccv"), "--tri", "1*01"),
         "4 input values for a circuit with 3 inputs"),
        (("reduce", "tri-lower", fx("annotated_demo.ccv"), "-", "--input", "1*01"),
         "4 input values for a circuit with 3 inputs"),
        (("reduce", "ccv-to-3vlfmm", fx("const_demo.ccv"), "-", "--input", "1"),
         "1 input values for a circuit with 0 inputs"),
    ):
        assert run(capsys, *argv) == (2, "", f"error: {line}\n")


def test_parse_error_exits_two(capsys, tmp_path):
    p = tmp_path / "broken.ccv"
    p.write_text("CCV v1\nwires 1\nannot 0 qq\noutput 0\n")
    code, _, err = run(capsys, "eval", str(p))
    assert code == 2
    assert "line 3" in err


def test_zero_wire_circuit_is_a_parse_error(capsys, tmp_path):
    # the parser allows `wires 0`, which Circuit would refuse; no output wire can exist
    p = tmp_path / "empty.ccv"
    for text, line in (("CCV v1\nwires 0\n", "line 2: missing `output`"),
                       ("CCV v1\nwires 0\noutput 0\n", "line 3: wire 0 out of range")):
        p.write_text(text)
        assert run(capsys, "eval", str(p)) == (2, "", f"error: {line}\n")


def test_reduce_writes_output_and_sidecar(capsys, tmp_path):
    out = tmp_path / "down.ccv"
    code, _, _ = run(
        capsys, "reduce", "normalize-down", fx("annotated_demo.ccv"), str(out)
    )
    assert code == 0
    assert out.read_text().startswith("CCV v1\n")
    side = (tmp_path / "down.ccv.map").read_text().splitlines()
    assert all(len(line.split()) == 2 for line in side)
    assert side[0].startswith("w0 ")


def test_reduce_stdout_skips_sidecar(capsys):
    code, out, _ = run(capsys, "reduce", "dual", fx("const_demo.ccv"), "-")
    assert code == 0
    assert out.startswith("CCV v1\n")


def test_reduce_map_needs_correspondence_data(capsys, tmp_path):
    out, side = tmp_path / "o.ccv", tmp_path / "o.side"
    for argv in (
        ("lfmm-to-ccvneg", fx("edge_decision_demo.graph")),
        ("reach-to-ccv", fx("reach_demo.digraph"), "--target", "4"),
    ):
        code, stdout, err = run(capsys, "reduce", *argv[:2], str(out), "--map", str(side), *argv[2:])
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists() and not side.exists()
    # a pass with correspondence data writes its sidecar even when it is empty
    p = tmp_path / "none.ccv"
    p.write_text("CCV v1\nwires 1\nannot 0 x0\noutput 0\n")
    code, _, _ = run(capsys, "reduce", "universal", str(p), "-", "--map", str(side))
    assert code == 0 and side.read_text() == ""
    code, _, _ = run(capsys, "reduce", "universal", str(p), str(out))
    assert code == 0 and (tmp_path / "o.ccv.map").read_text() == ""


def test_reduce_rejects_flags_the_pass_does_not_read(capsys, tmp_path):
    out = tmp_path / "o.ccv"
    for argv, stray in (
        (("dual", fx("const_demo.ccv"), "--pad", "--layer", "--target", "3"),
         "dual does not read --target, --layer, --pad"),
        # 0 is a value, not an absent flag
        (("dual", fx("const_demo.ccv"), "--src", "0", "--target", "0"),
         "dual does not read --target, --src"),
        (("reach-to-ccv", fx("reach_demo.digraph"), "--target", "4", "--src", "3"),
         "--src needs --layer"),
        (("reach-to-ccv", fx("reach_demo.digraph"), "--target", "0", "--input", "1"),
         "reach-to-ccv does not read --input"),
    ):
        code, stdout, err = run(capsys, "reduce", *argv[:2], str(out), *argv[2:])
        assert code == 2 and stdout == ""
        assert err == f"error: {stray}\n"
        assert not out.exists() and not (tmp_path / "o.ccv.map").exists()


@pytest.mark.parametrize("argv, line", [
    (("reach-to-ccv", "--target", "1", "--src", "1"), "--src needs --layer"),
    (("reach-to-ccv", "--target", "1", "--input", "1"), "reach-to-ccv does not read --input"),
    (("reach-to-ccv",), "line 1: expected `DIGRAPH v1` header"),
    (("mosm-to-ccv",), "line 1: expected `SM v1` header"),
], ids=["src-needs-layer", "stray-flag", "parse-before-target", "parse-before-pair"])
def test_reduce_flag_errors_win_over_a_malformed_input(capsys, tmp_path, argv, line):
    # flag errors come before the file is read; a parse error comes before
    # the errors a pass raises on the parsed value
    bad = tmp_path / "bad"
    bad.write_text("not a header\n")
    assert run(capsys, "reduce", argv[0], str(bad), "-", *argv[1:]) == (2, "", f"error: {line}\n")


def test_reduce_tri_lower_needs_input(capsys, tmp_path):
    p = tmp_path / "t.ccv"
    p.write_text("CCV v1\nwires 1\nannot 0 x0\noutput 0\n")
    code, out, _ = run(capsys, "reduce", "tri-lower", str(p), "-", "--input", "*")
    assert code == 0
    assert "wires 2" in out


def test_reduce_unknown_pass_exits_two(capsys):
    code, _, err = run(capsys, "reduce", "no-such-pass", fx("const_demo.ccv"), "-")
    assert code == 2
    assert "unknown pass" in err


def test_reduce_precondition_exits_two(capsys, tmp_path):
    # graph without the required designation
    p = tmp_path / "g.graph"
    p.write_text("GRAPH v1\nbottom 1\ntop 1\nedge 0 0\n")
    code, _, err = run(capsys, "reduce", "vlfmm-to-ccv", str(p), "-")
    assert code == 2


DEGREE_FOUR = "GRAPH v1\nbottom 5\ntop 5\n" + "".join(f"edge 0 {j}\n" for j in range(4))
NON_EDGE_TARGET = "GRAPH v1\nbottom 2\ntop 2\nedge 0 0\nedge 1 0\ntarget-edge 1 1\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (("reduce", "lfmm3-to-sm", fx("greedy_demo.graph"), "-"), "4x3 is not 4x4"),
        (("reduce", "lfmm3-to-sm", "{deg4}", "-"), "degree must be at most 3"),
        (("reduce", "lfmm-to-ccvneg", "{nonedge}", "-"), "(1, 1) is not an edge"),
        (("verify", "bogus"), "no suite named 'bogus'"),
        (("eval", fx("annotated_demo.ccv"), "--input", "1"),
         "annotation consumes input 1 but only 1 given"),
        (("eval", fx("annotated_demo.ccv"), "--input", "1x1"),
         "input strings use 0, 1, and *, not 'x'"),
        (("eval", fx("annotated_demo.ccv"), "--tri", "*x1"),
         "input strings use 0, 1, and *, not 'x'"),
        # the length check runs before the character check
        (("eval", fx("annotated_demo.ccv"), "--input", "1x11"),
         "4 input values for a circuit with 3 inputs"),
    ],
    ids=["not-square", "degree", "not-an-edge", "unknown-suite", "short-input",
         "bad-char", "bad-char-tri", "long-before-bad-char"],
)
def test_rejected_input_prints_one_pinned_error_line(capsys, tmp_path, argv, line):
    (tmp_path / "deg4.graph").write_text(DEGREE_FOUR)
    (tmp_path / "nonedge.graph").write_text(NON_EDGE_TARGET)
    paths = {"deg4": tmp_path / "deg4.graph", "nonedge": tmp_path / "nonedge.graph"}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out, err) == (2, "", f"error: {line}\n")


def test_reduce_universal_sidecar_holds_controls(capsys, tmp_path):
    out = tmp_path / "univ.ccv"
    code, _, _ = run(capsys, "reduce", "universal", fx("const_demo.ccv"), str(out))
    assert code == 0
    side = (tmp_path / "univ.ccv.map").read_text().splitlines()
    assert side and all(line.split()[1] in ("0", "1") for line in side)
    assert sum(int(line.split()[1]) for line in side) == 2


def test_reduce_marriage_pair(capsys, tmp_path):
    sm = tmp_path / "a.sm"
    sm.write_text("SM v1\nn 1\nman 0: 0\nwoman 0: 0\n")
    code, out, _ = run(
        capsys, "reduce", "mosm-to-ccv", str(sm), "-", "--pair", "0", "0"
    )
    assert code == 0
    assert out.startswith("CCV v1\n")


SQUARE_GRAPH = "GRAPH v1\nbottom 2\ntop 2\nedge 0 0\nedge 0 1\nedge 1 0\n"
TWO_SM = "SM v1\nn 2\nman 0: 0 1\nman 1: 1 0\nwoman 0: 1 0\nwoman 1: 0 1\n"


def sha_or_none(path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


# (pass, fixture name or inline text, extra args, output sha256, .map sha256)
REDUCE_PINS = [
    ("normalize-down", "annotated_demo.ccv", (),
     "3d48eb787e54864ed40bdccccf4e690c5d1c14cac7b68e175490c54249971357",
     "8a6e3016ddd66de345ae3f3d8358de346fd2c352d34094fa9b66ef2af3365e32"),
    ("dual", "const_demo.ccv", (),
     "104462c157a4178cedc2ccd07af0668a8088f863a4f29604a25ca5742c3961bf", None),
    ("neg-elim", "negation_demo.ccv", (),
     "fc9a709436e91613c0b640b98ad4fddb4486e07d7b6f3557dbf467617fdd4645",
     "108f4ee776d05c490521f239f2f3fd64c58dcb61c85ffa193ea82860d2d27b0c"),
    ("tri-lower", "annotated_demo.ccv", ("--input", "1*0"),
     "8035e7e94ed3d4d1c856a6e4c37ad06e598cd1b2798e5fcefa78ef059fd9a3d2",
     "3e663c1c93bd728f9f8ead70a515f62c6a8b99a8936f2d7b8958c265ee6c5277"),
    ("ccv-to-3vlfmm", "const_demo.ccv", (),
     "d70c6605eff3de6b3c4e9ae04b995a07a902a95625d6c5f0130948e6a27c6c16",
     "83451b31c019cfc35be0de1cf84de40e02f96620e25ce5f698b0f5b64c68e3b1"),
    ("ccv-to-3lfmm", "const_demo.ccv", (),
     "a89a5831829f4e718f9ff12f49f424b6f64dd5ae74ff2a3eab1548e555c082f0",
     "83451b31c019cfc35be0de1cf84de40e02f96620e25ce5f698b0f5b64c68e3b1"),
    ("vlfmm-to-ccv", "cover_demo.graph", (),
     "09e9ffa29855fa81eb834a2b43f67e61fc98a3f21c952a41d841584ae2b9d898",
     "4f8567f3ef6cc2a9281475b2903468778f684fe9214f4e1686778e685d9bb10d"),
    ("lfmm-to-ccvneg", "edge_decision_demo.graph", (),
     "5265b9e752c5c46833f27ef4254068e1f322362784fa4323e9acbd2d9dc15e0b", None),
    ("lfmm3-to-sm", SQUARE_GRAPH, (),
     "d86d89c87135d9bbf5e18dd1578423cf9c178a097f54fa4f7d8a7be432015410", None),
    ("mosm-to-ccv", TWO_SM, ("--pair", "0", "0"),
     "1299f0fa604ae6a263dfd6fd8032be89cd7339fe37bea4b3671b556c47492ab1", None),
    ("wosm-to-ccv", TWO_SM, ("--pair", "0", "1"),
     "c0e9c780a2d2cae7c064ee8ba2c96b805185031ad8f90563e4787654b504de59", None),
    ("reach-to-ccv", "reach_demo.digraph", ("--target", "4"),
     "f5e2582cb3a0deb2820d5fb9464668d4eecd98161f2665f4fb0e8750e7016d01", None),
    ("reach-to-ccv", "reach_demo.digraph", ("--target", "4", "--layer"),
     "f706ee86f2c4af9c203dc7ea1672f1c463d3ebb83d287468c8ba70adebee4a41",
     "589c4b20d97c3405e4d980640c3f7ac4abac29fbd03dd27a8dfcdfb9abe07ceb"),
    ("reach-to-ccv", "reach_demo.digraph", ("--target", "4", "--pad"),
     "9e0ccf614c8e4c578d82ce7c013a7500cc902a4f80af618c1bb51261623de32f", None),
    ("reach-to-ccv", "reach_demo.digraph", ("--target", "4", "--layer", "--pad"),
     "a97ffefc1781f1edd9a38f5b9cfcf25e34ae3be60699ba87aea3c7012617b3d3",
     "589c4b20d97c3405e4d980640c3f7ac4abac29fbd03dd27a8dfcdfb9abe07ceb"),
    ("universal", "const_demo.ccv", (),
     "3a820fdc5a5988078e147be73144a17f83967860737c75de60632bd762e407ce",
     "7f9ecdea5a625edaf48859b6298883bd872561b47f372afcac8f5fc611b4e4fc"),
]


PIN_IDS = [pin[0] + "".join(f"-{flag}" for flag in ("layer", "pad") if f"--{flag}" in pin[2])
           for pin in REDUCE_PINS]


def pin_source(tmp_path, source):
    """The path of a pin's input: a fixture, or inline text written out."""
    if "\n" not in source:
        return fx(source)
    (tmp_path / "in").write_text(source)
    return str(tmp_path / "in")


@pytest.mark.parametrize(
    "name, source, extra, out_sha, map_sha", REDUCE_PINS,
    ids=PIN_IDS,
)
def test_reduce_pass_output_is_pinned(capsys, tmp_path, name, source, extra, out_sha, map_sha):
    source = pin_source(tmp_path, source)
    out = tmp_path / "out"
    assert run(capsys, "reduce", name, source, str(out), *extra) == (0, "", "")
    assert sha_or_none(out) == out_sha
    assert sha_or_none(tmp_path / "out.map") == map_sha


# the layered lowerings of a seeded closed circuit of 7 wires and 26 gates,
# 4015 nodes per side: (pass, graph sha256, .map sha256, `lfmm` exit code and
# stdout sha256 on the graph)
LARGE_GRAPH_PINS = [
    ("ccv-to-3vlfmm", "14cdd23324d6149dad8ea9e06c6f4af28c2c8e00d45be30480d26e2d3c6d0d07",
     "9e7faa1a6b35b76cd876aedea8b90b4c2fbbccf45da61c51dbde89c7a3c5ee6e",
     0, "cd50ab0aec8b3a969b7b1c9d0cedf6b8c7ddad6b770a1f1bfafa5a9d2b928613"),
    ("ccv-to-3lfmm", "cc52837a300567c3e18934ae7bfeef83a784a7f0922790a8ca9f514e5277a9f8",
     "9e7faa1a6b35b76cd876aedea8b90b4c2fbbccf45da61c51dbde89c7a3c5ee6e",
     0, "143cd3c47cab1e0ff452aa7e4035ad6a42f36bef38a6ebcee96a243c76088bdd"),
]


@pytest.mark.parametrize("name, out_sha, map_sha, code, lfmm_sha", LARGE_GRAPH_PINS,
                         ids=[pin[0] for pin in LARGE_GRAPH_PINS])
def test_large_layered_graph_output_is_pinned(capsys, tmp_path, name, out_sha, map_sha,
                                               code, lfmm_sha):
    from cckit.formats import serialize_circuit
    from cckit.reductions import close_circuit
    from cckit.verify import gen_circuit

    c = gen_circuit(2, 8, 40)
    source = tmp_path / "in.ccv"
    source.write_text(serialize_circuit(close_circuit(c, [i % 2 for i in range(c.num_inputs)])))
    out = tmp_path / "out.graph"
    assert run(capsys, "reduce", name, str(source), str(out)) == (0, "", "")
    assert out.read_text().startswith("GRAPH v1\nbottom 4015\n" if name == "ccv-to-3vlfmm"
                                      else "GRAPH v1\nbottom 4016\n")
    assert (sha_or_none(out), sha_or_none(tmp_path / "out.graph.map")) == (out_sha, map_sha)
    got, stdout, _ = run(capsys, "lfmm", str(out))
    assert (got, hashlib.sha256(stdout.encode()).hexdigest()) == (code, lfmm_sha)


def test_every_pass_is_pinned():
    from cckit.cli import PASSES

    assert {pin[0] for pin in REDUCE_PINS} == set(PASSES)


# the library function each pass runs (reach-to-ccv --layer through layered_circuit)
PASS_LIBRARY = {
    "normalize-down": "normalize_down",
    "dual": "dual",
    "neg-elim": "double_rail",
    "tri-lower": "tri_to_bool",
    "ccv-to-3vlfmm": "ccv_to_3vlfmm",
    "ccv-to-3lfmm": "ccv_to_3lfmm",
    "vlfmm-to-ccv": "vlfmm_to_ccv",
    "lfmm-to-ccvneg": "lfmm_to_ccvneg",
    "lfmm3-to-sm": "lfmm3_to_sm",
    "mosm-to-ccv": "mosm_to_ccv",
    "wosm-to-ccv": "wosm_to_ccv",
    "reach-to-ccv": "reach_to_ccv",
    "universal": "build_universal",
}
# the formats function suffix of each kind
KIND_NAMES = {"ccv": "circuit", "graph": "graph", "sm": "sm", "digraph": "digraph"}


@pytest.mark.parametrize(
    "name, source, extra, out_sha, map_sha", REDUCE_PINS,
    ids=PIN_IDS,
)
def test_reduce_calls_each_function_of_its_row_once(
        monkeypatch, capsys, tmp_path, name, source, extra, out_sha, map_sha):
    # each function is replaced in every cckit module namespace that binds
    # it, as perfbench's tracer does, so a caller holding a function it
    # captured at import reads a count of 0 here
    from cckit.cli import PASSES

    source_kind, target_kind = PASSES[name][:2]
    names = (f"parse_{KIND_NAMES[source_kind]}", f"serialize_{KIND_NAMES[target_kind]}",
             PASS_LIBRARY[name])
    modules = [m for key, m in sys.modules.items() if key.startswith("cckit.")]
    calls = {}
    for fname in names:
        fn = next(vars(m)[fname] for m in modules if fname in vars(m))
        calls[fname] = 0

        def counted(*args, _fname=fname, _fn=fn, **kwargs):
            calls[_fname] += 1
            return _fn(*args, **kwargs)

        for m in modules:
            if vars(m).get(fname) is fn:
                monkeypatch.setattr(m, fname, counted)
    source = pin_source(tmp_path, source)
    assert run(capsys, "reduce", name, source, str(tmp_path / "out"), *extra) == (0, "", "")
    assert calls == dict.fromkeys(names, 1)


def test_readme_examples_name_every_pass():
    from cckit.cli import PASSES

    readme = pathlib.Path(__file__).parent.parent / "README.md"
    named = [line.split()[2] for line in readme.read_text().splitlines()
             if line.startswith("cckit reduce ")]
    assert set(named) == set(PASSES)


def test_lfmm3_to_sm_ignores_a_designation(capsys, tmp_path):
    (tmp_path / "plain.graph").write_text(SQUARE_GRAPH)
    (tmp_path / "edge.graph").write_text(SQUARE_GRAPH + "target-edge 1 0\n")
    outs = [run(capsys, "reduce", "lfmm3-to-sm", str(tmp_path / f), "-")
            for f in ("plain.graph", "edge.graph")]
    assert outs[0] == outs[1]
    code, out, err = outs[0]
    assert (code, err) == (0, "")
    pinned = next(pin[3] for pin in REDUCE_PINS if pin[0] == "lfmm3-to-sm")
    assert hashlib.sha256(out.encode()).hexdigest() == pinned


def test_lfmm_prints_matching_and_decides(capsys):
    code, out, _ = run(capsys, "lfmm", fx("greedy_demo.graph"))
    assert code == 0
    assert out.splitlines() == ["v0 w0", "v2 w2", "v3 w1"]
    code, out, _ = run(capsys, "lfmm", fx("edge_decision_demo.graph"))
    assert code == 0
    assert out.splitlines()[-1] == "answer=1"


def test_gs_plain_and_sections(capsys, tmp_path):
    sm = tmp_path / "b.sm"
    sm.write_text(
        "SM v1\nn 2\nman 0: 0 1\nman 1: 0 1\nwoman 0: 1 0\nwoman 1: 1 0\n"
    )
    code, out, _ = run(capsys, "gs", str(sm))
    assert code == 0
    assert out.splitlines() == ["m0 w1", "m1 w0"]
    for alg in ("2", "3", "4", "5", "6"):
        code, out, _ = run(capsys, "gs", str(sm), "--alg", alg)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "man-optimal:"
        assert "woman-optimal:" in lines
        assert lines[1:3] == ["m0 w1", "m1 w0"]


def test_gs_matrix_rungs_print_what_the_interval_rung_prints(capsys, tmp_path):
    # a 10x10 graph of degree <= 3 becomes an n = 20 marriage instance
    edges = ("0 1|0 3|0 7|1 2|2 1|2 3|2 9|3 2|3 8|4 5|"
             "5 6|6 1|6 7|6 9|7 4|7 6|8 3|8 7|8 9|9 0").split("|")
    graph = ["GRAPH v1", "bottom 10", "top 10"] + [f"edge {e}" for e in edges]
    (tmp_path / "sq.graph").write_text("\n".join(graph) + "\n")
    sm = str(tmp_path / "sq.sm")
    assert run(capsys, "reduce", "lfmm3-to-sm", str(tmp_path / "sq.graph"), sm) == (0, "", "")
    assert pathlib.Path(sm).read_text().startswith("SM v1\nn 20\n")
    code, want, err = run(capsys, "gs", sm, "--alg", "3")
    assert (code, err) == (0, "") and len(want.splitlines()) == 42
    for alg in ("5", "6"):
        assert run(capsys, "gs", sm, "--alg", alg) == (0, want, "")


def test_reach_decides(capsys):
    code, out, _ = run(capsys, "reach", fx("reach_demo.digraph"), "--target", "4")
    assert code == 0 and out == "reachable=1\n"
    code, out, _ = run(
        capsys, "reach", fx("reach_demo.digraph"), "--target", "0", "--src", "3"
    )
    assert code == 1 and out == "reachable=0\n"


def test_reach_reads_stdin(capsys, monkeypatch):
    text = "DIGRAPH v1\nnodes 2\narc 0 1\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "reach", "-", "--target", "1")
    assert code == 0 and out == "reachable=1\n"


def test_verify_pass_line(capsys):
    code, out, _ = run(capsys, "verify", "golden-fixtures")
    assert code == 0
    assert out == "golden-fixtures: pass (9 cases)\n"


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert "no suite named" in err


def test_verify_failure_exits_one(capsys):
    from cckit import verify

    verify._flip_expected = True
    try:
        code, out, _ = run(capsys, "verify", "universal", "--cases", "2")
        assert code == 1
        assert "fail" in out and "CCV v1" in out
    finally:
        verify._flip_expected = False


def test_verify_output_is_deterministic(capsys):
    a = run(capsys, "verify", "sm-ladder", "--cases", "5", "--seed", "11")
    b = run(capsys, "verify", "sm-ladder", "--cases", "5", "--seed", "11")
    assert a == b


def test_python_m_cckit_runs_the_command():
    env = {**os.environ, "PYTHONPATH": SRC}
    for suite, want in (("golden-fixtures", (0, "golden-fixtures: pass (9 cases)\n", "")),
                        ("bogus", (2, "", "error: no suite named 'bogus'\n"))):
        done = subprocess.run([sys.executable, "-m", "cckit", "verify", suite],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == want


def test_usage_error_exits_two(capsys):
    assert main(["frobnicate"]) == 2
    assert main([]) == 2


def test_unreadable_input_exits_two(capsys, tmp_path):
    missing = tmp_path / "missing.ccv"
    code, out, err = run(capsys, "eval", str(missing))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1
    latin = tmp_path / "latin.ccv"
    latin.write_bytes(b"CCV v1\n# caf\xe9\nwires 1\n")
    code, _, err = run(capsys, "eval", str(latin))
    assert code == 2 and "not UTF-8" in err
    code, _, err = run(capsys, "reduce", "dual", fx("const_demo.ccv"), str(tmp_path / "no" / "out.ccv"))
    assert code == 2 and err.startswith("error: cannot write ")


def test_out_of_range_targets_exit_two(capsys, tmp_path):
    demo = fx("reach_demo.digraph")
    for target in ("99", "-1", "5"):
        code, out, err = run(capsys, "reach", demo, "--target", target)
        assert code == 2 and out == ""
        assert err == f"error: target {target} out of range\n"
    code, _, err = run(capsys, "reduce", "reach-to-ccv", demo, "-", "--layer", "--target", "9")
    assert code == 2 and "target 9 out of range" in err
    code, _, err = run(capsys, "reduce", "reach-to-ccv", demo, "-", "--target", "9")
    assert code == 2 and "target 9 out of range" in err


def test_negative_case_count_exits_two(capsys):
    code, out, err = run(capsys, "verify", "universal", "--cases", "-5")
    assert code == 2 and out == ""
    assert "--cases" in err
    code, out, _ = run(capsys, "verify", "universal", "--cases", "0")
    assert code == 0 and out == "universal: pass (0 cases)\n"


def test_unexpected_exception_exits_three(capsys, monkeypatch):
    from cckit import cli

    def broken(args):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "cmd_lfmm", broken)
    code, out, err = run(capsys, "lfmm", fx("greedy_demo.graph"))
    assert code == 3 and out == ""
    assert err.startswith("internal error: KeyError: 'boom' (test_cli.py:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["eval", fx("annotated_demo.ccv"), "--input", "111"],
    ["eval", fx("annotated_demo.ccv"), "--input", "111", "--trace"],
    ["verify", "tri-lowering"],
], ids=["eval", "eval-trace", "verify"])
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
def test_closed_stdout_pipe_exits_two_with_one_error_line(argv, unbuffered):
    # the read end is closed before the child starts, so its first write or
    # its final flush fails: deterministic, unlike a racing `| head`
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "cckit.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (2, b"error: cannot write stdout: Broken pipe\n")


def limited_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("nodes, arcs, argv", [
    (999999, [(0, 1), (1, 2), (2, 999998)], ["reach", "FILE", "--target", "5"]),
    (400, [(i, (i + d) % 400) for i in range(400) for d in (1, 7)],
     ["reduce", "reach-to-ccv", "FILE", "-", "--layer", "--target", "7"]),
], ids=["reach-999999-nodes", "layered-400-nodes-800-arcs"])
def test_oversized_reachability_exits_two_before_building(tmp_path, nodes, arcs, argv):
    # in a child under a 512 MB address-space limit and a timeout, so that a
    # missing guard fails this test instead of exhausting the machine
    path = tmp_path / "big.digraph"
    path.write_text(f"DIGRAPH v1\nnodes {nodes}\n" + "".join(f"arc {u} {v}\n" for u, v in arcs))
    argv = [str(path) if a == "FILE" else a for a in argv]
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cckit.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=30,
                          preexec_fn=limited_address_space)
    assert time.perf_counter() - start < 2.0
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and "over the limit of 10000000" in done.stderr
    assert done.stderr.count("\n") == 1


@pytest.mark.parametrize("size, argv, message", [
    ((300000000, 1), ["lfmm", "FILE"],
     "a graph of 300000000 + 1 vertices is over the limit of 10000000"),
    ((2000, 2000), ["reduce", "lfmm3-to-sm", "FILE", "-"],
     "the marriage instance would have 32000000 preference entries, over the limit of 10000000"),
], ids=["lfmm-300000000-bottoms", "lfmm3-to-sm-2000-square"])
def test_oversized_graphs_exit_two_before_building(tmp_path, size, argv, message):
    # in a child under a 512 MB address-space limit and a timeout, as above
    path = tmp_path / "big.graph"
    path.write_text("GRAPH v1\nbottom %d\ntop %d\nedge 0 0\n" % size)
    argv = [str(path) if a == "FILE" else a for a in argv]
    done = subprocess.run([sys.executable, "-m", "cckit.cli", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=30,
                          preexec_fn=limited_address_space)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")


def test_oversized_universal_exits_two_before_building(tmp_path):
    # 300 wires and 300 gates: UNIV(300, 300) would have 4 * 300 * 299 * 300
    # gates; in a child under a 512 MB address-space limit and a timeout, as above
    path = tmp_path / "big.ccv"
    path.write_text("CCV v1\nwires 300\n" + "".join(f"annot {w} 0\n" for w in range(300))
                    + "".join(f"gate {i} {(i + 1) % 300}\n" for i in range(300)) + "output 0\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cckit.cli", "reduce", "universal", str(path), "-"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=30, preexec_fn=limited_address_space)
    assert time.perf_counter() - start < 2.0
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: the universal circuit would have 107640000 gates on 53820300 wires, "
        "over the limit of 10000000\n")


@pytest.mark.parametrize("name, message", [
    ("mosm-to-ccv", "the pair circuit would have up to 20480009 gates on 1036801 wires, over the limit"),
    ("wosm-to-ccv", "the pair circuit would have up to 20480009 gates on 1036801 wires, over the limit"),
    ("ccv-to-3vlfmm", "a graph of 9003000 + 9003000 vertices is over the limit"),
    ("ccv-to-3lfmm", "a graph of 9003001 + 9003001 vertices is over the limit"),
])
def test_oversized_lowerings_exit_two_before_building(tmp_path, name, message):
    # a 40-person instance, whose pair circuit has 8 * 40**4 + 2 prefix gates,
    # and a 1000-wire cycle of 1000 gates, 3000 wires and gates after
    # to_all_up, so 3001 * 3000 graph nodes per side; in a child under a
    # 512 MB address-space limit and a timeout, as above
    from cckit.formats import serialize_sm
    from cckit.verify import gen_sm

    if name.endswith("-to-ccv"):
        path, flags = tmp_path / "big.sm", ["--pair", "0", "0"]
        path.write_text(serialize_sm(gen_sm(1, 40)))
    else:
        path, flags = tmp_path / "ring.ccv", []
        path.write_text("CCV v1\nwires 1000\n" + "".join(f"annot {w} {w % 2}\n" for w in range(1000))
                        + "".join(f"gate {i} {(i + 1) % 1000}\n" for i in range(1000)) + "output 0\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cckit.cli", "reduce", name, str(path), "-", *flags],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=30, preexec_fn=limited_address_space)
    assert time.perf_counter() - start < 2.0
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", f"error: {message} of 10000000\n")


def test_a_lowering_out_of_memory_exits_two(tmp_path):
    # a 700-wire cycle of 700 gates passes the vertex limit, but its graph
    # does not fit in 512 MB: the child's MemoryError exits 2, not 3.  It
    # takes about 1.2 to 1.8 s to fill the limit, hence the looser bound
    path = tmp_path / "ring.ccv"
    path.write_text("CCV v1\nwires 700\n" + "".join(f"annot {w} {w % 2}\n" for w in range(700))
                    + "".join(f"gate {i} {(i + 1) % 700}\n" for i in range(700)) + "output 0\n")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "cckit.cli", "reduce", "ccv-to-3vlfmm", str(path), "-"],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
                          timeout=30, preexec_fn=limited_address_space)
    assert time.perf_counter() - start < 5.0
    assert (done.returncode, done.stdout, done.stderr) == (2, "", "error: out of memory\n")


def test_reduce_universal_refuses_a_circuit_answering_off_wire_zero(capsys, tmp_path):
    # UNIV(m, n) answers on data wire 0, so for a circuit answering on wire 1
    # it would answer a different question
    src = tmp_path / "c.ccv"
    src.write_text("CCV v1\nwires 2\nannot 0 x0\nannot 1 x1\ngate 0 1\noutput 1\n")
    out = tmp_path / "u.ccv"
    assert run(capsys, "reduce", "universal", str(src), str(out)) == (
        2, "", "error: the universal circuit answers on wire 0, not on output wire 1\n")
    assert not out.exists() and not (tmp_path / "u.ccv.map").exists()


def test_parser_is_built_once_and_carries_nothing_between_calls(capsys):
    from cckit import cli

    assert cli._parser() is cli._parser()
    assert run(capsys, "eval", fx("const_demo.ccv"), "--trace")[1].startswith("step 0 ")
    assert run(capsys, "eval", fx("const_demo.ccv")) == (0, "w0=1\nw1=1\nw2=0\nanswer=1\n", "")
