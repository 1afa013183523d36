"""Command-line front end.

Exit codes: 0 success, 1 decision answered false, 2 usage or parse or
precondition error, 3 internal invariant violation or any other internal
failure.  ``-`` stands for stdin or stdout in file positions.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .circuit import STAR, dual, eval, eval_tri, normalize_down
from .errors import (
    BadShapeError,
    CckitError,
    IndexOutOfRangeError,
    InternalBoundViolationError,
)
from .formats import (
    parse_circuit,
    parse_digraph,
    parse_graph,
    parse_sm,
    serialize_circuit,
    serialize_graph,
    serialize_sm,
)
from .matching import lfm_matching, lfmm_decision, vlfmm_decision
from .reachability import layer, reach_to_ccv
from .reductions import (
    CcvInstance,
    ccv_to_3lfmm,
    ccv_to_3vlfmm,
    close_circuit,
    double_rail,
    lfmm3_to_sm,
    lfmm_to_ccvneg,
    mosm_to_ccv,
    to_all_up,
    tri_to_bool,
    vlfmm_to_ccv,
    wosm_to_ccv,
)
from .stable_marriage import (
    delayed_interval_run,
    gale_shapley,
    interval_logic_run,
    interval_run,
    subramanian_run,
    symmetric_gs,
)
from .universal import build_universal, encode_control
from .verify import SUITES, render_report, run_suite


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CckitError(f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise CckitError(f"{path} is not UTF-8 text (byte {e.start})") from None


def _write(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise CckitError(f"cannot write {path}: {e.strerror or e}") from None


def _bits(c, s: str):
    """The values of an --input or --tri string for circuit c."""
    if len(s) > c.num_inputs:
        raise BadShapeError(f"{len(s)} input values for a circuit with {c.num_inputs} inputs")
    out = []
    for ch in s:
        if ch == "0":
            out.append(0)
        elif ch == "1":
            out.append(1)
        elif ch == "*":
            out.append(STAR)
        else:
            raise BadShapeError(f"input strings use 0, 1, and *, not {ch!r}")
    return out


def cmd_eval(args) -> int:
    c = parse_circuit(_read(args.file))
    x = _bits(c, args.tri if args.tri is not None else (args.input or ""))
    show = None
    if args.trace:
        steps = itertools.count()

        def show(snap):
            print(f"step {next(steps)} " + "".join(map(str, snap)))

    if args.tri is not None:
        outputs, answer = eval_tri(c, x, on_step=show)
    else:
        outputs, answer = eval(c, x, allow_negations=True, on_step=show)
    for w, v in enumerate(outputs):
        print(f"w{w}={v}")
    print(f"answer={answer}")
    return 0 if answer == 1 else 1


# The optional flags each pass reads; any other one given to it is an error.
PASS_FLAGS = {
    "normalize-down": (),
    "dual": (),
    "neg-elim": (),
    "tri-lower": ("input",),
    "ccv-to-3vlfmm": ("input",),
    "ccv-to-3lfmm": ("input",),
    "vlfmm-to-ccv": (),
    "lfmm-to-ccvneg": (),
    "lfmm3-to-sm": (),
    "mosm-to-ccv": ("pair",),
    "wosm-to-ccv": ("pair",),
    "reach-to-ccv": ("target", "src", "layer", "pad"),
    "universal": (),
}


def cmd_reduce(args) -> int:
    name = args.pass_name
    if name not in PASS_FLAGS:
        raise BadShapeError(f"unknown pass {name!r}")
    given = [f for f in ("input", "pair", "target", "src") if getattr(args, f) is not None]
    given += [f for f in ("layer", "pad") if getattr(args, f)]
    stray = [f"--{f}" for f in given if f not in PASS_FLAGS[name]]
    if stray:
        raise BadShapeError(f"{name} does not read {', '.join(stray)}")
    if args.src is not None and not args.layer:
        raise BadShapeError("--src needs --layer")
    text = _read(args.infile)
    sidecar = None  # correspondence lines, for passes that have them

    if name == "normalize-down":
        c = parse_circuit(text)
        out_c, wmap = normalize_down(c)
        out = serialize_circuit(out_c)
        sidecar = [f"w{a} w{b}" for a, b in sorted(wmap.items())]
    elif name == "dual":
        out = serialize_circuit(dual(parse_circuit(text)))
    elif name == "neg-elim":
        out_c, wmap = double_rail(parse_circuit(text))
        out = serialize_circuit(out_c)
        sidecar = [f"w{a} w{b}" for a, b in sorted(wmap.items())]
    elif name == "tri-lower":
        c = parse_circuit(text)
        inst, rails = tri_to_bool(c, _bits(c, args.input or ""))
        out = serialize_circuit(inst.circuit)
        sidecar = [f"w{w} w{a},w{b}" for w, (a, b) in sorted(rails.items())]
    elif name in ("ccv-to-3vlfmm", "ccv-to-3lfmm"):
        c = parse_circuit(text)
        inst = close_circuit(c, _bits(c, args.input or ""))
        up, wmap = to_all_up(inst.circuit)
        lower = ccv_to_3vlfmm if name == "ccv-to-3vlfmm" else ccv_to_3lfmm
        lf, node_map = lower(CcvInstance(up))
        out = serialize_graph(lf.graph, lf.designated)
        sidecar = [f"w{a} w{b}" for a, b in sorted(wmap.items())]
        sidecar += [f"n{l},{w} {i}" for (l, w), i in sorted(node_map.items())]
    elif name == "vlfmm-to-ccv":
        g, desig = parse_graph(text)
        if desig is None or desig[0] != "top":
            raise BadShapeError("needs a graph with a target-top designation")
        inst = vlfmm_to_ccv(g, desig[1])
        out = serialize_circuit(inst.circuit)
        sidecar = [f"t{j} w{j}" for j in range(g.num_top)]
        sidecar += [f"v{i} w{g.num_top + i}" for i in range(g.num_bottom)]
    elif name == "lfmm-to-ccvneg":
        g, desig = parse_graph(text)
        if desig is None or desig[0] != "edge":
            raise BadShapeError("needs a graph with a target-edge designation")
        out = serialize_circuit(lfmm_to_ccvneg(g, desig[1]).circuit)
    elif name == "lfmm3-to-sm":
        g, _ = parse_graph(text)
        out = serialize_sm(lfmm3_to_sm(g, g.num_bottom))
    elif name in ("mosm-to-ccv", "wosm-to-ccv"):
        inst = parse_sm(text)
        if args.pair is None:
            raise BadShapeError("needs --pair M W")
        build = mosm_to_ccv if name == "mosm-to-ccv" else wosm_to_ccv
        out = serialize_circuit(build(inst, tuple(args.pair)).circuit)
    elif name == "reach-to-ccv":
        g = parse_digraph(text)
        if args.target is None:
            raise BadShapeError("needs --target")
        if args.layer:
            c, node_map = _layered_circuit(g, args.src or 0, args.target, args.pad)
            sidecar = [f"n{v} {i}" for v, i in sorted(node_map.items())]
        else:
            c = reach_to_ccv(g, args.target, pad_dummies=args.pad)
        out = serialize_circuit(c)
    else:  # universal
        c = parse_circuit(text)
        m = max(2, c.num_wires)
        n = len(c.gates)
        enc = encode_control(c, m, n)
        out = serialize_circuit(build_universal(m, n))
        sidecar = [f"b{i} {b}" for i, b in enumerate(enc)]

    if sidecar is None and args.map is not None:
        raise BadShapeError(f"{name} writes no correspondence data; drop --map")
    _write(args.outfile, out)
    map_path = args.map
    if map_path is None and args.outfile != "-":
        map_path = args.outfile + ".map"
    if sidecar is not None and map_path is not None:
        _write(map_path, "".join(line + "\n" for line in sidecar))
    return 0


def cmd_lfmm(args) -> int:
    g, desig = parse_graph(_read(args.file))
    for i, j in sorted(lfm_matching(g).pairs):
        print(f"v{i} w{j}")
    if desig is None:
        return 0
    if desig[0] == "edge":
        answer = lfmm_decision(g, desig[1])
    else:
        answer = vlfmm_decision(g, desig[1])
    print(f"answer={answer}")
    return 0 if answer == 1 else 1


def _print_marriage(mar, label=None):
    if label:
        print(label)
    for m, w in sorted(mar.pairs):
        print(f"m{m} w{w}")


def cmd_gs(args) -> int:
    inst = parse_sm(_read(args.file))
    alg = args.alg
    if alg == 1:
        mar, _ = gale_shapley(inst)
        _print_marriage(mar)
        return 0
    if alg == 2:
        man, woman, _ = symmetric_gs(inst)
    else:
        # algorithms 3 to 6 all return (S_M, S_W, final state, rounds)
        run = (interval_run, delayed_interval_run, interval_logic_run, subramanian_run)
        man, woman, _, _ = run[alg - 3](inst)
    _print_marriage(man, "man-optimal:")
    _print_marriage(woman, "woman-optimal:")
    return 0


def _layered_circuit(g, src: int, target: int, pad_dummies: bool = False):
    """Pebbling circuit for src -> target in g, through layer()."""
    if not 0 <= target < g.n:
        raise IndexOutOfRangeError(f"target {target} out of range")
    layered, node_map = layer(g, src)
    return reach_to_ccv(layered, node_map[target], pad_dummies), node_map


def cmd_reach(args) -> int:
    g = parse_digraph(_read(args.file))
    c, _ = _layered_circuit(g, args.src, args.target)
    _, answer = eval(c, ())
    print(f"reachable={answer}")
    return 0 if answer == 1 else 1


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        report = run_suite(name, args.cases, args.seed)
        sys.stdout.write(render_report(report))
        ok = ok and report.passed
    return 0 if ok else 1


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cckit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a circuit")
    ev.add_argument("file")
    values = ev.add_mutually_exclusive_group()
    values.add_argument("--input", help="bit string, one character per input variable")
    values.add_argument("--tri", help="string over 0, *, 1 for three-valued evaluation")
    ev.add_argument("--trace", action="store_true", help="print every snapshot")
    ev.set_defaults(fn=cmd_eval)

    rd = sub.add_parser("reduce", help="run a lowering pass")
    rd.add_argument("pass_name", metavar="pass")
    rd.add_argument("infile")
    rd.add_argument("outfile")
    rd.add_argument("--map", help="sidecar path (default OUTFILE.map)")
    rd.add_argument("--input", help="bit string closing the circuit's inputs")
    rd.add_argument("--pair", nargs=2, type=int, metavar=("M", "W"))
    rd.add_argument("--target", type=int)
    rd.add_argument("--src", type=int, help="reach-to-ccv --layer: source node (default 0)")
    rd.add_argument("--layer", action="store_true", help="time-expand the digraph first")
    rd.add_argument("--pad", action="store_true",
                    help="reach-to-ccv: a dummy gate for every non-arc pair")
    rd.set_defaults(fn=cmd_reduce)

    lf = sub.add_parser("lfmm", help="greedy matching and designated decisions")
    lf.add_argument("file")
    lf.set_defaults(fn=cmd_lfmm)

    gs = sub.add_parser("gs", help="stable marriage algorithms")
    gs.add_argument("file")
    gs.add_argument("--alg", type=int, choices=range(1, 7), default=1)
    gs.set_defaults(fn=cmd_gs)

    rc = sub.add_parser("reach", help="digraph reachability through a circuit")
    rc.add_argument("file")
    rc.add_argument("--target", type=int, required=True)
    rc.add_argument("--src", type=int, default=0)
    rc.set_defaults(fn=cmd_reach)

    vf = sub.add_parser("verify", help="run a property suite")
    vf.add_argument("suite")
    vf.add_argument("--cases", type=int)
    vf.add_argument("--seed", type=int, default=1)
    vf.set_defaults(fn=cmd_verify)

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else int(e.code)
    try:
        return args.fn(args)
    except InternalBoundViolationError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 3
    except CckitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # a bug: keep exit 1 meaning "no"
        tb = e.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        where = f"{os.path.basename(tb.tb_frame.f_code.co_filename)}:{tb.tb_lineno}"
        print(f"internal error: {type(e).__name__}: {e} ({where})", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
