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


def _wire_lines(wmap):
    return [f"w{a} w{b}" for a, b in sorted(wmap.items())]


def _closed_input(text, args):
    c = parse_circuit(text)
    return c, _bits(c, args.input or "")


def _normalize_down(text, args):
    out_c, wmap = normalize_down(parse_circuit(text))
    return serialize_circuit(out_c), _wire_lines(wmap)


def _dual(text, args):
    return serialize_circuit(dual(parse_circuit(text))), None


def _neg_elim(text, args):
    out_c, wmap = double_rail(parse_circuit(text))
    return serialize_circuit(out_c), _wire_lines(wmap)


def _tri_lower(text, args):
    inst, rails = tri_to_bool(*_closed_input(text, args))
    rail_lines = [f"w{w} w{a},w{b}" for w, (a, b) in sorted(rails.items())]
    return serialize_circuit(inst.circuit), rail_lines


def _ccv_to_lfmm(text, args):
    up, wmap = to_all_up(close_circuit(*_closed_input(text, args)).circuit)
    lower = ccv_to_3vlfmm if args.pass_name == "ccv-to-3vlfmm" else ccv_to_3lfmm
    lf, node_map = lower(CcvInstance(up))
    nodes = [f"n{l},{w} {i}" for (l, w), i in sorted(node_map.items())]
    return serialize_graph(lf.graph, lf.designated), _wire_lines(wmap) + nodes


def _vlfmm_to_ccv(text, args):
    g, desig = parse_graph(text)
    if desig is None or desig[0] != "top":
        raise BadShapeError("needs a graph with a target-top designation")
    n = g.num_top
    return serialize_circuit(vlfmm_to_ccv(g, desig[1]).circuit), (
        [f"t{j} w{j}" for j in range(n)] + [f"v{i} w{n + i}" for i in range(g.num_bottom)])


def _lfmm_to_ccvneg(text, args):
    g, desig = parse_graph(text)
    if desig is None or desig[0] != "edge":
        raise BadShapeError("needs a graph with a target-edge designation")
    return serialize_circuit(lfmm_to_ccvneg(g, desig[1]).circuit), None


def _lfmm3_to_sm(text, args):
    g, _ = parse_graph(text)  # a marriage instance has no place for a designation
    return serialize_sm(lfmm3_to_sm(g, g.num_bottom)), None


def _optimal_pair(text, args):
    inst = parse_sm(text)
    if args.pair is None:
        raise BadShapeError("needs --pair M W")
    build = mosm_to_ccv if args.pass_name == "mosm-to-ccv" else wosm_to_ccv
    return serialize_circuit(build(inst, tuple(args.pair)).circuit), None


def _reach_to_ccv(text, args):
    if args.src is not None and not args.layer:
        raise BadShapeError("--src needs --layer")
    g = parse_digraph(text)
    if args.target is None:
        raise BadShapeError("needs --target")
    if not args.layer:
        return serialize_circuit(reach_to_ccv(g, args.target, pad_dummies=args.pad)), None
    c, node_map = _layered_circuit(g, args.src or 0, args.target, args.pad)
    return serialize_circuit(c), [f"n{v} {i}" for v, i in sorted(node_map.items())]


def _universal(text, args):
    c = parse_circuit(text)
    m, n = max(2, c.num_wires), len(c.gates)
    enc = encode_control(c, m, n)
    return serialize_circuit(build_universal(m, n)), [f"b{i} {b}" for i, b in enumerate(enc)]


# name: (optional flags it reads, fn(text, args) -> (output text, sidecar lines
# or None)).  fn looks library functions up as it runs, so a tracer sees them.
PASSES = {
    "normalize-down": ((), _normalize_down),
    "dual": ((), _dual),
    "neg-elim": ((), _neg_elim),
    "tri-lower": (("input",), _tri_lower),
    "ccv-to-3vlfmm": (("input",), _ccv_to_lfmm),
    "ccv-to-3lfmm": (("input",), _ccv_to_lfmm),
    "vlfmm-to-ccv": ((), _vlfmm_to_ccv),
    "lfmm-to-ccvneg": ((), _lfmm_to_ccvneg),
    "lfmm3-to-sm": ((), _lfmm3_to_sm),
    "mosm-to-ccv": (("pair",), _optimal_pair),
    "wosm-to-ccv": (("pair",), _optimal_pair),
    "reach-to-ccv": (("target", "src", "layer", "pad"), _reach_to_ccv),
    "universal": ((), _universal),
}
_PASS_FLAGS = tuple(dict.fromkeys(f for flags, _ in PASSES.values() for f in flags))


def cmd_reduce(args) -> int:
    name = args.pass_name
    if name not in PASSES:
        raise BadShapeError(f"unknown pass {name!r}")
    reads, run = PASSES[name]
    stray = [f"--{f}" for f in _PASS_FLAGS if f not in reads
             and getattr(args, f) is not None and getattr(args, f) is not False]
    if stray:
        raise BadShapeError(f"{name} does not read {', '.join(stray)}")
    out, sidecar = run(_read(args.infile), args)
    if sidecar is None and args.map is not None:
        raise BadShapeError(f"{name} writes no correspondence data; drop --map")
    _write(args.outfile, out)
    if sidecar is not None and (args.map is not None or args.outfile != "-"):
        map_path = args.outfile + ".map" if args.map is None else args.map
        _write(map_path, "".join(line + "\n" for line in sidecar))
    return 0


def cmd_lfmm(args) -> int:
    g, desig = parse_graph(_read(args.file))
    for i, j in sorted(lfm_matching(g).pairs):
        print(f"v{i} w{j}")
    if desig is None:
        return 0
    decide = lfmm_decision if desig[0] == "edge" else vlfmm_decision
    answer = decide(g, desig[1])
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
