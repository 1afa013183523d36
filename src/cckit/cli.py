"""Command-line front end.

Exit codes: 0 success, 1 decision answered false, 2 usage or parse or
precondition error, 3 internal invariant violation or any other internal
failure.  ``-`` stands for stdin or stdout in file positions.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import stat
import sys

from .circuit import STAR, dual, eval, eval_tri, normalize_down
from .errors import (
    BadShapeError,
    CckitError,
    InternalBoundViolationError,
    PreconditionViolatedError,
)
from .formats import KINDS
from .matching import lfm_matching, lfmm_decision, vlfmm_decision
from .reachability import layered_circuit, reach_to_ccv
from .reductions import (
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


# no O_TRUNC: on a file system that discards freed blocks, truncating an
# existing output to zero and refilling it costs several times the write
_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)


def _write(path: str, text: str):
    """Write ``text`` to ``path``, or to stdout for ``-``.

    An existing regular file is overwritten in place and then cut at the
    end of what was written, so it keeps its inode, links and mode and
    holds exactly the new bytes; a FIFO or a device is written as it is.
    If the write fails, the file is cut at what reached it first, so no
    old bytes follow the new ones.  A run killed mid-write leaves a broken
    file, as a truncating open did.
    """
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        fd = os.open(path, _WRITE_FLAGS, 0o666)
        with open(fd, "w", encoding="utf-8") as fh:
            try:
                fh.write(text)
                fh.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    except OSError as e:
        raise CckitError(f"cannot write {path}: {e.strerror or e}") from None


def _load(kind: str, path: str):
    return KINDS[kind][0](_read(path))


# One wire value from its text, in either value domain: {0, 1} or
# {0, STAR, 1}.  The way back is str, since STAR is the text "*".
_TEXT_VALUE = {"0": 0, "1": 1, "*": STAR}


def _bits(c, s: str):
    """The values of an --input or --tri string for circuit c."""
    if len(s) > c.num_inputs:
        raise BadShapeError(f"{len(s)} input values for a circuit with {c.num_inputs} inputs")
    for ch in s:
        if ch not in _TEXT_VALUE:
            raise BadShapeError(f"input strings use 0, 1, and *, not {ch!r}")
    return [_TEXT_VALUE[ch] for ch in s]


def cmd_eval(args) -> int:
    c = _load("ccv", args.file)
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
    lines = [f"w{w}={v}\n" for w, v in enumerate(outputs)]
    lines.append(f"answer={answer}\n")
    sys.stdout.write("".join(lines))
    return 0 if answer == 1 else 1


def _wired(pair):
    """A (value, wire map) result with its map as sidecar lines."""
    out, wmap = pair
    return out, [f"w{a} w{b}" for a, b in sorted(wmap.items())]


def _tri_lower(c, args):
    # tri wire w sits on rails 2w and 2w + 1
    return tri_to_bool(c, _bits(c, args.input or "")), [
        f"w{w} w{2 * w},w{2 * w + 1}" for w in range(c.num_wires)]


def _ccv_to_lfmm(lower, c, args):
    up, wires = _wired(to_all_up(close_circuit(c, _bits(c, args.input or ""))))
    m = up.num_wires
    return lower(up), wires + [
        f"n{l},{w} {l * m + w}" for l in range(len(up.gates) + 1) for w in range(m)]


def _vlfmm_to_ccv(gd, args):
    g, desig = gd
    if desig is None or desig[0] != "top":
        raise BadShapeError("needs a graph with a target-top designation")
    n = g.num_top
    return vlfmm_to_ccv(g, desig[1]), (
        [f"t{j} w{j}" for j in range(n)] + [f"v{i} w{n + i}" for i in range(g.num_bottom)])


def _lfmm_to_ccvneg(gd, args):
    g, desig = gd
    if desig is None or desig[0] != "edge":
        raise BadShapeError("needs a graph with a target-edge designation")
    return lfmm_to_ccvneg(g, desig[1]), None


def _optimal_pair(build, inst, args):
    if args.pair is None:
        raise BadShapeError("needs --pair M W")
    return build(inst, tuple(args.pair)), None


def _reach_to_ccv(g, args):
    if args.target is None:
        raise BadShapeError("needs --target")
    if not args.layer:
        return reach_to_ccv(g, args.target, pad_dummies=args.pad), None
    c, node_map = layered_circuit(g, args.src or 0, args.target, args.pad)
    return c, [f"n{v} {i}" for v, i in sorted(node_map.items())]


def _universal(c, args):
    if c.output_wire != 0:
        raise PreconditionViolatedError(
            f"the universal circuit answers on wire 0, not on output wire {c.output_wire}")
    m, n = max(2, c.num_wires), len(c.gates)
    enc = encode_control(c, m, n)
    return build_universal(m, n), [f"b{i} {b}" for i, b in enumerate(enc)]


# name: (input kind, output kind, optional flags it reads, run(value, args) ->
# (output value, sidecar lines or None)), the kinds keys of formats.KINDS.
# run looks library functions up as it runs, so a tracer sees them.
PASSES = {
    "normalize-down": ("ccv", "ccv", (), lambda c, args: _wired(normalize_down(c))),
    "dual": ("ccv", "ccv", (), lambda c, args: (dual(c), None)),
    # original wire w is railed wire 2w
    "neg-elim": ("ccv", "ccv", (), lambda c, args: (
        double_rail(c), [f"w{w} w{2 * w}" for w in range(c.num_wires)])),
    "tri-lower": ("ccv", "ccv", ("input",), _tri_lower),
    "ccv-to-3vlfmm": ("ccv", "graph", ("input",),
                      lambda c, args: _ccv_to_lfmm(ccv_to_3vlfmm, c, args)),
    "ccv-to-3lfmm": ("ccv", "graph", ("input",),
                     lambda c, args: _ccv_to_lfmm(ccv_to_3lfmm, c, args)),
    "vlfmm-to-ccv": ("graph", "ccv", (), _vlfmm_to_ccv),
    "lfmm-to-ccvneg": ("graph", "ccv", (), _lfmm_to_ccvneg),
    # a marriage instance has no place for a designation
    "lfmm3-to-sm": ("graph", "sm", (),
                    lambda gd, args: (lfmm3_to_sm(gd[0], gd[0].num_bottom), None)),
    "mosm-to-ccv": ("sm", "ccv", ("pair",),
                    lambda inst, args: _optimal_pair(mosm_to_ccv, inst, args)),
    "wosm-to-ccv": ("sm", "ccv", ("pair",),
                    lambda inst, args: _optimal_pair(wosm_to_ccv, inst, args)),
    "reach-to-ccv": ("digraph", "ccv", ("target", "src", "layer", "pad"), _reach_to_ccv),
    "universal": ("ccv", "ccv", (), _universal),
}
_PASS_FLAGS = tuple(dict.fromkeys(f for _, _, flags, _ in PASSES.values() for f in flags))


def cmd_reduce(args) -> int:
    name = args.pass_name
    if name not in PASSES:
        raise BadShapeError(f"unknown pass {name!r}")
    source, target, reads, run = PASSES[name]
    stray = [f"--{f}" for f in _PASS_FLAGS if f not in reads
             and getattr(args, f) is not None and getattr(args, f) is not False]
    if stray:
        raise BadShapeError(f"{name} does not read {', '.join(stray)}")
    # only reach-to-ccv reads --src, and only with --layer
    if args.src is not None and not args.layer:
        raise BadShapeError("--src needs --layer")
    out, sidecar = run(_load(source, args.infile), args)
    if sidecar is None and args.map is not None:
        raise BadShapeError(f"{name} writes no correspondence data; drop --map")
    _write(args.outfile, KINDS[target][1](out))
    if sidecar is not None and (args.map is not None or args.outfile != "-"):
        map_path = args.outfile + ".map" if args.map is None else args.map
        _write(map_path, "".join(line + "\n" for line in sidecar))
    return 0


def cmd_lfmm(args) -> int:
    g, desig = _load("graph", args.file)
    lines = [f"v{i} w{j}\n" for i, j in sorted(lfm_matching(g))]
    code = 0
    if desig is not None:
        decide = lfmm_decision if desig[0] == "edge" else vlfmm_decision
        answer = decide(g, desig[1])
        lines.append(f"answer={answer}\n")
        code = 0 if answer == 1 else 1
    sys.stdout.write("".join(lines))
    return code


def _marriage_lines(mar, label=None):
    return ([f"{label}\n"] if label else []) + [f"m{m} w{w}\n" for m, w in sorted(mar.pairs)]


def cmd_gs(args) -> int:
    inst = _load("sm", args.file)
    alg = args.alg
    if alg == 1:
        mar, _ = gale_shapley(inst)
        sys.stdout.write("".join(_marriage_lines(mar)))
        return 0
    if alg == 2:
        man, woman, _ = symmetric_gs(inst)
    else:
        # algorithms 3 to 6 all return (S_M, S_W, final state, rounds)
        run = (interval_run, delayed_interval_run, interval_logic_run, subramanian_run)
        man, woman, _, _ = run[alg - 3](inst)
    lines = _marriage_lines(man, "man-optimal:") + _marriage_lines(woman, "woman-optimal:")
    sys.stdout.write("".join(lines))
    return 0


def cmd_reach(args) -> int:
    g = _load("digraph", args.file)
    c, _ = layered_circuit(g, args.src, args.target)
    _, answer = eval(c, ())
    sys.stdout.write(f"reachable={answer}\n")
    return 0 if answer == 1 else 1


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    ok = True
    for name in names:
        report = run_suite(name, args.cases, args.seed)
        sys.stdout.write(render_report(report))
        ok = ok and report.passed
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """Built once; ``main`` runs ``cmd_<command>`` as it finds it at call time."""
    p = argparse.ArgumentParser(prog="cckit", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a circuit")
    ev.add_argument("file")
    values = ev.add_mutually_exclusive_group()
    values.add_argument("--input", help="bit string, one character per input variable")
    values.add_argument("--tri", help="string over 0, *, 1 for three-valued evaluation")
    ev.add_argument("--trace", action="store_true", help="print every snapshot")

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

    lf = sub.add_parser("lfmm", help="greedy matching and designated decisions")
    lf.add_argument("file")

    gs = sub.add_parser("gs", help="stable marriage algorithms")
    gs.add_argument("file")
    gs.add_argument("--alg", type=int, choices=range(1, 7), default=1)

    rc = sub.add_parser("reach", help="digraph reachability through a circuit")
    rc.add_argument("file")
    rc.add_argument("--target", type=int, required=True)
    rc.add_argument("--src", type=int, default=0)

    vf = sub.add_parser("verify", help="run a property suite")
    vf.add_argument("suite")
    vf.add_argument("--cases", type=int)
    vf.add_argument("--seed", type=int, default=1)

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else int(e.code)
    try:
        code = globals()[f"cmd_{args.command}"](args)
        sys.stdout.flush()  # a closed stdout pipe then fails here, not at exit
        return code
    except InternalBoundViolationError as e:
        print(f"internal invariant violated: {e}", file=sys.stderr)
        return 3
    except CckitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError as e:  # stdout's reader has gone, as under `| head`
        # point stdout at /dev/null, so the interpreter's last flush of what
        # is still buffered neither fails nor reports an ignored exception
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"error: cannot write stdout: {e.strerror}", file=sys.stderr)
        return 2
    except MemoryError:  # a request under the size limits that still did not fit
        print("error: out of memory", file=sys.stderr)
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
