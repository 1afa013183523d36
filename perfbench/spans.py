"""Per-layer spans, recorded from outside the package.

While it traces an op, the tracer replaces each layer's public functions
with a wrapper, in every ``cckit`` module namespace that holds them
(``cckit.verify.eval``, ``cckit.cli.parse_circuit``, ...), and on the
class for methods such as ``Circuit.__init__``.  The wrapper records one span: its name, start,
end, parent span and op id, plus the sizes it took in and gave out.
Names missing from the package are skipped, so the tracer keeps working
while the code under it is refactored.

Spans are kept in memory and written out once the run ends.  Sizing a
span's arguments and result runs on a paused clock, so it adds to the
traced wall time but to no span's duration: within an op, the self times
of all spans plus the op's own self time (``unattributed_s``) add up to
the op's traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import time
from array import array

PASSES = ("double_rail", "to_all_up", "ccv_to_3vlfmm", "vlfmm_to_ccv",
          "lfmm_to_ccvneg", "lfmm3_to_sm", "sm_to_tri_circuit", "tri_to_bool")

# (span name, wrapped targets as (module, attribute path))
LAYERS = (
    ("cli", [("cli", "main")]),
    ("formats.parse", [
        ("formats", "parse_circuit"), ("formats", "parse_graph"),
        ("formats", "parse_sm"), ("formats", "parse_digraph")]),
    ("formats.serialize", [
        ("formats", "serialize_circuit"), ("formats", "serialize_graph"),
        ("formats", "serialize_sm"), ("formats", "serialize_digraph")]),
    ("circuit.build", [("circuit", "Circuit.__init__")]),
    ("circuit.eval", [("circuit", "eval")]),
    ("circuit.eval_tri", [("circuit", "eval_tri")]),
    ("circuit.transform", [
        ("circuit", "normalize_down"), ("circuit", "dual"),
        ("circuit", "mirror"), ("circuit", "compose")]),
    ("reachability.layer", [("reachability", "layer")]),
    ("reachability.reach_to_ccv", [("reachability", "reach_to_ccv")]),
) + tuple(
    (f"reductions.{p}", [("reductions", p)]) for p in PASSES
) + (
    ("reductions.other", [
        ("reductions", "ccv_to_3lfmm"), ("reductions", "ccvneg_to_ccv"),
        ("reductions", "mosm_to_ccv"), ("reductions", "wosm_to_ccv"),
        ("reductions", "_optimal_pair_circuit"), ("reductions", "_sm_rail_prefix")]),
    ("matching.neighbours", [("matching", "BipartiteGraph.neighbours_of_bottom")]),
    ("matching", [
        ("matching", "BipartiteGraph.__init__"), ("matching", "lfm_matching"),
        ("matching", "lfmm_decision"), ("matching", "vlfmm_decision"),
        ("matching", "max_degree")]),
    ("stable_marriage", [
        ("stable_marriage", f) for f in (
            "gale_shapley", "symmetric_gs", "interval_run", "delayed_interval_run",
            "interval_logic_run", "subramanian_run", "is_stable", "all_stable_marriages",
            "delayed_interval_states", "matrix_of_intervals", "marriage_to_feasible",
            "is_feasible_pair", "feasible_to_marriage")]),
    ("universal.build", [("universal", "build_universal")]),
    ("lipschitz", [
        ("lipschitz", "circuit_function"), ("lipschitz", "is_one_lipschitz"),
        ("lipschitz", "strictify")]),
    ("verify", [("verify", "run_suite")]),
)

MODULES = ("cli", "formats", "circuit", "reachability", "reductions", "matching",
           "stable_marriage", "universal", "lipschitz", "verify")

# size ledger columns, taken in and given out by every span
FIELDS = ("wires", "gates", "dummies", "negations", "edges", "bytes",
          "rows", "snapshots", "rounds", "cases")
NF = len(FIELDS)
_ZEROS = array("q", [0] * 2 * NF)
WIRES, GATES, DUMMIES, NEGATIONS, EDGES, BYTES, ROWS, SNAPSHOTS, ROUNDS, CASES = range(NF)


class Tracer:
    def __init__(self):
        self.names = ["op"] + [name for name, _ in LAYERS]
        self.kind = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self.sizes = array("q")  # 2 * NF per span: sizes in, then sizes out
        self.stack = []
        self.paused = 0.0
        self.current_op = -1
        self._seen = {}
        self._patches = self._find_patches()

    def clock(self):
        return time.perf_counter() - self.paused

    def open(self, kind):
        i = len(self.start)
        self.kind.append(kind)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_id.append(self.current_op)
        self.sizes.extend(_ZEROS)
        self.stack.append(i)
        return i

    def close(self, i, args, result):
        self.end[i] = self.clock()
        self.stack.pop()
        t0 = time.perf_counter()
        acc = [0] * (2 * NF)
        for a in args:
            self._size(a, acc, 0, True)
        self._size(result, acc, NF, True)
        if self.names[self.kind[i]] == "stable_marriage" and isinstance(result, tuple):
            # the marriage solvers return their round count, or their
            # per-round steps, last
            last = result[-1]
            if isinstance(last, int):
                acc[NF + ROUNDS] += last
            elif isinstance(last, list):
                acc[NF + ROUNDS] += len(last) - 1
        self.sizes[i * 2 * NF:(i + 1) * 2 * NF] = array("q", acc)
        self.paused += time.perf_counter() - t0

    def _size(self, obj, acc, off, top):
        """Add obj's sizes into acc[off:off + NF] (duck typed)."""
        if obj is None or isinstance(obj, (bool, int, float, dict, set, frozenset)):
            return
        if isinstance(obj, str):
            acc[off + BYTES] += len(obj)
            return
        if isinstance(obj, (tuple, list)):
            if top and len(obj) <= 4:  # a result tuple such as (circuit, wire_map)
                for x in obj:
                    self._size(x, acc, off, False)
            return
        obj = getattr(obj, "circuit", None) or getattr(obj, "graph", None) or obj
        try:
            if hasattr(obj, "gates") and hasattr(obj, "num_wires"):
                for f, v in zip((WIRES, GATES, DUMMIES, NEGATIONS), self._circuit(obj)):
                    acc[off + f] += v
            elif hasattr(obj, "edges"):
                acc[off + EDGES] += len(obj.edges)
            elif hasattr(obj, "snapshots"):
                acc[off + SNAPSHOTS] += len(obj.snapshots)
            elif hasattr(obj, "rows") and hasattr(obj, "in_bits"):
                acc[off + ROWS] += len(obj.rows)
            elif hasattr(obj, "failures") and hasattr(obj, "cases"):
                acc[off + CASES] += obj.cases
        except (AttributeError, TypeError):
            pass  # a shape this ledger does not know: no sizes

    def _circuit(self, c):
        """(wires, gates, dummies, negations), scanned once per op."""
        hit = self._seen.get(id(c))
        if hit is None:
            dummies = negations = 0
            for g in c.gates:
                lo = getattr(g, "min_wire", None)
                if lo is None:
                    negations += 1
                elif lo == g.max_wire:
                    dummies += 1
            # the circuit is kept with its counts so that its id stays unique
            hit = self._seen[id(c)] = (c, (c.num_wires, len(c.gates), dummies, negations))
        return hit[1]

    @contextlib.contextmanager
    def op(self, op_id):
        """Trace one op: the wrappers are in place only while it runs, and
        its root span holds everything it calls."""
        for home, attr, _, wrapped in self._patches:
            setattr(home, attr, wrapped)
        try:
            self.current_op = op_id
            i = self.open(0)
            try:
                yield
            finally:
                self.close(i, (), None)
        finally:
            for home, attr, fn, _ in reversed(self._patches):
                setattr(home, attr, fn)
            self._seen.clear()

    def _find_patches(self):
        """(namespace, name, function, wrapper) for every place a caller
        looks a traced function up; names the package lacks are skipped."""
        patches = []
        mods = [importlib.import_module(f"cckit.{m}") for m in MODULES]
        for kind, (_, targets) in enumerate(LAYERS, start=1):
            for mod, path in targets:
                owner = importlib.import_module(f"cckit.{mod}")
                *cls, attr = path.split(".")
                for c in cls:
                    owner = getattr(owner, c, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    continue
                wrapped = self._wrap(kind, fn, attr == "__init__")
                homes = [owner] if cls else [m for m in mods if vars(m).get(attr) is fn]
                patches += [(home, attr, fn, wrapped) for home in homes]
        return patches

    def _wrap(self, kind, fn, is_init):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self.open(kind)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(i, args[is_init:], None)
                raise
            self.close(i, args[is_init:], args[0] if is_init else result)
            return result

        return traced

    # -- reading the spans back ------------------------------------------------

    def span_sizes(self, i):
        base = i * 2 * NF
        return list(self.sizes[base:base + NF]), list(self.sizes[base + NF:base + 2 * NF])

    def self_times(self):
        """Each span's duration minus its children's."""
        out = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def op_walls(self):
        return {self.op_id[i]: self.end[i] - self.start[i]
                for i in range(len(self.start)) if self.parent[i] < 0}

    def totals(self):
        """Per span name: self seconds, calls, summed sizes in and out."""
        agg = {name: {"s": 0.0, "calls": 0, "in": [0] * NF, "out": [0] * NF}
               for name in self.names}
        for i, st in enumerate(self.self_times()):
            row = agg[self.names[self.kind[i]]]
            row["s"] += st
            row["calls"] += 1
            ins, outs = self.span_sizes(i)
            for f in range(NF):
                row["in"][f] += ins[f]
                row["out"][f] += outs[f]
        return agg

    def write(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("\t".join(["span", "parent", "op", "name", "start", "end"]
                               + [f"in.{f}" for f in FIELDS] + [f"out.{f}" for f in FIELDS]) + "\n")
            for i in range(len(self.start)):
                ins, outs = self.span_sizes(i)
                fh.write("\t".join(map(str, [i, self.parent[i], self.op_id[i],
                                             self.names[self.kind[i]],
                                             f"{self.start[i]:.9f}", f"{self.end[i]:.9f}",
                                             *ins, *outs])) + "\n")


def layer_metrics(tracer, traced_pairs):
    """Per-layer metrics, each a mean per traced op."""
    agg = tracer.totals()
    ops = len(traced_pairs)
    m = {}

    def add(metric, total, unit="count"):
        m[metric] = (total / ops, unit)

    def timed(metric, calls_metric, *names):
        add(metric, sum(agg[n]["s"] for n in names), "s")
        add(calls_metric, sum(agg[n]["calls"] for n in names))

    def size(side, field, *names):
        return sum(agg[n][side][field] for n in names)

    timed("cli.self_s", "cli.calls", "cli")
    timed("formats.parse_s", "formats.parse_calls", "formats.parse")
    add("formats.parse_bytes", size("in", BYTES, "formats.parse"), "B")
    timed("formats.serialize_s", "formats.serialize_calls", "formats.serialize")
    add("formats.serialize_bytes", size("out", BYTES, "formats.serialize"), "B")
    timed("circuit.build_s", "circuit.build_calls", "circuit.build")
    add("circuit.build_gates", size("out", GATES, "circuit.build"))
    timed("circuit.eval_s", "circuit.eval_calls", "circuit.eval")
    add("circuit.eval_gates", size("in", GATES, "circuit.eval"))
    add("circuit.trace_snapshots", size("out", SNAPSHOTS, "circuit.eval", "circuit.eval_tri"))
    timed("circuit.eval_tri_s", "circuit.eval_tri_calls", "circuit.eval_tri")
    timed("circuit.transform_s", "circuit.transform_calls", "circuit.transform")
    timed("reachability.layer_s", "reachability.layer_calls", "reachability.layer")
    timed("reachability.reach_to_ccv_s", "reachability.reach_to_ccv_calls",
          "reachability.reach_to_ccv")
    gates = size("out", GATES, "reachability.reach_to_ccv")
    add("reachability.gates_out", gates)
    dummies = size("out", DUMMIES, "reachability.reach_to_ccv")
    m["reachability.dummy_share"] = (dummies / gates if gates else 0.0, "ratio")
    passes = [f"reductions.{p}" for p in PASSES]
    for p in passes + ["reductions.other"]:
        timed(f"{p}_s", f"{p}_calls", p)
    add("reductions.gates_out", size("out", GATES, *passes))
    add("reductions.edges_out", size("out", EDGES, *passes))
    timed("matching.s", "matching.calls", "matching", "matching.neighbours")
    add("matching.neighbour_scans", size("in", EDGES, "matching.neighbours"))
    timed("stable_marriage.s", "stable_marriage.calls", "stable_marriage")
    add("stable_marriage.rounds", size("out", ROUNDS, "stable_marriage"))
    timed("universal.build_s", "universal.build_calls", "universal.build")
    add("universal.gates_out", size("out", GATES, "universal.build"))
    timed("lipschitz.s", "lipschitz.calls", "lipschitz")
    add("lipschitz.rows", size("in", ROWS, "lipschitz") + size("out", ROWS, "lipschitz"))
    timed("verify.self_s", "verify.calls", "verify")
    add("verify.cases", size("out", CASES, "verify"))
    add("unattributed_s", agg["op"]["s"], "s")
    add("op_wall_s", sum(tracer.op_walls().values()), "s")
    traced = sum(t for t, _ in traced_pairs)
    plain = sum(u for _, u in traced_pairs)
    m["trace.overhead"] = (traced / plain, "ratio")
    m["trace.ops"] = (ops, "count")
    return m
