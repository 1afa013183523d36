"""Line-oriented text formats for circuits, graphs, and marriage instances.

All four grammars share the same conventions: one directive per line,
`#` starts a comment anywhere, blank lines are ignored, all indices are
0-based, and the first significant line is a versioned header.  The
serializers emit a canonical form (fixed directive order, single spaces,
ascending indices where order carries no meaning) so that parse and
serialize are mutual inverses.

    CCV v1      wires/annot/gate/neg/output   (annot values 0, 1, x<i>, !x<i>)
    GRAPH v1    bottom/top/edge, optional target-edge or target-top
    SM v1       n, then one `man <i>: ...` and `woman <j>: ...` row each
    DIGRAPH v1  nodes/arc
"""

from __future__ import annotations

import re

from .circuit import Circuit, Comparator, Const, Input, NegInput, Negation
from .errors import ParseError
from .matching import BipartiteGraph
from .reachability import Digraph
from .stable_marriage import SMInstance


def _lines(text):
    """Yield ``(line number, tokens)`` for each significant line."""
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            yield no, toks


def _eof_line(text) -> int:
    return max(1, len(text.splitlines()))


_INT = re.compile(r"-?[0-9]+")


def _int(token, no, what):
    if _INT.fullmatch(token) is None:
        raise ParseError(no, f"bad {what} {token!r}")
    return int(token)


def _header(text, expect):
    """The significant lines after the ``expect`` header, as an iterator."""
    rows = _lines(text)
    first = next(rows, None)
    if first is None:
        raise ParseError(_eof_line(text), f"missing `{expect}` header")
    no, toks = first
    if toks != expect.split():
        raise ParseError(no, f"expected `{expect}` header")
    return rows


def _need(count, toks, no):
    if len(toks) != count:
        raise ParseError(no, f"`{toks[0]}` takes {count - 1} argument(s)")


def parse_circuit(text: str) -> Circuit:
    rows = _header(text, "CCV v1")
    wires = None
    annots = {}
    gates = []
    # One Comparator per wire pair, found by the tokens as written (so a
    # repeated line skips integer parsing) and by the pair of integers.
    shared = {}
    output = None
    for no, toks in rows:
        kind = toks[0]
        if kind == "wires":
            _need(2, toks, no)
            if wires is not None:
                raise ParseError(no, "duplicate `wires`")
            wires = _int(toks[1], no, "wire count")
            if wires < 0:
                raise ParseError(no, "negative wire count")
        elif kind == "annot":
            _need(3, toks, no)
            if wires is None:
                raise ParseError(no, "`annot` before `wires`")
            w = _int(toks[1], no, "wire")
            if not 0 <= w < wires:
                raise ParseError(no, f"wire {w} out of range")
            if w in annots:
                raise ParseError(no, f"duplicate annotation for wire {w}")
            val = toks[2]
            if val in ("0", "1"):
                annots[w] = Const(int(val))
            elif val.startswith("!x"):
                annots[w] = NegInput(_int(val[2:], no, "input index"))
            elif val.startswith("x"):
                annots[w] = Input(_int(val[1:], no, "input index"))
            else:
                raise ParseError(no, f"bad annotation value {val!r}")
            idx = getattr(annots[w], "index", 0)
            if idx < 0:
                raise ParseError(no, "negative input index")
        elif kind == "gate":
            _need(3, toks, no)
            if wires is None:
                raise ParseError(no, "`gate` before `wires`")
            g = shared.get((toks[1], toks[2]))
            if g is None:
                a = _int(toks[1], no, "wire")
                b = _int(toks[2], no, "wire")
                if not (0 <= a < wires and 0 <= b < wires):
                    raise ParseError(no, f"gate ({a}, {b}) out of range")
                g = shared.get((a, b)) or Comparator(a, b)
                shared[a, b] = shared[toks[1], toks[2]] = g
            gates.append(g)
        elif kind == "neg":
            _need(2, toks, no)
            if wires is None:
                raise ParseError(no, "`neg` before `wires`")
            w = _int(toks[1], no, "wire")
            if not 0 <= w < wires:
                raise ParseError(no, f"wire {w} out of range")
            gates.append(Negation(w))
        elif kind == "output":
            _need(2, toks, no)
            if wires is None:
                raise ParseError(no, "`output` before `wires`")
            if output is not None:
                raise ParseError(no, "duplicate `output`")
            output = _int(toks[1], no, "wire")
            if not 0 <= output < wires:
                raise ParseError(no, f"wire {output} out of range")
        else:
            raise ParseError(no, f"unknown directive {kind!r}")
    if wires is None:
        raise ParseError(_eof_line(text), "missing `wires`")
    for w in range(wires):
        if w not in annots:
            raise ParseError(_eof_line(text), f"wire {w} has no annotation")
    if output is None:
        raise ParseError(_eof_line(text), "missing `output`")
    return Circuit(wires, tuple(annots[w] for w in range(wires)), tuple(gates), output)


def _annot_token(a) -> str:
    if isinstance(a, Const):
        return str(a.value)
    if isinstance(a, Input):
        return f"x{a.index}"
    return f"!x{a.index}"


def serialize_circuit(c: Circuit) -> str:
    out = ["CCV v1", f"wires {c.num_wires}"]
    for w, a in enumerate(c.annotations):
        out.append(f"annot {w} {_annot_token(a)}")
    for g in c.gates:
        if isinstance(g, Comparator):
            out.append(f"gate {g.min_wire} {g.max_wire}")
        else:
            out.append(f"neg {g.wire}")
    out.append(f"output {c.output_wire}")
    return "\n".join(out) + "\n"


def parse_graph(text: str):
    """Returns (graph, designation): designation is None,
    ("edge", (i, j)) or ("top", j)."""
    rows = _header(text, "GRAPH v1")
    bottom = top = None
    edges = set()
    target = None
    for no, toks in rows:
        kind = toks[0]
        if kind in ("bottom", "top"):
            _need(2, toks, no)
            val = _int(toks[1], no, "count")
            if val < 0:
                raise ParseError(no, f"negative `{kind}` count")
            if kind == "bottom":
                if bottom is not None:
                    raise ParseError(no, "duplicate `bottom`")
                bottom = val
            else:
                if top is not None:
                    raise ParseError(no, "duplicate `top`")
                top = val
        elif kind == "edge":
            _need(3, toks, no)
            if bottom is None or top is None:
                raise ParseError(no, "`edge` before sizes")
            i = _int(toks[1], no, "bottom index")
            j = _int(toks[2], no, "top index")
            if not (0 <= i < bottom and 0 <= j < top):
                raise ParseError(no, f"edge ({i}, {j}) out of range")
            if (i, j) in edges:
                raise ParseError(no, f"duplicate edge ({i}, {j})")
            edges.add((i, j))
        elif kind in ("target-edge", "target-top"):
            if target is not None:
                raise ParseError(no, "more than one target directive")
            if bottom is None or top is None:
                raise ParseError(no, f"`{kind}` before sizes")
            if kind == "target-edge":
                _need(3, toks, no)
                i = _int(toks[1], no, "bottom index")
                j = _int(toks[2], no, "top index")
                if not (0 <= i < bottom and 0 <= j < top):
                    raise ParseError(no, f"target ({i}, {j}) out of range")
                target = ("edge", (i, j))
            else:
                _need(2, toks, no)
                j = _int(toks[1], no, "top index")
                if not 0 <= j < top:
                    raise ParseError(no, f"target top {j} out of range")
                target = ("top", j)
        else:
            raise ParseError(no, f"unknown directive {kind!r}")
    if bottom is None:
        raise ParseError(_eof_line(text), "missing `bottom`")
    if top is None:
        raise ParseError(_eof_line(text), "missing `top`")
    return BipartiteGraph(bottom, top, frozenset(edges)), target


def serialize_graph(g: BipartiteGraph, designation=None) -> str:
    out = ["GRAPH v1", f"bottom {g.num_bottom}", f"top {g.num_top}"]
    for (i, j) in sorted(g.edges):
        out.append(f"edge {i} {j}")
    if designation is not None:
        if designation[0] == "edge":
            i, j = designation[1]
            out.append(f"target-edge {i} {j}")
        else:
            out.append(f"target-top {designation[1]}")
    return "\n".join(out) + "\n"


def parse_sm(text: str) -> SMInstance:
    rows = _header(text, "SM v1")
    n = None
    men = {}
    women = {}
    for no, toks in rows:
        kind = toks[0]
        if kind == "n":
            _need(2, toks, no)
            if n is not None:
                raise ParseError(no, "duplicate `n`")
            n = _int(toks[1], no, "size")
            if n < 1:
                raise ParseError(no, "size must be at least 1")
        elif kind in ("man", "woman"):
            if n is None:
                raise ParseError(no, f"`{kind}` before `n`")
            if len(toks) != n + 2:
                raise ParseError(no, f"`{kind}` row needs {n} entries")
            label = toks[1]
            if not label.endswith(":"):
                raise ParseError(no, f"expected `{kind} <i>:`")
            who = _int(label[:-1], no, "person index")
            if not 0 <= who < n:
                raise ParseError(no, f"{kind} {who} out of range")
            store = men if kind == "man" else women
            if who in store:
                raise ParseError(no, f"duplicate row for {kind} {who}")
            prefs = tuple(_int(t, no, "preference") for t in toks[2:])
            if sorted(prefs) != list(range(n)):
                raise ParseError(no, "row is not a permutation")
            store[who] = prefs
        else:
            raise ParseError(no, f"unknown directive {kind!r}")
    if n is None:
        raise ParseError(_eof_line(text), "missing `n`")
    for label, store in (("man", men), ("woman", women)):
        for i in range(n):
            if i not in store:
                raise ParseError(_eof_line(text), f"missing row for {label} {i}")
    return SMInstance(
        n, tuple(men[i] for i in range(n)), tuple(women[i] for i in range(n))
    )


def serialize_sm(inst: SMInstance) -> str:
    out = ["SM v1", f"n {inst.n}"]
    for i in range(inst.n):
        out.append(f"man {i}: " + " ".join(map(str, inst.man_pref[i])))
    for j in range(inst.n):
        out.append(f"woman {j}: " + " ".join(map(str, inst.woman_pref[j])))
    return "\n".join(out) + "\n"


def parse_digraph(text: str) -> Digraph:
    rows = _header(text, "DIGRAPH v1")
    n = None
    seen = set()
    for no, toks in rows:
        kind = toks[0]
        if kind == "nodes":
            _need(2, toks, no)
            if n is not None:
                raise ParseError(no, "duplicate `nodes`")
            n = _int(toks[1], no, "node count")
            if n < 1:
                raise ParseError(no, "need at least one node")
        elif kind == "arc":
            _need(3, toks, no)
            if n is None:
                raise ParseError(no, "`arc` before `nodes`")
            u = _int(toks[1], no, "node")
            v = _int(toks[2], no, "node")
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(no, f"arc ({u}, {v}) out of range")
            if (u, v) in seen:
                raise ParseError(no, f"duplicate arc ({u}, {v})")
            seen.add((u, v))
        else:
            raise ParseError(no, f"unknown directive {kind!r}")
    if n is None:
        raise ParseError(_eof_line(text), "missing `nodes`")
    return Digraph(n, frozenset(seen))


def serialize_digraph(g: Digraph) -> str:
    out = ["DIGRAPH v1", f"nodes {g.n}"]
    for (u, v) in sorted(g.edges):
        out.append(f"arc {u} {v}")
    return "\n".join(out) + "\n"
