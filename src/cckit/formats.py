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

from itertools import islice

from .circuit import Circuit, CircuitBuilder, Comparator, Const, Input, NegInput
from .errors import ParseError
from .matching import BipartiteGraph, adjacency, check_vertices
from .reachability import Digraph
from .stable_marriage import SMInstance


def _body(text, expect):
    """The lines of ``text`` and the index of the first line after its
    ``expect`` header, which must be the first significant line."""
    lines = text.splitlines()
    for no, raw in enumerate(lines, start=1):
        toks = raw.split("#", 1)[0].split()
        if toks:
            if toks != expect.split():
                raise ParseError(no, f"expected `{expect}` header")
            return lines, no
    raise ParseError(max(1, len(lines)), f"missing `{expect}` header")


def _int(token, no, what):
    # ASCII digits with an optional leading minus; str.isdigit alone also
    # takes non-ASCII digits such as superscripts and Arabic-Indic digits
    if not (token.isascii() and (token.isdigit() or (token[:1] == "-" and token[1:].isdigit()))):
        raise ParseError(no, f"bad {what} {token!r}")
    return int(token)


def _number(token, no, what, nums):
    """The value of an index token.  A token of ASCII digits only is also
    stored in ``nums``, a dict kept for one parse, so the hot directives
    read each distinct index token once and look it up after that; any
    other token goes through `_int`, which raises its error or returns a
    negative value for the caller's range check."""
    if token.isdigit() and token.isascii():
        value = nums[token] = int(token)
        return value
    return _int(token, no, what)


def _arity(count, toks, no):
    return ParseError(no, f"`{toks[0]}` takes {count - 1} argument(s)")


def _annotation(val, no):
    if val in ("0", "1"):
        return Const(int(val))
    if val.startswith("!x"):
        a = NegInput(_int(val[2:], no, "input index"))
    elif val.startswith("x"):
        a = Input(_int(val[1:], no, "input index"))
    else:
        raise ParseError(no, f"bad annotation value {val!r}")
    if a.index < 0:
        raise ParseError(no, "negative input index")
    return a


def parse_circuit(text: str) -> Circuit:
    lines, start = _body(text, "CCV v1")
    wires = None
    nums = {}
    annots = {}
    # One annotation object per value token, as written.
    by_token = {}
    # Gates go in as they are read; the annotations go in last, in wire order.
    cb = CircuitBuilder()
    # Every `gate`/`neg` line accepted so far, as written, with its gate.
    # `wires` is set once, before any such line, so a repeat of a raw line is
    # accepted again as the same gate: the lookup comes before tokenizing.
    accepted = {}
    output = None
    for no, raw in enumerate(islice(lines, start, None), start=start + 1):
        g = accepted.get(raw)
        if g is not None:
            cb.gates.append(g)
            continue
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kind = toks[0]
        if kind == "gate":
            if len(toks) != 3:
                raise _arity(3, toks, no)
            if wires is None:
                raise ParseError(no, "`gate` before `wires`")
            a = nums.get(toks[1])
            if a is None:
                a = _number(toks[1], no, "wire", nums)
            b = nums.get(toks[2])
            if b is None:
                b = _number(toks[2], no, "wire", nums)
            if not (0 <= a < wires and 0 <= b < wires):
                raise ParseError(no, f"gate ({a}, {b}) out of range")
            accepted[raw] = cb.gate(a, b)
        elif kind == "annot":
            if len(toks) != 3:
                raise _arity(3, toks, no)
            if wires is None:
                raise ParseError(no, "`annot` before `wires`")
            w = nums.get(toks[1])
            if w is None:
                w = _number(toks[1], no, "wire", nums)
            if not 0 <= w < wires:
                raise ParseError(no, f"wire {w} out of range")
            if w in annots:
                raise ParseError(no, f"duplicate annotation for wire {w}")
            a = by_token.get(toks[2])
            if a is None:
                a = by_token[toks[2]] = _annotation(toks[2], no)
            annots[w] = a
        elif kind == "neg":
            if len(toks) != 2:
                raise _arity(2, toks, no)
            if wires is None:
                raise ParseError(no, "`neg` before `wires`")
            w = nums.get(toks[1])
            if w is None:
                w = _number(toks[1], no, "wire", nums)
            if not 0 <= w < wires:
                raise ParseError(no, f"wire {w} out of range")
            accepted[raw] = cb.neg(w)
        elif kind == "wires":
            if len(toks) != 2:
                raise _arity(2, toks, no)
            if wires is not None:
                raise ParseError(no, "duplicate `wires`")
            wires = _int(toks[1], no, "wire count")
            if wires < 0:
                raise ParseError(no, "negative wire count")
        elif kind == "output":
            if len(toks) != 2:
                raise _arity(2, toks, no)
            if wires is None:
                raise ParseError(no, "`output` before `wires`")
            if output is not None:
                raise ParseError(no, "duplicate `output`")
            output = _int(toks[1], no, "wire")
            if not 0 <= output < wires:
                raise ParseError(no, f"wire {output} out of range")
        else:
            raise ParseError(no, f"unknown directive {kind!r}")
    eof = max(1, len(lines))
    if wires is None:
        raise ParseError(eof, "missing `wires`")
    if len(annots) != wires:
        missing = next(w for w in range(wires) if w not in annots)
        raise ParseError(eof, f"wire {missing} has no annotation")
    if output is None:
        raise ParseError(eof, "missing `output`")
    cb.wires(map(annots.__getitem__, range(wires)))
    return cb.build(output)


def _annot_token(a) -> str:
    if isinstance(a, Const):
        return str(a.value)
    if isinstance(a, Input):
        return f"x{a.index}"
    return f"!x{a.index}"


def serialize_circuit(c: Circuit) -> str:
    out = ["CCV v1", f"wires {c.num_wires}"]
    # One token per distinct annotation object, keyed by id as gates are below.
    tokens = {}
    for w, a in enumerate(c.annotations):
        token = tokens.get(id(a))
        if token is None:
            token = tokens[id(a)] = _annot_token(a)
        out.append(f"annot {w} {token}")
    # One line per distinct gate object, keyed by id: the circuit keeps every
    # gate alive, and hashing a gate by value costs a Python call.
    formatted = {}
    for g in c.gates:
        line = formatted.get(id(g))
        if line is None:
            if isinstance(g, Comparator):
                line = f"gate {g.min_wire} {g.max_wire}"
            else:
                line = f"neg {g.wire}"
            formatted[id(g)] = line
        out.append(line)
    out.append(f"output {c.output_wire}")
    return "\n".join(out) + "\n"


def parse_graph(text: str):
    """Returns (graph, designation): designation is None,
    ("edge", (i, j)) or ("top", j)."""
    lines, start = _body(text, "GRAPH v1")
    bottom = top = None
    nums = {}
    edges = set()
    target = None
    for no, raw in enumerate(islice(lines, start, None), start=start + 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kind = toks[0]
        if kind == "edge":
            if len(toks) != 3:
                raise _arity(3, toks, no)
            if bottom is None or top is None:
                raise ParseError(no, "`edge` before sizes")
            i = nums.get(toks[1])
            if i is None:
                i = _number(toks[1], no, "bottom index", nums)
            j = nums.get(toks[2])
            if j is None:
                j = _number(toks[2], no, "top index", nums)
            if not (0 <= i < bottom and 0 <= j < top):
                raise ParseError(no, f"edge ({i}, {j}) out of range")
            size = len(edges)
            edges.add((i, j))
            if len(edges) == size:
                raise ParseError(no, f"duplicate edge ({i}, {j})")
        elif kind in ("bottom", "top"):
            if len(toks) != 2:
                raise _arity(2, toks, no)
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
        elif kind in ("target-edge", "target-top"):
            if target is not None:
                raise ParseError(no, "more than one target directive")
            if bottom is None or top is None:
                raise ParseError(no, f"`{kind}` before sizes")
            if kind == "target-edge":
                if len(toks) != 3:
                    raise _arity(3, toks, no)
                i = _int(toks[1], no, "bottom index")
                j = _int(toks[2], no, "top index")
                if not (0 <= i < bottom and 0 <= j < top):
                    raise ParseError(no, f"target ({i}, {j}) out of range")
                target = ("edge", (i, j))
            else:
                if len(toks) != 2:
                    raise _arity(2, toks, no)
                j = _int(toks[1], no, "top index")
                if not 0 <= j < top:
                    raise ParseError(no, f"target top {j} out of range")
                target = ("top", j)
        else:
            raise ParseError(no, f"unknown directive {kind!r}")
    eof = max(1, len(lines))
    if bottom is None:
        raise ParseError(eof, "missing `bottom`")
    if top is None:
        raise ParseError(eof, "missing `top`")
    # the rows hold one tuple per bottom, so refuse before allocating them
    check_vertices(bottom, top)
    return BipartiteGraph(bottom, top, _by_bottom=adjacency(bottom, edges)), target


def serialize_graph(g: BipartiteGraph, designation=None) -> str:
    out = ["GRAPH v1", f"bottom {g.num_bottom}", f"top {g.num_top}"]
    for i, tops in enumerate(g.by_bottom):
        out.extend(f"edge {i} {j}" for j in tops)
    if designation is not None:
        if designation[0] == "edge":
            i, j = designation[1]
            out.append(f"target-edge {i} {j}")
        else:
            out.append(f"target-top {designation[1]}")
    return "\n".join(out) + "\n"


def parse_sm(text: str) -> SMInstance:
    lines, start = _body(text, "SM v1")
    n = identity = None
    nums = {}
    men = {}
    women = {}
    for no, raw in enumerate(islice(lines, start, None), start=start + 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kind = toks[0]
        if kind in ("man", "woman"):
            if n is None:
                raise ParseError(no, f"`{kind}` before `n`")
            if len(toks) != n + 2:
                raise ParseError(no, f"`{kind}` row needs {n} entries")
            if identity is None:
                # built at the first row of n entries, so that `n` alone
                # allocates nothing
                identity = list(range(n))
            label = toks[1]
            if not label.endswith(":"):
                raise ParseError(no, f"expected `{kind} <i>:`")
            who = nums.get(label[:-1])
            if who is None:
                who = _number(label[:-1], no, "person index", nums)
            if not 0 <= who < n:
                raise ParseError(no, f"{kind} {who} out of range")
            store = men if kind == "man" else women
            if who in store:
                raise ParseError(no, f"duplicate row for {kind} {who}")
            prefs = tuple(map(nums.get, toks[2:]))
            if None in prefs:
                prefs = tuple(_number(t, no, "preference", nums) for t in toks[2:])
            if sorted(prefs) != identity:
                raise ParseError(no, "row is not a permutation")
            store[who] = prefs
        elif kind == "n":
            if len(toks) != 2:
                raise _arity(2, toks, no)
            if n is not None:
                raise ParseError(no, "duplicate `n`")
            n = _int(toks[1], no, "size")
            if n < 1:
                raise ParseError(no, "size must be at least 1")
        else:
            raise ParseError(no, f"unknown directive {kind!r}")
    eof = max(1, len(lines))
    if n is None:
        raise ParseError(eof, "missing `n`")
    for label, store in (("man", men), ("woman", women)):
        if len(store) != n:
            missing = next(i for i in range(n) if i not in store)
            raise ParseError(eof, f"missing row for {label} {missing}")
    return SMInstance(n, tuple(map(men.__getitem__, range(n))),
                      tuple(map(women.__getitem__, range(n))), _checked=True)


def serialize_sm(inst: SMInstance) -> str:
    out = ["SM v1", f"n {inst.n}"]
    for i in range(inst.n):
        out.append(f"man {i}: " + " ".join(map(str, inst.man_pref[i])))
    for j in range(inst.n):
        out.append(f"woman {j}: " + " ".join(map(str, inst.woman_pref[j])))
    return "\n".join(out) + "\n"


def parse_digraph(text: str) -> Digraph:
    lines, start = _body(text, "DIGRAPH v1")
    n = None
    nums = {}
    seen = set()
    for no, raw in enumerate(islice(lines, start, None), start=start + 1):
        toks = raw.split("#", 1)[0].split()
        if not toks:
            continue
        kind = toks[0]
        if kind == "arc":
            if len(toks) != 3:
                raise _arity(3, toks, no)
            if n is None:
                raise ParseError(no, "`arc` before `nodes`")
            u = nums.get(toks[1])
            if u is None:
                u = _number(toks[1], no, "node", nums)
            v = nums.get(toks[2])
            if v is None:
                v = _number(toks[2], no, "node", nums)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(no, f"arc ({u}, {v}) out of range")
            size = len(seen)
            seen.add((u, v))
            if len(seen) == size:
                raise ParseError(no, f"duplicate arc ({u}, {v})")
        elif kind == "nodes":
            if len(toks) != 2:
                raise _arity(2, toks, no)
            if n is not None:
                raise ParseError(no, "duplicate `nodes`")
            n = _int(toks[1], no, "node count")
            if n < 1:
                raise ParseError(no, "need at least one node")
        else:
            raise ParseError(no, f"unknown directive {kind!r}")
    if n is None:
        raise ParseError(max(1, len(lines)), "missing `nodes`")
    return Digraph(n, frozenset(seen))


def serialize_digraph(g: Digraph) -> str:
    out = ["DIGRAPH v1", f"nodes {g.n}"]
    for (u, v) in sorted(g.edges):
        out.append(f"arc {u} {v}")
    return "\n".join(out) + "\n"


# kind: (parse, serialize).  A graph value is the (graph, designation) pair
# that parse_graph returns.  Each entry looks its function up when called,
# so a wrapper put in this module's namespace sees every call.
KINDS = {
    "ccv": (lambda text: parse_circuit(text), lambda c: serialize_circuit(c)),
    "graph": (lambda text: parse_graph(text), lambda gd: serialize_graph(*gd)),
    "sm": (lambda text: parse_sm(text), lambda inst: serialize_sm(inst)),
    "digraph": (lambda text: parse_digraph(text), lambda g: serialize_digraph(g)),
}
