"""Directed reachability and its comparator-circuit pebbling.

The circuit built here certifies reachability in an ordered DAG by
dripping one pebble per round onto the source wire and letting each
round's edge gates push pebbles forward greedily.  After n rounds every
node reachable from node 0 holds a pebble.  Arbitrary digraphs are first
made ordered with :func:`layer`.
"""

from __future__ import annotations

from collections import deque

from .circuit import Circuit, CircuitBuilder, Const
from .errors import (
    SIZE_LIMIT,
    BadShapeError,
    IndexOutOfRangeError,
    PreconditionViolatedError,
    TooLargeError,
)
from .value import Value


class Digraph(Value):
    _fields = ("n", "edges")

    def __init__(self, n, edges):
        edges = frozenset(edges)
        if n < 1:
            raise BadShapeError("need at least one node")
        for (u, v) in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexOutOfRangeError(f"edge ({u}, {v}) out of range")
        vars(self).update(n=n, edges=edges)


def reachable_set(g: Digraph, src: int) -> set:
    """Breadth-first closure from src, src included."""
    if not 0 <= src < g.n:
        raise IndexOutOfRangeError(f"source {src} out of range")
    succ = [[] for _ in range(g.n)]
    for (u, v) in g.edges:
        succ[u].append(v)
    seen = {src}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in succ[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def _check_layer(g: Digraph, src: int) -> None:
    """layer's own refusals: the source, and its node and arc bounds."""
    if not 0 <= src < g.n:
        raise IndexOutOfRangeError(f"source {src} out of range")
    n = g.n
    arcs = (n - 1) * (len(g.edges) + n)
    if max(n * n, arcs) > SIZE_LIMIT:
        raise TooLargeError(f"layering {n} nodes would make {n * n} nodes and up to {arcs} arcs, "
                            f"over the limit of {SIZE_LIMIT}")


def _check_pebbling(n: int, arcs: int, pad_dummies: bool) -> None:
    """Refuse a pebbling circuit on n nodes and ``arcs`` arcs past the limit."""
    gates = n * (1 + (n * (n - 1) // 2 if pad_dummies else arcs))
    if gates > SIZE_LIMIT:
        raise TooLargeError(f"the pebbling circuit would have {gates} gates, "
                            f"over the limit of {SIZE_LIMIT}")


def layer(g: Digraph, src: int):
    """Time-expand g into an ordered DAG.

    Node (v, t) becomes t*n + v for t in 0..n-1, after swapping labels so
    the source sits at 0.  Every original edge (u, v) yields (u,t) ->
    (v,t+1), and stay-edges (v,t) -> (v,t+1) keep reached nodes reached.
    All resulting edges go from a lower to a higher index, so the result
    feeds reach_to_ccv directly with its source at node 0.

    Returns (layered graph, node_map) where node_map sends an original
    node v to the index of (v, n-1); reachability 0 -> node_map[v] in the
    layered graph matches src -> v in g.
    """
    _check_layer(g, src)
    n = g.n

    def relabel(v):
        if v == src:
            return 0
        if v == 0:
            return src
        return v

    arcs = set()
    for t in range(n - 1):
        for (u, v) in g.edges:
            arcs.add((t * n + relabel(u), (t + 1) * n + relabel(v)))
        for v in range(n):
            arcs.add((t * n + v, (t + 1) * n + v))
    node_map = {v: (n - 1) * n + relabel(v) for v in range(n)}
    return Digraph(n * n, frozenset(arcs)), node_map


def reach_to_ccv(g: Digraph, target: int, pad_dummies: bool = False) -> Circuit:
    """Pebbling circuit deciding whether node 0 reaches target.

    Needs every edge (i, j) to satisfy i < j (see layer()).  Wires k and
    n+k carry iota_k (constant 1, the pebble supply) and nu_k (constant
    0, node k's marker).  Gadget k first drops pebble k onto nu_0, then
    sweeps the arcs in (i, j) order, moving a pebble along each arc whose
    tail is marked: n*(1+|E|) gates in all.  ``pad_dummies`` also gives
    every non-arc pair i < j a dummy gate, so gate positions depend only
    on (n, k, i, j), the uniformity the paper's argument needs; that form
    has n*(1+n(n-1)/2) gates and the same final wire values.  The sweep
    is the same in every round, so all n rounds share its gate objects.
    """
    n = g.n
    if not 0 <= target < n:
        raise IndexOutOfRangeError(f"target {target} out of range")
    _check_pebbling(n, len(g.edges), pad_dummies)
    bad = min(((i, j) for (i, j) in g.edges if i >= j), default=None)
    if bad is not None:
        raise PreconditionViolatedError(f"edge {bad} is not ascending")
    cb = CircuitBuilder([Const(1)] * n + [Const(0)] * n)
    # round 0 makes the sweep's gates; every later round appends them whole
    cb.gate(0, n)
    if pad_dummies:
        sweep = [
            cb.gate(n + i, n + j) if (i, j) in g.edges else cb.gate(n + i, n + i)
            for i in range(n)
            for j in range(i + 1, n)
        ]
    else:
        sweep = [cb.gate(n + i, n + j) for (i, j) in sorted(g.edges)]
    for k in range(1, n):
        cb.gate(k, n)
        cb.extend(sweep)
    return cb.build(n + target)


def layered_arcs(g: Digraph) -> int:
    """The number of arcs of ``layer(g, src)`` for any src, without
    building it: n - 1 copies of g's arcs and the n stay-arcs (v, v),
    where a loop (v, v) of g and the stay-arc of v are one arc."""
    loops = sum(1 for (u, v) in g.edges if u == v)
    return (g.n - 1) * (len(g.edges) + g.n - loops)


def layered_circuit(g: Digraph, src: int, target: int, pad_dummies: bool = False):
    """Pebbling circuit for src -> target in g, through layer().

    Returns (circuit, node_map) as reach_to_ccv and layer do.  The
    circuit's size follows from n and |E| alone, so an oversized one is
    refused before layer() builds anything.
    """
    if not 0 <= target < g.n:
        raise IndexOutOfRangeError(f"target {target} out of range")
    _check_layer(g, src)
    _check_pebbling(g.n * g.n, layered_arcs(g), pad_dummies)
    layered, node_map = layer(g, src)
    return reach_to_ccv(layered, node_map[target], pad_dummies), node_map
