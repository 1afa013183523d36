"""Universal comparator circuits.

``build_universal(m, n)`` produces one fixed circuit that can simulate any
comparator circuit with at most m wires and n gates: feed it the control
bits produced by ``encode_control`` followed by the simulated circuit's
initial wire values, and its answer equals the simulated circuit's output
on wire 0.

Each potential gate is a four-gate conditional gadget on wires
(b, x, y, bbar), where b/bbar carry a control bit and its negation and
x, y are the two data wires.  When b is 1 the gadget swaps in
(x or y, x and y); when b is 0 it leaves the data untouched.  Either way
the control pair ends as (0, 1) and is never reused.
"""

from __future__ import annotations

from .circuit import Circuit, CircuitBuilder, Input, NegInput
from .errors import BadShapeError, NegationNotSupportedError, TooLargeError


def _pairs(m: int):
    """Ordered wire pairs (i, j), i != j, in lexicographic order."""
    return [(i, j) for i in range(m) for j in range(m) if i != j]


def build_universal(m: int, n: int) -> Circuit:
    """The universal circuit for m data wires and n gate slots.

    Wire layout: data wires 0..m-1 first, then one (b, bbar) pair per
    gadget in slot-major, pair-lexicographic order.  Input variables are
    the m(m-1)n control bits (index = slot * m(m-1) + pair position)
    followed by the m data values.  The designated output is data wire 0.
    """
    if m < 2:
        raise BadShapeError("a universal circuit needs at least two data wires")
    if n < 0:
        raise BadShapeError("negative slot count")
    pairs = _pairs(m)
    ncontrols = len(pairs) * n
    cb = CircuitBuilder(Input(ncontrols + d) for d in range(m))
    for slot in range(n):
        for p, (i, j) in enumerate(pairs):
            ctrl = slot * len(pairs) + p
            b = cb.wires((Input(ctrl), NegInput(ctrl)))
            bbar = b + 1
            # Pair (i, j) simulates Comparator(min=i, max=j): the gadget's
            # x line is data wire j (receives the disjunction) and its y
            # line is data wire i (receives the conjunction).
            x, y = j, i
            cb.gate(b, y)
            cb.gate(b, x)
            cb.gate(y, bbar)
            cb.gate(b, y)
    return cb.build(0)


def encode_control(c: Circuit, m: int, n: int) -> tuple:
    """Control bits that make UNIV(m, n) behave like circuit ``c``.

    Slot t carries a single 1 at the pair (min, max) of c's t-th gate;
    dummy gates and padding slots are all-zero.
    """
    if c.has_negations:
        raise NegationNotSupportedError("universal circuits simulate comparator gates only")
    if c.num_wires > m:
        raise TooLargeError(f"{c.num_wires} wires > {m}")
    if len(c.gates) > n:
        raise TooLargeError(f"{len(c.gates)} gates > {n}")
    pairs = _pairs(m)
    index = {pq: k for k, pq in enumerate(pairs)}
    bits = [0] * (len(pairs) * n)
    for t, g in enumerate(c.gates):
        if g.is_dummy:
            continue
        bits[t * len(pairs) + index[(g.min_wire, g.max_wire)]] = 1
    return tuple(bits)
