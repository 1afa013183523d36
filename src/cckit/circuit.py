"""Comparator-circuit IR plus Boolean and three-valued evaluation.

A circuit is a fixed number of wires, each carrying one value, and an
ordered sequence of gates.  A comparator gate reads two wires and writes
the conjunction to its ``min_wire`` and the disjunction to its ``max_wire``
(the arrow tip in the usual drawings sits on the max side).  A comparator
whose two endpoints coincide is a dummy gate and changes nothing.  Wires
start from per-wire annotations: a constant, an input variable, or a
negated input variable.  One wire is designated as the answer.

Three-valued evaluation works over ``{0, STAR, 1}`` with the chain order
``0 < STAR < 1``; conjunction and disjunction are min and max in that
order, which matches the strong Kleene tables.  Each value has one code,
its rail pair in ``TRI_RAILS`` (0 as 00, STAR as 01, 1 as 11, the pairs
``tri_to_bool`` lowers to) read as a two-bit int.  On those codes min and
max are ``&`` and ``|``, so one gate loop runs bits, bitsliced columns and
three-valued codes alike: a comparator maps (p, q) to (p & q, p | q).
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import BadShapeError, IndexOutOfRangeError, NegationNotSupportedError
from .value import Value

Bit = int

STAR = "*"
Tri = int | str

TRI_RAILS = {0: (0, 0), STAR: (0, 1), 1: (1, 1)}
TRI_CODE = {v: (a << 1) | b for v, (a, b) in TRI_RAILS.items()}
TRI_VALUE = {code: v for v, code in TRI_CODE.items()}
# NOT swaps and flips the rails: (a, b) -> (1 - b, 1 - a)
_CODE_NOT = {(a << 1) | b: ((1 - b) << 1) | (1 - a) for a, b in TRI_RAILS.values()}


def tri_and(a: Tri, b: Tri) -> Tri:
    return TRI_VALUE[TRI_CODE[a] & TRI_CODE[b]]


def tri_or(a: Tri, b: Tri) -> Tri:
    return TRI_VALUE[TRI_CODE[a] | TRI_CODE[b]]


def refines(finer: Tri, coarser: Tri) -> bool:
    """True when ``finer`` only pins down stars of ``coarser``."""
    return coarser == STAR or finer == coarser


# Gates and annotations are slotted values whose slots are their fields.
# Each ``__init__`` stores its fields through the slot descriptors'
# ``__set__`` (bound below each class), past the refusing
# ``Value.__setattr__``.


class Const(Value):
    __slots__ = _fields = ("value",)

    def __init__(self, value: Bit):
        _set_value(self, value)


_set_value = Const.value.__set__


class Input(Value):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        _set_input(self, index)


_set_input = Input.index.__set__


class NegInput(Value):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        _set_neg_input(self, index)


_set_neg_input = NegInput.index.__set__


class Comparator(Value):
    __slots__ = _fields = ("min_wire", "max_wire")

    def __init__(self, min_wire: int, max_wire: int):
        _set_min(self, min_wire)
        _set_max(self, max_wire)

    @property
    def is_dummy(self) -> bool:
        return self.min_wire == self.max_wire


_set_min = Comparator.min_wire.__set__
_set_max = Comparator.max_wire.__set__


class Negation(Value):
    __slots__ = _fields = ("wire",)

    def __init__(self, wire: int):
        _set_wire(self, wire)


_set_wire = Negation.wire.__set__


def _check_output(wire: int, n: int) -> None:
    if not (0 <= wire < n):
        raise IndexOutOfRangeError(f"output wire {wire} out of range")


class Circuit(Value):
    # ``has_negations`` is kept beside the fields, neither compared nor shown
    _fields = ("num_wires", "annotations", "gates", "output_wire")

    def __init__(self, num_wires, annotations, gates, output_wire, *, _negations=None):
        """Check every field; ``has_negations`` is set from the gates.
        ``_negations`` is for ``CircuitBuilder.build`` alone: given, the
        fields are taken as already checked and it becomes ``has_negations``."""
        annotations = tuple(annotations)
        gates = tuple(gates)
        if _negations is None:
            if num_wires < 1:
                raise BadShapeError("a circuit needs at least one wire")
            if len(annotations) != num_wires:
                raise BadShapeError(
                    f"{len(annotations)} annotations for {num_wires} wires"
                )
            for a in annotations:
                if isinstance(a, Const):
                    if a.value not in (0, 1):
                        raise BadShapeError(f"constant annotation {a.value!r}")
                elif isinstance(a, (Input, NegInput)):
                    if a.index < 0:
                        raise BadShapeError("negative input index")
                else:
                    raise BadShapeError(f"unknown annotation {a!r}")
            _negations = False
            for g in gates:
                if isinstance(g, Comparator):
                    if not (0 <= g.min_wire < num_wires and 0 <= g.max_wire < num_wires):
                        raise IndexOutOfRangeError(f"gate {g} out of range")
                elif isinstance(g, Negation):
                    if not 0 <= g.wire < num_wires:
                        raise IndexOutOfRangeError(f"gate {g} out of range")
                    _negations = True
                else:
                    raise BadShapeError(f"unknown gate {g!r}")
            _check_output(output_wire, num_wires)
        vars(self).update(num_wires=num_wires, annotations=annotations, gates=gates,
                          output_wire=output_wire, has_negations=_negations)

    @property
    def num_inputs(self) -> int:
        """1 + the largest input-variable index consumed, 0 if none."""
        top = -1
        for a in self.annotations:
            if isinstance(a, (Input, NegInput)) and a.index > top:
                top = a.index
        return top + 1

    def _tips_all(self, up: bool) -> bool:
        """No negations, and every non-dummy comparator has its tip at the
        smaller index (``up``) or at the larger one."""
        return not self.has_negations and all(
            g.is_dummy or (g.max_wire < g.min_wire) == up
            for g in self.gates if isinstance(g, Comparator))

    @property
    def is_all_down(self) -> bool:
        """Every non-dummy comparator has its tip at the larger index."""
        return self._tips_all(False)

    @property
    def is_all_up(self) -> bool:
        """Every non-dummy comparator has its tip at the smaller index."""
        return self._tips_all(True)


class CircuitBuilder:
    """A circuit assembled wire by wire, starting from one wire per
    annotation in ``annotations``.  Gate endpoints drawn from those wires
    and the indices ``wire`` and ``wires`` return are in range by
    construction, so ``build`` checks only the output wire."""

    def __init__(self, annotations=()):
        self.annotations = list(annotations)
        self.gates, self.has_negations = [], False

    def wire(self, annotation) -> int:
        self.annotations.append(annotation)
        return len(self.annotations) - 1

    def wires(self, annotations) -> int:
        """Add one wire per annotation; returns the first new index."""
        first = len(self.annotations)
        self.annotations.extend(annotations)
        return first

    def gate(self, a: int, b: int) -> Comparator:
        g = Comparator(a, b)
        self.gates.append(g)
        return g

    def neg(self, w: int) -> Negation:
        g = Negation(w)
        self.gates.append(g)
        self.has_negations = True
        return g

    def extend(self, gates, has_negations: bool = False) -> None:
        """Append gates as they are: ones ``gate`` returned, or a circuit's
        own gates over wires numbered as this builder's.  ``has_negations``
        says whether any of them is a ``Negation``; it is not checked."""
        self.gates.extend(gates)
        self.has_negations = self.has_negations or has_negations

    def build(self, output_wire: int) -> Circuit:
        n = len(self.annotations)
        _check_output(output_wire, n)
        return Circuit(n, self.annotations, self.gates, output_wire,
                       _negations=self.has_negations)


def _resolve(c: Circuit, x: Sequence, negate, one=1) -> list:
    """Initial wire values; ``one`` stands for Const(1)."""
    vals = []
    for a in c.annotations:
        if isinstance(a, Const):
            vals.append(one if a.value else 0)
        else:
            if a.index >= len(x):
                raise BadShapeError(
                    f"annotation consumes input {a.index} but only {len(x)} given"
                )
            v = x[a.index]
            vals.append(negate(v) if isinstance(a, NegInput) else v)
    return vals


def resolve_inputs(c: Circuit, x: Sequence[Bit]) -> tuple:
    """Initial wire values for Boolean input vector ``x``."""
    for v in x:
        if v not in (0, 1):
            raise BadShapeError(f"input bit {v!r}")
    return tuple(_resolve(c, x, lambda v: 1 - v))


def eval(c: Circuit, x: Sequence[Bit], allow_negations: bool = False, on_step=None):
    """Run the circuit on Boolean inputs.

    Returns ``(wire_outputs, answer)``.  Negation gates are rejected
    unless ``allow_negations`` is set.  A snapshot is the wire values as a
    tuple: the initial state, then one per gate.  ``on_step`` is called
    with each snapshot as it is made.
    """
    if c.has_negations and not allow_negations:
        raise NegationNotSupportedError("circuit contains negation gates")
    vals = list(resolve_inputs(c, x))
    if on_step is not None:
        on_step(tuple(vals))
    _run(c.gates, vals, 1, on_step)
    outputs = tuple(vals)
    return outputs, outputs[c.output_wire]


def _run(gates, vals: list, mask: int, on_step=None) -> None:
    """Apply gates to the wire values in place: a comparator maps (p, q)
    to (p & q, p | q), a negation flips ``mask``.  Values are bits,
    bitsliced columns or three-valued codes."""
    for g in gates:
        if isinstance(g, Comparator):
            a = g.min_wire
            b = g.max_wire
            p = vals[a]
            q = vals[b]
            vals[a] = p & q
            vals[b] = p | q
        else:
            vals[g.wire] ^= mask
        if on_step is not None:
            on_step(tuple(vals))


def eval_tails(base: Circuit, tails: Sequence[tuple], x: Sequence[Bit]) -> list:
    """``[eval(Circuit(base.num_wires, base.annotations, base.gates + gates,
    wire), x)[1] for gates, wire in tails]``, running ``base`` once.

    Each tail's gates run on a copy of ``base``'s final wire values; they
    are not range-checked.  Errors are those of :func:`eval`, in list order.
    """
    shared = None
    answers = []
    for gates, wire in tails:
        if base.has_negations or any(isinstance(g, Negation) for g in gates):
            raise NegationNotSupportedError("circuit contains negation gates")
        if shared is None:
            shared = list(resolve_inputs(base, x))
            _run(base.gates, shared, 1)
        vals = list(shared)
        _run(gates, vals, 1)
        answers.append(vals[wire])
    return answers


def digit_at_least(n: int, place: int, t: int, count: int) -> int:
    """Bit r says digit ``place`` of r in base n (0 is the units digit) is
    at least t, for r < count.  One period of stride * n bits holds a
    block of ones at offset stride * t; the period is then doubled."""
    stride = n ** place
    col = ((1 << (stride * (n - t))) - 1) << (stride * t)
    width = stride * n
    while width < count:
        col |= col << width
        width *= 2
    return col & ((1 << count) - 1)


def input_columns(k: int) -> list:
    """All 2^k Boolean input vectors as ``k`` columns for :func:`eval_batch`:
    bit r of column j is ``(r >> j) & 1``, the base-2 digit j of r."""
    return [digit_at_least(2, j, 1, 1 << k) for j in range(k)]


def eval_batch(c: Circuit, columns: Sequence[int], count: int) -> list:
    """Run the circuit on ``count`` Boolean input vectors at once.

    Bit r of ``columns[j]`` is input j of vector r, and bit r of the
    returned int for wire w is that wire's output on vector r.  A
    comparator maps columns (p, q) to (p & q, p | q).  Negation gates are
    rejected.
    """
    if c.has_negations:
        raise NegationNotSupportedError("circuit contains negation gates")
    if count < 0:
        raise BadShapeError(f"batch of {count} vectors")
    mask = (1 << count) - 1
    for col in columns:
        if not 0 <= col <= mask:
            raise BadShapeError(f"column {col!r} is not {count} bits")
    vals = _resolve(c, columns, lambda col: col ^ mask, mask)
    _run(c.gates, vals, mask)
    return vals


def resolve_tri_inputs(c: Circuit, x: Sequence[Tri]) -> list:
    """Initial wire codes for three-valued input vector ``x``."""
    for v in x:
        if v not in TRI_CODE:
            raise BadShapeError(f"three-valued input {v!r}")
    return _resolve(c, [TRI_CODE[v] for v in x], _CODE_NOT.__getitem__, TRI_CODE[1])


def eval_tri(c: Circuit, x: Sequence[Tri], on_step=None):
    """Run the circuit over {0, STAR, 1}. Negation gates are rejected.

    Returns and snapshots as in :func:`eval`.  The wires carry codes, and
    outputs and snapshots are decoded to {0, STAR, 1}.
    """
    if c.has_negations:
        raise NegationNotSupportedError("three-valued evaluation has no negation")
    vals = resolve_tri_inputs(c, x)
    value = TRI_VALUE.__getitem__
    step = None
    if on_step is not None:
        step = lambda snap: on_step(tuple(map(value, snap)))
        step(vals)
    _run(c.gates, vals, TRI_CODE[1], step)
    outputs = tuple(map(value, vals))
    return outputs, outputs[c.output_wire]


def negated(a):
    """The annotation whose wire starts at the negation of ``a``'s."""
    if isinstance(a, Const):
        return Const(1 - a.value)
    return NegInput(a.index) if isinstance(a, Input) else Input(a.index)


def dual(c: Circuit) -> Circuit:
    """Swap every gate's endpoints and negate every annotation.

    The result computes the negation of the original on every wire, for
    every input vector.
    """
    if c.has_negations:
        raise NegationNotSupportedError("dual is defined for comparator-only circuits")
    cb = CircuitBuilder(map(negated, c.annotations))
    for g in c.gates:
        cb.gate(g.max_wire, g.min_wire)
    return cb.build(c.output_wire)


def normalize_down(c: Circuit):
    """Rewrite so every non-dummy comparator points at the larger index.

    Each non-dummy gate is relocated onto two fresh constant-zero wires via
    three down-pointing gates; a holder map tracks where each original
    wire's value lives.  Returns ``(circuit, wire_map)`` where ``wire_map``
    sends an original wire to the wire holding its final value.  Dummy
    gates are no-ops and are dropped, so the result has exactly three
    gates and two wires per non-dummy original gate.
    """
    if c.has_negations:
        raise NegationNotSupportedError("normalize_down is comparator-only")
    holder = list(range(c.num_wires))
    cb = CircuitBuilder(c.annotations)
    for g in c.gates:
        if g.is_dummy:
            continue
        a = holder[g.max_wire]
        b = holder[g.min_wire]
        top = cb.wires((Const(0), Const(0)))
        bot = top + 1
        # Three pushes onto the fresh pair: the first parks the max-side
        # value, the second merges in the min side (disjunction lands on
        # top), the third drops the leftover conjunction onto bot.
        cb.gate(a, top)
        cb.gate(b, top)
        cb.gate(b, bot)
        holder[g.max_wire] = top
        holder[g.min_wire] = bot
    return cb.build(holder[c.output_wire]), dict(enumerate(holder))


def mirror(c: Circuit) -> Circuit:
    """Relabel wire i as num_wires-1-i everywhere, keeping gate roles."""
    m = c.num_wires
    cb = CircuitBuilder(reversed(c.annotations))
    for g in c.gates:
        if isinstance(g, Comparator):
            cb.gate(m - 1 - g.min_wire, m - 1 - g.max_wire)
        else:
            cb.neg(m - 1 - g.wire)
    return cb.build(m - 1 - c.output_wire)


def compose(outer: Circuit, inners: Sequence[Circuit]) -> Circuit:
    """Feed inner circuits' answers into the outer circuit's inputs.

    Wire w of ``outer`` annotated Input(i) becomes the designated output
    wire of a fresh copy of ``inners[i]``; NegInput(i) splices a fresh copy
    of ``dual(inners[i])`` instead.  All copies read the one shared input
    vector.  The result evaluates ``outer`` on the inners' answers.
    """
    if outer.has_negations or any(ci.has_negations for ci in inners):
        raise NegationNotSupportedError("compose is comparator-only")
    if outer.num_inputs > len(inners):
        raise BadShapeError(
            f"outer consumes {outer.num_inputs} positions, {len(inners)} inners given"
        )
    cb = CircuitBuilder()
    wire_of = {}
    for w, a in enumerate(outer.annotations):
        if isinstance(a, Const):
            wire_of[w] = cb.wire(a)
            continue
        inner = inners[a.index]
        if isinstance(a, NegInput):
            inner = dual(inner)
        base = cb.wires(inner.annotations)
        for g in inner.gates:
            cb.gate(base + g.min_wire, base + g.max_wire)
        wire_of[w] = base + inner.output_wire
    for g in outer.gates:
        cb.gate(wire_of[g.min_wire], wire_of[g.max_wire])
    return cb.build(wire_of[outer.output_wire])
