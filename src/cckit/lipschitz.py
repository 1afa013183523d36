"""Exhaustive 1-Lipschitz checks on small truth tables.

A function is weakly 1-Lipschitz when flipping one input bit changes at
most one output bit, strictly when it changes exactly one.  Comparator
circuits whose wires are annotated with distinct inputs are strict; a
weak function becomes strict by prefixing one parity bit.
"""

from __future__ import annotations

from .circuit import Circuit, eval_batch, input_columns
from .errors import BadShapeError, PreconditionViolatedError, TooLargeError
from .value import Value


class TruthTable(Value):
    """Complete table: rows[i] is the output vector for input number i,
    reading bit j of i as the value of input j."""

    _fields = ("in_bits", "out_bits", "rows")

    def __init__(self, in_bits, out_bits, rows):
        rows = tuple(tuple(r) for r in rows)
        if in_bits < 0 or out_bits < 0:
            raise BadShapeError("negative bit counts")
        if in_bits > 16:
            raise TooLargeError(f"{in_bits} input bits exceeds the guard")
        if len(rows) != 1 << in_bits:
            raise BadShapeError(f"expected {1 << in_bits} rows")
        for r in rows:
            if len(r) != out_bits:
                raise BadShapeError("ragged output row")
        vars(self).update(in_bits=in_bits, out_bits=out_bits, rows=rows)


def _hamming(a, b):
    return sum(1 for x, y in zip(a, b) if x != y)


def is_one_lipschitz(f: TruthTable, strict: bool = False) -> int:
    """Check all input pairs at Hamming distance one."""
    for i in range(len(f.rows)):
        for bit in range(f.in_bits):
            j = i ^ (1 << bit)
            if j < i:
                continue
            d = _hamming(f.rows[i], f.rows[j])
            if d > 1 or (strict and d != 1):
                return 0
    return 1


def parity(bits) -> int:
    acc = 0
    for b in bits:
        acc ^= b
    return acc


def strictify(f: TruthTable) -> TruthTable:
    """Prefix each output with parity(input) XOR parity(output).

    Turns a weakly 1-Lipschitz function into a strictly 1-Lipschitz one:
    when a flip leaves the old output alone the new front bit flips, and
    when it changes one output bit the front bit stays put.  The result's
    output parity always equals the input parity.
    """
    if not is_one_lipschitz(f, strict=False):
        raise PreconditionViolatedError("input table is not weakly 1-Lipschitz")
    rows = []
    for i, row in enumerate(f.rows):
        front = (bin(i).count("1") & 1) ^ parity(row)
        rows.append((front,) + row)
    return TruthTable(f.in_bits, f.out_bits + 1, tuple(rows))


def circuit_function(c: Circuit) -> TruthTable:
    """Tabulate all wire outputs over every Boolean input vector."""
    k = c.num_inputs
    if k > 16:
        raise TooLargeError(f"{k} inputs is past the exhaustive guard")
    count = 1 << k
    # one batch evaluation, then each wire's column read out row by row
    columns = [
        map(int, reversed(f"{w:0{count}b}"))
        for w in eval_batch(c, input_columns(k), count)
    ]
    return TruthTable(k, c.num_wires, tuple(zip(*columns)))
