"""Exhaustive 1-Lipschitz checks on small truth tables.

A function is weakly 1-Lipschitz when flipping one input bit changes at
most one output bit, strictly when it changes exactly one.  Comparator
circuits whose wires are annotated with distinct inputs are strict; a
weak function becomes strict by prefixing one parity bit.
"""

from __future__ import annotations

from functools import cached_property, reduce
from operator import xor

from .circuit import Circuit, eval_batch, input_columns
from .errors import BadShapeError, PreconditionViolatedError, TooLargeError
from .value import Value


class TruthTable(Value):
    """Complete table as the columns :func:`eval_batch` returns: bit r of
    ``columns[j]`` is output j on input number r, reading bit i of r as
    the value of input i."""

    _fields = ("in_bits", "out_bits", "columns")

    def __init__(self, in_bits, out_bits, columns):
        columns = tuple(columns)
        if in_bits < 0 or out_bits < 0:
            raise BadShapeError("negative bit counts")
        if in_bits > 16:
            raise TooLargeError(f"{in_bits} input bits exceeds the guard")
        if len(columns) != out_bits:
            raise BadShapeError(f"expected {out_bits} columns")
        count = 1 << in_bits
        mask = (1 << count) - 1
        for col in columns:
            if not 0 <= col <= mask:
                raise BadShapeError(f"column {col!r} is not {count} bits")
        vars(self).update(in_bits=in_bits, out_bits=out_bits, columns=columns)

    @cached_property
    def rows(self) -> tuple:
        """rows[r] is the output vector for input number r, read off the
        columns on first read."""
        return tuple(tuple((col >> r) & 1 for col in self.columns)
                     for r in range(1 << self.in_bits))


def is_one_lipschitz(f: TruthTable, strict: bool = False) -> int:
    """Check all input pairs at Hamming distance one, a column at a time.

    For input bit b, row r with bit b clear pairs with row r + 2^b; bit r
    of ``ones`` (``twos``) says at least one (two) outputs differ there.
    """
    mask = (1 << (1 << f.in_bits)) - 1
    for b, col in enumerate(input_columns(f.in_bits)):
        step = 1 << b
        low = col ^ mask  # rows with bit b clear
        ones = twos = 0
        for w in f.columns:
            diff = (w ^ (w >> step)) & low
            twos |= ones & diff
            ones |= diff
        if twos or (strict and ones != low):
            return 0
    return 1


def strictify(f: TruthTable) -> TruthTable:
    """Prefix each output with parity(input) XOR parity(output).

    Turns a weakly 1-Lipschitz function into a strictly 1-Lipschitz one:
    when a flip leaves the old output alone the new front bit flips, and
    when it changes one output bit the front bit stays put.  The result's
    output parity always equals the input parity.
    """
    if not is_one_lipschitz(f, strict=False):
        raise PreconditionViolatedError("input table is not weakly 1-Lipschitz")
    front = reduce(xor, (*input_columns(f.in_bits), *f.columns), 0)
    return TruthTable(f.in_bits, f.out_bits + 1, (front,) + f.columns)


def circuit_function(c: Circuit) -> TruthTable:
    """Tabulate all wire outputs over every Boolean input vector."""
    k = c.num_inputs
    if k > 16:
        raise TooLargeError(f"{k} inputs is past the exhaustive guard")
    return TruthTable(k, c.num_wires, eval_batch(c, input_columns(k), 1 << k))
