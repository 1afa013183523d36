"""Truth tables, the 1-Lipschitz checks, and strictification."""

import itertools

import pytest

from cckit.circuit import Circuit, Comparator, Input
from cckit.errors import BadShapeError, PreconditionViolatedError, TooLargeError
from cckit.lipschitz import TruthTable, circuit_function, is_one_lipschitz, strictify


def table(in_bits, rows):
    """The table whose output vector on input number r is rows[r]."""
    columns = [sum(row[j] << r for r, row in enumerate(rows)) for j in range(len(rows[0]))]
    return TruthTable(in_bits, len(rows[0]), columns)


def row_lipschitz(f: TruthTable, strict: bool = False) -> int:
    """The reference check: walk every pair of rows at Hamming distance
    one and count the outputs that differ."""
    for i in range(len(f.rows)):
        for bit in range(f.in_bits):
            j = i ^ (1 << bit)
            if j < i:
                continue
            d = sum(1 for x, y in zip(f.rows[i], f.rows[j]) if x != y)
            if d > 1 or (strict and d != 1):
                return 0
    return 1


def test_table_validation():
    with pytest.raises(BadShapeError, match="expected 2 columns"):
        TruthTable(2, 2, (0,))
    with pytest.raises(BadShapeError, match="is not 4 bits"):
        TruthTable(2, 1, (1 << 4,))
    with pytest.raises(BadShapeError, match="is not 2 bits"):
        TruthTable(1, 1, (-1,))
    with pytest.raises(BadShapeError, match="negative bit counts"):
        TruthTable(-1, 0, ())
    with pytest.raises(TooLargeError):
        TruthTable(17, 1, (0,))
    assert TruthTable(2, 1, (0b1111,)).columns == (15,)


def test_rows_read_the_columns():
    for in_bits, out_bits in ((0, 1), (1, 2), (2, 3), (3, 2)):
        for columns in itertools.islice(
            itertools.product(range(1 << (1 << in_bits)), repeat=out_bits), 0, None, 7
        ):
            f = TruthTable(in_bits, out_bits, columns)
            assert len(f.rows) == 1 << in_bits
            for r, row in enumerate(f.rows):
                assert row == tuple((columns[j] >> r) & 1 for j in range(out_bits))
            assert table(in_bits, f.rows) == f
            assert f.rows is f.rows  # read off once


@pytest.mark.parametrize("in_bits, out_bits", [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 1)])
def test_column_check_agrees_with_the_row_loop(in_bits, out_bits):
    seen = set()
    for columns in itertools.product(range(1 << (1 << in_bits)), repeat=out_bits):
        f = TruthTable(in_bits, out_bits, columns)
        for strict in (False, True):
            want = row_lipschitz(f, strict)
            assert is_one_lipschitz(f, strict) == want, (columns, strict)
            seen.add((strict, want))
    # both answers came up, the weak check's 0 only where one flip can
    # change two outputs
    assert {(False, 1), (True, 0), (True, 1)} <= seen
    assert ((False, 0) in seen) == (out_bits > 1)


def test_identity_is_strict():
    t = table(2, [((r >> 0) & 1, (r >> 1) & 1) for r in range(4)])
    assert t.columns == (0b1010, 0b1100)
    assert is_one_lipschitz(t) == 1
    assert is_one_lipschitz(t, strict=True) == 1


def test_constant_is_weak_only():
    t = table(2, [(0,)] * 4)
    assert is_one_lipschitz(t) == 1
    assert is_one_lipschitz(t, strict=True) == 0


def test_xor_is_not_lipschitz_at_two_outputs():
    # two copies of xor: one input flip changes both outputs
    rows = []
    for r in range(4):
        x = (r & 1) ^ ((r >> 1) & 1)
        rows.append((x, x))
    assert is_one_lipschitz(table(2, rows)) == 0


def test_strictify_adds_a_parity_front_bit():
    t = table(2, [(0,)] * 4)
    g = strictify(t)
    assert g.out_bits == 2
    assert is_one_lipschitz(g, strict=True) == 1
    for r, row in enumerate(g.rows):
        assert row[1:] == t.rows[r]
        assert sum(row) % 2 == bin(r).count("1") % 2


def test_strictify_rejects_non_lipschitz():
    rows = [((r & 1) ^ ((r >> 1) & 1),) * 2 for r in range(4)]
    with pytest.raises(PreconditionViolatedError, match="input table is not weakly 1-Lipschitz"):
        strictify(table(2, rows))


def test_comparator_wire_function_is_strict():
    c = Circuit(2, (Input(0), Input(1)), (Comparator(0, 1),), 0)
    t = circuit_function(c)
    assert t.in_bits == 2 and t.out_bits == 2
    # rows are indexed with input 0 as the least significant bit
    assert t.rows[1] == (0, 1)  # inputs (1, 0)
    assert t.rows[2] == (0, 1)
    assert t.rows[3] == (1, 1)
    assert t.columns == (0b1000, 0b1110)
    assert is_one_lipschitz(t, strict=True) == 1


def test_circuit_function_size_guard():
    c = Circuit(
        17, tuple(Input(i) for i in range(17)), (), 0
    )
    with pytest.raises(TooLargeError):
        circuit_function(c)
