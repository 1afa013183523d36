"""Truth tables, the 1-Lipschitz checks, and strictification."""

import pytest

from cckit.circuit import Circuit, Comparator, Input
from cckit.errors import BadShapeError, PreconditionViolatedError, TooLargeError
from cckit.lipschitz import TruthTable, circuit_function, is_one_lipschitz, parity, strictify


def table(in_bits, rows):
    return TruthTable(in_bits, len(rows[0]), tuple(tuple(r) for r in rows))


def test_table_validation():
    with pytest.raises(BadShapeError):
        table(2, [(0,), (1,)])  # needs 4 rows
    with pytest.raises(TooLargeError):
        TruthTable(17, 1, ((0,),) * 2**17)


def test_parity():
    assert parity(()) == 0
    assert parity((1, 0, 1, 1)) == 1


def test_identity_is_strict():
    t = table(2, [((r >> 0) & 1, (r >> 1) & 1) for r in range(4)])
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
        assert parity(row) == bin(r).count("1") % 2


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
    assert is_one_lipschitz(t, strict=True) == 1


def test_circuit_function_size_guard():
    c = Circuit(
        17, tuple(Input(i) for i in range(17)), (), 0
    )
    with pytest.raises(TooLargeError):
        circuit_function(c)
