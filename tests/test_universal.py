"""Universal circuit construction and control encoding."""

import gc
import tracemalloc

import pytest

from cckit.circuit import Circuit, Comparator, Input, Negation, eval
from cckit.errors import BadShapeError, NegationNotSupportedError, TooLargeError
from cckit.universal import build_universal, encode_control
from cckit.verify import SplitMix, gen_circuit, split


def test_shapes():
    u = build_universal(2, 1)
    assert u.num_wires == 2 + 2 * 2
    assert len(u.gates) == 8
    assert u.output_wire == 0
    u = build_universal(4, 3)
    assert u.num_wires == 4 + 2 * 4 * 3 * 3
    assert len(u.gates) == 4 * 4 * 3 * 3
    with pytest.raises(BadShapeError):
        build_universal(1, 2)
    with pytest.raises(BadShapeError):
        build_universal(3, -1)


def test_active_gadget_applies_the_gate():
    u = build_universal(2, 1)
    # control one-hot on pair (0, 1): data wire 0 takes the min
    for x in (0, 1):
        for y in (0, 1):
            outputs, _ = eval(u, [1, 0, x, y])
            assert outputs[0] == (x & y)
            assert outputs[1] == (x | y)
            assert outputs[2:] == (0, 1, 0, 1)


def test_inactive_gadget_is_identity():
    u = build_universal(2, 1)
    for x in (0, 1):
        for y in (0, 1):
            outputs, _ = eval(u, [0, 0, x, y])
            assert outputs[:2] == (x, y)


def test_encode_rejects_oversized_circuits():
    small = Circuit(2, (Input(0), Input(1)), (Comparator(0, 1),), 0)
    with pytest.raises(TooLargeError, match="2 wires > 1"):
        encode_control(small, 1, 5)
    with pytest.raises(TooLargeError, match="1 gates > 0"):
        encode_control(small, 3, 0)
    neg = Circuit(1, (Input(0),), (Negation(0),), 0)
    with pytest.raises(NegationNotSupportedError):
        encode_control(neg, 2, 1)


def test_sizes_past_the_limit_are_refused_before_allocating():
    from cckit.universal import _check_size

    # UNIV(m, n) has 4 * m(m-1) * n gates on m + 2 * m(m-1) * n wires
    for m, n, gates, wires in ((300, 300, 107640000, 53820300), (10**8, 0, 0, 10**8)):
        message = f"the universal circuit would have {gates} gates on {wires} wires, over the limit"
        with pytest.raises(TooLargeError, match=message):
            build_universal(m, n)
    c = Circuit(1, (Input(0),), (), 0)
    with pytest.raises(TooLargeError, match="107640000 gates on 53820300 wires"):
        encode_control(c, 300, 300)
    # UNIV(2, 1250000) has exactly 10**7 gates
    _check_size(2, 1250000)
    with pytest.raises(TooLargeError, match="10000008 gates"):
        _check_size(2, 1250001)


def test_encode_is_one_hot_per_real_gate():
    c = Circuit(
        3,
        (Input(0), Input(1), Input(2)),
        (Comparator(2, 0), Comparator(1, 1)),
        0,
    )
    bits = encode_control(c, 3, 3)
    assert len(bits) == 3 * 2 * 3
    # one bit for the real gate, none for the dummy or the padding slot
    assert sum(bits) == 1
    assert sum(bits[:6]) == 1 and sum(bits[6:]) == 0


def test_simulation_matches_direct_eval():
    for i in range(60):
        rng = SplitMix(split(99, i))
        c = gen_circuit(rng.next64(), 5, 8, with_neg=False)
        m = max(2, c.num_wires)
        n = len(c.gates)
        x = rng.bits(c.num_inputs)
        from cckit.circuit import resolve_inputs

        data = list(resolve_inputs(c, x)) + [0] * (m - c.num_wires)
        controls = list(encode_control(c, m, n))
        u = build_universal(m, n)
        assert eval(u, controls + data)[1] == eval(c, x)[0][0]


def test_universal_gates_hold_at_most_120_bytes_each():
    """Slotted gates and annotations keep UNIV(7, 400) (67,200 gates,
    33,607 wires) near 103 B per gate; dict-backed ones held 151-261 B."""
    build_universal(2, 2)
    gc.collect()
    tracemalloc.start()
    try:
        u = build_universal(7, 400)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    gates = len(u.gates)
    assert gates == 67200
    per_gate = held / gates
    assert per_gate <= 120
