"""Checks on the benchmark itself: frozen traffic, honest failures, a
repeatable size ledger, and span accounting.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import dataclasses
import os
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import harness  # noqa: E402
import spans  # noqa: E402
import traffic  # noqa: E402

# sha256 of each workload's full op list at the default seed; a change
# here is a change of the benchmark's traffic and needs a new baseline
DIGESTS = {
    "pebble": "dd861421968b36de07af7827222ddac0e353cdb7b03bebfc293db16db8047db9",
    "ring": "7083f78fc602c6f87091cdd64052228b96dee223275843500c9e00c6c3fbe301",
    "oracle": "f15f88797791ee829c7ef8b500c5eef2f9b80863aa008ff6381c22410011993f",
}


@pytest.fixture
def workdir():
    path = os.path.join(ROOT, ".perfbench_work", f"test-{os.getpid()}")
    os.makedirs(path)
    try:
        with harness.cwd(path):
            yield path
    finally:
        shutil.rmtree(path)


def first_round(name, seed=1):
    wl = traffic.WORKLOADS[name]
    return wl, wl.build(seed, 1)


@pytest.mark.parametrize("name", sorted(traffic.WORKLOADS))
def test_traffic_is_frozen_at_the_default_seed(name):
    wl = traffic.WORKLOADS[name]
    assert traffic.digest(wl.build(1, wl.rounds)) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(traffic.WORKLOADS))
def test_another_seed_gives_different_valid_ops(name, workdir):
    wl, ops = first_round(name, seed=2)
    assert traffic.digest(ops) != traffic.digest(first_round(name)[1])
    harness.write_inputs(ops, workdir)
    res = harness.run(ops, wl.round_len, 0)
    assert res.attempted == wl.round_len
    assert res.failures == []


def test_a_corrupted_answer_fails_and_names_its_op(workdir):
    wl, ops = first_round("ring")
    op = ops[0]
    last = op.steps[-1]
    (line,) = last.check[1]
    flipped = "answer=0" if line == "answer=1" else "answer=1"
    bad = dataclasses.replace(last, check=("tail", (flipped,)))
    ops[0] = dataclasses.replace(op, steps=op.steps[:-1] + (bad,))
    harness.write_inputs(ops, workdir)
    res = harness.run(ops, wl.round_len, 0)
    _, notes = harness.end_to_end(res, wl.round_len, wl.tail_level, 0.1)
    assert notes["fail_ratio"] > 0
    assert [name for name, _ in res.failures] == [op.name]
    assert flipped in res.failures[0][1]


def traced_round(name, workdir):
    wl, ops = first_round(name)
    harness.write_inputs(ops, workdir)
    tracer = spans.Tracer()
    res = harness.run(ops, wl.round_len, 0, tracer=tracer)
    assert res.failures == []
    return tracer, res


def test_traced_runs_repeat_their_size_ledger(workdir):
    counts = []
    for _ in range(2):
        tracer, _ = traced_round("ring", workdir)
        counts.append({name: (row["calls"], row["in"], row["out"])
                       for name, row in tracer.totals().items()})
    assert counts[0] == counts[1]
    assert counts[0]["reductions.vlfmm_to_ccv"][0] > 0
    assert counts[0]["circuit.build"][2][spans.GATES] > 0


def test_tracer_restores_the_package(workdir):
    from cckit import cli, circuit, verify

    before = (cli.main, verify.eval, circuit.Circuit.__init__)
    traced_round("ring", workdir)
    assert (cli.main, verify.eval, circuit.Circuit.__init__) == before


def test_spans_nest_under_their_op_and_add_up(workdir):
    tracer, res = traced_round("ring", workdir)
    n = len(tracer.start)
    for i in range(n):
        p = tracer.parent[i]
        if p < 0:
            assert tracer.names[tracer.kind[i]] == "op"
            continue
        assert p < i
        assert tracer.op_id[p] == tracer.op_id[i]
        assert tracer.start[p] <= tracer.start[i] <= tracer.end[i] <= tracer.end[p]
    selfs = tracer.self_times()
    walls = tracer.op_walls()
    assert sorted(walls) == list(range(len(res.traced)))
    per_op = dict.fromkeys(walls, 0.0)
    for i in range(n):
        per_op[tracer.op_id[i]] += selfs[i]
    for op, wall in walls.items():
        assert per_op[op] == pytest.approx(wall, rel=1e-9)

    m = spans.layer_metrics(tracer, res.traced)
    layer_s = sum(v for k, (v, unit) in m.items()
                  if unit == "s" and k not in ("unattributed_s", "op_wall_s"))
    assert layer_s + m["unattributed_s"][0] == pytest.approx(m["op_wall_s"][0], rel=1e-9)
