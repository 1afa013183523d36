"""The pair-recording script's seed parsing, summary and partial record."""

import importlib.util
import json
import pathlib
import shutil

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)


def run(side, pair, ops, p50):
    metrics = {"ops_per_s": {"value": ops}, "op_p50_ms": {"value": p50}}
    return {"batch": "B", "side": side, "workload": "oracle", "seed": 1, "pair": pair,
            "first": "parent", "last": {"metrics": metrics}}


def test_seed_list_reads_ranges_and_lists():
    assert bench_pair.seed_list(["1"]) == [1]
    assert bench_pair.seed_list(["3-5", "1,9"]) == [3, 4, 5, 1, 9]


def test_summary_counts_wins_in_each_metric_direction():
    runs = [
        run("parent", 1, 50.0, 6.0), run("change", 1, 90.0, 5.0),
        run("change", 2, 40.0, 7.0), run("parent", 2, 60.0, 6.5),
        run("parent", 3, 55.0, 6.2), run("change", 3, 100.0, 4.0),
        run("parent", 4, 52.0, 9.0),  # a pair without its other side is left out
    ]
    rows = bench_pair.summarize(runs, [("ops_per_s", "higher"), ("op_p50_ms", "lower")])
    ops, p50 = rows["oracle (batch B)"]["ops_per_s"], rows["oracle (batch B)"]["op_p50_ms"]
    assert ops["change_wins"] == "2/3" and p50["change_wins"] == "2/3"
    assert ops["per_pair_parent_change"] == [[50.0, 90.0], [60.0, 40.0], [55.0, 100.0]]
    assert ops["parent_q1_median_q3"] == [52.5, 55.0, 57.5]
    assert bench_pair.quartiles([3.0]) == [3.0, 3.0, 3.0]


def record_stubbed(monkeypatch, tmp_path, label, last):
    """Run the script on stubbed trees, with ``last(k, metrics)`` standing
    for the last line of the k-th run, and load the record it writes.  A
    run that raises or answers wrongly stops it at the third run."""
    shutil.copy(TOOL.parents[1] / "BENCHMARK.json", tmp_path)
    names = [m["name"] for m in json.loads((tmp_path / "BENCHMARK.json").read_text())["end_to_end"]]
    monkeypatch.setattr(bench_pair, "ROOT", str(tmp_path))
    monkeypatch.setattr(bench_pair, "extract", lambda rev, into: None)
    monkeypatch.setattr(bench_pair, "short", lambda rev: rev)
    calls = []

    def bench(tree, workload, seed):
        calls.append(tree)
        return last(len(calls), {name: {"value": 1.0 * len(calls)} for name in names})

    monkeypatch.setattr(bench_pair, "bench", bench)
    with pytest.raises(RuntimeError) as raised:
        bench_pair.main(["abc1234", label, "--workload", "oracle", "--what", "w"])
    assert len(calls) == 3
    record = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
    assert [(r["side"], r["pair"]) for r in record["runs"]] == [("parent", 1), ("change", 1)]
    assert record["summary"]["oracle (batch A)"]["ops_per_s"]["per_pair_parent_change"] == [[1.0, 2.0]]
    return str(raised.value), record


def test_a_failed_run_keeps_the_runs_before_it(monkeypatch, tmp_path):
    def last(k, metrics):
        if k == 3:
            raise RuntimeError("run 3 failed")
        return {"correct": True, "metrics": metrics}

    message, record = record_stubbed(monkeypatch, tmp_path, "partial", last)
    assert message == "run 3 failed"
    assert record["parent"] == "abc1234" and list(record["batches"]) == ["A"]


def test_a_run_with_wrong_answers_stops_like_a_failed_one(monkeypatch, tmp_path):
    # perfbench/run.py exits 0 when ops fail, and says so in its last line
    def last(k, metrics):
        return {"correct": k != 3, "failed": 2 if k == 3 else 0, "metrics": metrics}

    message, _ = record_stubbed(monkeypatch, tmp_path, "wrong", last)
    assert message == "the change run of pair 2, seed 1, answered wrongly: 2 op(s) failed"


def test_the_claim_rule_needs_the_gain_above_the_parents_quartile_distance():
    # the recorded pairs of the IR slots change: batch oracle wins 10/10 by a
    # median of 35.1 ops/s, inside the parent's 43.1 quartile distance
    record = json.loads((TOOL.parents[1] / "BENCH_ir_slots.json").read_text())
    summary = bench_pair.summarize(record["runs"], [("ops_per_s", "higher")])
    first, second = summary["oracle (batch oracle)"], summary["oracle (batch oracle-2)"]
    assert first["ops_per_s"]["change_wins"] == second["ops_per_s"]["change_wins"] == "10/10"
    assert (first["ops_per_s"]["median_gain"], first["ops_per_s"]["parent_quartile_distance"]) == (
        35.118, 43.136)
    assert first["ops_per_s"]["claim_rule_met"] is False
    assert second["ops_per_s"]["claim_rule_met"] is True


def test_the_claim_rule_counts_a_gain_in_the_better_direction():
    runs = [run("parent", k, 50.0 + k, 6.0 + k / 10) for k in range(1, 11)]
    runs += [run("change", k, 40.0 + k, 5.0 + k / 10) for k in range(1, 11)]
    rows = bench_pair.summarize(runs, [("ops_per_s", "higher"), ("op_p50_ms", "lower")])["oracle (batch B)"]
    # the change is 10 ops/s slower and 1 ms faster in every pair
    assert (rows["ops_per_s"]["median_gain"], rows["ops_per_s"]["claim_rule_met"]) == (-10.0, False)
    assert (rows["op_p50_ms"]["median_gain"], rows["op_p50_ms"]["parent_quartile_distance"]) == (1.0, 0.45)
    assert rows["op_p50_ms"]["claim_rule_met"] is True
    runs[-1] = run("change", 10, 50.0, 7.5)  # one pair lost: 9/10 still holds
    assert bench_pair.summarize(runs, [("op_p50_ms", "lower")])["oracle (batch B)"]["op_p50_ms"]["claim_rule_met"]
    runs[-2] = run("change", 9, 50.0, 7.5)  # 8/10 does not
    assert not bench_pair.summarize(runs, [("op_p50_ms", "lower")])["oracle (batch B)"]["op_p50_ms"]["claim_rule_met"]
