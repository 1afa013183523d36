"""The pair-recording script's seed parsing and summary."""

import importlib.util
import pathlib

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
