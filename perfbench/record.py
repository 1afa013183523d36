"""Write perfbench/baseline.json: the benchmark's reference record.

    python3 perfbench/record.py [--seed 1]

Takes every set of end-to-end runs that ``spread.py`` leaves in
``.perfbench_out/`` (median, quartiles and spread of each metric, and how
far each median moved from the first set), runs one traced run per
workload at ``--seed``, and
records them with each workload's rationale, sizes and op counts, the
layer -> end-to-end map, nproc and the Python version.  BENCHMARK.json
holds only the keys the benchmark contract allows, so this file carries
the rest.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# which end-to-end metric each layer metric should move, and where
LAYER_MAP = {
    "cli.self_s": "op_p50_ms on oracle and ring",
    "formats.parse_s, formats.parse_bytes, formats.serialize_s, formats.serialize_bytes":
        "ops_per_s and op_tail_ms on pebble (CCV text) and ring (graph text); no change on oracle",
    "circuit.build_s, circuit.build_gates": "ops_per_s on pebble, op_p50_ms on oracle",
    "circuit.eval_s, circuit.eval_gates, circuit.trace_snapshots":
        "op_tail_ms and peak_rss_mb on pebble",
    "circuit.eval_tri_s, circuit.transform_s": "oracle and ring",
    "reachability.layer_s, reachability.reach_to_ccv_s, reachability.gates_out, "
    "reachability.dummy_share": "pebble; no change on ring and oracle",
    "reductions.<pass>_s, reductions.gates_out, reductions.edges_out":
        "ops_per_s on ring, and on oracle through the sm-to-ccv and reduction-ring suites",
    "matching.s, matching.neighbour_scans": "ops_per_s and op_tail_ms on ring",
    "stable_marriage.s, stable_marriage.rounds": "ring and oracle",
    "universal.build_s, universal.gates_out, lipschitz.s, lipschitz.rows, verify.self_s, "
    "verify.cases": "ops_per_s on oracle",
    "unattributed_s": "op time no layer span covers",
}


def last_json(stdout):
    return json.loads(stdout.splitlines()[-1])


def spread_set(log, end_to_end):
    """One set of spread.py runs: for each metric its median, quartiles,
    and the distance between the quartiles as a share of the median."""
    with open(log) as fh:
        runs = [json.loads(line) for line in fh]
    metrics = {}
    for m in end_to_end:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        metrics[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                              "spread": (q3 - q1) / med, "bound": m["bound"]}
    return {
        "log": os.path.basename(log),
        "seeds": [r["seed"] for r in runs],
        "ops_attempted": [r["attempted"] for r in runs],
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import traffic

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": args.seed,
        "run_seconds": bench["run_seconds"],
        "layer_map": LAYER_MAP,
        "workloads": {},
    }
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    for name, wl in traffic.WORKLOADS.items():
        entry = {
            "why": whys[name],
            "sizes": wl.sizes,
            "ops_per_round": wl.round_len,
            "rounds_generated": wl.rounds,
            "tail_percentile": wl.tail_level,
        }
        logs = sorted(glob.glob(os.path.join(ROOT, ".perfbench_out", f"spread-{name}-*.jsonl")))
        entry["end_to_end_sets"] = [spread_set(log, bench["end_to_end"]) for log in logs]
        sets = entry["end_to_end_sets"]
        for later in sets[1:]:
            for m, row in later["metrics"].items():
                row["median_change"] = row["median"] / sets[0]["metrics"][m]["median"] - 1
        cmd = bench["command"] + ["--workload", name, "--seed", str(args.seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "1"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = last_json(done.stdout)
        entry["traced"] = {k: v["value"] for k, v in result["metrics"].items()}
        record["workloads"][name] = entry
        print(f"{name}: traced {int(entry['traced']['trace.ops'])} ops", flush=True)
    with open(os.path.join(HERE, "baseline.json"), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
