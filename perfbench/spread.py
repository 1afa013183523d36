"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload ring --seeds 1-10 [--set N] [--seconds S]

Runs the benchmark once per seed, one run at a time, and prints for each
end-to-end metric the median of the runs, their quartiles, and the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.  Per-run results go to
``.perfbench_out/spread-<workload>-<set>.jsonl``, which ``record.py``
reads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    p.add_argument("--set", type=int, default=1, help="number of this set of runs")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = p.parse_args()

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    with open(os.path.join(out_dir, f"spread-{args.workload}-{args.set}.jsonl"), "w") as log:
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                      "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.splitlines()[-1])
            result["seed"] = seed
            log.write(json.dumps(result) + "\n")
            runs.append(result)
            print(f"seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':<12} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(f"{m['name']:<12} {med:10.4g} {q1:10.4g} {q3:10.4g} "
              f"{(q3 - q1) / med:7.3f} {m['bound']:6.2f}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
