"""Record before/after pairs of benchmark runs as a BENCH_<LABEL>.json file.

    python3 tools/bench_pair.py PARENT LABEL --workload oracle --seeds 1 \\
        [--pairs 10] --batch claim --note "..." --what "..." [--append]

Extracts ``git archive PARENT`` into a temporary directory outside the
repository (under ``$TMPDIR``); the change side is the working tree of
the repository this script sits in.  For each seed it runs
``perfbench/run.py --workload WL --seed SEED --trace 0`` from both
trees, one run at a time, ``--pairs`` times (ten by default).  Each run
lasts BENCHMARK.json's ``run_seconds``, as the benchmark itself does.
The parent runs first in odd pairs and the change first in even pairs,
counting pairs across seeds.  The last line each run prints is kept.

The file gets ``label``, ``what``, ``parent``, ``host``, ``command``,
``run_seconds``, ``batches`` (batch name -> note), ``summary`` and ``runs``.  For each
workload and batch, ``summary`` gives every end-to-end metric of the
change tree's BENCHMARK.json as the parent's and the change's quartiles
(q1, median, q3), the number of pairs in which the change is strictly
better, and each pair's (parent, change) values.  It also says whether a
claim of a gain in that metric holds: ``median_gain`` is the change's
median minus the parent's, signed so that a gain is positive,
``parent_quartile_distance`` is the parent's q3 minus its q1, and
``claim_rule_met`` is true when the change wins at least 9/10 of the pairs
and ``median_gain`` exceeds ``parent_quartile_distance``.  ``--append`` adds a
batch to an existing file and recomputes its summary.  A run that fails,
or that reports ``correct`` false or a ``failed`` count above 0, stops
the script, and the file is still written with the runs before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(tokens):
    """Seeds from tokens such as ``1``, ``3-5`` or ``1,4``."""
    out = []
    for token in tokens:
        for part in token.split(","):
            lo, _, hi = part.partition("-")
            out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def extract(rev, into):
    """Write the committed files of ``rev`` into a new directory ``into``."""
    tar = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    os.makedirs(into)
    subprocess.run(["tar", "-x", "-C", into], input=tar, check=True)


def short(rev):
    return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", rev],
                          check=True, capture_output=True, text=True).stdout.strip()


def bench(tree, workload, seed):
    """The last line of one benchmark run from ``tree``, as parsed JSON."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, check=True, capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    """[q1, median, q3], with the quartiles taken inclusively."""
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def rounded(values):
    return [round(v, 3) for v in values]


def summarize(runs, metrics):
    """Quartiles, wins, per-pair values and whether a claim of a gain holds,
    per (workload, batch) and metric."""
    groups = {}
    for run in runs:
        key = f"{run['workload']} (batch {run['batch']})"
        pair = groups.setdefault(key, {}).setdefault((run["seed"], run["pair"]), {})
        pair[run["side"]] = run["last"]["metrics"]
    summary = {}
    for key, pairs in groups.items():
        both = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        rows = {}
        for name, better in metrics:
            values = [(p["parent"][name]["value"], p["change"][name]["value"]) for p in both]
            wins = sum(c > p if better == "higher" else c < p for p, c in values)
            parent = quartiles([p for p, _ in values])
            change = quartiles([c for _, c in values])
            gain = distance = 0.0
            if values:
                gain = (change[1] - parent[1]) * (1 if better == "higher" else -1)
                distance = parent[2] - parent[0]
            rows[name] = {
                "better": better,
                "parent_q1_median_q3": rounded(parent),
                "change_q1_median_q3": rounded(change),
                "change_wins": f"{wins}/{len(values)}",
                "median_gain": round(gain, 3),
                "parent_quartile_distance": round(distance, 3),
                "claim_rule_met": bool(values) and 10 * wins >= 9 * len(values) and gain > distance,
                "per_pair_parent_change": [rounded(pair) for pair in values],
            }
        summary[key] = rows
    return summary


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="git revision of the parent side")
    p.add_argument("label", help="the file written is BENCH_<LABEL>.json")
    p.add_argument("--workload", required=True, choices=("pebble", "ring", "oracle"))
    p.add_argument("--seeds", nargs="+", default=["1"])
    p.add_argument("--pairs", type=int, default=10, help="pairs per seed")
    p.add_argument("--batch", default="A", help="name of this set of pairs")
    p.add_argument("--note", default="", help="what this batch is for")
    p.add_argument("--what", default="", help="what the change is (a new file needs it)")
    p.add_argument("--append", action="store_true", help="add this batch to an existing file")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    metrics = [(m["name"], m["better"]) for m in declared["end_to_end"]]
    run_seconds = declared["run_seconds"]
    out = os.path.join(ROOT, f"BENCH_{args.label}.json")
    if args.append:
        with open(out) as fh:
            record = json.load(fh)
        if args.batch in record["batches"]:
            p.error(f"batch {args.batch!r} is already in {out}")
        if record.get("run_seconds") != run_seconds:
            p.error(f"{out} was not recorded at run_seconds {run_seconds:g}")
    elif not args.what:
        p.error("a new file needs --what")
    else:
        record = {
            "label": args.label,
            "what": args.what,
            "parent": short(args.parent),
            "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
            "command": "python3 perfbench/run.py --workload WL --seed SEED --trace 0, "
                       "each side from its own tree, keeping the last line printed",
            "run_seconds": run_seconds,
            "batches": {},
            "summary": {},
            "runs": [],
        }

    scratch = tempfile.mkdtemp(prefix="bench_pair_")
    try:
        trees = {"parent": os.path.join(scratch, "parent"), "change": ROOT}
        extract(args.parent, trees["parent"])
        note = f"{args.workload} seeds {' '.join(args.seeds)}, {args.pairs} pair(s) per seed, "
        note += f"{run_seconds:g} s per run, the side that runs first alternating"
        record["batches"][args.batch] = f"{note}; {args.note}" if args.note else note
        pair = 0
        for seed in seed_list(args.seeds):
            for _ in range(args.pairs):
                pair += 1
                order = ("parent", "change") if pair % 2 else ("change", "parent")
                for side in order:
                    last = bench(trees[side], args.workload, seed)
                    if not last["correct"] or last.get("failed", 0):
                        raise RuntimeError(f"the {side} run of pair {pair}, seed {seed}, "
                                           f"answered wrongly: {last.get('failed')} op(s) failed")
                    record["runs"].append({
                        "batch": args.batch, "side": side, "workload": args.workload,
                        "seed": seed, "pair": pair, "first": order[0], "last": last,
                    })
                    ops = last["metrics"]["ops_per_s"]["value"]
                    print(f"pair {pair} seed {seed} {side}: ops_per_s {ops:.2f}, "
                          f"correct {last['correct']}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch)
        # a failed run keeps the runs recorded before it
        record["summary"] = summarize(record["runs"], metrics)
        with open(out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
