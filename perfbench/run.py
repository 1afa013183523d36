"""cckit benchmark: one closed-loop client driving ``cckit.cli.main``.

    python3 perfbench/run.py --workload pebble|ring|oracle --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
``src/``.  Set-up times fresh interpreters importing ``cckit.cli``,
generates the seed's ops and their expected answers, and writes the input
files under ``.perfbench_work/``.  The run then sends ops for at least
``--seconds`` seconds (by default BENCHMARK.json's ``run_seconds``),
stopping at the end of a round so that every run measures the same mix,
and checks every answer.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each op
twice, untraced and traced, and reports the per-layer metrics of the
traced copies plus the tracing overhead; its spans are written to
``.perfbench_out/``.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
# set-up samples taken before the run and again after it, so that their
# median spans the run's time as the other metrics do
SETUP_SAMPLES = 10


def setup_samples():
    """Wall times from spawning an interpreter to its having imported
    cckit.cli, after one untimed start that compiles bytecode."""
    code = f"import sys; sys.path.insert(0, {SRC!r}); import cckit.cli, os; os._exit(0)"
    argv = [sys.executable, "-I", "-c", code]
    subprocess.run(argv, check=True, cwd=ROOT)
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return samples


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        run_seconds = json.load(fh)["run_seconds"]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("pebble", "ring", "oracle"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=run_seconds)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cckit", "cli.py")):
        print(f"error: no cckit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import spans
    import traffic

    setup = [] if args.trace else setup_samples()
    wl = traffic.WORKLOADS[args.workload]
    ops = wl.build(args.seed, wl.rounds)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{wl.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        harness.write_inputs(ops, workdir)
        with harness.cwd(workdir):
            if args.trace:
                tracer = spans.Tracer()
                res = harness.run(ops, wl.round_len, args.seconds, tracer=tracer)
            else:
                res = harness.run(ops, wl.round_len, args.seconds)
    finally:
        shutil.rmtree(workdir)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still has its directory there

    for name, reason in res.failures[:20]:
        print(f"FAILED {name}: {reason}")
    if args.trace:
        metrics = spans.layer_metrics(tracer, res.traced)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, f"spans-{wl.name}.tsv.gz"))
        width = max(map(len, metrics))
        for name, (value, unit) in metrics.items():
            print(f"{name:<{width}}  {value:.6g} {unit}")
    else:
        setup += setup_samples()
        metrics, notes = harness.end_to_end(
            res, wl.round_len, wl.tail_level, statistics.median(setup))
        print(
            f"{wl.name} seed {args.seed}: {notes['ops']} ops in {notes['rounds']} rounds, "
            f"{res.elapsed:.2f} s; "
            f"tail is p{notes['tail_level']} with {notes['ops_beyond_tail']} ops beyond; "
            f"fail_ratio {notes['fail_ratio']:g} ({len(res.failures)}/{res.attempted})"
        )
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not res.failures,
        "attempted": res.attempted,
        "failed": len(res.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
