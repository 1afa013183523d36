"""Closed-loop runner: one client sends the next op when the last one ends.

Every op calls ``cckit.cli.main(argv)`` in this process, once per step,
with stdout captured.  An op fails on a wrong answer line, an unexpected
exit code (1 is a correct "no"), or an exception escaping ``main``.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import resource
import statistics
import time
from dataclasses import dataclass, field

from cckit import cli


def check_step(step, rc, out):
    """None if the step's output is right, else what was wrong."""
    if rc != step.rc:
        return f"exit code {rc}, expected {step.rc}"
    kind = step.check[0]
    if kind == "quiet":
        return None if out == "" else f"unexpected output {out[:80]!r}"
    lines = out.splitlines()
    if kind == "tail":
        want = list(step.check[1])
        got = lines[-len(want):]
        for g, w in zip(got, want):
            if g != w:
                return f"read {g!r}, expected {w!r}"
        if len(got) != len(want):
            return f"{len(got)} output lines, expected at least {len(want)}"
        return None
    _, n, blocks, want = step.check
    found = [[]]
    for line in lines:
        if line == "woman-optimal:":
            found.append([])
        elif line != "man-optimal:":
            pair = re.fullmatch(r"m(\d+) w(\d+)", line)
            if pair is None:
                return f"unexpected line {line!r}"
            if int(pair[1]) < n and int(pair[2]) < n:
                found[-1].append(line)
    if len(found) != blocks or any(tuple(f) != want for f in found):
        return f"real-person pairs {found}, expected {list(want)} in {blocks} block(s)"
    return None


def run_op(op):
    """Run every step; returns (seconds, None or the failure reason)."""
    start = time.perf_counter()
    for step in op.steps:
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(list(step.argv))
        except Exception as exc:  # a traceback is a failed op, not a crash of the run
            return time.perf_counter() - start, f"`{' '.join(step.argv)}` raised {exc!r}"
        err = check_step(step, rc, out.getvalue())
        if err:
            return time.perf_counter() - start, f"`{' '.join(step.argv)}`: {err}"
    return time.perf_counter() - start, None


def write_inputs(ops, workdir):
    for op in ops:
        for fname, text in op.files:
            with open(os.path.join(workdir, fname), "w", encoding="utf-8") as fh:
                fh.write(text)


@contextlib.contextmanager
def cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


@dataclass
class Result:
    latencies: list = field(default_factory=list)  # untraced op seconds
    failures: list = field(default_factory=list)  # (op name, reason)
    attempted: int = 0
    elapsed: float = 0.0
    round_marks: list = field(default_factory=list)  # clock at each round start, and at the end
    traced: list = field(default_factory=list)  # (traced wall, untraced wall) pairs


def run(ops, round_len, seconds, tracer=None):
    """Run ops in order, cycling, until ``seconds`` have passed, stopping
    only at a round boundary and never before the first round is done;
    ``seconds=0`` runs exactly one round.

    With a tracer every op runs twice, untraced and traced, alternating
    which goes first, so each traced wall time has an untraced twin.
    """
    res = Result()
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    while True:
        if k % round_len == 0:
            now = time.perf_counter()
            res.round_marks.append(now)
            if k and now >= deadline:
                break
        op = ops[k % len(ops)]
        if tracer is None:
            took, err = run_op(op)
            res.latencies.append(took)
            _tally(res, op, err)
        else:
            order = (False, True) if k % 2 == 0 else (True, False)
            walls = {}
            for traced in order:
                if traced:
                    with tracer.op(k):
                        took, err = run_op(op)
                else:
                    took, err = run_op(op)
                    res.latencies.append(took)
                walls[traced] = took
                _tally(res, op, err)
            res.traced.append((walls[True], walls[False]))
        k += 1
    res.elapsed = time.perf_counter() - start
    return res


def _tally(res, op, err):
    res.attempted += 1
    if err:
        res.failures.append((op.name, err))


def end_to_end(res, round_len, tail_level, setup_s):
    """Throughput is the median over rounds of ops per second of wall
    time, so a stall that hits one round moves it no more than any
    other single round."""
    lat = res.latencies
    n = len(lat)
    tail = statistics.quantiles(lat, n=100, method="inclusive")[tail_level - 1]
    marks = res.round_marks
    per_round = [round_len / (b - a) for a, b in zip(marks, marks[1:])]
    metrics = {
        "ops_per_s": (statistics.median(per_round), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_ratio": ((res.attempted - len(res.failures)) / res.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "fail_ratio": len(res.failures) / res.attempted,
        "tail_level": tail_level,
        "ops": n,
        "rounds": len(per_round),
        "ops_beyond_tail": sum(1 for x in lat if x > tail),
    }
    return metrics, notes
